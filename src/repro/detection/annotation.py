"""Dataset annotation: producing filter training labels with the reference detector.

The paper does not use the datasets' original labels — it annotates every
training frame with Mask R-CNN and trains the filters against those
annotations ("In order to maintain the consistency of our models, we annotate
the three data sets using the Mask R-CNN Detector").  This module reproduces
that pipeline: run the reference detector over a stream, and for every frame
record the per-class counts and the per-class ``g x g`` location grids
obtained by down-scaling the detector's bounding boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.detection.base import Detector, FrameDetections
from repro.spatial.grid import Grid
from repro.video.prefetch import decode_ahead
from repro.video.stream import Frame, VideoStream


@dataclass(frozen=True)
class AnnotatedFrame:
    """Labels of one frame: per-class counts and per-class location grids."""

    frame_index: int
    counts: dict[str, int]
    location_grids: dict[str, np.ndarray]  # class -> (g, g) bool array

    @property
    def total_count(self) -> int:
        return sum(self.counts.values())

    def count_of(self, class_name: str) -> int:
        return self.counts.get(class_name, 0)

    def grid_of(self, class_name: str) -> np.ndarray:
        grids = self.location_grids
        if class_name in grids:
            return grids[class_name]
        # A class that never occurred still has a well-defined (empty) grid.
        any_grid = next(iter(grids.values()), None)
        if any_grid is None:
            raise KeyError(f"no location grids recorded, cannot infer shape for {class_name!r}")
        return np.zeros_like(any_grid)


@dataclass
class AnnotationSet:
    """Annotations for a set of frames of one stream."""

    stream_name: str
    class_names: tuple[str, ...]
    grid: Grid
    frames: list[AnnotatedFrame]

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def counts_matrix(self) -> np.ndarray:
        """``(num_frames, num_classes)`` matrix of per-class counts."""
        matrix = np.zeros((len(self.frames), len(self.class_names)), dtype=float)
        for row, frame in enumerate(self.frames):
            for col, class_name in enumerate(self.class_names):
                matrix[row, col] = frame.count_of(class_name)
        return matrix

    def total_counts(self) -> np.ndarray:
        """``(num_frames,)`` vector of total counts."""
        return np.array([frame.total_count for frame in self.frames], dtype=float)

    def location_tensor(self, class_name: str) -> np.ndarray:
        """``(num_frames, g, g)`` boolean tensor of location grids for one class."""
        return np.stack([frame.grid_of(class_name) for frame in self.frames], axis=0)

    def class_frequencies(self) -> dict[str, float]:
        """Fraction of frames containing each class (the paper's per-class loss weights)."""
        totals = {name: 0 for name in self.class_names}
        for frame in self.frames:
            for name in self.class_names:
                if frame.count_of(name) > 0:
                    totals[name] += 1
        n = max(len(self.frames), 1)
        return {name: totals[name] / n for name in self.class_names}


def annotate_frame(
    detections: FrameDetections, class_names: Sequence[str], grid: Grid
) -> AnnotatedFrame:
    """Turn one frame's detections into count and location labels."""
    counts = {name: detections.count_of(name) for name in class_names}
    grids = {
        name: detections.location_mask(grid, name).values.copy() for name in class_names
    }
    return AnnotatedFrame(
        frame_index=detections.frame_index, counts=counts, location_grids=grids
    )


def annotate_frames(
    frames: Iterable[Frame],
    detector: Detector,
    class_names: Sequence[str],
    grid: Grid,
    stream_name: str,
) -> AnnotationSet:
    """Annotate already-rendered ``frames`` with ``detector``, in the order given."""
    return AnnotationSet(
        stream_name=stream_name,
        class_names=tuple(class_names),
        grid=grid,
        frames=[
            annotate_frame(detector.detect(frame), class_names, grid) for frame in frames
        ],
    )


def annotate_stream(
    stream: VideoStream,
    detector: Detector,
    class_names: Sequence[str],
    grid: Grid,
    frame_indices: Iterable[int] | None = None,
) -> AnnotationSet:
    """Annotate (a subset of) a stream with ``detector``.

    ``frame_indices`` defaults to every frame of the stream; pass a subset to
    annotate sparsely (useful for quick experiments).  More than one frame
    renders ahead on one ``decode-ahead`` thread while the detector runs,
    and the annotating thread renders queued frames rather than wait; the
    labels are those of rendering each frame inline, in the order given.
    """
    indices = list(range(len(stream)) if frame_indices is None else frame_indices)
    threads = 1 if len(indices) > 1 else 0
    with decode_ahead(stream, indices, 1, threads) as render:
        return annotate_frames(
            (render(index) for index in indices), detector, class_names, grid, stream.name
        )
