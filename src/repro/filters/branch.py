"""Shared implementation of branch filters over frozen backbones.

Both filter families (IC and OD) share the same estimation structure — a
frozen convolutional backbone producing per-cell features, a per-class grid
scoring head, and a count calibration on the summed cell scores.  They differ
only in which backbone they tap (classification-style vs detection-style
features) and in their per-frame latency.  This module hosts the shared
machinery; :mod:`repro.filters.ic` and :mod:`repro.filters.od` configure it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.detection.backbone import FeatureBackbone
from repro.filters.base import BatchPrediction, FilterPrediction, FrameFilter
from repro.filters.heads import (
    CountCalibration,
    GridScoringHead,
    PooledCountHead,
    batch_count_features,
)
from repro.spatial.grid import Grid
from repro.video.stream import Frame

# Grid-occupancy threshold used throughout the paper's experiments.
DEFAULT_GRID_THRESHOLD = 0.2


def _batch_images(frames: Sequence[Frame]) -> list[np.ndarray]:
    """The images of a non-empty batch, checked to share one shape and dtype.

    A batch that mixes frame shapes or image dtypes is rejected here, before
    any feature work, naming the first frame that disagrees with frame 0.
    Stacking mixed dtypes would upcast the whole tile onto the backbone's
    float kernel, which only agrees with the integer one to rounding, so a
    frame's prediction would depend on its neighbours.
    """
    expected = frames[0].image
    for position, frame in enumerate(frames):
        image = frame.image
        for what, value, wanted in (
            ("image shape", image.shape, expected.shape),
            ("image dtype", image.dtype, expected.dtype),
        ):
            if value != wanted:
                raise ValueError(
                    f"frame {position} of the batch (stream index {frame.index}) has "
                    f"{what} {value}, but frame 0 has {wanted}; "
                    f"a batch needs one {what}"
                )
    return [frame.image for frame in frames]


class LinearBranchFilter(FrameFilter):
    """A branch filter: frozen backbone + grid scoring head + count calibration."""

    family = "branch"
    name = "branch_filter"

    def __init__(
        self,
        backbone: FeatureBackbone,
        grid_head: GridScoringHead,
        count_calibration: CountCalibration,
        grid: Grid,
        threshold: float = DEFAULT_GRID_THRESHOLD,
        latency_ms: float = 0.0,
    ) -> None:
        if grid_head.class_names != count_calibration.class_names:
            raise ValueError(
                "grid head and count calibration must agree on the class list"
            )
        if backbone.grid_size != grid.rows or backbone.grid_size != grid.cols:
            raise ValueError(
                f"backbone grid size {backbone.grid_size} does not match grid {grid.shape}"
            )
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1]: {threshold}")
        self.backbone = backbone
        self.grid_head = grid_head
        self.count_calibration = count_calibration
        self.grid = grid
        self.threshold = threshold
        self.latency_ms = latency_ms

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.grid_head.class_names

    def predict(self, frame: Frame) -> FilterPrediction:
        return self.predict_batch([frame])[0]

    def predict_batch(self, frames: Sequence[Frame]) -> BatchPrediction:
        """Vectorized prediction over a batch of frames.

        The backbone runs one cache-sized tile at a time
        (``FeatureBackbone.extract_tiled``), and each tile's grid-head GEMM
        reads its features while they are still in cache, into one score
        buffer for the batch; no batch-sized feature tensor exists.  The
        head then runs once over the whole batch's class-major planes
        (:meth:`GridScoringHead.class_planes`, :func:`batch_count_features`),
        leaving only the count calibration per frame.  :meth:`predict` is
        this method on a batch of one, and every step is per frame, so a
        frame's prediction does not depend on its batch.
        """
        if not frames:
            return BatchPrediction(filter_name=self.name, predictions=())
        images = _batch_images(frames)
        head = self.grid_head
        names = self.class_names
        grid_size = self.backbone.grid_size
        scores = np.empty((len(frames), grid_size, grid_size, len(names)))
        start = 0
        for features in self.backbone.extract_tiled(images):
            stop = start + len(features)
            head.score_batch(features, out=scores[start:stop])
            start = stop
        planes = head.class_planes(scores, self.threshold)
        count_features = batch_count_features(planes, self.threshold)
        predictions = []
        for position, frame in enumerate(frames):
            raw_counts, class_counts = self.count_calibration.estimate(
                dict(zip(names, count_features[position]))
            )
            predictions.append(
                FilterPrediction(
                    frame_index=frame.index,
                    filter_name=self.name,
                    grid=self.grid,
                    class_counts=class_counts,
                    class_scores=raw_counts,
                    location_scores={
                        name: planes[index, position] for index, name in enumerate(names)
                    },
                    threshold=self.threshold,
                    latency_ms=self.latency_ms,
                )
            )
        return BatchPrediction(filter_name=self.name, predictions=tuple(predictions))


class PooledCountFilter(FrameFilter):
    """A count-only filter over globally pooled backbone features (OD-COF)."""

    family = "branch"
    name = "pooled_count_filter"
    class_aware = False

    def __init__(
        self,
        backbone: FeatureBackbone,
        count_head: PooledCountHead,
        grid: Grid,
        latency_ms: float = 0.0,
    ) -> None:
        self.backbone = backbone
        self.count_head = count_head
        self.grid = grid
        self.latency_ms = latency_ms

    def predict(self, frame: Frame) -> FilterPrediction:
        return self.predict_batch([frame])[0]

    @staticmethod
    def _pool(features: np.ndarray) -> np.ndarray:
        """Global mean of ``(N, g, g, F)`` features to ``(N, F)``, as one GEMM
        per frame instead of a strided middle-axis mean (several times
        faster; per-frame so a frame pools the same in any batch)."""
        flat = features.reshape(features.shape[0], -1, features.shape[-1])
        ones = np.full((1, flat.shape[1]), 1.0)
        return (ones @ flat)[:, 0, :] / flat.shape[1]

    def predict_batch(self, frames: Sequence[Frame]) -> BatchPrediction:
        """Vectorized count-only prediction over a batch of frames
        (:meth:`predict` is a batch of one)."""
        if not frames:
            return BatchPrediction(filter_name=self.name, predictions=())
        images = _batch_images(frames)
        pooled = np.concatenate(
            [self._pool(features) for features in self.backbone.extract_tiled(images)]
        )
        predictions = []
        for position, frame in enumerate(frames):
            raw_count = self.count_head.estimate(pooled[position])
            # The COF filter has no notion of classes or locations: it reports a
            # single total-count estimate under the pseudo-class "object".
            class_counts = {"object": int(round(raw_count))}
            class_scores = {"object": raw_count}
            predictions.append(
                FilterPrediction(
                    frame_index=frame.index,
                    filter_name=self.name,
                    grid=self.grid,
                    class_counts=class_counts,
                    class_scores=class_scores,
                    location_scores={},
                    threshold=1.0,
                    latency_ms=self.latency_ms,
                )
            )
        return BatchPrediction(filter_name=self.name, predictions=tuple(predictions))
