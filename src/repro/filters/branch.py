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

from repro.cost import SimulatedClock
from repro.detection.backbone import FeatureBackbone
from repro.filters.base import BatchPrediction, FilterPrediction, FrameFilter
from repro.filters.heads import (
    CountCalibration,
    GridScoringHead,
    PooledCountHead,
    count_features,
    suppress_cross_class,
)
from repro.spatial.grid import Grid
from repro.video.stream import Frame

# Grid-occupancy threshold used throughout the paper's experiments.
DEFAULT_GRID_THRESHOLD = 0.2


def _stack_images(frames: Sequence[Frame]) -> np.ndarray:
    """Stack the images of a non-empty batch into ``(N, H, W, 3)``.

    A batch of mixed frame shapes is rejected here, before any feature work,
    naming the first frame that disagrees with frame 0.
    """
    expected = frames[0].image.shape
    for position, frame in enumerate(frames):
        if frame.image.shape != expected:
            raise ValueError(
                f"frame {position} of the batch (stream index {frame.index}) has "
                f"image shape {frame.image.shape}, but frame 0 has {expected}; "
                "a batch needs one frame shape"
            )
    return np.stack([frame.image for frame in frames])


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
        clock: SimulatedClock | None = None,
    ) -> None:
        super().__init__(clock=clock)
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

        The backbone features and grid-head scores of the whole batch are
        computed in stacked numpy operations (the hot path); the cheap
        per-frame count aggregation reuses exactly the per-frame functions.
        :meth:`predict` is this method on a batch of one, and backbone
        features do not depend on how frames are batched (see
        ``FeatureBackbone.extract_batch``).
        """
        if not frames:
            return BatchPrediction(filter_name=self.name, predictions=())
        images = _stack_images(frames)
        self._charge_batch(len(frames))
        features = self.backbone.extract_batch(images)
        stacked_scores = suppress_cross_class(
            self.grid_head.score_batch(features), self.threshold
        )
        predictions = []
        for position, frame in enumerate(frames):
            location_scores = {
                name: scores[position] for name, scores in stacked_scores.items()
            }
            per_class_count_features = {
                name: count_features(scores, self.threshold)
                for name, scores in location_scores.items()
            }
            raw_counts, class_counts = self.count_calibration.estimate(
                per_class_count_features
            )
            predictions.append(
                FilterPrediction(
                    frame_index=frame.index,
                    filter_name=self.name,
                    grid=self.grid,
                    class_counts=class_counts,
                    class_scores=raw_counts,
                    location_scores=location_scores,
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
        clock: SimulatedClock | None = None,
    ) -> None:
        super().__init__(clock=clock)
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
        images = _stack_images(frames)
        self._charge_batch(len(frames))
        pooled = self._pool(self.backbone.extract_batch(images))
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
