"""Filter interface and prediction data model."""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.spatial.grid import Grid, GridMask
from repro.video.stream import Frame


class CountTolerance(enum.IntEnum):
    """Count tolerance bands: exact, within ±1, within ±2 (the ``-1`` / ``-2`` filter variants)."""

    EXACT = 0
    WITHIN_1 = 1
    WITHIN_2 = 2


@dataclass(frozen=True)
class FilterPrediction:
    """Everything a filter estimates about one frame.

    ``class_counts`` holds the (rounded, non-negative) per-class count
    estimates; ``class_scores`` the raw regression outputs before rounding;
    ``location_scores`` maps each class to a ``(g, g)`` float array of
    per-cell occupancy scores which, thresholded, become the class location
    masks the spatial predicates are evaluated on.
    """

    frame_index: int
    filter_name: str
    grid: Grid
    class_counts: Mapping[str, int]
    class_scores: Mapping[str, float]
    location_scores: Mapping[str, np.ndarray]
    threshold: float
    latency_ms: float

    # ------------------------------------------------------------------
    # Counts
    # ------------------------------------------------------------------
    @property
    def total_count(self) -> int:
        return int(sum(self.class_counts.values()))

    def count_of(self, class_name: str) -> int:
        return int(self.class_counts.get(class_name, 0))

    # ------------------------------------------------------------------
    # Locations
    # ------------------------------------------------------------------
    def location_mask(
        self, class_name: str, threshold: float | None = None, dilation: int = 0
    ) -> GridMask:
        """Thresholded (optionally dilated) occupancy mask for ``class_name``."""
        scores = self.location_scores.get(class_name)
        if scores is None:
            return self.grid.empty_mask()
        cutoff = self.threshold if threshold is None else threshold
        mask = GridMask(grid=self.grid, values=np.asarray(scores) >= cutoff)
        if dilation > 0:
            mask = mask.dilated(dilation)
        return mask

    # ------------------------------------------------------------------
    # Predicate helpers used by the query executor
    # ------------------------------------------------------------------
    def count_matches(
        self, class_name: str | None, expected: int, tolerance: CountTolerance
    ) -> bool:
        """Whether the predicted count equals ``expected`` within ``tolerance``.

        ``class_name=None`` refers to the total object count.
        """
        predicted = self.total_count if class_name is None else self.count_of(class_name)
        return abs(predicted - expected) <= int(tolerance)

    def count_at_least(self, class_name: str | None, minimum: int, tolerance: CountTolerance) -> bool:
        """Whether the predicted count is at least ``minimum`` minus the tolerance."""
        predicted = self.total_count if class_name is None else self.count_of(class_name)
        return predicted >= minimum - int(tolerance)


@dataclass(frozen=True)
class BatchPrediction:
    """Per-frame predictions of one filter over a batch of frames.

    The batch is positional: ``predictions[i]`` belongs to the ``i``-th frame
    passed to :meth:`FrameFilter.predict_batch`.  Each element is an ordinary
    :class:`FilterPrediction`, so every per-frame consumer (cascade checks,
    predicate helpers) works unchanged on batch results.
    """

    filter_name: str
    predictions: tuple[FilterPrediction, ...]

    def __len__(self) -> int:
        return len(self.predictions)

    def __iter__(self):
        return iter(self.predictions)

    def __getitem__(self, index: int) -> FilterPrediction:
        return self.predictions[index]

    @property
    def frame_indices(self) -> tuple[int, ...]:
        return tuple(prediction.frame_index for prediction in self.predictions)


class FrameFilter(abc.ABC):
    """A cheap approximate per-frame estimator.

    Filters see only the frame's pixels; the ground truth is reserved for the
    reference detector.  A filter carries its simulated per-frame latency
    (the paper's measured branch cost) but charges nothing: the scan that
    issues a call charges it to its own clock
    (:meth:`~repro.cost.SimulatedClock.charge_calls`), so one filter object
    can serve any number of scans.
    """

    #: filter family name, e.g. ``"IC"`` or ``"OD"``
    family: str = "filter"
    #: component name for cost accounting
    name: str = "filter"
    #: simulated per-frame latency in milliseconds
    latency_ms: float = 0.0
    #: whether predictions carry per-class counts and location grids;
    #: ``False`` for total-count-only filters (OD-COF), whose predictions
    #: only hold the pseudo-class ``"object"``
    class_aware: bool = True

    @property
    def identity(self) -> tuple:
        """Stable hashable key identifying this filter for prediction sharing.

        Two filters with the same identity are promised to produce identical
        predictions for the same frame, so multi-query execution may evaluate
        one of them and reuse the prediction wherever the other appears (see
        :meth:`~repro.query.executor.StreamingQueryExecutor.execute_many`).
        The default is per-instance — distinct instances of the same filter
        class may carry different trained weights, so only the *same object*
        shares by default.  Subclasses that can prove value-equality (e.g.
        filters loaded from the same weights file) may override this with a
        content-derived key.
        """
        return (type(self).__qualname__, self.name, id(self))

    @abc.abstractmethod
    def predict(self, frame: Frame) -> FilterPrediction:
        """Estimate counts and locations for ``frame``."""

    def predict_batch(self, frames: Sequence[Frame]) -> BatchPrediction:
        """Estimate counts and locations for a batch of frames.

        The base implementation falls back to a per-frame loop, so every
        filter supports batching; subclasses override it with vectorized
        implementations.  Batch results must be equivalent to calling
        :meth:`predict` on each frame.  Nothing is charged: a batch of ``n``
        frames is ``n`` calls of :attr:`latency_ms` to whoever issued it.
        """
        return BatchPrediction(
            filter_name=self.name,
            predictions=tuple(self.predict(frame) for frame in frames),
        )
