"""OD filters: the object-detection family (Section II-B).

The paper branches off the first eight convolution layers of YOLOv2's
Darknet-19 backbone into a small network that predicts per-class counts and a
56x56 per-class occupancy grid (Figure 4), trained end-to-end with the masked
grid loss of equation (3).  A second, count-only branch (Figure 5 / Table I)
is trained exclusively to predict the total number of objects: the
``OD-COF`` filter.

Estimates mirror the IC family: ``OD-CF``, ``OD-CCF``, ``OD-CLF`` from the
main branch and ``OD-COF`` from the count-only branch.  The detection-style
backbone retains full spatial resolution, which is why OD filters localise
markedly better than IC filters (Figures 12–15) while remaining competitive
on counts.  Latencies follow the paper: 1.9 ms per frame for both branches.

Both filters inherit the vectorized
:meth:`~repro.filters.base.FrameFilter.predict_batch` implementation of
their linear-branch base classes, which the batched query executor uses to
amortise numpy call overhead across a chunk of frames.
"""

from __future__ import annotations

from repro.cost import OD_BRANCH_MS, OD_COF_MS
from repro.detection.backbone import FeatureBackbone, detection_backbone
from repro.filters.branch import (
    DEFAULT_GRID_THRESHOLD,
    LinearBranchFilter,
    PooledCountFilter,
)
from repro.filters.heads import CountCalibration, GridScoringHead, PooledCountHead
from repro.spatial.grid import Grid


class ODFilter(LinearBranchFilter):
    """The OD filter: detection-backbone branch providing CF / CCF / CLF."""

    family = "OD"
    name = "od_filter"

    def __init__(
        self,
        grid_head: GridScoringHead,
        count_calibration: CountCalibration,
        grid: Grid,
        backbone: FeatureBackbone | None = None,
        threshold: float = DEFAULT_GRID_THRESHOLD,
        latency_ms: float = OD_BRANCH_MS,
    ) -> None:
        super().__init__(
            backbone=backbone or detection_backbone(grid.rows),
            grid_head=grid_head,
            count_calibration=count_calibration,
            grid=grid,
            threshold=threshold,
            latency_ms=latency_ms,
        )


class ODCountClassifier(PooledCountFilter):
    """The OD-COF filter: a count-only branch over pooled detection features."""

    family = "OD"
    name = "od_cof"

    def __init__(
        self,
        count_head: PooledCountHead,
        grid: Grid,
        backbone: FeatureBackbone | None = None,
        latency_ms: float = OD_COF_MS,
    ) -> None:
        super().__init__(
            backbone=backbone or detection_backbone(grid.rows),
            count_head=count_head,
            grid=grid,
            latency_ms=latency_ms,
        )
