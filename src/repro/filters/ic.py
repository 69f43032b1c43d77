"""IC filters: the image-classification family (Section II-A).

The paper adopts the first five convolution layers of VGG19 (pre-trained on
ImageNet), adds a global-average-pooling + fully-connected branch producing
per-class counts, and reads per-class *class-activation maps* off the same
branch to localise objects on a 56x56 grid.  Estimates:

* ``IC-CF``  — total object count (sum of the per-class counts);
* ``IC-CCF`` — per-class counts (the branch's output vector);
* ``IC-CLF`` — per-class location grids (thresholded activation maps).

Here the VGG19 trunk is replaced by the classification-style frozen feature
backbone (see DESIGN.md); the branch head is trained on detector annotations
exactly as in the paper.  The per-frame latency charged to the simulated
clock is the paper's measured 1.5 ms.

Both single-frame :meth:`~repro.filters.base.FrameFilter.predict` and the
vectorized :meth:`~repro.filters.base.FrameFilter.predict_batch` (inherited
from :class:`~repro.filters.branch.LinearBranchFilter`) are supported; the
batched path stacks the backbone and head computation across frames and is
what the batched query executor drives.
"""

from __future__ import annotations

from repro.cost import IC_BRANCH_MS
from repro.detection.backbone import FeatureBackbone, classification_backbone
from repro.filters.branch import DEFAULT_GRID_THRESHOLD, LinearBranchFilter
from repro.filters.heads import CountCalibration, GridScoringHead
from repro.spatial.grid import Grid


class ICFilter(LinearBranchFilter):
    """The IC filter: classification-backbone branch providing CF / CCF / CLF."""

    family = "IC"
    name = "ic_filter"

    def __init__(
        self,
        grid_head: GridScoringHead,
        count_calibration: CountCalibration,
        grid: Grid,
        backbone: FeatureBackbone | None = None,
        threshold: float = DEFAULT_GRID_THRESHOLD,
        latency_ms: float = IC_BRANCH_MS,
    ) -> None:
        super().__init__(
            backbone=backbone or classification_backbone(grid.rows),
            grid_head=grid_head,
            count_calibration=count_calibration,
            grid=grid,
            threshold=threshold,
            latency_ms=latency_ms,
        )
