"""Spatial predicate algebra for video monitoring queries.

This package provides the geometric primitives (points, boxes, grids) and the
spatial-relation vocabulary (left-of, right-of, above, below, containment in
screen regions) that the paper's queries use, e.g. ``ORDER(vehType1,
vehType2) = RIGHT`` or "bicycle not in bike lane".

The relations are evaluated both on exact bounding boxes (as produced by a
full object detector) and on coarse ``g x g`` grid predictions (as produced by
the CLF filters), which is what makes filter-based pre-evaluation of spatial
constraints possible.
"""

from repro.spatial.geometry import Box, Point, box_iou, union_box
from repro.spatial.grid import Grid, GridMask, component_counts
from repro.spatial.regions import (
    Quadrant,
    Region,
    full_frame_region,
    quadrant_region,
)
from repro.spatial.relations import (
    Direction,
    RelationResult,
    direction_between,
    evaluate_direction,
    evaluate_direction_on_grid,
    grid_masks_satisfy_direction,
    inside_region,
)

__all__ = [
    "Box",
    "Point",
    "box_iou",
    "union_box",
    "Grid",
    "GridMask",
    "component_counts",
    "Quadrant",
    "Region",
    "full_frame_region",
    "quadrant_region",
    "Direction",
    "RelationResult",
    "direction_between",
    "evaluate_direction",
    "evaluate_direction_on_grid",
    "grid_masks_satisfy_direction",
    "inside_region",
]
