"""Tests for directional relations and regions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.spatial.geometry import Box, Point
from repro.spatial.grid import Grid, GridMask
from repro.spatial.regions import Quadrant, Region, full_frame_region, quadrant_region
from repro.spatial.relations import (
    Direction,
    direction_between,
    evaluate_direction,
    evaluate_direction_on_grid,
    grid_masks_satisfy_direction,
    inside_region,
)


def test_direction_inverse_and_keywords():
    assert Direction.LEFT_OF.inverse is Direction.RIGHT_OF
    assert Direction.ABOVE.inverse is Direction.BELOW
    # ORDER(a, b) = RIGHT means "b is at the right of a" i.e. a LEFT_OF b.
    assert Direction.from_keyword("RIGHT") is Direction.LEFT_OF
    assert Direction.from_keyword("left") is Direction.RIGHT_OF
    assert Direction.from_keyword("Above") is Direction.BELOW
    with pytest.raises(ValueError):
        Direction.from_keyword("diagonal")


def test_evaluate_direction_on_boxes():
    left = Box.from_center(10, 50, 10, 10)
    right = Box.from_center(60, 50, 10, 10)
    assert evaluate_direction(left, right, Direction.LEFT_OF).satisfied
    assert not evaluate_direction(left, right, Direction.RIGHT_OF).satisfied
    assert evaluate_direction(right, left, Direction.RIGHT_OF).satisfied
    above = Box.from_center(50, 10, 10, 10)
    below = Box.from_center(50, 90, 10, 10)
    assert evaluate_direction(above, below, Direction.ABOVE).satisfied
    assert evaluate_direction(below, above, Direction.BELOW).satisfied
    # Margin excludes near-ties.
    assert not evaluate_direction(left, right, Direction.LEFT_OF, margin=100).satisfied
    with pytest.raises(ValueError):
        evaluate_direction(left, right, Direction.LEFT_OF, margin=-1)


def test_direction_between_points():
    directions = direction_between(Point(0, 0), Point(10, 10))
    assert Direction.LEFT_OF in directions
    assert Direction.ABOVE in directions
    assert Direction.RIGHT_OF not in directions


def _mask_with(grid: Grid, cells) -> GridMask:
    values = np.zeros(grid.shape, dtype=bool)
    for r, c in cells:
        values[r, c] = True
    return GridMask(grid=grid, values=values)


def test_grid_direction_checks():
    grid = Grid(rows=10, cols=10, frame_width=100, frame_height=100)
    left_mask = _mask_with(grid, [(5, 1), (5, 2)])
    right_mask = _mask_with(grid, [(5, 8)])
    assert evaluate_direction_on_grid(left_mask, right_mask, Direction.LEFT_OF).satisfied
    assert grid_masks_satisfy_direction(left_mask, right_mask, Direction.LEFT_OF)
    assert not grid_masks_satisfy_direction(left_mask, right_mask, Direction.RIGHT_OF)
    empty = grid.empty_mask()
    assert not evaluate_direction_on_grid(left_mask, empty, Direction.LEFT_OF).satisfied
    assert not grid_masks_satisfy_direction(empty, right_mask, Direction.LEFT_OF)


def test_grid_direction_checks_reject_incompatible_grids():
    """Masks on different grids must raise, not silently compare coordinates."""
    grid = Grid(rows=10, cols=10, frame_width=100, frame_height=100)
    coarse = Grid(rows=5, cols=5, frame_width=100, frame_height=100)
    same_shape_other_frame = Grid(rows=10, cols=10, frame_width=200, frame_height=100)
    mask = _mask_with(grid, [(5, 1)])
    for other_grid in (coarse, same_shape_other_frame):
        other = _mask_with(other_grid, [(1, 4)])
        with pytest.raises(ValueError):
            evaluate_direction_on_grid(mask, other, Direction.LEFT_OF)
        with pytest.raises(ValueError):
            grid_masks_satisfy_direction(mask, other, Direction.LEFT_OF)


@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=0, max_size=8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=0, max_size=8),
    st.sampled_from(list(Direction)),
    st.floats(0.0, 3.0),
)
def test_extremal_direction_check_matches_pairwise_loop(cells_a, cells_b, direction, margin):
    """The extremal-cell check must agree with comparing every cell pair."""
    grid = Grid(rows=8, cols=8, frame_width=96, frame_height=64)
    mask_a = _mask_with(grid, cells_a)
    mask_b = _mask_with(grid, cells_b)
    cell_extent = (
        grid.cell_width
        if direction in (Direction.LEFT_OF, Direction.RIGHT_OF)
        else grid.cell_height
    )
    expected = any(
        evaluate_direction(
            grid.cell_center(ra, ca),
            grid.cell_center(rb, cb),
            direction,
            margin=margin * cell_extent,
        ).satisfied
        for ra, ca in mask_a.occupied_cells()
        for rb, cb in mask_b.occupied_cells()
    )
    assert grid_masks_satisfy_direction(mask_a, mask_b, direction, margin_cells=margin) == expected


def test_quadrants_partition_the_frame():
    regions = [quadrant_region(q, 100, 100) for q in Quadrant]
    assert sum(r.box.area for r in regions) == pytest.approx(100 * 100)
    point = Point(25, 75)
    containing = [r for r in regions if r.contains_point(point)]
    assert len(containing) == 1
    assert containing[0].name == Quadrant.LOWER_LEFT.value
    frame = full_frame_region(100, 100)
    assert frame.contains_point(point)


def test_quadrants_tile_frame_boundary_inclusively():
    """A point exactly on the bottom/right frame edge falls in exactly one quadrant.

    Boxes are max-exclusive, so without the regions' inclusive frame edges a
    detection centered on the frame boundary would fall in *no* quadrant and
    outside the full-frame region.
    """
    width, height = 100, 80
    regions = [quadrant_region(q, width, height) for q in Quadrant]
    frame = full_frame_region(width, height)
    boundary_cases = {
        Point(width, height): Quadrant.LOWER_RIGHT,
        Point(width, 0): Quadrant.UPPER_RIGHT,
        Point(0, height): Quadrant.LOWER_LEFT,
        Point(width, height / 2): Quadrant.LOWER_RIGHT,
        Point(width / 2, height): Quadrant.LOWER_RIGHT,
        Point(0, 0): Quadrant.UPPER_LEFT,
    }
    for point, expected in boundary_cases.items():
        assert frame.contains_point(point), point
        containing = [r for r in regions if r.contains_point(point)]
        assert len(containing) == 1, (point, [r.name for r in containing])
        assert containing[0].name == expected.value
    # Interior edges stay max-exclusive: the midlines belong to the
    # right/lower quadrants only, and points outside the frame stay outside.
    midpoint = Point(width / 2, height / 2)
    assert [r.name for r in regions if r.contains_point(midpoint)] == [
        Quadrant.LOWER_RIGHT.value
    ]
    assert not frame.contains_point(Point(width + 1, height))
    assert not frame.contains_point(Point(-1, 0))


def test_region_containment_modes():
    region = Region("zone", Box(0, 0, 50, 50))
    box = Box(35, 35, 55, 55)
    assert region.contains_box(box, mode="center") is True
    assert region.contains_box(box, mode="full") is False
    assert region.contains_box(box, mode="overlap") is True
    with pytest.raises(ValueError):
        region.contains_box(box, mode="weird")
    assert inside_region(Point(10, 10), region)
    assert not inside_region(Point(90, 90), region)


def test_region_grid_mask():
    grid = Grid(rows=4, cols=4, frame_width=40, frame_height=40)
    region = quadrant_region(Quadrant.UPPER_LEFT, 40, 40)
    mask = region.grid_mask(grid)
    assert mask.count == 4
    assert set(mask.occupied_cells()) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def _loop_grid_mask(region, grid):
    """The original per-cell double loop, kept as the reference semantics."""
    values = grid.empty_mask().values
    for row in range(grid.rows):
        for col in range(grid.cols):
            if region.contains_point(grid.cell_center(row, col)):
                values[row, col] = True
    return values


def test_region_grid_mask_matches_per_cell_loop():
    """The vectorized grid_mask equals the cell-center loop on a 56x56 grid."""
    import numpy as np

    grid = Grid(rows=56, cols=56, frame_width=448, frame_height=448)
    regions = [quadrant_region(q, 448, 448) for q in Quadrant]
    regions.append(full_frame_region(448, 448))
    regions.append(Region("offgrid", Box(13.5, 70.2, 200.0, 448.0)))
    regions.append(Region("sliver", Box(0, 443, 448, 448), inclusive_y_max=True))
    for region in regions:
        vectorized = region.grid_mask(grid).values
        assert np.array_equal(vectorized, _loop_grid_mask(region, grid)), region.name
    # The quadrant masks tile the grid exactly.
    total = sum(region.grid_mask(grid).count for region in regions[:4])
    assert total == 56 * 56


@pytest.mark.parametrize(
    "rows,cols,width,height",
    [(5, 5, 448, 448), (11, 11, 1920, 1080), (7, 9, 100, 100)],
)
def test_region_grid_mask_loop_parity_on_non_dyadic_cells(rows, cols, width, height):
    """Cell sizes that are not exactly representable must not flip boundary cells.

    ``(col + 0.5) * cell_width`` and ``Grid.cell_center``'s
    ``(edge + next_edge) / 2`` differ in the last ulp for these geometries;
    a cell whose center lies exactly on a quadrant midline would land on
    different sides under the two expressions.
    """
    import numpy as np

    grid = Grid(rows=rows, cols=cols, frame_width=width, frame_height=height)
    quadrants = [quadrant_region(q, width, height) for q in Quadrant]
    for region in quadrants:
        vectorized = region.grid_mask(grid).values
        assert np.array_equal(vectorized, _loop_grid_mask(region, grid)), (
            region.name,
            rows,
            width,
        )
    # Quadrants still tile the grid: every cell center in exactly one mask.
    total = np.zeros((rows, cols), dtype=int)
    for region in quadrants:
        total += region.grid_mask(grid).values.astype(int)
    assert np.array_equal(total, np.ones_like(total))


@given(
    st.floats(5, 95), st.floats(5, 95), st.floats(5, 95), st.floats(5, 95)
)
def test_direction_antisymmetry(ax, ay, bx, by):
    a = Point(ax, ay)
    b = Point(bx, by)
    for direction in Direction:
        forward = evaluate_direction(a, b, direction).satisfied
        backward = evaluate_direction(b, a, direction.inverse).satisfied
        assert forward == backward
