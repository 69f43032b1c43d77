"""Tests for the grid abstraction and grid masks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import ndimage

from repro.spatial.geometry import Box, Point
from repro.spatial.grid import Grid, GridMask, component_counts


@pytest.fixture()
def grid() -> Grid:
    return Grid(rows=8, cols=8, frame_width=80, frame_height=80)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(rows=0, cols=8, frame_width=80, frame_height=80)
    with pytest.raises(ValueError):
        Grid(rows=8, cols=8, frame_width=0, frame_height=80)


def test_cell_of_point_and_cell_box(grid):
    assert grid.cell_of_point(Point(0, 0)) == (0, 0)
    assert grid.cell_of_point(Point(79, 79)) == (7, 7)
    assert grid.cell_of_point(Point(500, -3)) == (0, 7)  # clamped
    cell_box = grid.cell_box(2, 3)
    assert cell_box == Box(30, 20, 40, 30)
    assert grid.cell_center(0, 0) == Point(5, 5)
    with pytest.raises(IndexError):
        grid.cell_box(8, 0)


def test_cells_overlapping_box(grid):
    cells = grid.cells_overlapping_box(Box(5, 5, 25, 15))
    assert (0, 0) in cells and (0, 1) in cells and (0, 2) in cells
    assert (1, 0) in cells
    # min_coverage filters barely-touched cells: cell (0,0) is only 25% covered
    # by the box while cell (0,1) is 50% covered.
    strict = grid.cells_overlapping_box(Box(5, 5, 25, 15), min_coverage=0.4)
    assert (0, 1) in strict
    assert (0, 0) not in strict
    assert grid.cells_overlapping_box(Box(500, 500, 600, 600)) == []


def test_mask_from_boxes_and_set_algebra(grid):
    mask_a = grid.mask_from_boxes([Box(0, 0, 20, 20)])
    mask_b = grid.mask_from_boxes([Box(10, 10, 30, 30)])
    assert mask_a.count == 4 and mask_b.count == 4
    assert mask_a.union(mask_b).count == 7
    assert mask_a.intersection(mask_b).count == 1
    assert mask_a.difference(mask_b).count == 3
    assert bool(grid.empty_mask()) is False
    assert grid.empty_mask().centroid() is None


def test_mask_shape_validation(grid):
    with pytest.raises(ValueError):
        GridMask(grid=grid, values=np.zeros((3, 3), dtype=bool))
    other = Grid(rows=4, cols=4, frame_width=80, frame_height=80)
    with pytest.raises(ValueError):
        grid.empty_mask().union(other.empty_mask())


def test_mask_dilation(grid):
    values = np.zeros((8, 8), dtype=bool)
    values[4, 4] = True
    mask = GridMask(grid=grid, values=values)
    dilated = mask.dilated(1)
    assert dilated.count == 5  # the cell plus its 4 neighbours
    assert mask.dilated(0).count == 1
    corner = np.zeros((8, 8), dtype=bool)
    corner[0, 0] = True
    assert GridMask(grid=grid, values=corner).dilated(1).count == 3


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10), st.integers(0, 2))
def test_dilation_is_monotone(cells, distance):
    grid = Grid(rows=8, cols=8, frame_width=80, frame_height=80)
    values = np.zeros((8, 8), dtype=bool)
    for r, c in cells:
        values[r, c] = True
    mask = GridMask(grid=grid, values=values)
    dilated = mask.dilated(distance)
    # Dilation never removes cells and grows with distance.
    assert np.all(dilated.values[mask.values])
    assert dilated.count >= mask.count
    # The vectorized dilation equals the union of per-cell Manhattan balls.
    rows, cols = np.indices((8, 8))
    reference = np.zeros((8, 8), dtype=bool)
    for r, c in mask.occupied_cells():
        reference |= np.abs(rows - r) + np.abs(cols - c) <= distance
    assert np.array_equal(dilated.values, reference)


# ----------------------------------------------------------------------
# numpy grid morphology against scipy.ndimage (a test-only oracle: the
# library imports no scipy for it)
# ----------------------------------------------------------------------
def _scipy_counts(planes: np.ndarray) -> list[int]:
    """Each plane's 4-connected component count, labelled alone."""
    return [ndimage.label(plane)[1] for plane in planes]


def _serpentine(g: int) -> np.ndarray:
    """One path snaking over every other row, joined at alternate ends."""
    plane = np.zeros((g, g), dtype=bool)
    plane[::2] = True
    plane[1::4, -1] = True
    plane[3::4, 0] = True
    return plane


def _comb(g: int) -> np.ndarray:
    """A spine along the top row with a one-cell tooth down every other column."""
    plane = np.zeros((g, g), dtype=bool)
    plane[0] = True
    plane[:, ::2] = True
    return plane


@pytest.mark.parametrize("occupancy", [0.0, 0.005, 0.05, 0.2, 0.4, 0.5, 0.6, 0.8, 0.95, 1.0])
@pytest.mark.parametrize("shape", [(16, 56, 56), (6, 1, 9), (6, 9, 1), (4, 5, 7), (1, 1, 1)])
def test_component_counts_match_scipy_label_on_random_stacks(occupancy, shape):
    planes = np.random.default_rng(sum(shape) + int(occupancy * 1000)).random(shape) < occupancy
    assert component_counts(planes).tolist() == _scipy_counts(planes)


@pytest.mark.parametrize(
    "plane, expected",
    [
        (np.zeros((56, 56), dtype=bool), 0),
        (np.ones((56, 56), dtype=bool), 1),
        (_serpentine(56), 1),
        (_serpentine(7), 1),
        (_comb(56), 1),
        (_comb(56).T, 1),
        (_comb(56)[1:], 28),  # the teeth without their spine
        (_comb(56).T[:, 1:], 28),
        (np.indices((56, 56)).sum(axis=0) % 2 == 0, 56 * 28),  # checkerboard: no 4-neighbours
    ],
    ids=[
        "empty", "full", "serpentine", "serpentine-odd", "comb", "transposed-comb",
        "teeth", "transposed-teeth", "checkerboard",
    ],
)
def test_component_counts_on_shaped_planes(plane, expected):
    planes = np.stack([plane, ~plane, plane])
    assert component_counts(planes).tolist() == _scipy_counts(planes)
    assert component_counts(planes)[0] == expected
    rows, cols = plane.shape
    grid = Grid(rows=rows, cols=cols, frame_width=448, frame_height=448)
    assert GridMask(grid=grid, values=plane).blob_count() == expected


def test_component_counts_keep_blobs_on_touching_edges_of_adjacent_planes_apart():
    planes = np.zeros((4, 6, 6), dtype=bool)
    planes[0, -1, :] = True  # the last row of plane 0 ...
    planes[1, 0, :] = True  # ... lies just above the first row of plane 1
    planes[1, -1, 2:4] = True
    planes[2, 0, 1:3] = True  # overlapping columns across the plane boundary
    planes[2, :, -1] = True  # touches plane 3's left column in the flat layout
    planes[3, :, 0] = True
    assert component_counts(planes).tolist() == [1, 2, 2, 1] == _scipy_counts(planes)


@pytest.mark.parametrize("distance", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "cells",
    [
        [(0, 0)], [(0, 7)], [(7, 0)], [(7, 7)], [(0, 3), (7, 4)], [(3, 0), (4, 7)],
        [(0, 0), (1, 1), (6, 6), (7, 7)], [],
    ],
)
def test_dilation_matches_scipy_binary_dilation_on_border_cells(grid, cells, distance):
    values = np.zeros((8, 8), dtype=bool)
    for cell in cells:
        values[cell] = True
    expected = (
        ndimage.binary_dilation(
            values, structure=ndimage.generate_binary_structure(2, 1), iterations=distance
        )
        if distance
        else values
    )
    assert np.array_equal(GridMask(grid=grid, values=values).dilated(distance).values, expected)


@pytest.mark.parametrize("occupancy", [0.01, 0.1, 0.5, 0.9])
def test_dilation_matches_scipy_binary_dilation_on_random_masks(occupancy):
    grid = Grid.square(56, 448)
    rng = np.random.default_rng(int(occupancy * 100))
    cross = ndimage.generate_binary_structure(2, 1)
    for _ in range(5):
        values = rng.random((56, 56)) < occupancy
        mask = GridMask(grid=grid, values=values)
        for distance in (1, 2, 3):
            expected = ndimage.binary_dilation(values, structure=cross, iterations=distance)
            assert np.array_equal(mask.dilated(distance).values, expected)
