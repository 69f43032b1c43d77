"""Grid abstraction used by class-location filters (CLF).

The paper's CLF filters do not predict exact object extents; they predict, on
a ``g x g`` grid overlaid on the frame (``g = 56`` by default), which cells
contain an object of each class.  Spatial constraints are then evaluated over
the occupied cells.  This module provides the mapping between pixel
coordinates / bounding boxes and grid cells, binary grid masks, and the
Manhattan-distance neighbourhoods used by the ``CLF-1`` / ``CLF-2`` tolerance
variants, and the blob counter (:func:`component_counts`) that the count head
and the region checks share.  Both grid operations are plain numpy, so
``import repro`` loads no scipy (DESIGN.md "Process footprint").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.spatial.geometry import Box, Point


@dataclass(frozen=True)
class Grid:
    """A ``rows x cols`` grid overlaid on a ``width x height`` pixel frame."""

    rows: int
    cols: int
    frame_width: int
    frame_height: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"grid dimensions must be positive: {self.rows}x{self.cols}")
        if self.frame_width <= 0 or self.frame_height <= 0:
            raise ValueError(
                "frame dimensions must be positive: "
                f"{self.frame_width}x{self.frame_height}"
            )

    @classmethod
    def square(cls, g: int, frame_size: int) -> "Grid":
        """A ``g x g`` grid over a square ``frame_size x frame_size`` frame."""
        return cls(rows=g, cols=g, frame_width=frame_size, frame_height=frame_size)

    @property
    def cell_width(self) -> float:
        return self.frame_width / self.cols

    @property
    def cell_height(self) -> float:
        return self.frame_height / self.rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    # ------------------------------------------------------------------
    # Pixel <-> cell mapping
    # ------------------------------------------------------------------
    def cell_of_point(self, point: Point) -> tuple[int, int]:
        """The ``(row, col)`` cell containing ``point`` (clamped to the frame)."""
        col = int(point.x / self.cell_width)
        row = int(point.y / self.cell_height)
        row = min(max(row, 0), self.rows - 1)
        col = min(max(col, 0), self.cols - 1)
        return (row, col)

    def cell_box(self, row: int, col: int) -> Box:
        """The pixel-space bounding box of cell ``(row, col)``."""
        self._check_cell(row, col)
        return Box(
            col * self.cell_width,
            row * self.cell_height,
            (col + 1) * self.cell_width,
            (row + 1) * self.cell_height,
        )

    def cell_center(self, row: int, col: int) -> Point:
        """The pixel-space center of cell ``(row, col)``."""
        return self.cell_box(row, col).center

    def cells_overlapping_box(self, box: Box, min_coverage: float = 0.0) -> list[tuple[int, int]]:
        """All cells whose area overlaps ``box``.

        ``min_coverage`` requires the intersection to cover at least that
        fraction of the *cell* area; the default of 0 returns every touched
        cell.  This is the down-scaling used to turn detector bounding boxes
        into ground-truth location grids for filter training.
        """
        clipped = box.clipped(self.frame_width, self.frame_height)
        if clipped is None:
            return []
        col_start = int(clipped.x_min / self.cell_width)
        col_end = min(int(np.ceil(clipped.x_max / self.cell_width)), self.cols)
        row_start = int(clipped.y_min / self.cell_height)
        row_end = min(int(np.ceil(clipped.y_max / self.cell_height)), self.rows)
        cells: list[tuple[int, int]] = []
        for row in range(row_start, row_end):
            for col in range(col_start, col_end):
                if min_coverage <= 0.0:
                    cells.append((row, col))
                    continue
                cell_box = self.cell_box(row, col)
                inter = cell_box.intersection(clipped)
                if inter is not None and inter.area / cell_box.area >= min_coverage:
                    cells.append((row, col))
        return cells

    def mask_from_boxes(self, boxes: Iterable[Box], min_coverage: float = 0.0) -> "GridMask":
        """A binary mask with all cells overlapped by any of ``boxes`` set."""
        mask = np.zeros(self.shape, dtype=bool)
        for box in boxes:
            for row, col in self.cells_overlapping_box(box, min_coverage=min_coverage):
                mask[row, col] = True
        return GridMask(grid=self, values=mask)

    def empty_mask(self) -> "GridMask":
        """An all-false mask on this grid."""
        return GridMask(grid=self, values=np.zeros(self.shape, dtype=bool))

    def _check_cell(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"cell ({row}, {col}) outside grid {self.rows}x{self.cols}")


@dataclass
class GridMask:
    """A boolean occupancy mask over a :class:`Grid`.

    ``values[row, col]`` is ``True`` when the corresponding cell is occupied
    by (a predicted or ground-truth) object of some class.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=bool)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"mask shape {values.shape} does not match grid {self.grid.shape}"
            )
        self.values = values

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.values.any())

    @property
    def count(self) -> int:
        """Number of occupied cells."""
        return int(self.values.sum())

    def occupied_cells(self) -> list[tuple[int, int]]:
        """Row-major list of occupied ``(row, col)`` cells."""
        rows, cols = np.nonzero(self.values)
        return list(zip(rows.tolist(), cols.tolist()))

    def centroid(self) -> Point | None:
        """Pixel-space centroid of the occupied cells, or ``None`` if empty."""
        cells = self.occupied_cells()
        if not cells:
            return None
        xs = [self.grid.cell_center(r, c).x for r, c in cells]
        ys = [self.grid.cell_center(r, c).y for r, c in cells]
        return Point(sum(xs) / len(xs), sum(ys) / len(ys))

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def union(self, other: "GridMask") -> "GridMask":
        self._check_compatible(other)
        return GridMask(grid=self.grid, values=self.values | other.values)

    def intersection(self, other: "GridMask") -> "GridMask":
        self._check_compatible(other)
        return GridMask(grid=self.grid, values=self.values & other.values)

    def difference(self, other: "GridMask") -> "GridMask":
        self._check_compatible(other)
        return GridMask(grid=self.grid, values=self.values & ~other.values)

    def dilated(self, distance: int) -> "GridMask":
        """Mask grown by ``distance`` in Manhattan metric (tolerance matching).

        Each step ORs the mask with its four one-cell shifts, with nothing
        shifted in past the border: a 4-connected binary dilation.  ``distance``
        steps grow each occupied cell into its Manhattan ball of that radius
        (clipped to the grid): the ``CLF-1`` / ``CLF-2`` tolerance metrics
        judge a predicted cell correct when a ground-truth cell of the same
        class lies within Manhattan distance 1 or 2 of it.  An empty mask
        stays empty, so it is only copied.
        """
        grown = self.values.copy()
        for _ in range(distance if self else 0):
            step = grown.copy()
            step[1:] |= grown[:-1]
            step[:-1] |= grown[1:]
            step[:, 1:] |= grown[:, :-1]
            step[:, :-1] |= grown[:, 1:]
            grown = step
        return GridMask(grid=self.grid, values=grown)

    def blob_count(self) -> int:
        """Number of 4-connected blobs of occupied cells."""
        return int(component_counts(self.values[None])[0]) if self else 0

    def _check_compatible(self, other: "GridMask") -> None:
        if self.grid.shape != other.grid.shape:
            raise ValueError(
                f"incompatible grids: {self.grid.shape} vs {other.grid.shape}"
            )


def component_counts(planes: np.ndarray) -> np.ndarray:
    """Number of 4-connected components in each plane of a ``(P, rows, cols)``
    bool stack, as a ``(P,)`` int array.

    The nodes are the row runs (maximal horizontal stretches of set cells),
    not the cells: two runs in adjacent rows of one plane touch exactly when
    their column spans overlap, and those overlaps, found by two
    ``searchsorted`` calls, are the only edges.  Components are then merged
    by min-label hooking over every edge that still joins two roots, each
    round followed by pointer jumping to the roots, until no edge joins two
    roots.  Each component keeps one root, so a plane's count is its number
    of roots.  Labels only decrease, so every round hooks at least one root
    and the loop ends.
    """
    num_planes, rows, cols = planes.shape
    # One empty row after each plane (so no run touches the next plane's
    # first row) and one empty column on each side of every row.
    padded = np.zeros((num_planes, rows + 1, cols + 2), dtype=bool)
    padded[:, :rows, 1:-1] = planes
    flat = padded.reshape(-1, cols + 2)
    # Each row's value changes alternate between a run's start and its end;
    # their flat indices are the keys ``row * width + column``, so both key
    # arrays ascend.
    width = cols + 1
    changes = np.flatnonzero(flat[:, 1:] != flat[:, :-1])
    if not changes.size:
        return np.zeros(num_planes, dtype=np.int64)
    start_key, end_key = changes[0::2], changes[1::2]
    # The runs of the next row that overlap run i: those ending after its
    # start and starting before its end.
    first = np.searchsorted(end_key, start_key + width, side="right")
    last = np.searchsorted(start_key, end_key + width, side="left")
    degree = np.maximum(last - first, 0)
    upper = np.repeat(np.arange(start_key.size), degree)
    offsets = np.arange(upper.size) - np.repeat(np.cumsum(degree) - degree, degree)
    lower = np.repeat(first, degree) + offsets
    labels = np.arange(start_key.size)
    while upper.size:
        a, b = labels[upper], labels[lower]
        apart = a != b
        if not apart.any():
            break
        upper, lower, a, b = upper[apart], lower[apart], a[apart], b[apart]
        # Hook each edge's larger root under its smaller one (what min-hooking
        # in both directions does), then jump every pointer to its root.
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        jumped = labels[labels]
        while (jumped != labels).any():
            labels = jumped
            jumped = labels[labels]
    roots = start_key[labels == np.arange(start_key.size)]
    return np.bincount(roots // (width * (rows + 1)), minlength=num_planes)
