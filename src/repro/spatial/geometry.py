"""Geometric primitives: points and axis-aligned bounding boxes.

Coordinates follow image conventions: ``x`` grows to the right and ``y`` grows
downwards, with the origin at the top-left corner of the frame.  All
coordinates are expressed in pixels (floats are accepted so that sub-pixel
motion accumulates correctly across frames).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Point:
    """A 2-D point in image coordinates (x to the right, y downwards)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy of the point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


@dataclass(frozen=True)
class Box:
    """An axis-aligned bounding box ``[x_min, x_max) x [y_min, y_max)``.

    The box is stored with inclusive minimum and exclusive maximum edges,
    which matches how detector bounding boxes are rasterised onto pixel
    grids.  A box is valid when ``x_max > x_min`` and ``y_max > y_min``.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(
                "degenerate box: "
                f"({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_center(cls, cx: float, cy: float, width: float, height: float) -> "Box":
        """Build a box from its center point and dimensions."""
        if width <= 0 or height <= 0:
            raise ValueError(f"box dimensions must be positive: {width} x {height}")
        return cls(cx - width / 2.0, cy - height / 2.0, cx + width / 2.0, cy + height / 2.0)

    @classmethod
    def from_xywh(cls, x: float, y: float, width: float, height: float) -> "Box":
        """Build a box from its top-left corner and dimensions."""
        if width <= 0 or height <= 0:
            raise ValueError(f"box dimensions must be positive: {width} x {height}")
        return cls(x, y, x + width, y + height)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Return ``(x_min, y_min, x_max, y_max)``."""
        return (self.x_min, self.y_min, self.x_max, self.y_max)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: Point) -> bool:
        """True when ``point`` lies inside the box (min-inclusive, max-exclusive)."""
        return (
            self.x_min <= point.x < self.x_max
            and self.y_min <= point.y < self.y_max
        )

    def contains_box(self, other: "Box") -> bool:
        """True when ``other`` lies entirely within this box."""
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and self.x_max >= other.x_max
            and self.y_max >= other.y_max
        )

    def intersects(self, other: "Box") -> bool:
        """True when the two boxes have a non-empty intersection."""
        return (
            self.x_min < other.x_max
            and other.x_min < self.x_max
            and self.y_min < other.y_max
            and other.y_min < self.y_max
        )

    def intersection(self, other: "Box") -> "Box | None":
        """The intersection box, or ``None`` when the boxes do not overlap."""
        if not self.intersects(other):
            return None
        return Box(
            max(self.x_min, other.x_min),
            max(self.y_min, other.y_min),
            min(self.x_max, other.x_max),
            min(self.y_max, other.y_max),
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def translated(self, dx: float, dy: float) -> "Box":
        """Return a copy shifted by ``(dx, dy)``."""
        return Box(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)

    def scaled(self, sx: float, sy: float | None = None) -> "Box":
        """Return a copy with coordinates multiplied by ``(sx, sy)``.

        Useful for mapping between the frame resolution and the filter grid
        resolution (e.g. 448x448 pixels down to a 56x56 grid).
        """
        if sy is None:
            sy = sx
        if sx <= 0 or sy <= 0:
            raise ValueError(f"scale factors must be positive: {sx}, {sy}")
        return Box(self.x_min * sx, self.y_min * sy, self.x_max * sx, self.y_max * sy)

    def clipped(self, width: float, height: float) -> "Box | None":
        """Clip the box to the frame ``[0, width) x [0, height)``.

        Returns ``None`` when the box lies entirely outside the frame.
        """
        x_min = max(self.x_min, 0.0)
        y_min = max(self.y_min, 0.0)
        x_max = min(self.x_max, float(width))
        y_max = min(self.y_max, float(height))
        if x_max <= x_min or y_max <= y_min:
            return None
        return Box(x_min, y_min, x_max, y_max)


def box_iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes, in ``[0, 1]``."""
    inter = a.intersection(b)
    if inter is None:
        return 0.0
    inter_area = inter.area
    union_area = a.area + b.area - inter_area
    if union_area <= 0:
        return 0.0
    return inter_area / union_area


def union_box(boxes: Sequence[Box] | Iterable[Box]) -> Box:
    """The smallest box enclosing all ``boxes``.

    Raises ``ValueError`` when the sequence is empty.
    """
    boxes = list(boxes)
    if not boxes:
        raise ValueError("union_box requires at least one box")
    return Box(
        min(b.x_min for b in boxes),
        min(b.y_min for b in boxes),
        max(b.x_max for b in boxes),
        max(b.y_max for b in boxes),
    )
