"""Object classes, appearances and tracked objects.

Every object in a synthetic scene belongs to an :class:`ObjectClass` (car,
truck, bus, person, fish, ...) with a class-specific appearance model: a size
range, an aspect ratio, a shape ("rectangle" for vehicles, "ellipse" for
people/fish) and a palette of plausible colors.  Individual objects draw a
concrete size and color when they are spawned and keep them for their entire
lifetime, which is what allows queries such as "red car" to be meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.spatial.geometry import Box, Point


# Named colors used both by the renderer (RGB values) and by queries
# ("vehColor = red").  Values are uint8 RGB.
NAMED_COLORS: dict[str, tuple[int, int, int]] = {
    "red": (200, 40, 40),
    "blue": (40, 70, 200),
    "green": (40, 160, 60),
    "white": (230, 230, 230),
    "black": (30, 30, 30),
    "silver": (170, 175, 180),
    "yellow": (220, 200, 40),
    "orange": (230, 140, 30),
}


@dataclass(frozen=True)
class AppearanceModel:
    """How objects of a class look on screen."""

    shape: str  # "rectangle" or "ellipse"
    width_range: tuple[float, float]
    aspect_ratio_range: tuple[float, float]  # height / width
    color_names: tuple[str, ...]
    color_weights: tuple[float, ...] | None = None
    #: what :meth:`sample` draws a color from, built once per model
    _colors: np.ndarray = field(init=False, repr=False, compare=False)
    _color_p: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.shape not in ("rectangle", "ellipse"):
            raise ValueError(f"unknown shape: {self.shape!r}")
        if self.width_range[0] <= 0 or self.width_range[1] < self.width_range[0]:
            raise ValueError(f"invalid width range: {self.width_range}")
        if not self.color_names:
            raise ValueError("appearance needs at least one color")
        for name in self.color_names:
            if name not in NAMED_COLORS:
                raise ValueError(f"unknown color name: {name!r}")
        if self.color_weights is not None and len(self.color_weights) != len(
            self.color_names
        ):
            raise ValueError("color_weights length must match color_names")
        object.__setattr__(self, "_colors", np.array(self.color_names))
        weights = None
        if self.color_weights is not None:
            weights = np.asarray(self.color_weights, dtype=float)
            weights = weights / weights.sum()
        object.__setattr__(self, "_color_p", weights)

    def sample(self, rng: np.random.Generator) -> tuple[float, float, str]:
        """Draw ``(width, height, color_name)`` for a new object instance."""
        width = float(rng.uniform(*self.width_range))
        aspect = float(rng.uniform(*self.aspect_ratio_range))
        color = str(rng.choice(self._colors, p=self._color_p))
        return width, width * aspect, color


@dataclass(frozen=True)
class ObjectClass:
    """A detectable object class (car, person, ...)."""

    name: str
    appearance: AppearanceModel
    class_id: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def default_class_registry() -> dict[str, ObjectClass]:
    """The object classes used by the three dataset profiles.

    Appearance parameters are chosen so that classes are visually separable
    (different shapes / palettes / sizes), mirroring the real datasets where
    cars, buses, trucks and people are clearly distinguishable at typical
    surveillance resolutions (an explicit scoping assumption in the paper).
    """
    classes = {
        # Palettes are chosen with limited overlap between classes that share
        # a dataset: the paper's stated scope is surveillance video where
        # object classes are clearly distinguishable at typical resolutions,
        # and our per-cell features are far weaker than a pretrained CNN's,
        # so class identity is carried mainly by color and size.
        "car": ObjectClass(
            name="car",
            class_id=0,
            appearance=AppearanceModel(
                shape="rectangle",
                width_range=(28.0, 52.0),
                aspect_ratio_range=(0.45, 0.65),
                color_names=("blue", "white", "black", "silver"),
                color_weights=(0.3, 0.25, 0.2, 0.25),
            ),
        ),
        "bus": ObjectClass(
            name="bus",
            class_id=1,
            appearance=AppearanceModel(
                shape="rectangle",
                width_range=(75.0, 115.0),
                aspect_ratio_range=(0.35, 0.5),
                color_names=("yellow", "green"),
                color_weights=(0.7, 0.3),
            ),
        ),
        "truck": ObjectClass(
            name="truck",
            class_id=2,
            appearance=AppearanceModel(
                shape="rectangle",
                width_range=(55.0, 90.0),
                aspect_ratio_range=(0.55, 0.85),
                color_names=("orange",),
                color_weights=(1.0,),
            ),
        ),
        "person": ObjectClass(
            name="person",
            class_id=3,
            appearance=AppearanceModel(
                shape="ellipse",
                width_range=(10.0, 18.0),
                aspect_ratio_range=(2.2, 3.0),
                color_names=("red", "green"),
            ),
        ),
        "fish": ObjectClass(
            name="fish",
            class_id=4,
            appearance=AppearanceModel(
                shape="ellipse",
                width_range=(16.0, 34.0),
                aspect_ratio_range=(0.35, 0.55),
                color_names=("orange", "yellow", "silver", "blue"),
            ),
        ),
        "bicycle": ObjectClass(
            name="bicycle",
            class_id=5,
            appearance=AppearanceModel(
                shape="ellipse",
                width_range=(16.0, 26.0),
                aspect_ratio_range=(1.2, 1.8),
                color_names=("red", "black"),
            ),
        ),
    }
    return classes


@dataclass(frozen=True)
class ObjectState:
    """The state of a single object at a single frame: where it is and what it is."""

    track_id: int
    object_class: ObjectClass
    box: Box
    color_name: str
    occluded_fraction: float = 0.0

    @property
    def center(self) -> Point:
        return self.box.center

    @property
    def class_name(self) -> str:
        return self.object_class.name


@dataclass
class TrackedObject:
    """An object with a lifetime, an appearance and a motion model.

    The scene simulator creates tracked objects and asks them for their state
    at each frame between ``spawn_frame`` (inclusive) and ``despawn_frame``
    (exclusive).
    """

    track_id: int
    object_class: ObjectClass
    width: float
    height: float
    color_name: str
    spawn_frame: int
    despawn_frame: int
    motion: "MotionModelProtocol"
    metadata: Mapping[str, object] = field(default_factory=dict)

    def alive_at(self, frame_index: int) -> bool:
        return self.spawn_frame <= frame_index < self.despawn_frame

    def state_at(self, frame_index: int) -> ObjectState | None:
        """The object's state at ``frame_index`` or ``None`` when not alive."""
        if not self.alive_at(frame_index):
            return None
        center = self.motion.position_at(frame_index - self.spawn_frame)
        box = Box.from_center(center.x, center.y, self.width, self.height)
        return ObjectState(
            track_id=self.track_id,
            object_class=self.object_class,
            box=box,
            color_name=self.color_name,
        )

    def visible_at(self, frame_index: int, frame_width: int, frame_height: int) -> bool:
        """Whether the object is alive at ``frame_index`` and overlaps the frame.

        Equal to ``state_at(frame_index)`` being a state whose box
        ``clipped(frame_width, frame_height)`` is not ``None``, by the same
        float arithmetic in the same order (:meth:`Box.from_center`, then
        :meth:`Box.clipped`), without building the state or either box.
        """
        if not self.alive_at(frame_index):
            return False
        center = self.motion.position_at(frame_index - self.spawn_frame)
        x_min = max(center.x - self.width / 2.0, 0.0)
        y_min = max(center.y - self.height / 2.0, 0.0)
        x_max = min(center.x + self.width / 2.0, float(frame_width))
        y_max = min(center.y + self.height / 2.0, float(frame_height))
        return not (x_max <= x_min or y_max <= y_min)


class MotionModelProtocol:
    """Structural protocol for motion models (see :mod:`repro.video.motion`)."""

    def position_at(self, age: int) -> Point:  # pragma: no cover - interface
        raise NotImplementedError
