"""Motion models for tracked objects.

A motion model answers "where is the object's center ``age`` frames after it
was spawned".  The models cover the behaviours seen in the paper's
surveillance settings: vehicles driving through the scene (linear), parked
vehicles (the aggregate-query example of a car next to a stop sign for 10
minutes), pedestrians and fish wandering, and vehicles following a road
polyline (waypoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.spatial.geometry import Point


class MotionModel:
    """Base class; subclasses implement :meth:`position_at`."""

    def position_at(self, age: int) -> Point:
        raise NotImplementedError


@dataclass(frozen=True)
class LinearMotion(MotionModel):
    """Constant-velocity motion from a starting point."""

    start: Point
    velocity: tuple[float, float]  # pixels per frame

    def position_at(self, age: int) -> Point:
        if age < 0:
            raise ValueError(f"age must be non-negative: {age}")
        return Point(
            self.start.x + self.velocity[0] * age,
            self.start.y + self.velocity[1] * age,
        )


@dataclass(frozen=True)
class ParkedMotion(MotionModel):
    """An object that stays (almost) still, with optional tiny jitter.

    Jitter is deterministic (seeded) so that a scene replays identically.
    """

    position: Point
    jitter: float = 0.0
    seed: int = 0

    def position_at(self, age: int) -> Point:
        if age < 0:
            raise ValueError(f"age must be non-negative: {age}")
        if self.jitter <= 0:
            return self.position
        rng = np.random.default_rng(self.seed + age)
        dx, dy = rng.normal(0.0, self.jitter, size=2)
        return Point(self.position.x + float(dx), self.position.y + float(dy))


@dataclass(frozen=True)
class WanderMotion(MotionModel):
    """A smooth wander around an anchor point (pedestrians, fish).

    Each axis is a sinusoid of amplitude ``radius`` whose phase and
    frequency are drawn from the seed, so the trajectory is a deterministic
    function of the seed that stays within ``radius`` of the anchor and
    never teleports between frames.
    """

    anchor: Point
    radius: float
    speed: float = 1.0
    seed: int = 0

    @cached_property
    def _waves(self) -> tuple[float, float, float, float]:
        """The two phases and two frequencies: constants of the seed, drawn once."""
        rng = np.random.default_rng(self.seed)
        phase_x, phase_y = rng.uniform(0, 2 * np.pi, size=2)
        freq_x, freq_y = rng.uniform(0.01, 0.05, size=2) * self.speed
        return phase_x, phase_y, freq_x, freq_y

    def position_at(self, age: int) -> Point:
        if age < 0:
            raise ValueError(f"age must be non-negative: {age}")
        phase_x, phase_y, freq_x, freq_y = self._waves
        dx = self.radius * np.sin(freq_x * age + phase_x)
        dy = self.radius * np.sin(freq_y * age + phase_y)
        return Point(self.anchor.x + float(dx), self.anchor.y + float(dy))


@dataclass(frozen=True)
class WaypointMotion(MotionModel):
    """Piecewise-linear motion along a polyline at constant speed.

    After the final waypoint is reached the object keeps moving along the
    last segment direction (so it eventually exits the frame and is despawned
    by the scene simulator).
    """

    waypoints: tuple[Point, ...]
    speed: float  # pixels per frame

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("waypoint motion requires at least two waypoints")
        if self.speed <= 0:
            raise ValueError(f"speed must be positive: {self.speed}")

    def _segments(self) -> list[tuple[Point, Point, float]]:
        segments = []
        for start, end in zip(self.waypoints, self.waypoints[1:]):
            length = start.distance_to(end)
            segments.append((start, end, length))
        return segments

    def position_at(self, age: int) -> Point:
        if age < 0:
            raise ValueError(f"age must be non-negative: {age}")
        distance = self.speed * age
        segments = self._segments()
        for start, end, length in segments:
            if distance <= length and length > 0:
                t = distance / length
                return Point(
                    start.x + (end.x - start.x) * t,
                    start.y + (end.y - start.y) * t,
                )
            distance -= length
        # Continue along the direction of the final segment.
        start, end, length = segments[-1]
        if length == 0:
            return end
        ux = (end.x - start.x) / length
        uy = (end.y - start.y) / length
        return Point(end.x + ux * distance, end.y + uy * distance)
