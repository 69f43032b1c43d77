"""Tests for object classes, appearance sampling and motion models."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.spatial.geometry import Point
from repro.video.motion import LinearMotion, ParkedMotion, WanderMotion, WaypointMotion
from repro.video.objects import (
    NAMED_COLORS,
    AppearanceModel,
    TrackedObject,
    default_class_registry,
)


def test_registry_contains_expected_classes():
    registry = default_class_registry()
    for name in ("car", "bus", "truck", "person", "fish", "bicycle"):
        assert name in registry
        assert registry[name].name == name
    assert registry["car"].appearance.shape == "rectangle"
    assert registry["person"].appearance.shape == "ellipse"


def test_appearance_validation():
    with pytest.raises(ValueError):
        AppearanceModel(shape="blob", width_range=(5, 10), aspect_ratio_range=(1, 2), color_names=("red",))
    with pytest.raises(ValueError):
        AppearanceModel(shape="ellipse", width_range=(10, 5), aspect_ratio_range=(1, 2), color_names=("red",))
    with pytest.raises(ValueError):
        AppearanceModel(shape="ellipse", width_range=(5, 10), aspect_ratio_range=(1, 2), color_names=("neon",))
    with pytest.raises(ValueError):
        AppearanceModel(
            shape="ellipse",
            width_range=(5, 10),
            aspect_ratio_range=(1, 2),
            color_names=("red", "blue"),
            color_weights=(1.0,),
        )


def test_appearance_sampling_respects_ranges(rng):
    appearance = default_class_registry()["car"].appearance
    for _ in range(50):
        width, height, color = appearance.sample(rng)
        assert appearance.width_range[0] <= width <= appearance.width_range[1]
        assert color in NAMED_COLORS
        ratio = height / width
        assert appearance.aspect_ratio_range[0] <= ratio <= appearance.aspect_ratio_range[1]


#: sha256 of 100 ``sample`` draws per model (``_sample_draws``), taken while
#: ``sample`` still rebuilt its color list and weights on every draw
SAMPLE_DRAWS_DIGEST = "b62f6bca176e0b856382d874ceff7470b769012b7210022105d0dc6052cbd2c8"


def _sample_draws() -> str:
    models = {name: cls.appearance for name, cls in sorted(default_class_registry().items())}
    models["weighted"] = AppearanceModel(
        shape="ellipse",
        width_range=(5, 10),
        aspect_ratio_range=(1, 2),
        color_names=("red", "blue", "white"),
        color_weights=(3.0, 1.0, 0.5),
    )
    sha = hashlib.sha256()
    rng = np.random.default_rng(11)
    for name, appearance in models.items():
        for _ in range(100):
            sha.update(repr((name, appearance.sample(rng))).encode())
    return sha.hexdigest()


def test_appearance_sampling_keeps_its_pinned_draws():
    """The ``(width, height, color)`` draws, and so the rng stream every
    scene spawns from, are unchanged by building the color arrays once."""
    assert _sample_draws() == SAMPLE_DRAWS_DIGEST


def test_linear_motion():
    motion = LinearMotion(start=Point(0, 0), velocity=(2.0, -1.0))
    assert motion.position_at(0) == Point(0, 0)
    assert motion.position_at(10) == Point(20, -10)
    with pytest.raises(ValueError):
        motion.position_at(-1)


def test_parked_motion_is_stationary_and_deterministic():
    motion = ParkedMotion(position=Point(5, 5), jitter=0.5, seed=3)
    assert motion.position_at(7) == motion.position_at(7)
    still = ParkedMotion(position=Point(5, 5), jitter=0.0)
    assert still.position_at(100) == Point(5, 5)


def test_wander_motion_stays_near_anchor():
    motion = WanderMotion(anchor=Point(50, 50), radius=10, seed=1)
    for age in range(0, 200, 10):
        position = motion.position_at(age)
        assert abs(position.x - 50) <= 10 + 1e-9
        assert abs(position.y - 50) <= 10 + 1e-9


#: (seed, speed, radius) -> {age: (x, y)} around anchor (50, 60), taken from
#: the implementation that redrew the seed's phases and frequencies per call
WANDER_PINS = [
    ((0, 1.0, 10.0), {
        0: (42.41795019785888, 69.92281771578361),
        17: (41.28419172410707, 69.53677922455066),
        1000: (50.66824161750068, 57.91398016737364),
    }),
    ((7, 2.5, 33.0), {
        0: (26.65148357026051, 40.13870976184788),
        17: (31.04323316280378, 65.32354246777352),
        1000: (39.68227009179395, 68.13220983781692),
    }),
    ((123456789, 1.0, 10.0), {
        0: (51.73245722556502, 54.467831999197706),
        17: (58.09600910322804, 60.08709196640085),
        1000: (59.92417154344164, 61.47310954865813),
    }),
]


@pytest.mark.parametrize(
    "params,pins", WANDER_PINS, ids=[f"seed{seed}" for (seed, _, _), _ in WANDER_PINS]
)
def test_wander_motion_keeps_its_pinned_positions(params, pins):
    seed, speed, radius = params
    motion = WanderMotion(anchor=Point(50, 60), radius=radius, speed=speed, seed=seed)
    # Latest age first: the drawn constants must not depend on call order.
    for age in sorted(pins, reverse=True) + sorted(pins):
        position = motion.position_at(age)
        assert (position.x, position.y) == pins[age]


def test_waypoint_motion_follows_polyline():
    motion = WaypointMotion(waypoints=(Point(0, 0), Point(10, 0), Point(10, 10)), speed=1.0)
    assert motion.position_at(0) == Point(0, 0)
    assert motion.position_at(10) == Point(10, 0)
    assert motion.position_at(15) == Point(10, 5)
    # Past the last waypoint, keeps going in the final direction.
    beyond = motion.position_at(25)
    assert beyond.x == pytest.approx(10)
    assert beyond.y > 10
    with pytest.raises(ValueError):
        WaypointMotion(waypoints=(Point(0, 0),), speed=1.0)
    with pytest.raises(ValueError):
        WaypointMotion(waypoints=(Point(0, 0), Point(1, 1)), speed=0.0)


def test_tracked_object_lifetime_and_states():
    registry = default_class_registry()
    track = TrackedObject(
        track_id=1,
        object_class=registry["car"],
        width=40,
        height=20,
        color_name="blue",
        spawn_frame=10,
        despawn_frame=20,
        motion=LinearMotion(start=Point(0, 100), velocity=(5, 0)),
    )
    assert not track.alive_at(9)
    assert track.alive_at(10)
    assert not track.alive_at(20)
    assert track.state_at(5) is None
    state = track.state_at(12)
    assert state is not None
    assert state.class_name == "car"
    assert state.color_name == "blue"
    assert state.box.center.x == pytest.approx(10.0)
    assert state.center == state.box.center


@given(st.floats(-50, 50), st.floats(-50, 50), st.integers(0, 100))
def test_linear_motion_is_additive(vx, vy, age):
    motion = LinearMotion(start=Point(1.0, 2.0), velocity=(vx, vy))
    position = motion.position_at(age)
    assert position.x == pytest.approx(1.0 + vx * age)
    assert position.y == pytest.approx(2.0 + vy * age)
