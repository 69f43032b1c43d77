"""Tests for scene simulation, dataset profiles and Table II statistics."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.video.datasets import (
    CORAL_PROFILE,
    DETRAC_PROFILE,
    JACKSON_PROFILE,
    build_coral,
    build_dataset,
    build_detrac,
    build_jackson,
    dataset_profiles,
)
from repro.spatial.geometry import Point
from repro.video.motion import LinearMotion, ParkedMotion, WanderMotion
from repro.video.objects import TrackedObject, default_class_registry
from repro.video.scene import Scene, SceneConfig, SceneSimulator
from repro.video.synthesis import ClassMixEntry, DatasetProfile


def test_class_mix_entry_validation():
    with pytest.raises(ValueError):
        ClassMixEntry(class_name="car", frequency=0.0)
    with pytest.raises(ValueError):
        ClassMixEntry(class_name="car", frequency=1.0, motion="teleport")
    with pytest.raises(ValueError):
        ClassMixEntry(class_name="car", frequency=1.0, parked_probability=1.5)


def test_dataset_profile_validation_and_helpers():
    with pytest.raises(ValueError):
        DatasetProfile(
            name="bad", description="", classes=(), mean_objects_per_frame=1, std_objects_per_frame=1
        )
    frequencies = DETRAC_PROFILE.class_frequencies
    assert frequencies["car"] == pytest.approx(0.92)
    assert sum(frequencies.values()) == pytest.approx(1.0)
    assert DETRAC_PROFILE.entry_for("bus").class_name == "bus"
    with pytest.raises(KeyError):
        DETRAC_PROFILE.entry_for("fish")
    scaled = JACKSON_PROFILE.scaled(train_size=10, test_size=5)
    assert scaled.default_train_size == 10
    assert scaled.default_test_size == 5
    assert scaled.mean_objects_per_frame == JACKSON_PROFILE.mean_objects_per_frame


def test_profiles_registry():
    profiles = dataset_profiles()
    assert set(profiles) == {"coral", "jackson", "detrac"}
    assert profiles["coral"] is CORAL_PROFILE


def test_scene_counts_match_target_statistics():
    config = SceneConfig.from_profile(DETRAC_PROFILE, num_frames=250, seed=5)
    scene = SceneSimulator(config).simulate()
    counts = scene.count_series()
    assert counts.shape == (250,)
    assert abs(counts.mean() - DETRAC_PROFILE.mean_objects_per_frame) < 1.5
    assert abs(counts.std() - DETRAC_PROFILE.std_objects_per_frame) < 2.0
    # Ground truth is consistent with the count series.
    for index in (0, 100, 249):
        assert scene.ground_truth(index).count == counts[index]


def test_scene_ground_truth_contents():
    config = SceneConfig.from_profile(JACKSON_PROFILE, num_frames=60, seed=2)
    scene = SceneSimulator(config).simulate()
    truth = scene.ground_truth(30)
    assert truth.frame_width == JACKSON_PROFILE.frame_width
    for state in truth.objects:
        assert state.class_name in JACKSON_PROFILE.class_names
        # Every reported object is at least partly inside the frame.
        assert state.box.clipped(truth.frame_width, truth.frame_height) is not None
    counts = truth.counts_by_class()
    assert sum(counts.values()) == truth.count
    with pytest.raises(IndexError):
        scene.ground_truth(60)


def test_ground_truth_location_masks(tiny_jackson):
    grid = tiny_jackson.grid(28)
    truth = tiny_jackson.train.ground_truth(10)
    masks = truth.location_masks(grid, tiny_jackson.class_names)
    for name, mask in masks.items():
        if truth.count_of(name) > 0:
            assert mask.count > 0
        else:
            assert mask.count == 0


def test_scene_rejects_a_track_with_an_unknown_color_name():
    """A hand-built track skips ``AppearanceModel``'s palette check; the typo
    must fail here, not as a ``KeyError`` inside ``render`` mid-scan."""
    car = default_class_registry()["car"]
    config = SceneConfig(
        frame_width=448, frame_height=448, num_frames=2, mean_count=1.0, std_count=0.0,
        count_autocorrelation=0.9, class_mix=JACKSON_PROFILE.classes[:1], max_count=2,
    )

    def scene_with(color_name):
        parked = ParkedMotion(Point(100, 100))
        tracks = [
            TrackedObject(0, car, 40.0, 20.0, "blue", 0, 2, parked),
            TrackedObject(7, car, 40.0, 20.0, color_name, 0, 2, parked),
        ]
        return Scene(config=config, tracks=tracks, active_tracks_per_frame=[[0, 7], [0, 7]])

    assert scene_with("silver").ground_truth(1).count == 2
    with pytest.raises(ValueError, match=r"track 7 .*'sliver'"):
        scene_with("sliver")


def test_build_dataset_splits_share_camera(tiny_jackson):
    # All three splits share the same static background (same camera).
    train_bg = tiny_jackson.train.renderer._background()
    test_bg = tiny_jackson.test.renderer._background()
    assert train_bg.shape == (112, 112, 3)
    assert np.array_equal(train_bg, test_bg)
    # Scene content differs between splits.
    assert tiny_jackson.train.count_series().sum() != tiny_jackson.test.count_series().sum() or len(
        tiny_jackson.train
    ) != len(tiny_jackson.test)


def test_dataset_summary_shape(tiny_detrac):
    summary = tiny_detrac.summary()
    assert summary["dataset"] == "detrac"
    assert set(summary["classes"]) == {"car", "bus", "truck"}
    assert summary["train_size"] == len(tiny_detrac.train)


#: sha256 over every frame of every split of
#: ``build_<profile>(train_size=64, val_size=16, test_size=480, seed=seed)``
#: (see ``_ground_truth_digest``): long enough that tracks spawn, enter the
#: frame, leave it and are retired, which an 8-frame pixel pin never reaches
GROUND_TRUTH_DIGESTS = {
    ("coral", 1): "2fcc522ee7748a08b16c03c69c3071a8b870387b4b6fe3c07e0e66aff874ecc9",
    ("jackson", 1): "42288400f46b13b36442e98c1fa17ce11f7eb8298fecde26f3a2a56804dfd05a",
    ("detrac", 1): "27918fa9944a0ae912842484f18f81319deedaed6fdc80787480d085ee4efc67",
    ("coral", 7): "a71546507fd501f45306673a9570a22adb162e0511d764a85f31654f01302cde",
    ("jackson", 7): "172994c601d7a694fc35ef2430d02627074e68009a738ac0b3416a1b93b95d9c",
    ("detrac", 7): "67cde70b65d4729fda706fba9ad72711dfef168a6671d22916787ffa53a4092b",
}
BUILDERS = {"coral": build_coral, "jackson": build_jackson, "detrac": build_detrac}


def _ground_truth_digest(dataset) -> str:
    """sha256 of ``(track_id, class_name, box, color_name)`` of every object of every frame."""
    sha = hashlib.sha256()
    for stream in (dataset.train, dataset.validation, dataset.test):
        for index in range(len(stream)):
            objects = tuple(
                (
                    obj.track_id,
                    obj.class_name,
                    (obj.box.x_min, obj.box.y_min, obj.box.x_max, obj.box.y_max),
                    obj.color_name,
                )
                for obj in stream.ground_truth(index).objects
            )
            sha.update(repr((stream.name, index, objects)).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("profile, seed", sorted(GROUND_TRUTH_DIGESTS))
def test_long_scene_ground_truth_is_pinned(profile, seed):
    dataset = BUILDERS[profile](train_size=64, val_size=16, test_size=480, seed=seed)
    assert _ground_truth_digest(dataset) == GROUND_TRUTH_DIGESTS[profile, seed]


def _coordinate(draw, size: float, extent: int) -> float:
    """A box center on one axis: a box edge exactly on a frame edge, a
    sub-pixel inside or outside one, or anywhere around the frame."""
    half = size / 2.0
    return draw(
        st.one_of(
            st.sampled_from(
                [
                    -half,
                    half,
                    extent - half,
                    extent + half,
                    -half + 0.25,
                    -half - 0.25,
                    -half + 1e-9,
                    extent + half - 0.25,
                    extent + half - 1e-9,
                ]
            ),
            st.floats(-2.0 * size, extent + 2.0 * size),
        )
    )


@st.composite
def _track_and_frame(draw):
    frame_width, frame_height = draw(st.integers(1, 640)), draw(st.integers(1, 480))
    # Quarter-pixel sizes keep ``center +- size / 2`` exact, so a box can
    # end exactly on the right or bottom edge, not only on the left or top.
    size = st.one_of(st.integers(1, 480).map(lambda q: q / 4), st.floats(0.5, 120.0))
    width, height = draw(size), draw(size)
    center = Point(_coordinate(draw, width, frame_width), _coordinate(draw, height, frame_height))
    kind = draw(st.sampled_from(["linear", "parked", "wander"]))
    if kind == "linear":
        speed = st.one_of(st.just(0.0), st.floats(-6.0, 6.0))
        motion = LinearMotion(start=center, velocity=(draw(speed), draw(speed)))
    elif kind == "parked":
        motion = ParkedMotion(
            position=center, jitter=draw(st.sampled_from([0.0, 0.3])), seed=draw(st.integers(0, 99))
        )
    else:
        motion = WanderMotion(
            anchor=center, radius=draw(st.floats(0.0, 80.0)), seed=draw(st.integers(0, 99))
        )
    spawn = draw(st.integers(0, 40))
    despawn = spawn + draw(st.integers(1, 60))
    frame = draw(
        st.one_of(
            st.sampled_from([spawn - 1, spawn, despawn - 1, despawn]),
            st.integers(spawn - 3, despawn + 3),
        )
    )
    car = default_class_registry()["car"]
    track = TrackedObject(0, car, width, height, "blue", spawn, despawn, motion)
    return track, frame, frame_width, frame_height


@settings(max_examples=300, deadline=None)
@given(_track_and_frame())
def test_visible_at_matches_the_clipped_state_box(case):
    track, frame, frame_width, frame_height = case
    state = track.state_at(frame)
    expected = state is not None and state.box.clipped(frame_width, frame_height) is not None
    assert track.visible_at(frame, frame_width, frame_height) == expected


def _scene_config(**changes) -> SceneConfig:
    return replace(SceneConfig.from_profile(JACKSON_PROFILE, num_frames=20, seed=4), **changes)


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"class_mix": ()}, "class_mix"),
        ({"num_frames": -3}, "num_frames"),
        ({"max_count": -1}, "max_count"),
        ({"mean_count": float("nan")}, "mean_count"),
        ({"mean_count": -0.5}, "mean_count"),
        ({"std_count": -1.0}, "std_count"),
        ({"std_count": float("inf")}, "std_count"),
        ({"count_autocorrelation": 1.0}, "count_autocorrelation"),
        ({"count_autocorrelation": -1.0}, "count_autocorrelation"),
        ({"count_autocorrelation": float("nan")}, "count_autocorrelation"),
        ({"frame_width": 0}, "frame_width"),
        ({"frame_height": -448}, "frame_height"),
    ],
)
def test_scene_config_rejects_a_bad_field_at_construction(changes, field):
    with pytest.raises(ValueError, match=rf"SceneConfig\..*{field}"):
        _scene_config(**changes)


def test_scene_config_accepts_the_edge_values_the_harnesses_use():
    for changes in ({"std_count": 0.0}, {"count_autocorrelation": 0.999}):
        assert SceneSimulator(_scene_config(**changes)).simulate().num_frames == 20
    assert SceneSimulator(_scene_config(max_count=0)).simulate().count_series().sum() == 0


def test_a_zero_frame_scene_is_empty():
    scene = SceneSimulator(_scene_config(num_frames=0)).simulate()
    assert scene.num_frames == 0
    assert scene.count_series().shape == (0,)
    assert scene.tracks == []
