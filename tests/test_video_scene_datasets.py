"""Tests for scene simulation, dataset profiles and Table II statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.video.datasets import (
    CORAL_PROFILE,
    DETRAC_PROFILE,
    JACKSON_PROFILE,
    build_dataset,
    dataset_profiles,
)
from repro.spatial.geometry import Point
from repro.video.motion import ParkedMotion
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
