"""Tests for the temporal-coherence execution layer.

The contract under test: exact-mode temporal execution is bit-identical to
the non-temporal baseline across the plain, windowed, multi-query and live
session paths (every outcome is re-derived and verified, so this holds on
*any* stream, moving or static; the differential harness's temporal configs
in ``tests/test_differential.py`` hold it on every scenario), while the
simulated cost records reused-vs-computed calls; approximate mode reports
its reuse rate; the delta gate and the cost counters behave as specified.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cost import CostBreakdown, SimulatedClock
from repro.detection import ReferenceDetector
from repro.query import (
    DeltaGate,
    ParallelConfig,
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    TemporalConfig,
    delta_score,
    frame_signature,
)
from repro.spatial.geometry import Point
from repro.video.datasets import JACKSON_PROFILE
from repro.video.motion import ParkedMotion
from repro.video.objects import TrackedObject, default_class_registry
from repro.video.renderer import FrameRenderer, RendererConfig
from repro.video.scene import Scene, SceneConfig
from repro.video.stream import VideoStream
from tests.conftest import reference_frame_signature

@pytest.fixture(scope="module")
def low_motion_stream() -> VideoStream:
    """A mostly-static surveillance stream: parked objects plus one event.

    Two cars and a person stay parked for the whole stream; a third car
    appears at frame 20 and leaves at frame 40, so the only pixel changes
    are per-frame sensor noise and the two event boundaries.
    """
    num_frames = 60
    registry = default_class_registry()
    config = SceneConfig(
        frame_width=448,
        frame_height=448,
        num_frames=num_frames,
        mean_count=3.0,
        std_count=0.0,
        count_autocorrelation=0.9,
        class_mix=JACKSON_PROFILE.classes,
        max_count=4,
        seed=17,
    )
    car = registry["car"]
    person = registry["person"]
    tracks = [
        TrackedObject(0, car, 46.0, 24.0, "blue", 0, num_frames, ParkedMotion(Point(120, 200))),
        TrackedObject(1, car, 42.0, 22.0, "white", 0, num_frames, ParkedMotion(Point(310, 260))),
        TrackedObject(2, person, 14.0, 38.0, "red", 0, num_frames, ParkedMotion(Point(220, 390))),
        TrackedObject(3, car, 44.0, 23.0, "black", 20, 40, ParkedMotion(Point(210, 140))),
    ]
    active = [
        [track.track_id for track in tracks if track.alive_at(index)]
        for index in range(num_frames)
    ]
    scene = Scene(config=config, tracks=tracks, active_tracks_per_frame=active)
    renderer = FrameRenderer(RendererConfig(output_size=112, seed=17))
    return VideoStream(scene=scene, renderer=renderer, name="low-motion")


@pytest.fixture(scope="module")
def jackson_planner_filters(trained_od_filter, trained_od_cof):
    return {"od": trained_od_filter, "od_cof": trained_od_cof}


def _executor(class_names, seed=42):
    return StreamingQueryExecutor(ReferenceDetector(class_names=class_names, seed=seed))


# ----------------------------------------------------------------------
# DeltaGate and signatures
# ----------------------------------------------------------------------
def test_frame_signature_shape_and_score(rng):
    image = rng.integers(0, 255, size=(112, 112, 3)).astype(np.uint8)
    signature = frame_signature(image, downsample=8)
    assert signature.shape == (14, 14)
    assert delta_score(signature, signature) == 0.0
    shifted = frame_signature(np.clip(image.astype(int) + 20, 0, 255).astype(np.uint8), 8)
    assert delta_score(signature, shifted) == pytest.approx(20.0, abs=1.0)
    with pytest.raises(ValueError):
        delta_score(signature, signature[:7, :7])


@pytest.mark.parametrize("block", range(1, 17))
@pytest.mark.parametrize("shape", [(112, 112, 3), (90, 70, 3), (112, 112), (45, 61)])
def test_frame_signature_matches_the_float_mean(rng, shape, block):
    """Integer block sums reproduce the float32 ``mean`` bit for bit, for
    blocks that are powers of two or not and divide the frame or not."""
    image = rng.integers(0, 256, size=shape, dtype=np.uint8)
    image[:block, :block] = 255  # a block at the sums' upper bound
    signature = frame_signature(image, block)
    assert signature.dtype == np.float32
    np.testing.assert_array_equal(signature, reference_frame_signature(image, block))


@pytest.mark.parametrize(
    "image, block",
    [
        (np.linspace(0.0, 255.0, 112 * 112 * 3).reshape(112, 112, 3), 8),  # float frame
        (np.arange(300 * 300 * 3, dtype=np.uint32).reshape(300, 300, 3) % 256, 5),
    ],
    ids=["float", "uint32"],
)
def test_frame_signature_fallback_is_the_float_mean(image, block):
    signature = frame_signature(image, block)
    assert signature.dtype == np.float32
    np.testing.assert_array_equal(signature, reference_frame_signature(image, block))


def test_frame_signature_exact_bound_at_block_256(rng):
    """Blocks up to 256 take the integer path, larger ones the float mean."""
    image = rng.integers(0, 256, size=(300, 300, 3), dtype=np.uint8)
    image[:256, :256] = 255
    for block in (255, 256, 257, 300):
        np.testing.assert_array_equal(
            frame_signature(image, block), reference_frame_signature(image, block)
        )


def test_delta_gate_decisions(rng):
    config = TemporalConfig(delta_threshold=5.0, downsample=8, keyframe_interval=2)
    gate = DeltaGate(config)
    image = rng.integers(60, 120, size=(112, 112, 3)).astype(np.uint8)
    # No keyframe yet -> compute.
    assert not gate.decide(image)
    gate.set_keyframe(image, outcome="key")
    # Identical frame -> reuse; streak advances.
    assert gate.decide(image)
    gate.mark_reused()
    assert gate.outcome == "key"
    # A big change -> refresh.
    changed = np.clip(image.astype(int) + 40, 0, 255).astype(np.uint8)
    assert not gate.decide(changed)
    # Keyframe-interval refresh: after 2 reuses the gate refuses the streak.
    assert gate.decide(image)
    gate.mark_reused()
    assert not gate.decide(image)
    # Context changes disable reuse even for identical pixels.
    gate.set_keyframe(image, outcome="key", context=(0, 1))
    assert gate.decide(image, context=(0, 1))
    assert not gate.decide(image, context=(0,))


def test_temporal_config_validation():
    with pytest.raises(ValueError):
        TemporalConfig(delta_threshold=-1.0)
    with pytest.raises(ValueError):
        TemporalConfig(downsample=0)
    with pytest.raises(ValueError):
        TemporalConfig(keyframe_interval=0)
    with pytest.raises(ValueError):
        TemporalConfig(max_stride=0)
    # A NaN threshold would compare false against every score: the gate
    # would silently never reuse.
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="delta_threshold"):
            TemporalConfig(delta_threshold=threshold)
    # Counts must be integral: a float block edge used to fail mid-scan.
    for name in ("downsample", "keyframe_interval", "max_stride"):
        with pytest.raises(TypeError, match=name):
            TemporalConfig(**{name: 8.0})
        assert getattr(TemporalConfig(**{name: np.int64(8)}), name) == 8


# ----------------------------------------------------------------------
# Cost counters
# ----------------------------------------------------------------------
def test_clock_reuse_counters():
    clock = SimulatedClock()
    clock.charge("od_filter", 1.9)
    clock.reuse("od_filter", calls=3)
    clock.reuse("mask_rcnn")
    breakdown = clock.breakdown
    assert breakdown.per_component_reused == {"od_filter": 3, "mask_rcnn": 1}
    assert breakdown.total_reused == 4
    assert breakdown.total_calls == 1
    assert breakdown.reuse_fraction == pytest.approx(4 / 5)
    # Reused calls never charge milliseconds.
    assert breakdown.total_ms == pytest.approx(1.9)
    with pytest.raises(ValueError):
        clock.reuse("od_filter", calls=-1)


def test_reuse_counters_survive_snapshot_delta_and_merge():
    clock = SimulatedClock()
    clock.charge("f", 1.0)
    clock.reuse("f", calls=2)
    snapshot = clock.snapshot()
    clock.reuse("f", calls=5)
    clock.reuse("g")
    delta = clock.delta_since(snapshot)
    assert delta.per_component_reused == {"f": 5, "g": 1}
    merged = snapshot.merged_with(delta)
    assert merged.per_component_reused == {"f": 7, "g": 1}
    assert CostBreakdown().reuse_fraction != CostBreakdown().reuse_fraction  # nan


# ----------------------------------------------------------------------
# Approximate mode and the low-motion stream
# ----------------------------------------------------------------------
def test_approximate_mode_reports_reuse_on_low_motion_stream(
    low_motion_stream, jackson_planner_filters
):
    planner = QueryPlanner(
        jackson_planner_filters, PlannerConfig(count_tolerance=1, location_dilation=1)
    )
    query = QueryBuilder("event").count("car").at_least(3).build()
    cascade = planner.plan(query)
    # The renderer's per-frame object shading flickers block means by up to
    # ~20 levels; the event boundaries jump by ~50.  A threshold of 30
    # treats flicker as stable and the event as change.
    config = TemporalConfig(
        exact=False, delta_threshold=30.0, max_stride=8, keyframe_interval=16
    )
    result = _executor(("car", "person")).execute(
        query, low_motion_stream, cascade, temporal=config
    )
    stats = result.temporal
    assert stats is not None
    assert stats.reuse_rate > 0.5
    assert stats.frames_computed < len(low_motion_stream) / 2
    # Approximate mode never verifies.
    assert stats.verified_frames == 0
    assert stats.reuse_mismatches == 0
    # The avoided work is visible on the cost breakdown.
    assert result.stats.simulated_cost.total_reused > 0
    assert not math.isnan(result.stats.simulated_cost.reuse_fraction)


def test_low_motion_exact_matches_baseline_with_big_savings(
    low_motion_stream, jackson_planner_filters
):
    planner = QueryPlanner(
        jackson_planner_filters, PlannerConfig(count_tolerance=1, location_dilation=1)
    )
    query = QueryBuilder("event").count("car").at_least(3).build()
    cascade = planner.plan(query)
    baseline = _executor(("car", "person")).execute(query, low_motion_stream, cascade)
    temporal = _executor(("car", "person")).execute(
        query,
        low_motion_stream,
        cascade,
        temporal=TemporalConfig(
            exact=True, delta_threshold=30.0, max_stride=8, keyframe_interval=16
        ),
    )
    assert temporal.matched_frames == baseline.matched_frames
    ratio = (
        baseline.stats.simulated_cost.total_ms / temporal.stats.simulated_cost.total_ms
    )
    assert ratio >= 3.0
    # Verification charges nothing: the one filter is charged once per
    # computed frame, and not for any of the verified ones.
    (frame_filter,) = cascade.filters
    assert temporal.temporal.verified_frames > 0
    calls = temporal.stats.simulated_cost.per_component_calls[frame_filter.name]
    assert calls == temporal.temporal.frames_computed


def test_temporal_rejects_batch_size(tiny_jackson, jackson_planner_filters, monkeypatch):
    """Gating is sequential: a chunk size or a filter worker pool is refused
    at the boundary, before anything renders or is charged."""
    planner = QueryPlanner(jackson_planner_filters, PlannerConfig())
    query = QueryBuilder("q").count("car").equals(1).build()
    cascade = planner.plan(query)
    executor = _executor(tiny_jackson.class_names)
    stream = tiny_jackson.test
    rendered: list[int] = []
    monkeypatch.setitem(vars(stream), "frame", rendered.append)
    for sequential_only in ({"batch_size": 8}, {"parallel": ParallelConfig(num_workers=2)}):
        with pytest.raises(ValueError, match="sequential"):
            executor.execute(
                query, stream, cascade, temporal=TemporalConfig(), **sequential_only
            )
        with pytest.raises(ValueError, match="sequential"):
            executor.execute_many(
                [query], stream, [cascade], temporal=TemporalConfig(), **sequential_only
            )
    assert rendered == []
    assert executor.clock.breakdown.total_calls == 0
