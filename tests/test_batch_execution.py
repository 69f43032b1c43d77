"""Parity tests: batched filter / executor paths vs the sequential paths.

The batched execution engine must be a pure optimisation: identical matched
frames, identical work counters and an identical simulated cost breakdown
(call counts exactly; milliseconds up to float rounding, because a batched
charge accumulates ``n * latency`` in one addition where the sequential path
adds ``latency`` ``n`` times).  Selectivity-aware ordering likewise must not
change which frames survive a conjunctive cascade.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.detection import ReferenceDetector
from repro.filters.base import FilterPrediction, FrameFilter
from repro.query import (
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    measure_cascade_selectivity,
    order_cascade_by_selectivity,
)
from repro.query.planner import CascadeStep, FilterCascade
from repro.spatial.grid import Grid
from repro.video.stream import Frame
from tests.conftest import reference_cascade_walk


@pytest.fixture(scope="module")
def shared_filter_cascade(trained_od_filter, trained_od_cof):
    """A cascade whose CCF and CLF steps share one filter (plus OD-COF)."""
    filters = {"od": trained_od_filter, "od_cof": trained_od_cof}
    query = (
        QueryBuilder("mixed")
        .count("car").at_least(1)
        .count().at_least(1)
        .spatial("car").left_of("person")
        .build()
    )
    # analyze=False: this fixture exercises the raw three-step plan; the
    # analyzer would eliminate the tolerance-swallowed COUNT steps (PL002).
    cascade = QueryPlanner(filters, PlannerConfig(count_tolerance=1, location_dilation=2)).plan(query, analyze=False)
    assert len(cascade) == 3
    assert len(cascade.filters) == 2  # CCF and CLF share the OD filter
    return query, cascade


def _execute(query, cascade, stream, indices, class_names, batch_size=None):
    detector = ReferenceDetector(class_names=class_names, seed=77)
    executor = StreamingQueryExecutor(detector)
    return executor.execute(
        query, stream, cascade, frame_indices=indices, batch_size=batch_size
    )


def _assert_parity(sequential, batched):
    assert batched.matched_frames == sequential.matched_frames
    assert batched.stats.frames_scanned == sequential.stats.frames_scanned
    assert batched.stats.frames_passed_filters == sequential.stats.frames_passed_filters
    assert batched.stats.detector_invocations == sequential.stats.detector_invocations
    assert batched.stats.filter_invocations == sequential.stats.filter_invocations
    sequential_cost = sequential.stats.simulated_cost
    batched_cost = batched.stats.simulated_cost
    assert batched_cost.per_component_calls == sequential_cost.per_component_calls
    assert set(batched_cost.per_component_ms) == set(sequential_cost.per_component_ms)
    for component, milliseconds in sequential_cost.per_component_ms.items():
        # One batched charge of n * latency vs n sequential additions of
        # latency: equal up to float rounding.
        assert batched_cost.per_component_ms[component] == pytest.approx(
            milliseconds, rel=1e-12
        )


@pytest.mark.parametrize("chunk_size", [1, 7, None])
def test_batched_execution_parity_across_chunk_sizes(
    shared_filter_cascade, tiny_jackson, chunk_size
):
    query, cascade = shared_filter_cascade
    indices = list(range(0, 50, 2))
    if chunk_size is None:
        chunk_size = len(indices)  # one chunk spanning the whole scan
    sequential = _execute(query, cascade, tiny_jackson.test, indices, tiny_jackson.class_names)
    batched = _execute(
        query, cascade, tiny_jackson.test, indices, tiny_jackson.class_names,
        batch_size=chunk_size,
    )
    assert sequential.stats.batch_size is None
    assert batched.stats.batch_size == chunk_size
    _assert_parity(sequential, batched)
    # Every chunk size is the same loop, so parity alone would not notice a
    # wrong loop: pin it to the independent per-frame walk as well.
    matched, passed, invocations = reference_cascade_walk(
        query, cascade, tiny_jackson.test, indices,
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=77),
    )
    assert batched.matched_frames == tuple(matched)
    assert batched.stats.frames_passed_filters == len(passed)
    assert batched.stats.filter_invocations == invocations


def test_batched_execution_parity_with_empty_cascade(tiny_jackson):
    query = QueryBuilder("q").count("car").at_least(1).build()
    sequential = _execute(query, FilterCascade(), tiny_jackson.test, range(10), tiny_jackson.class_names)
    batched = _execute(
        query, FilterCascade(), tiny_jackson.test, range(10), tiny_jackson.class_names,
        batch_size=4,
    )
    assert batched.stats.detector_invocations == 10
    _assert_parity(sequential, batched)


def test_batch_size_validation(tiny_jackson):
    query = QueryBuilder("q").count("car").at_least(1).build()
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=1)
    with pytest.raises(ValueError):
        StreamingQueryExecutor(detector).execute(
            query, tiny_jackson.test, batch_size=0
        )


def test_linear_filter_predict_batch_matches_predict(
    trained_od_filter, trained_ic_filter, trained_od_cof, tiny_jackson
):
    frames = [tiny_jackson.test.frame(index) for index in range(12)]
    for frame_filter in (trained_od_filter, trained_ic_filter, trained_od_cof):
        sequential = [frame_filter.predict(frame) for frame in frames]
        batched = frame_filter.predict_batch(frames)
        assert batched.filter_name == frame_filter.name
        assert len(batched) == len(frames)
        for seq, bat in zip(sequential, batched):
            assert bat.frame_index == seq.frame_index
            assert bat.class_counts == seq.class_counts
            for name in seq.class_scores:
                assert bat.class_scores[name] == pytest.approx(
                    seq.class_scores[name], abs=1e-6
                )
            assert set(bat.location_scores) == set(seq.location_scores)
            for name in seq.location_scores:
                np.testing.assert_allclose(
                    bat.location_scores[name], seq.location_scores[name], atol=1e-6
                )
                # Thresholded occupancy decisions are what the cascade sees.
                assert np.array_equal(
                    bat.location_scores[name] >= bat.threshold,
                    seq.location_scores[name] >= seq.threshold,
                )


def test_predict_batch_empty_and_charging(trained_od_filter, tiny_jackson):
    from repro.cost import SimulatedClock

    empty = trained_od_filter.predict_batch([])
    assert len(empty) == 0 and empty.frame_indices == ()

    clock = SimulatedClock()
    trained_od_filter.clock = clock
    try:
        frames = [tiny_jackson.test.frame(index) for index in range(5)]
        trained_od_filter.predict_batch(frames)
    finally:
        trained_od_filter.clock = None
    assert clock.breakdown.per_component_calls[trained_od_filter.name] == 5
    assert clock.breakdown.per_component_ms[trained_od_filter.name] == pytest.approx(
        5 * trained_od_filter.latency_ms
    )


def test_backbone_extract_batch_matches_extract(trained_od_filter, tiny_jackson):
    frames = [tiny_jackson.test.frame(index) for index in range(8)]
    backbone = trained_od_filter.backbone
    reference = np.stack([backbone.extract(frame.image) for frame in frames])
    batched = backbone.extract_batch(np.stack([frame.image for frame in frames]))
    assert batched.shape == reference.shape
    np.testing.assert_allclose(batched, reference, atol=1e-6)


def test_extract_batch_large_pooling_blocks_no_overflow():
    """Regression: int32 block sums of gray^2 overflowed for blocks >= 61,
    silently zeroing intensity_std in the batched path."""
    from repro.detection.backbone import BackboneConfig, FeatureBackbone

    backbone = FeatureBackbone(BackboneConfig(grid_size=8, use_background_model=False))
    image = np.random.default_rng(0).integers(
        0, 256, size=(512, 512, 3), dtype=np.uint8
    )
    single = backbone.extract(image)
    batched = backbone.extract_batch(image[None])[0]
    assert single[..., 3].max() > 0  # intensity_std is non-trivial
    np.testing.assert_allclose(batched, single, atol=1e-6)


# ----------------------------------------------------------------------
# Selectivity-aware cascade ordering
# ----------------------------------------------------------------------
class _StubFilter(FrameFilter):
    """Deterministic filter stub for ordering tests (no pixels involved)."""

    def __init__(self, name: str, latency_ms: float) -> None:
        super().__init__()
        self.name = name
        self.latency_ms = latency_ms
        self._grid = Grid(rows=2, cols=2, frame_width=8, frame_height=8)

    def predict(self, frame: Frame) -> FilterPrediction:
        self._charge()
        return FilterPrediction(
            frame_index=frame.index,
            filter_name=self.name,
            grid=self._grid,
            class_counts={},
            class_scores={},
            location_scores={},
            threshold=0.5,
            latency_ms=self.latency_ms,
        )


class _StubStream:
    def __init__(self, num_frames: int) -> None:
        self._num_frames = num_frames
        self._image = np.zeros((8, 8, 3), dtype=np.uint8)

    def __len__(self) -> int:
        return self._num_frames

    def frame(self, index: int) -> Frame:
        return Frame(index=index, image=self._image, ground_truth=None)


def _stub_step(name, latency_ms, passes_when):
    return CascadeStep(
        name=name,
        frame_filter=_StubFilter(name, latency_ms),
        check=lambda prediction, rule=passes_when: rule(prediction.frame_index),
    )


def test_order_cascade_by_selectivity_prefers_cheap_rejectors():
    cascade = FilterCascade(
        steps=[
            _stub_step("pass-all", 1.0, lambda index: True),
            _stub_step("cheap-selective", 1.0, lambda index: index % 5 == 0),
            _stub_step("pricey-selective", 10.0, lambda index: index % 5 == 0),
            _stub_step("mild", 1.0, lambda index: index % 2 == 0),
        ]
    )
    ordered = order_cascade_by_selectivity(cascade, _StubStream(20), sample_size=20)
    assert [step.name for step in ordered.steps] == [
        "cheap-selective",  # 1.0 ms / 0.8 rejection = 1.25
        "mild",             # 1.0 / 0.5 = 2.0
        "pricey-selective", # 10.0 / 0.8 = 12.5
        "pass-all",         # rejects nothing -> inf, last
    ]
    by_name = {step.name: step for step in ordered.steps}
    assert by_name["cheap-selective"].measured_pass_rate == pytest.approx(0.2)
    assert by_name["mild"].measured_cost_ms == 1.0
    assert math.isinf(by_name["pass-all"].cost_per_rejection)
    # Measurement must not charge the simulated clock.
    for step in cascade.steps:
        assert step.frame_filter.clock is None


def test_measure_cascade_selectivity_on_planned_cascade(
    shared_filter_cascade, tiny_jackson
):
    _, cascade = shared_filter_cascade
    measured = measure_cascade_selectivity(cascade, tiny_jackson.test, sample_size=16)
    assert [step.name for step in measured.steps] == [step.name for step in cascade.steps]
    for step in measured.steps:
        assert 0.0 <= step.measured_pass_rate <= 1.0
        assert step.measured_cost_ms == step.frame_filter.latency_ms


def test_selectivity_ordering_preserves_query_results(
    shared_filter_cascade, tiny_jackson
):
    query, cascade = shared_filter_cascade
    ordered = order_cascade_by_selectivity(cascade, tiny_jackson.test, sample_size=16)
    assert sorted(step.name for step in ordered.steps) == sorted(
        step.name for step in cascade.steps
    )
    indices = list(range(0, 50, 2))
    static = _execute(query, cascade, tiny_jackson.test, indices, tiny_jackson.class_names)
    reordered = _execute(query, ordered, tiny_jackson.test, indices, tiny_jackson.class_names)
    # Conjunctive steps: ordering can change filter work, never the answers.
    assert reordered.matched_frames == static.matched_frames
    assert reordered.stats.detector_invocations == static.stats.detector_invocations
    # And batched execution of the reordered cascade agrees with itself.
    batched = _execute(
        query, ordered, tiny_jackson.test, indices, tiny_jackson.class_names, batch_size=8
    )
    _assert_parity(reordered, batched)


def test_planner_selectivity_ordering_config(
    trained_od_filter, trained_od_cof, tiny_jackson
):
    filters = {"od": trained_od_filter, "od_cof": trained_od_cof}
    query = (
        QueryBuilder("q").count("car").equals(1).count().at_least(1).build()
    )
    config = PlannerConfig(cascade_ordering="selectivity", ordering_sample_size=12)
    planner = QueryPlanner(filters, config)
    with pytest.raises(ValueError):
        planner.plan(query)  # needs a sample stream to measure on
    # analyze=False keeps the dead total-count step so the ordering has two
    # measured steps to rank.
    cascade = planner.plan(query, sample_stream=tiny_jackson.test, analyze=False)
    ranks = [step.cost_per_rejection for step in cascade.steps]
    assert ranks == sorted(ranks)
    for step in cascade.steps:
        assert step.measured_pass_rate is not None
    with pytest.raises(ValueError):
        PlannerConfig(cascade_ordering="alphabetical")
    with pytest.raises(ValueError):
        PlannerConfig(ordering_sample_size=0)
