"""Integration tests for predicate evaluation, planning and streaming execution."""

from __future__ import annotations

import threading

import pytest

from repro.aggregates.monitor import AggregateMonitor, AggregateQuerySpec
from repro.aggregates.windows import WindowBounds
from repro.cost import SimulatedClock
from repro.detection import ReferenceDetector
from repro.detection.base import Detection, FrameDetections
from repro.query import (
    ParallelConfig,
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    TemporalConfig,
    brute_force_execute,
    evaluate_predicates_on_detections,
)
from repro.query.evaluation import evaluate_query_on_ground_truth
from repro.query.planner import FilterCascade
from repro.spatial.geometry import Box
from repro.spatial.regions import Quadrant, quadrant_region


def _detections(*specs) -> FrameDetections:
    detections = tuple(
        Detection(class_name=name, box=box, score=0.9, color_name=color)
        for name, box, color in specs
    )
    return FrameDetections(
        frame_index=0, detections=detections, latency_ms=0.0, detector_name="test"
    )


def test_evaluate_predicates_on_detections():
    frame = _detections(
        ("car", Box.from_center(30, 80, 20, 10), "blue"),
        ("bus", Box.from_center(80, 80, 30, 15), "yellow"),
        ("person", Box.from_center(20, 20, 5, 12), "red"),
    )
    satisfied = (
        QueryBuilder("ok")
        .count("car").equals(1)
        .count("bus").at_least(1)
        .spatial("car").left_of("bus")
        .color("person", "red")
        .in_quadrant("person", Quadrant.UPPER_LEFT, 100, 100).at_least(1)
        .build()
    )
    assert evaluate_predicates_on_detections(satisfied, frame)
    violated = QueryBuilder("no").spatial("bus").left_of("car").build()
    assert not evaluate_predicates_on_detections(violated, frame)
    wrong_color = QueryBuilder("no2").color("car", "red").build()
    assert not evaluate_predicates_on_detections(wrong_color, frame)
    not_enough = QueryBuilder("no3").count("person").equals(2).build()
    assert not evaluate_predicates_on_detections(not_enough, frame)


def test_evaluate_query_on_ground_truth(tiny_jackson):
    query = QueryBuilder("any").count().at_least(0).build()
    truth = tiny_jackson.test.ground_truth(0)
    assert evaluate_query_on_ground_truth(query, truth)


def test_planner_builds_expected_cascade(trained_od_filter, trained_ic_filter, trained_od_cof):
    filters = {"od": trained_od_filter, "ic": trained_ic_filter, "od_cof": trained_od_cof}
    query = (
        QueryBuilder("q")
        .count("car").equals(1)
        .count().at_least(2)
        .spatial("car").left_of("person")
        .build()
    )
    cascade = QueryPlanner(filters, PlannerConfig(count_tolerance=1, location_dilation=2)).plan(query)
    names = [step.name for step in cascade]
    assert names == ["OD-CCF-1", "OD-COF-1", "OD-CLF-2"]
    assert len(cascade.filters) == 2  # OD filter shared by CCF and CLF steps
    # IC-preferring configuration uses the IC filter.
    ic_cascade = QueryPlanner(filters, PlannerConfig(family="ic")).plan(query)
    assert ic_cascade.steps[0].name.startswith("IC-")
    # Disabling both filter kinds yields an empty cascade.
    empty = QueryPlanner(filters, PlannerConfig(use_count_filter=False, use_location_filter=False)).plan(query)
    assert len(empty) == 0
    assert empty.describe() == "(empty)"
    with pytest.raises(ValueError):
        QueryPlanner({}, PlannerConfig())
    with pytest.raises(ValueError):
        PlannerConfig(count_tolerance=-1)
    with pytest.raises(ValueError):
        PlannerConfig(family="yolo")


def test_filtered_execution_matches_brute_force(trained_od_filter, trained_ic_filter, trained_od_cof, tiny_jackson):
    filters = {"od": trained_od_filter, "ic": trained_ic_filter, "od_cof": trained_od_cof}
    query = QueryBuilder("cars").count("car").at_least(1).build()
    cascade = QueryPlanner(filters, PlannerConfig(count_tolerance=1)).plan(query)
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=77)
    executor = StreamingQueryExecutor(detector)
    indices = range(0, 50, 2)
    filtered = executor.execute(query, tiny_jackson.test, cascade, frame_indices=indices)
    brute = brute_force_execute(
        query,
        tiny_jackson.test,
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=77),
        frame_indices=indices,
    )
    accuracy = filtered.accuracy_against(brute.matched_frames)
    # Verification uses the same detector, so no false positives are possible.
    assert accuracy["precision"] == 1.0
    assert accuracy["recall"] >= 0.9
    # The cascade never invokes the detector more often than brute force; its
    # own cost adds at most the (tiny) per-frame filter latency.
    assert filtered.stats.detector_invocations <= brute.stats.detector_invocations
    filter_overhead_s = filtered.stats.filter_invocations * trained_od_filter.latency_ms / 1000.0
    assert filtered.stats.simulated_seconds <= brute.stats.simulated_seconds + filter_overhead_s
    assert filtered.speedup_against(brute) >= 0.9
    assert filtered.stats.filter_selectivity <= 1.0
    assert brute.cascade_description == "(empty)"


def test_execution_stats_and_clock_restoration(trained_od_filter, tiny_jackson):
    query = QueryBuilder("q").count("car").at_least(1).build()
    cascade = QueryPlanner({"od": trained_od_filter}, PlannerConfig()).plan(query)
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=1)
    executor = StreamingQueryExecutor(detector)
    result = executor.execute(query, tiny_jackson.test, cascade, frame_indices=range(10))
    assert result.stats.frames_scanned == 10
    assert result.stats.filter_invocations == 10
    assert result.stats.simulated_cost.per_component_calls.get("od_filter") == 10


# Out of range / not integral, each behind entries a scan would get through first.
BAD_FRAME_INDICES = {
    "out-of-range": (list(range(20)) + [99], IndexError, r"frame_indices\[20\] = 99 .*\[0, 50\)"),
    "float": ([0, 1, 2.0], TypeError, r"frame_indices\[2\] = 2.0 is not an integer"),
}


@pytest.fixture()
def no_work_allowed(counted_renders):
    """A shared clock that must stay untouched, with zero renders and no new thread."""
    clock = SimulatedClock()
    clock.charge("earlier-scan", 5.0)
    before = clock.snapshot()
    threads = threading.active_count()
    yield clock
    assert counted_renders == []
    assert clock.snapshot() == before
    assert threading.active_count() == threads


@pytest.mark.parametrize("bad", BAD_FRAME_INDICES)
@pytest.mark.parametrize(
    "options",
    [
        {},
        {"batch_size": 8},
        {"batch_size": 8, "parallel": ParallelConfig(num_workers=2)},
        {"temporal": TemporalConfig(exact=True)},
    ],
    ids=["plain", "batched", "parallel", "temporal"],
)
def test_bad_frame_indices_fail_before_the_scan_starts(
    trained_od_filter, tiny_jackson, no_work_allowed, options, bad
):
    indices, error, message = BAD_FRAME_INDICES[bad]
    query = QueryBuilder("q").count("car").at_least(1).build()
    cascade = QueryPlanner({"od": trained_od_filter}, PlannerConfig()).plan(query)
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=1)
    executor = StreamingQueryExecutor(detector, clock=no_work_allowed)
    with pytest.raises(error, match=message):
        executor.execute(query, tiny_jackson.test, cascade, frame_indices=indices, **options)
    with pytest.raises(error, match=message):
        executor.execute_many(
            [query], tiny_jackson.test, [cascade], frame_indices=indices, **options
        )


@pytest.mark.parametrize("bad", BAD_FRAME_INDICES)
def test_bad_frame_indices_fail_before_the_oracle_or_an_estimate_starts(
    trained_od_filter, tiny_jackson, no_work_allowed, bad
):
    indices, error, message = BAD_FRAME_INDICES[bad]
    query = QueryBuilder("q").count("car").at_least(1).build()
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=1)
    with pytest.raises(error, match=message):
        brute_force_execute(
            query, tiny_jackson.test, detector, frame_indices=indices, clock=no_work_allowed
        )
    spec = AggregateQuerySpec.from_query(query, [lambda prediction: 1.0])
    monitor = AggregateMonitor(detector, trained_od_filter, clock=no_work_allowed)
    with pytest.raises(error, match=message):
        monitor.estimate(spec, tiny_jackson.test, sample_size=4, frame_indices=indices)


def test_window_with_frame_indices_fails_before_an_estimate_starts(
    trained_od_filter, tiny_jackson, no_work_allowed
):
    """Both choose the sampling population; the window is not silently dropped."""
    query = QueryBuilder("q").count("car").at_least(1).build()
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=1)
    spec = AggregateQuerySpec.from_query(query, [lambda prediction: 1.0])
    monitor = AggregateMonitor(detector, trained_od_filter, clock=no_work_allowed)
    with pytest.raises(ValueError, match="window or frame_indices, not both"):
        monitor.estimate(
            spec, tiny_jackson.test, sample_size=20,
            window=WindowBounds(0, 20), frame_indices=range(20),
        )


def test_execution_stats_empty_semantics():
    """0/0 corner cases must not pretend to be meaningful measurements."""
    import math

    from repro.cost import CostBreakdown
    from repro.query import ExecutionStats, QueryExecutionResult

    def result_with(frames_scanned=0, frames_passed=0):
        stats = ExecutionStats(
            frames_scanned=frames_scanned,
            frames_passed_filters=frames_passed,
            detector_invocations=0,
            filter_invocations=0,
            simulated_cost=CostBreakdown(),
            wall_clock_seconds=0.0,
        )
        return QueryExecutionResult(
            query_name="q", cascade_description="(empty)", matched_frames=(), stats=stats
        )

    empty = result_with()
    # An empty scan has no survival fraction; 0.0 would read "perfectly
    # selective".
    assert math.isnan(empty.stats.filter_selectivity)
    assert result_with(frames_scanned=4, frames_passed=2).stats.filter_selectivity == 0.5
    # Two zero-cost executions are equally fast, not infinitely faster.
    assert empty.speedup_against(result_with()) == 1.0
    # A zero-cost execution against a real one is still infinitely faster.
    other = result_with()
    other.stats.simulated_cost.per_component_ms["mask_rcnn"] = 200.0
    other.stats.simulated_cost.per_component_calls["mask_rcnn"] = 1
    assert empty.speedup_against(other) == float("inf")
    # ...and the real one is 0x "faster" than the free one.
    assert other.speedup_against(empty) == 0.0


def test_empty_cascade_runs_detector_on_every_frame(tiny_jackson):
    query = QueryBuilder("q").count().at_least(0).build()
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=1)
    executor = StreamingQueryExecutor(detector)
    result = executor.execute(query, tiny_jackson.test, FilterCascade(), frame_indices=range(5))
    assert result.stats.detector_invocations == 5
    assert result.num_matches == 5


def test_count_checks_handle_strict_comparisons():
    from repro.query import ComparisonOperator
    from repro.query.planner import _comparison_possible

    # "> value" may hold whenever ">= value + 1" may, widened by the slack.
    assert _comparison_possible(ComparisonOperator.GREATER, 2, 2, 1)
    assert not _comparison_possible(ComparisonOperator.GREATER, 1, 2, 1)
    assert not _comparison_possible(ComparisonOperator.GREATER, 2, 2, 0)
    assert _comparison_possible(ComparisonOperator.LESS, 2, 2, 1)
    assert not _comparison_possible(ComparisonOperator.LESS, 3, 2, 1)
    assert not _comparison_possible(ComparisonOperator.LESS, 2, 2, 0)


def test_strict_count_query_plans_and_executes(trained_od_filter, tiny_jackson):
    query = QueryBuilder("strict").count("car").greater_than(0).build()
    cascade = QueryPlanner(
        {"od": trained_od_filter}, PlannerConfig(count_tolerance=1)
    ).plan(query)
    assert len(cascade) == 1
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=77)
    filtered = StreamingQueryExecutor(detector).execute(query, tiny_jackson.test, cascade)
    brute = brute_force_execute(
        query,
        tiny_jackson.test,
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=77),
    )
    # Verification is exact, so the filtered answer never over-reports.
    assert set(filtered.matched_frames) <= set(brute.matched_frames)
    # "> 0" and ">= 1" are the same question; the exact answers agree.
    at_least = QueryBuilder("relaxed").count("car").at_least(1).build()
    relaxed = brute_force_execute(
        at_least,
        tiny_jackson.test,
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=77),
    )
    assert brute.matched_frames == relaxed.matched_frames
