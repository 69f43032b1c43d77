"""Parity and shared-work tests for multi-query execution (``execute_many``).

The shared engine must be a pure optimisation: every query's result —
matched frames, windows, work counters, attributed simulated cost — is
identical to running that query alone with :meth:`execute`, while the shared
scan itself runs the detector at most once per frame (on the union of all
queries' cascade survivors) and evaluates each shared filter at most once
per frame.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from benchmarks.conftest import count_filter_frames
from repro.cost import SimulatedClock
from repro.detection import ReferenceDetector
from repro.query import (
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    brute_force_execute,
    merge_cascade_steps,
    parse_query,
)
from repro.query.parallel import ParallelConfig
from repro.query.session import ScanSession
from repro.query.temporal import TemporalConfig
from tests.differential import normalize

WINDOWED_TEXT = """
SELECT cameraID, frameID
FROM (PROCESS inputVideo PRODUCE cameraID, frameID, vehBox1 USING VehDetector)
WINDOW HOPPING (SIZE 20, ADVANCE BY 10)
WHERE COUNT(car) >= 1
"""


def _executor(class_names, seed=77):
    return StreamingQueryExecutor(ReferenceDetector(class_names=class_names, seed=seed))


@pytest.fixture(scope="module")
def workload(trained_od_filter):
    """Four queries sharing the OD filter: three un-windowed plus one windowed."""
    planner = QueryPlanner({"od": trained_od_filter}, PlannerConfig(count_tolerance=1))
    queries = [
        QueryBuilder("cars_eq1").count("car").equals(1).build(),
        QueryBuilder("car_and_person")
        .count("car").at_least(1)
        .count("person").at_least(1)
        .build(),
        QueryBuilder("car_left_of_person")
        .count("car").equals(1)
        .count("person").equals(1)
        .spatial("car").left_of("person")
        .build(),
        parse_query(WINDOWED_TEXT, name="windowed_cars"),
    ]
    return queries, [planner.plan(query) for query in queries]


SCAN_MODES = {
    "per_frame": {},
    "chunked": {"batch_size": 7},
    "temporal": {"temporal": TemporalConfig(exact=True, max_stride=8)},
    "parallel": {"parallel": ParallelConfig(num_workers=2), "batch_size": 8},
}


@pytest.mark.parametrize("mode", sorted(SCAN_MODES))
def test_execute_is_the_shared_scan_of_one_query(workload, tiny_jackson, mode):
    """``execute(q)`` and ``execute_many([q])`` are one scan, reported two
    ways: R3 of the differential harness (``tests/differential.py``).  A
    gated scan reports no chunk size on either side."""
    options = SCAN_MODES[mode]
    reused_frames = 0
    for query, cascade in zip(*workload):
        executor = _executor(tiny_jackson.class_names)
        solo = executor.execute(query, tiny_jackson.test, cascade, **options)
        # The single-query result carries the scan's real cost: the clock delta.
        assert solo.stats.simulated_cost == executor.clock.breakdown
        many = _executor(tiny_jackson.class_names).execute_many(
            [query], tiny_jackson.test, [cascade], **options
        )
        attributed, shared = many[0], many.shared
        # The attributed record with the work actually performed, not what a
        # standalone run would be charged; everything else equal.
        performed = replace(
            attributed.stats, filter_invocations=shared.filter_computations,
            detector_invocations=shared.detector_invocations, simulated_cost=shared.cost.shared,
            parallel=shared.parallel,
        )
        expected = replace(attributed, stats=performed, temporal=shared.temporal)
        assert normalize(asdict(solo)) == normalize(asdict(expected))
        assert solo.stats.batch_size == shared.batch_size
        if "temporal" in options:
            assert solo.stats.batch_size is None
            reused = solo.temporal.frames_reused + solo.temporal.frames_skipped
            reused_frames += reused
            assert (
                shared.filter_computations < attributed.stats.filter_invocations
            ) == (reused > 0)
        else:
            assert solo.stats.filter_invocations == attributed.stats.filter_invocations
            assert (
                solo.stats.simulated_cost.per_component_calls
                == attributed.stats.simulated_cost.per_component_calls
            )
    # The temporal mode must actually have reused something for the
    # performed-vs-attributed distinction above to have been exercised.
    assert (reused_frames > 0) == ("temporal" in options)


def test_brute_force_oracle_is_independent_of_the_scan_session(tiny_jackson, monkeypatch):
    query = QueryBuilder("cars").count("car").at_least(1).window(20, 10).build()
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=77)
    expected = brute_force_execute(query, tiny_jackson.test, detector)

    def broken_push(self, frames):
        raise AssertionError("the oracle must not drive the engine it checks")

    monkeypatch.setattr(ScanSession, "push_chunk", broken_push)
    with pytest.raises(AssertionError, match="oracle"):
        _executor(tiny_jackson.class_names).execute(query, tiny_jackson.test)
    oracle = brute_force_execute(query, tiny_jackson.test, detector)
    assert oracle.matched_frames == expected.matched_frames
    assert oracle.windows == expected.windows
    assert oracle.stats.detector_invocations == len(tiny_jackson.test)


def test_detector_runs_once_per_union_survivor(workload, tiny_jackson):
    queries, cascades = workload
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=77)
    detected_frames: list[int] = []
    original_detect = detector.detect

    def counting_detect(frame):
        detected_frames.append(frame.index)
        return original_detect(frame)

    detector.detect = counting_detect
    multi = StreamingQueryExecutor(detector).execute_many(
        queries, tiny_jackson.test, cascades, batch_size=16
    )
    # At most one detector run per frame, exactly one per union survivor.
    assert len(detected_frames) == len(set(detected_frames))
    assert len(detected_frames) == multi.shared.detector_invocations
    detector_calls = multi.shared.cost.shared.per_component_calls.get("mask_rcnn", 0)
    assert detector_calls == multi.shared.detector_invocations
    # Every matched frame of every query was verified by the shared detector,
    # and the per-query attributions sum to at least the shared work.
    union_matched = {index for result in multi for index in result.matched_frames}
    assert union_matched <= set(detected_frames)
    per_query_survivor_totals = sum(
        result.stats.detector_invocations for result in multi.results
    )
    assert multi.shared.detector_invocations <= per_query_survivor_totals


def test_shared_filter_evaluated_at_most_once_per_frame(
    workload, tiny_jackson, trained_od_filter
):
    queries, cascades = workload
    counts: dict[int, int] = {}
    restore = count_filter_frames(trained_od_filter, counts)
    try:
        multi = _executor(tiny_jackson.class_names).execute_many(
            queries, tiny_jackson.test, cascades, batch_size=8
        )
    finally:
        restore()
    # Four queries, five cascade steps over one filter — yet no frame was
    # evaluated more than once.
    assert counts, "the shared filter never ran"
    assert max(counts.values()) == 1
    assert sum(counts.values()) == multi.shared.filter_computations
    # Standalone, each query would have paid its own evaluation per frame.
    attributed_filter_calls = sum(
        result.stats.filter_invocations for result in multi.results
    )
    assert attributed_filter_calls > multi.shared.filter_computations


def test_cascade_steps_merge_across_queries(trained_od_filter, tiny_jackson):
    planner = QueryPlanner({"od": trained_od_filter}, PlannerConfig(count_tolerance=1))
    same_a = QueryBuilder("a").count("car").at_least(1).build()
    same_b = QueryBuilder("b").count("car").at_least(1).build()
    different = QueryBuilder("c").count("person").at_least(1).build()
    cascades = [planner.plan(query) for query in (same_a, same_b, different)]
    unique_steps, assignments = merge_cascade_steps(cascades)
    assert len(unique_steps) == 2
    assert assignments == [[0], [0], [1]]
    multi = _executor(tiny_jackson.class_names).execute_many(
        [same_a, same_b, different], tiny_jackson.test, cascades, batch_size=16
    )
    assert multi.shared.unique_steps == 2
    assert multi.shared.total_steps == 3
    # Identical queries produce identical results out of the shared run.
    assert multi[0].matched_frames == multi[1].matched_frames


def test_execute_many_shared_cost_report(workload, tiny_jackson):
    queries, cascades = workload
    multi = _executor(tiny_jackson.class_names).execute_many(
        queries, tiny_jackson.test, cascades, batch_size=16
    )
    report = multi.shared.cost
    assert set(report.attributed) == {query.name for query in queries}
    # Sharing can only reduce cost; with four queries over one filter the
    # reduction must be strict.
    assert report.shared_ms < report.standalone_ms
    assert report.savings_ratio > 1.0
    assert multi.shared.savings_ratio == report.savings_ratio
    # The attributed total for each query equals its standalone simulated cost
    # (verified against execute() in the parity test); the shared breakdown
    # never exceeds any component's attributed sum.
    for component, ms in report.shared.per_component_ms.items():
        attributed_ms = sum(
            breakdown.per_component_ms.get(component, 0.0)
            for breakdown in report.attributed.values()
        )
        assert ms <= attributed_ms + 1e-9


def test_execute_many_with_planner_and_result_lookup(
    trained_od_filter, tiny_jackson
):
    planner = QueryPlanner({"od": trained_od_filter}, PlannerConfig(count_tolerance=1))
    queries = [
        QueryBuilder("only_cars").count("car").at_least(1).build(),
        QueryBuilder("only_people").count("person").at_least(1).build(),
    ]
    executor = _executor(tiny_jackson.class_names)
    cascades = [planner.plan(query) for query in queries]
    multi = executor.execute_many(queries, tiny_jackson.test, cascades, batch_size=16)
    assert multi[0].cascade_description.startswith("OD-")
    for query, cascade, result in zip(queries, cascades, multi):
        solo = _executor(tiny_jackson.class_names).execute(
            query, tiny_jackson.test, cascade, batch_size=16
        )
        assert result.matched_frames == solo.matched_frames


def test_execute_many_validation(tiny_jackson, workload):
    queries, cascades = workload
    executor = _executor(tiny_jackson.class_names)
    with pytest.raises(ValueError):
        executor.execute_many([], tiny_jackson.test)
    with pytest.raises(ValueError):
        executor.execute_many(queries, tiny_jackson.test, cascades[:1])
    with pytest.raises(ValueError):
        executor.execute_many(queries, tiny_jackson.test, cascades, batch_size=0)


def test_execute_shared_clock_accumulates_across_runs(tiny_jackson):
    """Regression: execute() must not wipe a caller-supplied shared clock.

    A shared clock passed to several executions (e.g. via
    ``brute_force_execute(clock=...)``) accumulates total cost across runs,
    while each run's own stats report only its delta.
    """
    clock = SimulatedClock()
    query = QueryBuilder("cars").count("car").at_least(1).build()
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=77)
    indices = range(0, 10)
    first = brute_force_execute(
        query, tiny_jackson.test, detector, frame_indices=indices, clock=clock
    )
    after_first = clock.elapsed_ms
    assert after_first == pytest.approx(first.stats.simulated_cost.total_ms)
    second = brute_force_execute(
        query, tiny_jackson.test, detector, frame_indices=indices, clock=clock
    )
    # The clock kept the first run's cost and added the second's...
    assert clock.elapsed_ms == pytest.approx(
        first.stats.simulated_cost.total_ms + second.stats.simulated_cost.total_ms
    )
    # ...while each run's own breakdown is its delta, not the running total.
    assert second.stats.simulated_cost.total_ms == pytest.approx(after_first)
    assert clock.breakdown.per_component_calls["mask_rcnn"] == 20


def test_execute_many_respects_shared_clock(workload, tiny_jackson):
    queries, cascades = workload
    clock = SimulatedClock()
    clock.charge("pre_existing", 123.0)
    executor = StreamingQueryExecutor(
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=77), clock=clock
    )
    multi = executor.execute_many(queries, tiny_jackson.test, cascades, batch_size=16)
    # The pre-existing charge survives and is not part of the shared report.
    assert clock.breakdown.per_component_ms["pre_existing"] == 123.0
    assert "pre_existing" not in multi.shared.cost.shared.per_component_ms
