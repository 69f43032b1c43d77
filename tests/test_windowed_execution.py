"""End-to-end tests for windowed query execution and aggregate execution.

The windowed engine must be a pure refinement of flat execution: one shared
scan over the frames covered by any window, per-window match sets whose union
equals the un-windowed answer on the same frames, and per-window results
identical to running the un-windowed query restricted to each window's frame
range (the reference detector is deterministic per frame, so restricted runs
are comparable).  ``execute_aggregate`` must reproduce ``AggregateMonitor``'s
estimates exactly for the same seed, and an estimate's scan of its sample must
agree with the single-batch oracle.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregates import (
    AggregateMonitor,
    AggregateQuerySpec,
    WindowBounds,
    class_count_control,
    query_indicator_control,
)
from repro.detection import ReferenceDetector
from repro.query import (
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    brute_force_execute,
    parse_query,
)
from repro.query.ast import WindowSpec
from repro.query.evaluation import evaluate_predicates_on_detections
from repro.query.planner import FilterCascade
from repro.query.session import ScanSession
from tests.conftest import reference_estimate, reference_evaluate_samples
from tests.differential import (
    CLASS_NAMES,
    DETECTOR_SEED,
    SCENARIOS,
    first_difference,
    normalize,
)

WINDOWED_QUERY_TEXT = """
SELECT cameraID, frameID
FROM (PROCESS inputVideo PRODUCE cameraID, frameID, vehBox1 USING VehDetector)
WINDOW HOPPING (SIZE 20, ADVANCE BY 10)
WHERE COUNT(car) >= 1
"""


@pytest.fixture(scope="module")
def windowed_plan(trained_od_filter):
    """Parse -> plan round trip on a windowed query (WINDOW before WHERE)."""
    query = parse_query(WINDOWED_QUERY_TEXT, name="windowed_cars")
    cascade = QueryPlanner(
        {"od": trained_od_filter}, PlannerConfig(count_tolerance=1)
    ).plan(query)
    return query, cascade


def _executor(class_names, seed=77):
    return StreamingQueryExecutor(ReferenceDetector(class_names=class_names, seed=seed))


def test_windowed_parse_plan_execute_roundtrip(windowed_plan, tiny_jackson):
    query, cascade = windowed_plan
    assert query.window == WindowSpec(20, 10)
    result = _executor(tiny_jackson.class_names).execute(query, tiny_jackson.test, cascade)
    # 50 test frames, size 20 / advance 10: four full windows plus the
    # trailing partial [40, 50) materialised by the execution default.
    assert result.windows is not None
    assert [(w.bounds.start, w.bounds.stop) for w in result.windows] == [
        (0, 20), (10, 30), (20, 40), (30, 50), (40, 50),
    ]
    assert result.num_windows == 5
    assert result.stats.frames_scanned == len(tiny_jackson.test)
    union: set[int] = set()
    for window in result.windows:
        assert all(window.bounds.contains(index) for index in window.matched_frames)
        assert window.stats.frames_scanned == window.bounds.size
        assert window.stats.frames_passed_filters <= window.stats.frames_scanned
        assert window.num_matches == len(window.matched_frames)
        union.update(window.matched_frames)
    # The union of the per-window match sets is exactly the flat match set.
    assert union == set(result.matched_frames)


def test_windowed_matches_equal_unwindowed_on_same_frames(windowed_plan, tiny_jackson):
    query, cascade = windowed_plan
    windowed = _executor(tiny_jackson.class_names).execute(query, tiny_jackson.test, cascade)
    flat_query = dataclasses.replace(query, window=None)
    flat = _executor(tiny_jackson.class_names).execute(
        flat_query, tiny_jackson.test, cascade, frame_indices=range(len(tiny_jackson.test))
    )
    assert windowed.matched_frames == flat.matched_frames
    assert windowed.stats.filter_invocations == flat.stats.filter_invocations
    assert windowed.stats.detector_invocations == flat.stats.detector_invocations


def test_per_window_parity_with_restricted_unwindowed_runs(windowed_plan, tiny_jackson):
    query, cascade = windowed_plan
    windowed = _executor(tiny_jackson.class_names).execute(query, tiny_jackson.test, cascade)
    flat_query = dataclasses.replace(query, window=None)
    for window in windowed.windows:
        restricted = _executor(tiny_jackson.class_names).execute(
            flat_query, tiny_jackson.test, cascade, frame_indices=window.bounds.indices()
        )
        assert restricted.matched_frames == window.matched_frames
        assert restricted.stats.frames_scanned == window.stats.frames_scanned
        assert restricted.stats.frames_passed_filters == window.stats.frames_passed_filters


def test_frame_query_windows_keep_their_tail(trained_od_filter, tiny_jackson):
    """A frame query scans the 10 frames no full window covers as a shorter
    last window, one-shot and through a live session alike."""
    query = QueryBuilder("tumbling").count("car").at_least(1).window(20, 20).build()
    cascade = QueryPlanner({"od": trained_od_filter}).plan(query)
    covering = _executor(tiny_jackson.class_names).execute(query, tiny_jackson.test, cascade)
    assert [w.bounds for w in covering.windows] == [
        WindowBounds(0, 20), WindowBounds(20, 40), WindowBounds(40, 50),
    ]
    assert covering.stats.frames_scanned == 50
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED)
    with ScanSession(detector, live=True) as session:
        sid = session.add_query(query, cascade)
        session.push_chunk([tiny_jackson.test.frame(index) for index in range(50)])
        live = session.finish()[sid]
    assert live.windows == covering.windows


# ----------------------------------------------------------------------
# Aggregate execution through the planner/executor API
# ----------------------------------------------------------------------
def test_execute_aggregate_reproduces_monitor_estimates(trained_od_filter, tiny_jackson):
    query = QueryBuilder("cars_present").count("car").at_least(1).build()
    spec = AggregateQuerySpec.from_query(query, [query_indicator_control(query)])
    cascade = QueryPlanner({"od": trained_od_filter}).plan(query)
    assert cascade.primary_filter is trained_od_filter

    executor = _executor(tiny_jackson.class_names, seed=13)
    result = executor.execute_aggregate(
        spec, tiny_jackson.test, cascade, sample_size=20, repetitions=3, seed=5
    )
    monitor = AggregateMonitor(
        detector=ReferenceDetector(class_names=tiny_jackson.class_names, seed=13),
        frame_filter=trained_od_filter,
        seed=5,
    )
    expected = [monitor.estimate(spec, tiny_jackson.test, sample_size=20) for _ in range(3)]

    assert result.query_name == "cars_present"
    assert result.filter_name == trained_od_filter.name
    assert result.windows is None
    assert len(result.reports) == 3
    for report, reference in zip(result.reports, expected):
        assert report.num_samples == reference.num_samples
        assert report.plain.mean == reference.plain.mean
        assert report.control_variate.mean == reference.control_variate.mean
        assert report.control_variate.variance == reference.control_variate.variance


def test_primary_filter_prefers_class_aware_filters(
    trained_od_filter, trained_od_cof, tiny_jackson
):
    """Selectivity reordering can move the count-only OD-COF step to the
    front; the control-variate source must stay the class-aware filter."""
    filters = {"od": trained_od_filter, "od_cof": trained_od_cof}
    query = QueryBuilder("mixed").count("car").at_least(1).count().at_least(1).build()
    # analyze=False: both steps are tolerance-swallowed (PL002); this test
    # needs the raw two-step, two-filter plan to exercise reordering.
    cascade = QueryPlanner(filters).plan(query, analyze=False)
    assert cascade.primary_filter is trained_od_filter
    reordered = FilterCascade(steps=list(reversed(cascade.steps)))
    assert reordered.filters[0] is trained_od_cof  # first-use order changed...
    assert reordered.primary_filter is trained_od_filter  # ...the CV source did not
    assert trained_od_cof.class_aware is False
    # A cascade with only count-only filters falls back to its first filter.
    cof_only = FilterCascade(steps=[s for s in cascade.steps if s.frame_filter is trained_od_cof])
    assert cof_only.primary_filter is trained_od_cof


def test_execute_aggregate_windowed_spec_reports_per_window(trained_od_filter, tiny_jackson):
    query = QueryBuilder("w").count("car").at_least(1).window(25, 25).build()
    spec = AggregateQuerySpec.from_query(query, [query_indicator_control(query)])
    assert spec.window == WindowSpec(25, 25)
    cascade = QueryPlanner({"od": trained_od_filter}).plan(query)
    result = _executor(tiny_jackson.class_names, seed=13).execute_aggregate(
        spec, tiny_jackson.test, cascade, sample_size=10, repetitions=2, seed=1
    )
    assert result.reports == ()
    assert [w.bounds for w in result.windows] == [WindowBounds(0, 25), WindowBounds(25, 50)]
    for window in result.windows:
        assert len(window.reports) == 2
        assert all(report.num_samples == 10 for report in window.reports)


class _EmptyStream:
    def __len__(self) -> int:
        return 0

    def frame(self, index: int):
        raise IndexError(index)


def test_windowed_execution_of_empty_stream_returns_empty_result(windowed_plan, tiny_jackson):
    """An empty stream is an empty execution, as in the un-windowed path."""
    query, cascade = windowed_plan
    result = _executor(tiny_jackson.class_names).execute(query, _EmptyStream(), cascade)
    assert result.matched_frames == ()
    assert result.windows == ()
    assert result.stats.frames_scanned == 0


def test_windows_with_gaps_scan_only_covered_frames(trained_od_filter, tiny_jackson):
    """advance > size leaves inter-window gaps that are never scanned."""
    query = QueryBuilder("gappy").count("car").at_least(1).window(10, 30).build()
    cascade = QueryPlanner({"od": trained_od_filter}).plan(query)
    result = _executor(tiny_jackson.class_names).execute(query, tiny_jackson.test, cascade)
    assert [w.bounds for w in result.windows] == [WindowBounds(0, 10), WindowBounds(30, 40)]
    assert result.stats.frames_scanned == 20
    assert all(index < 10 or 30 <= index < 40 for index in result.matched_frames)


def test_execute_aggregate_window_larger_than_stream_raises(trained_od_filter, tiny_jackson):
    query = QueryBuilder("too_big").count("car").at_least(1).window(100, 100).build()
    spec = AggregateQuerySpec.from_query(query, [query_indicator_control(query)])
    cascade = QueryPlanner({"od": trained_od_filter}).plan(query)
    executor = _executor(tiny_jackson.class_names)
    with pytest.raises(ValueError, match="no instances"):
        executor.execute_aggregate(spec, tiny_jackson.test, cascade, sample_size=5)
    # A frame query scans the whole (shorter) stream as one partial window.
    result = executor.execute(query, tiny_jackson.test, cascade)
    assert [w.bounds for w in result.windows] == [WindowBounds(0, 50)]


def test_execute_aggregate_validation(trained_od_filter, tiny_jackson):
    query = QueryBuilder("q").count("car").at_least(1).build()
    spec = AggregateQuerySpec.from_query(query, [query_indicator_control(query)])
    executor = _executor(tiny_jackson.class_names)
    with pytest.raises(ValueError):
        executor.execute_aggregate(spec, tiny_jackson.test, FilterCascade())
    with pytest.raises(ValueError):
        executor.execute_aggregate(
            spec, tiny_jackson.test, frame_filter=trained_od_filter, repetitions=0
        )
    # An explicit filter stands in for an empty cascade; a provably-empty
    # cascade is just as falsy (zero steps) but must keep its description.
    for cascade, description in [
        (None, "(empty)"),
        (FilterCascade(provably_empty=True), "(provably empty)"),
    ]:
        result = executor.execute_aggregate(
            spec, tiny_jackson.test, cascade, frame_filter=trained_od_filter, sample_size=5
        )
        assert result.cascade_description == description
        assert result.filter_name == trained_od_filter.name


def test_evaluate_samples_batched_matches_per_frame_loop(trained_od_filter, tiny_jackson):
    """An estimate's scan of its sample agrees with the single-batch oracle,
    and the oracle with the historical per-frame loop.

    Exact equality is justified for indicator controls: they consume only
    integer counts and thresholded masks, which the batch-parity tests pin
    as identical between predict and predict_batch (raw scores may differ at
    the last ulp).
    """
    stream = tiny_jackson.test
    query = QueryBuilder("q").count("car").at_least(1).build()
    control = query_indicator_control(query)
    spec = AggregateQuerySpec.from_query(query, [control])

    def detector():
        return ReferenceDetector(class_names=tiny_jackson.class_names, seed=9)

    monitor = AggregateMonitor(detector=detector(), frame_filter=trained_od_filter)
    indices = [0, 3, 7, 11, 24]
    # More than one chunk, unordered, with repeats; and two controls.
    unordered = [24, 3, 3, 40, 7, 0, 49, 11] * 3
    two_controls = AggregateQuerySpec.from_query(query, [control, class_count_control("car")])
    for sampled, sample in ((spec, indices), (spec, unordered), (two_controls, unordered)):
        report = monitor.estimate(sampled, stream, len(sample), frame_indices=sample)
        plain, cv, per_frame_ms = reference_estimate(
            detector(), trained_od_filter, sampled, stream, sample
        )
        # NaN correlations compare equal.
        assert first_difference(
            normalize([dataclasses.asdict(report.plain), dataclasses.asdict(report.control_variate)]),
            normalize([dataclasses.asdict(plain), dataclasses.asdict(cv)]),
        ) is None
        assert report.per_frame_cost_ms == per_frame_ms

    oracle = AggregateMonitor(detector=detector(), frame_filter=trained_od_filter)
    exact_values, controls = reference_evaluate_samples(oracle, spec, stream, indices)
    reference_detector = detector()
    for row, frame_index in enumerate(indices):
        frame = stream.frame(frame_index)
        prediction = trained_od_filter.predict(frame)
        detections = reference_detector.detect(frame)
        assert exact_values[row] == float(evaluate_predicates_on_detections(query, detections))
        assert controls[row, 0] == control(prediction)


@settings(max_examples=60, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    position=st.integers(0, 3),
    size=st.integers(1, 30),
    advance=st.integers(1, 30),
    data=st.data(),
)
def test_cascade_free_execute_equals_the_oracle_window_for_window(
    harness, scenario, position, size, advance, data
):
    """R1 of the harness in ``tests/differential.py``: a scenario's prefix,
    a generated query under a drawn window, ``frame_indices`` ``None`` or
    unordered and repeating.  The engine (``QueryState.covers``, bisection
    over sorted accumulators) and the oracle (``start <= index < stop``)
    share no window code, so equal windows mean both implement one rule: a
    window's matches ascending, a repeated index counted per occurrence.
    The planned cascade matches a subset, window for window; a
    provably-empty query pulls no frame into the shared scan."""
    length = data.draw(st.integers(1, scenario.num_frames), label="length")
    frame_indices = data.draw(
        st.none() | st.lists(st.integers(0, length - 1), max_size=40), label="frame_indices"
    )
    stream = harness.rendered(scenario, length)
    query = dataclasses.replace(harness.queries[position], window=WindowSpec(size, advance))
    planned = harness.cascades("planned")
    detector = ReferenceDetector(class_names=CLASS_NAMES, seed=DETECTOR_SEED)
    scan = StreamingQueryExecutor(detector).execute_many(
        [query, query, harness.queries[-1]], stream, [None, planned[position], planned[-1]],
        frame_indices=frame_indices,
    )
    engine, filtered, empty = scan
    oracle = brute_force_execute(query, stream, detector, frame_indices=frame_indices)
    assert engine.matched_frames == oracle.matched_frames and engine.windows == oracle.windows
    assert engine.stats.frames_scanned == oracle.stats.frames_scanned
    assert engine.stats.detector_invocations == oracle.stats.detector_invocations
    assert len(filtered.windows) == len(oracle.windows)
    for window, truth in zip(filtered.windows, oracle.windows):
        assert window.bounds == truth.bounds
        assert set(window.matched_frames) <= set(truth.matched_frames)
    assert empty.matched_frames == () and empty.stats.frames_scanned == 0
    assert scan.shared.frames_scanned == oracle.stats.frames_scanned
