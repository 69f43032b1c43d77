"""Parallel pipelined execution engine: parity, re-planning, infrastructure.

The engine's core promise is *bit-identical output under concurrency*: for
every execution path (plain, windowed, multi-query, temporal-exact) and both
backends (thread, process), running with ``ParallelConfig`` must return
exactly the frames, windows and work counters of the sequential path.  The
adaptive re-planner's promise is weaker on costs but equally strict on
output: reorders change where filter milliseconds go, never which frames
match, and every reorder leaves a ``PlanRevision`` trace.

Run with ``pytest -m parallel`` (CI runs this module as its own job).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cost import merge_worker_breakdowns
from repro.detection import ReferenceDetector
from repro.query import (
    CascadeStep,
    FilterCascade,
    ParallelConfig,
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    TemporalConfig,
    merge_cascade_steps,
)
from repro.aggregates.monitor import AggregateQuerySpec

pytestmark = pytest.mark.parallel

BACKENDS = ("thread", "process")


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def planner(trained_od_filter, trained_od_cof):
    return QueryPlanner(
        {"od": trained_od_filter, "od_cof": trained_od_cof},
        PlannerConfig(count_tolerance=1, location_dilation=1),
    )


@pytest.fixture(scope="module")
def stream(tiny_jackson):
    return tiny_jackson.test


def executor(tiny_jackson):
    return StreamingQueryExecutor(
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=42)
    )


def count_query(name="plain"):
    return QueryBuilder(name).count("car").at_least(1).build()


def mixed_query(name="mixed"):
    return (
        QueryBuilder(name).count("car").at_least(1).count(None).at_most(4).build()
    )


def windowed_query(name="windowed"):
    return QueryBuilder(name).count("car").at_least(1).window(20, 10).build()


def assert_same_result(parallel_result, baseline_result):
    """Bit-identical output and work counters (costs equal to float rounding)."""
    assert parallel_result.matched_frames == baseline_result.matched_frames
    assert parallel_result.windows == baseline_result.windows
    ps, bs = parallel_result.stats, baseline_result.stats
    assert ps.frames_scanned == bs.frames_scanned
    assert ps.frames_passed_filters == bs.frames_passed_filters
    assert ps.detector_invocations == bs.detector_invocations
    assert ps.filter_invocations == bs.filter_invocations
    assert (
        ps.simulated_cost.per_component_calls == bs.simulated_cost.per_component_calls
    )
    assert ps.simulated_cost.total_ms == pytest.approx(bs.simulated_cost.total_ms)


# ----------------------------------------------------------------------
# Bit-identical parity, both backends, all paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_plain(tiny_jackson, stream, planner, backend):
    query = mixed_query()
    cascade = planner.plan(query)
    baseline = executor(tiny_jackson).execute(query, stream, cascade, batch_size=8)
    parallel = executor(tiny_jackson).execute(
        query,
        stream,
        cascade,
        parallel=ParallelConfig(num_workers=4, backend=backend, chunk_size=8),
    )
    assert_same_result(parallel, baseline)
    assert parallel.stats.parallel is not None
    assert parallel.stats.parallel.backend == backend
    assert parallel.stats.parallel.num_chunks == -(-len(stream) // 8)
    assert parallel.stats.plan_revisions == ()


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_windowed(tiny_jackson, stream, planner, backend):
    query = windowed_query()
    cascade = planner.plan(query)
    baseline = executor(tiny_jackson).execute(query, stream, cascade, batch_size=8)
    parallel = executor(tiny_jackson).execute(
        query,
        stream,
        cascade,
        parallel=ParallelConfig(num_workers=3, backend=backend, chunk_size=8),
    )
    assert baseline.windows  # the query really is windowed
    assert_same_result(parallel, baseline)


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_multi_query(tiny_jackson, stream, planner, backend):
    queries = [mixed_query("q0"), count_query("q1"), windowed_query("q2")]
    cascades = [planner.plan(query) for query in queries]
    baseline = executor(tiny_jackson).execute_many(
        queries, stream, cascades, batch_size=8
    )
    parallel = executor(tiny_jackson).execute_many(
        queries,
        stream,
        cascades,
        parallel=ParallelConfig(num_workers=4, backend=backend, chunk_size=8),
    )
    for parallel_result, baseline_result in zip(parallel, baseline):
        assert_same_result(parallel_result, baseline_result)
    assert parallel.shared.frames_scanned == baseline.shared.frames_scanned
    assert parallel.shared.detector_invocations == baseline.shared.detector_invocations
    assert parallel.shared.filter_computations == baseline.shared.filter_computations
    assert (
        parallel.shared.cost.shared.per_component_calls
        == baseline.shared.cost.shared.per_component_calls
    )
    assert parallel.shared.parallel is not None
    assert parallel.shared.parallel.num_workers == 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_temporal_exact(tiny_jackson, stream, planner, backend):
    query = count_query("temporal")
    cascade = planner.plan(query)
    temporal = TemporalConfig(
        delta_threshold=30.0, max_stride=4, keyframe_interval=10, exact=True
    )
    plain = executor(tiny_jackson).execute(query, stream, cascade)
    baseline = executor(tiny_jackson).execute(query, stream, cascade, temporal=temporal)
    parallel = executor(tiny_jackson).execute(
        query,
        stream,
        cascade,
        temporal=temporal,
        parallel=ParallelConfig(num_workers=2, backend=backend, chunk_size=8),
    )
    # Temporal-exact composes with parallel prefetch: identical to both the
    # temporal baseline and the plain scan.
    assert parallel.matched_frames == baseline.matched_frames == plain.matched_frames
    assert parallel.temporal is not None
    assert parallel.temporal.frames_total == baseline.temporal.frames_total
    assert parallel.temporal.frames_reused == baseline.temporal.frames_reused
    # Prefetch-only composition: no filter chunks ran on workers.
    assert parallel.stats.parallel.num_chunks == 0
    assert parallel.stats.parallel.cost.per_worker == ()


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_temporal_multi_query(tiny_jackson, stream, planner, backend):
    queries = [count_query("t0"), windowed_query("t1")]
    cascades = [planner.plan(query) for query in queries]
    temporal = TemporalConfig(
        delta_threshold=30.0, max_stride=4, keyframe_interval=10, exact=True
    )
    baseline = executor(tiny_jackson).execute_many(
        queries, stream, cascades, temporal=temporal
    )
    parallel = executor(tiny_jackson).execute_many(
        queries,
        stream,
        cascades,
        temporal=temporal,
        parallel=ParallelConfig(num_workers=2, backend=backend),
    )
    for parallel_result, baseline_result in zip(parallel, baseline):
        assert parallel_result.matched_frames == baseline_result.matched_frames
        assert parallel_result.windows == baseline_result.windows
    assert parallel.shared.temporal.frames_reused == baseline.shared.temporal.frames_reused


# ----------------------------------------------------------------------
# Aggregate composition
# ----------------------------------------------------------------------
def test_aggregate_estimates_unchanged_by_parallel(tiny_jackson, stream, planner):
    from repro.aggregates.controls import class_count_control

    query = count_query("agg")
    cascade = planner.plan(query)
    spec = AggregateQuerySpec(
        name="avg-cars",
        exact_value=lambda detections: float(detections.count_of("car")),
        control_values=[class_count_control("car")],
    )
    baseline = executor(tiny_jackson).execute_aggregate(
        spec, stream, cascade, sample_size=20, repetitions=2, seed=7
    )
    parallel = executor(tiny_jackson).execute_aggregate(
        spec,
        stream,
        cascade,
        sample_size=20,
        repetitions=2,
        seed=7,
        parallel=ParallelConfig(num_workers=2, chunk_size=8),
    )
    for parallel_report, baseline_report in zip(parallel.reports, baseline.reports):
        assert parallel_report.plain.mean == baseline_report.plain.mean
        assert parallel_report.control_variate.mean == baseline_report.control_variate.mean


# ----------------------------------------------------------------------
# Adaptive re-planning
# ----------------------------------------------------------------------
ADAPTIVE = dict(
    adaptive=True,
    adaptive_window=16,
    adaptive_interval=1,
    adaptive_min_evaluated=8,
    adaptive_margin=1.1,
)


def adaptive_config(backend="thread", **overrides):
    return ParallelConfig(
        num_workers=2, backend=backend, chunk_size=8, **{**ADAPTIVE, **overrides}
    )


def test_adaptive_parity_plain_and_windowed(tiny_jackson, stream, planner):
    for query in (mixed_query("a0"), windowed_query("a1")):
        cascade = planner.plan(query)
        static = executor(tiny_jackson).execute(
            query, stream, cascade,
            parallel=ParallelConfig(num_workers=2, chunk_size=8),
        )
        adaptive = executor(tiny_jackson).execute(
            query, stream, cascade, parallel=adaptive_config()
        )
        assert adaptive.matched_frames == static.matched_frames
        assert adaptive.windows == static.windows


def test_adaptive_parity_multi_query(tiny_jackson, stream, planner):
    queries = [mixed_query("a2"), windowed_query("a3")]
    cascades = [planner.plan(query) for query in queries]
    static = executor(tiny_jackson).execute_many(
        queries, stream, cascades,
        parallel=ParallelConfig(num_workers=2, chunk_size=8),
    )
    adaptive = executor(tiny_jackson).execute_many(
        queries, stream, cascades, parallel=adaptive_config()
    )
    for adaptive_result, static_result in zip(adaptive, static):
        assert adaptive_result.matched_frames == static_result.matched_frames
        assert adaptive_result.windows == static_result.windows


def test_adaptive_parity_temporal(tiny_jackson, stream, planner):
    query = mixed_query("a4")
    cascade = planner.plan(query)
    temporal = TemporalConfig(
        delta_threshold=30.0, max_stride=4, keyframe_interval=10, exact=True
    )
    static = executor(tiny_jackson).execute(query, stream, cascade, temporal=temporal)
    adaptive = executor(tiny_jackson).execute(
        query, stream, cascade, temporal=temporal, parallel=adaptive_config()
    )
    assert adaptive.matched_frames == static.matched_frames


class _PassEverything:
    def __call__(self, prediction):
        return True


class _RejectEverything:
    def __call__(self, prediction):
        return False


def misestimated_cascade(trained_od_filter, trained_od_cof) -> FilterCascade:
    """A cascade whose planned order is maximally wrong.

    The leading step rejects nothing (its planning-time estimate claimed it
    was selective), the trailing step rejects everything.  A correct runtime
    re-planner must flip them, after which the leading filter stops being
    evaluated at all.
    """
    return FilterCascade(
        steps=[
            CascadeStep(
                name="useless-first",
                frame_filter=trained_od_filter,
                check=_PassEverything(),
                measured_pass_rate=0.05,  # the lie the planner believed
                measured_cost_ms=trained_od_filter.latency_ms,
            ),
            CascadeStep(
                name="selective-last",
                frame_filter=trained_od_cof,
                check=_RejectEverything(),
                measured_pass_rate=0.95,
                measured_cost_ms=trained_od_cof.latency_ms,
            ),
        ]
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_misestimated_cascade_triggers_revision(
    tiny_jackson, stream, trained_od_filter, trained_od_cof, backend
):
    query = count_query("mis")
    cascade = misestimated_cascade(trained_od_filter, trained_od_cof)
    static = executor(tiny_jackson).execute(
        query, stream, cascade,
        parallel=ParallelConfig(num_workers=2, backend=backend, chunk_size=8),
    )
    adaptive = executor(tiny_jackson).execute(
        query, stream, cascade, parallel=adaptive_config(backend=backend)
    )
    # The reorder is observable...
    assert len(adaptive.stats.plan_revisions) >= 1
    revision = adaptive.stats.plan_revisions[0]
    assert revision.old_order == (0, 1)
    assert revision.new_order == (1, 0)
    assert revision.step_names == ("useless-first", "selective-last")
    assert revision.expected_gain >= 1.1
    assert "useless-first" in revision.describe()
    # ...saves filter work...
    assert adaptive.stats.filter_invocations < static.stats.filter_invocations
    # ...and never changes the output.
    assert adaptive.matched_frames == static.matched_frames
    assert static.stats.plan_revisions == ()


def test_adaptive_revision_in_temporal_path(
    tiny_jackson, stream, trained_od_filter, trained_od_cof
):
    query = count_query("mis-temporal")
    cascade = misestimated_cascade(trained_od_filter, trained_od_cof)
    temporal = TemporalConfig(delta_threshold=30.0, keyframe_interval=10, exact=True)
    static = executor(tiny_jackson).execute(query, stream, cascade, temporal=temporal)
    adaptive = executor(tiny_jackson).execute(
        query, stream, cascade, temporal=temporal,
        parallel=adaptive_config(adaptive_min_evaluated=4),
    )
    assert len(adaptive.stats.plan_revisions) >= 1
    assert adaptive.matched_frames == static.matched_frames


def test_queryplanner_replan_reorders_and_annotates(
    trained_od_filter, trained_od_cof
):
    cascade = misestimated_cascade(trained_od_filter, trained_od_cof)
    # Observed evidence contradicts the planning-time estimates: the first
    # step passes everything, the second rejects everything.
    replanned = QueryPlanner.replan(cascade, [1.0, 0.0])
    assert [step.name for step in replanned.steps] == [
        "selective-last",
        "useless-first",
    ]
    # Steps are re-annotated with the observed rates...
    assert replanned.steps[0].measured_pass_rate == 0.0
    assert replanned.steps[1].measured_pass_rate == 1.0
    # ...and the output set is untouched: same filters, same checks.
    assert {step.check for step in replanned.steps} == {
        step.check for step in cascade.steps
    }
    # Unobserved steps (rate None) sort to the back and keep their annotation.
    partial = QueryPlanner.replan(cascade, [None, 0.0])
    assert [step.name for step in partial.steps] == [
        "selective-last",
        "useless-first",
    ]
    assert partial.steps[1].measured_pass_rate == 0.05
    # Replanning with agreeing rates is a stable no-op on the order.
    unchanged = QueryPlanner.replan(cascade, [0.05, 0.95])
    assert [step.name for step in unchanged.steps] == [
        "useless-first",
        "selective-last",
    ]
    with pytest.raises(ValueError, match="rates"):
        QueryPlanner.replan(cascade, [0.5])


def test_profiler_replanned_cascade_matches_order(
    trained_od_filter, trained_od_cof
):
    from repro.query import CascadeProfiler

    cascade = misestimated_cascade(trained_od_filter, trained_od_cof)
    profiler = CascadeProfiler(cascade, adaptive_config())
    for _ in range(4):
        profiler.observe([(8, 8), (8, 0)], at_frame=0)
    assert profiler.order == (1, 0)
    # The cascade object the profiler exposes agrees with the order it runs.
    assert [step.name for step in profiler.replanned_cascade().steps] == [
        cascade.steps[position].name for position in profiler.order
    ]


# ----------------------------------------------------------------------
# Cost accounting and infrastructure
# ----------------------------------------------------------------------
def test_per_worker_cost_report(tiny_jackson, stream, planner):
    query = mixed_query("cost")
    cascade = planner.plan(query)
    baseline = executor(tiny_jackson).execute(query, stream, cascade, batch_size=8)
    parallel = executor(tiny_jackson).execute(
        query, stream, cascade,
        parallel=ParallelConfig(num_workers=3, chunk_size=8),
    )
    report = parallel.stats.parallel.cost
    assert 1 <= report.num_workers <= 3
    merged = merge_worker_breakdowns(report.per_worker)
    # The workers' merged filter cost is exactly the run's filter cost:
    # total cost minus the detector's share, which the main process charged.
    detector_name = "mask_rcnn"
    expected = {
        name: calls
        for name, calls in baseline.stats.simulated_cost.per_component_calls.items()
        if name != detector_name
    }
    assert merged.per_component_calls == expected
    assert report.simulated_seconds == pytest.approx(
        sum(
            ms
            for name, ms in baseline.stats.simulated_cost.per_component_ms.items()
            if name != detector_name
        )
        / 1000.0
    )
    assert report.wall_clock_seconds > 0.0
    assert report.simulated_over_wall > 0.0
    assert 0.0 < report.balance <= 1.0


def test_worker_chunk_cost_does_not_depend_on_earlier_chunks(stream, planner):
    """A chunk's milliseconds are the chunk's own sums, not a running total's
    difference: 1.9 ms x 7 frames after 3 frames is 13.3 by subtraction and
    13.299999999999999 charged directly."""
    import copy

    from repro.query.parallel import _Worker

    query = count_query("clock")
    cascade = planner.plan(query)
    _, assignments = merge_cascade_steps([cascade])
    orders = [tuple(range(len(cascade.steps)))]
    chunk_a = [stream.frame(index) for index in range(3)]
    chunk_b = [stream.frame(index) for index in range(3, 10)]

    def worker():
        return _Worker("w", copy.deepcopy([cascade]), assignments)

    seasoned = worker()
    seasoned.filter_chunk(0, None, orders, chunk_a)
    after_a = seasoned.filter_chunk(1, None, orders, chunk_b)
    alone = worker().filter_chunk(1, None, orders, chunk_b)
    assert after_a.breakdown.per_component_calls == alone.breakdown.per_component_calls
    assert after_a.breakdown.per_component_ms == alone.breakdown.per_component_ms
    assert after_a.filtered == alone.filtered


def test_parallel_simulated_cost_is_bit_stable_run_to_run(tiny_jackson, stream, planner):
    query = mixed_query("stable")
    cascade = planner.plan(query)
    config = ParallelConfig(num_workers=2, chunk_size=3)
    first, second = (
        executor(tiny_jackson).execute(query, stream, cascade, parallel=config)
        for _ in range(2)
    )
    assert (
        first.stats.simulated_cost.per_component_ms
        == second.stats.simulated_cost.per_component_ms
    )


def test_process_backend_rejects_unpicklable_cascade(tiny_jackson, stream, trained_od_filter):
    cascade = FilterCascade(
        steps=[
            CascadeStep(
                name="lambda-step",
                frame_filter=trained_od_filter,
                check=lambda prediction: True,
            )
        ]
    )
    with pytest.raises(ValueError, match="thread"):
        executor(tiny_jackson).execute(
            count_query("unpicklable"),
            stream,
            cascade,
            parallel=ParallelConfig(num_workers=2, backend="process"),
        )


def test_process_backend_names_cc002_before_any_worker_starts(
    tiny_jackson, stream, trained_od_filter, monkeypatch
):
    """The payload's one pickle is the pre-flight: when it fails, the audit
    says why and the scan stops before a pool exists."""
    from repro.analysis import AnalysisError
    from repro.query import parallel as parallel_module

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", no_pool)
    cascade = FilterCascade(
        steps=[
            CascadeStep(
                name="lambda-step",
                frame_filter=trained_od_filter,
                check=lambda prediction: True,
            )
        ]
    )
    with pytest.raises(AnalysisError, match="CC002") as excinfo:
        executor(tiny_jackson).execute(
            count_query("lambda"),
            stream,
            cascade,
            parallel=ParallelConfig(num_workers=2, backend="process"),
        )
    assert [d.code for d in excinfo.value.diagnostics] == ["CC002"]


def test_parallel_config_validation():
    with pytest.raises(ValueError):
        ParallelConfig(num_workers=0)
    with pytest.raises(ValueError):
        ParallelConfig(backend="gpu")
    with pytest.raises(ValueError):
        ParallelConfig(chunk_size=0)
    with pytest.raises(ValueError):
        ParallelConfig(adaptive_margin=0.5)


def test_batch_size_overrides_chunk_size(tiny_jackson, stream, planner):
    query = count_query("chunk")
    cascade = planner.plan(query)
    result = executor(tiny_jackson).execute(
        query, stream, cascade, batch_size=5,
        parallel=ParallelConfig(num_workers=2, chunk_size=16),
    )
    assert result.stats.parallel.chunk_size == 5
    assert result.stats.batch_size == 5


def test_frame_prefetcher_window_is_bounded(single_object_stream):
    from repro.query.parallel import FramePrefetcher

    stream = single_object_stream
    indices = list(range(len(stream)))  # 40 frames
    prefetcher = FramePrefetcher(stream, indices, depth=4, threads=1)
    try:
        # A striding consumer (approximate temporal mode) touches a sparse
        # subsequence; the prefetcher must not retain results for the
        # skipped indices behind the scan head.
        for index in range(0, len(stream), 8):
            frame = prefetcher.frame(index)
            assert frame.index == index
        retained = len(prefetcher._futures)
        assert retained <= 2 * 4 + 1, retained
        # Backward (refinement-probe) requests still work via fall-through.
        assert prefetcher.frame(1).index == 1
    finally:
        prefetcher.close()


# ----------------------------------------------------------------------
# Satellite: stream.frame is safe to call from many threads
# ----------------------------------------------------------------------
def test_concurrent_frame_renders_are_deterministic(single_object_stream):
    from repro.video.renderer import FrameRenderer
    from repro.video.stream import VideoStream

    base = single_object_stream
    expected = [base.frame(index).image for index in range(len(base))]
    # A fresh renderer, so the first-use fill of its background memo races too.
    stream = VideoStream(scene=base.scene, renderer=FrameRenderer(base.renderer.config))
    errors: list[Exception] = []
    start = threading.Barrier(8)

    def hammer(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            start.wait(timeout=30)
            for _ in range(100):
                index = int(rng.integers(0, len(stream)))
                frame = stream.frame(index)
                assert frame.index == index
                assert np.array_equal(frame.image, expected[index])
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors


# ----------------------------------------------------------------------
# Satellite: deterministic cascade-step merging
# ----------------------------------------------------------------------
def test_merge_cascade_steps_order_independent(planner):
    query_a = mixed_query("m0")
    query_b = windowed_query("m1")
    cascade_a, cascade_b = planner.plan(query_a), planner.plan(query_b)
    forward_steps, forward_assignments = merge_cascade_steps([cascade_a, cascade_b])
    reverse_steps, reverse_assignments = merge_cascade_steps([cascade_b, cascade_a])
    # The merged step list is a pure function of the step *set*, not of the
    # submission order.
    assert [step.name for step in forward_steps] == [
        step.name for step in reverse_steps
    ]
    assert [step.signature for step in forward_steps] == [
        step.signature for step in reverse_steps
    ]
    # Assignments still point each cascade at the same unique steps.
    assert forward_assignments[0] == reverse_assignments[1]
    assert forward_assignments[1] == reverse_assignments[0]
    # Sorted by (cost, name, signature): latencies ascend.
    latencies = [step.frame_filter.latency_ms for step in forward_steps]
    assert latencies == sorted(latencies)


# ----------------------------------------------------------------------
# Satellite: prefetcher shutdown on error paths (no leaked threads)
# ----------------------------------------------------------------------
class _FaultyStream:
    """Delegates to a real stream but raises when rendering one frame."""

    def __init__(self, base, fail_at):
        self._base = base
        self._fail_at = fail_at

    def __len__(self):
        return len(self._base)

    def frame(self, index):
        if index == self._fail_at:
            raise RuntimeError(f"injected decode failure at frame {index}")
        return self._base.frame(index)

    def __getattr__(self, name):
        return getattr(self._base, name)


def _live_prefetch_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.is_alive()
        and not thread.daemon
        and ("decode-ahead" in thread.name or "filter-worker" in thread.name)
    ]


@pytest.mark.parametrize("fail_at", [0, 30])
def test_chunk_failure_does_not_leak_prefetch_threads(
    planner, stream, tiny_jackson, fail_at
):
    query = count_query()
    faulty = _FaultyStream(stream, fail_at=fail_at)
    config = ParallelConfig(num_workers=2, backend="thread", chunk_size=8)
    with pytest.raises(RuntimeError, match="injected decode failure"):
        executor(tiny_jackson).execute(query, faulty, planner.plan(query), parallel=config)
    assert _live_prefetch_threads() == []


def test_temporal_chunk_failure_does_not_leak_prefetch_threads(
    planner, stream, tiny_jackson
):
    query = count_query()
    faulty = _FaultyStream(stream, fail_at=20)
    with pytest.raises(RuntimeError, match="injected decode failure"):
        executor(tiny_jackson).execute(
            query, faulty, planner.plan(query), temporal=TemporalConfig(exact=True)
        )
    assert _live_prefetch_threads() == []


def test_execute_many_chunk_failure_does_not_leak_prefetch_threads(
    planner, stream, tiny_jackson
):
    """Every entry point gets its decode-ahead pool from the one
    ``decode_ahead``, which closes it on the error path."""
    queries = [count_query("q0"), mixed_query("q1")]
    cascades = [planner.plan(query) for query in queries]
    faulty = _FaultyStream(stream, fail_at=25)
    config = ParallelConfig(num_workers=2, backend="thread", chunk_size=8)
    spec = AggregateQuerySpec.from_query(queries[0], [lambda prediction: 1.0])
    runner = executor(tiny_jackson)
    for run in (
        lambda: runner.execute_many(queries, faulty, cascades, parallel=config),
        lambda: runner.execute(queries[0], faulty, cascades[0], parallel=config),
        lambda: runner.execute_aggregate(
            spec, faulty, cascades[0], sample_size=len(stream), parallel=config
        ),
    ):
        with pytest.raises(RuntimeError, match="injected decode failure"):
            run()
        assert _live_prefetch_threads() == []


def test_prefetcher_close_is_idempotent(stream):
    from repro.query.parallel import FramePrefetcher

    framed = FramePrefetcher(stream, list(range(8)), depth=4, threads=1)
    assert framed.frame(0).index == 0
    framed.close()
    framed.close()  # second close is a no-op, not an error
    assert _live_prefetch_threads() == []
