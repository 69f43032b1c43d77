"""Parallel pipelined execution engine: step ordering, cost, infrastructure.

The engine's core promise is *bit-identical output under concurrency*: for
every execution path (plain, windowed, multi-query, temporal-exact),
running with ``ParallelConfig`` must return exactly the frames, windows and
work counters of the sequential path.  The differential harness's worker
configs assert it (``tests/test_differential.py -m parallel``).  This
module pins the planning-time step-ordering rule, the worker cost report
and the prefetcher.

Run with ``pytest -m parallel`` (CI runs this module as its own job).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cost import SimulatedClock, merge_worker_breakdowns
from repro.detection import ReferenceDetector
from repro.faults import FaultInjector, RetryPolicy
from repro.filters.base import FilterPrediction, FrameFilter
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
    reorder_cascade,
)
from repro.aggregates.monitor import AggregateQuerySpec
from repro.service import QueryService, StreamConfig
from repro.spatial.grid import Grid

pytestmark = pytest.mark.parallel

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


# ----------------------------------------------------------------------
# Ordering steps by pass rate
# ----------------------------------------------------------------------
class _PassEverything:
    def __call__(self, prediction):
        return True


class _RejectEverything:
    def __call__(self, prediction):
        return False


def misestimated_cascade(trained_od_filter, trained_od_cof) -> FilterCascade:
    """A cascade whose order is maximally wrong.

    The leading step rejects nothing (its annotated estimate claims it is
    selective), the trailing step rejects everything.  Ordering by measured
    pass rates must flip them.
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


def test_reorder_cascade_reorders_and_annotates(
    trained_od_filter, trained_od_cof
):
    cascade = misestimated_cascade(trained_od_filter, trained_od_cof)
    # Measured rates contradict the annotated estimates: the first step
    # passes everything, the second rejects everything.
    reordered = reorder_cascade(cascade, [1.0, 0.0])
    assert [step.name for step in reordered.steps] == [
        "selective-last",
        "useless-first",
    ]
    # Steps are re-annotated with the measured rates...
    assert reordered.steps[0].measured_pass_rate == 0.0
    assert reordered.steps[1].measured_pass_rate == 1.0
    # ...and the output set is untouched: same filters, same checks.
    assert {step.check for step in reordered.steps} == {
        step.check for step in cascade.steps
    }
    # Unmeasured steps (rate None) sort to the back and keep their annotation.
    partial = reorder_cascade(cascade, [None, 0.0])
    assert [step.name for step in partial.steps] == [
        "selective-last",
        "useless-first",
    ]
    assert partial.steps[1].measured_pass_rate == 0.05
    # Reordering with agreeing rates is a stable no-op on the order.
    unchanged = reorder_cascade(cascade, [0.05, 0.95])
    assert [step.name for step in unchanged.steps] == [
        "useless-first",
        "selective-last",
    ]
    with pytest.raises(ValueError, match="rates"):
        reorder_cascade(cascade, [0.5])


# ----------------------------------------------------------------------
# Cost accounting and infrastructure
# ----------------------------------------------------------------------
def test_per_worker_cost_report(tiny_jackson, stream, planner):
    query = mixed_query("cost")
    cascade = planner.plan(query)
    baseline = executor(tiny_jackson).execute(query, stream, cascade, batch_size=8)
    parallel = executor(tiny_jackson).execute(
        query, stream, cascade,
        batch_size=8, parallel=ParallelConfig(num_workers=3),
    )
    report = parallel.stats.parallel.cost
    assert 1 <= report.num_workers <= 3
    merged = merge_worker_breakdowns(report.per_worker)
    # The workers' merged filter cost is exactly the run's filter cost:
    # total cost minus the detector's share, which the merge thread charged.
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
    chunk_a = [stream.frame(index) for index in range(3)]
    chunk_b = [stream.frame(index) for index in range(3, 10)]

    def worker():
        return _Worker("w", copy.deepcopy([cascade]), assignments, SimulatedClock())

    seasoned = worker()
    seasoned.filter_chunk(0, None, chunk_a)
    after_a = seasoned.filter_chunk(1, None, chunk_b)
    alone = worker().filter_chunk(1, None, chunk_b)
    assert after_a.breakdown.per_component_calls == alone.breakdown.per_component_calls
    assert after_a.breakdown.per_component_ms == alone.breakdown.per_component_ms
    assert after_a.filtered == alone.filtered


def test_parallel_config_validation():
    with pytest.raises(ValueError):
        ParallelConfig(num_workers=0)
    with pytest.raises(ValueError):
        ParallelConfig(worker_timeout_seconds=0.0)
    with pytest.raises(ValueError):
        ParallelConfig(max_redispatch=-1)


# ----------------------------------------------------------------------
# Worker clones share no filter
# ----------------------------------------------------------------------
class _CountingFilter(FrameFilter):
    """Passes every frame with one car and counts the frames it predicted."""

    family = "OD"
    name = "counting_filter"
    latency_ms = 1.0

    def __init__(self) -> None:
        self.grid = Grid(rows=2, cols=2, frame_width=8, frame_height=8)
        self.predicted = 0

    def predict(self, frame) -> FilterPrediction:
        self.predicted += 1
        return FilterPrediction(
            frame_index=frame.index,
            filter_name=self.name,
            grid=self.grid,
            class_counts={"car": 1},
            class_scores={"car": 1.0},
            location_scores={},
            threshold=0.5,
            latency_ms=self.latency_ms,
        )


class _CloneResistantFilter(_CountingFilter):
    """Every worker's deep copy of it is the filter itself."""

    name = "clone_resistant_filter"

    def __deepcopy__(self, memo):
        return self


def _pass_all(frame_filter, name="seeded") -> FilterCascade:
    return FilterCascade(
        steps=[CascadeStep(name=name, frame_filter=frame_filter, check=lambda p: True)]
    )


def _car_executor():
    return StreamingQueryExecutor(ReferenceDetector(class_names=("car",), seed=9))


def test_a_pooled_execute_refuses_a_filter_its_workers_would_share(single_object_stream):
    stream = single_object_stream
    shared = _CloneResistantFilter()
    runner = _car_executor()
    with pytest.raises(ValueError, match="clone_resistant_filter"):
        runner.execute(
            count_query(), stream, _pass_all(shared),
            batch_size=4, parallel=ParallelConfig(num_workers=2),
        )
    # Refused before the first chunk was filtered: nothing predicted or charged.
    assert shared.predicted == 0
    assert runner.clock.snapshot() == SimulatedClock().snapshot()
    # Inline, nothing is copied, so the same filter runs.
    inline = runner.execute(count_query(), stream, _pass_all(shared), batch_size=4)
    assert inline.stats.frames_scanned == len(stream)


def test_a_pooled_service_shard_refuses_a_filter_its_workers_would_share(
    single_object_stream,
):
    """Registration refuses the filter, before any chunk: the query is not
    admitted, and the frames fed afterwards are neither quarantined nor
    charged."""
    stream = single_object_stream
    shared = _CloneResistantFilter()
    service = QueryService()
    service.attach_stream(
        "cam", ReferenceDetector(class_names=("car",), seed=9),
        StreamConfig(chunk_size=8, parallel=ParallelConfig(num_workers=2)),
    )
    with pytest.raises(ValueError, match="clone_resistant_filter"):
        service.register("cam", count_query(), _pass_all(shared))
    assert service.registry.handles_for("cam") == ()
    service.feed("cam", [stream.frame(index) for index in range(len(stream))])
    stats = service.stats().streams["cam"]
    assert (stats.active_queries, stats.quarantined_chunks) == (0, 0)
    assert shared.predicted == 0
    assert service.close() == {}


def test_a_filter_shared_by_two_queries_stays_shared_inside_a_clone(single_object_stream):
    stream = single_object_stream
    shared = _CountingFilter()
    queries = [count_query("first"), count_query("second")]
    cascades = [_pass_all(shared, "first"), _pass_all(shared, "second")]

    def run(**options):
        return _car_executor().execute_many(queries, stream, cascades, batch_size=8, **options)

    inline = run()
    pooled = run(parallel=ParallelConfig(num_workers=2))
    assert pooled.shared.parallel.num_chunks == 5
    # One prediction per frame: the clone kept the two queries' filter one object.
    assert pooled.shared.filter_computations == len(stream)
    for counter in ("frames_scanned", "detector_invocations", "filter_computations"):
        assert getattr(pooled.shared, counter) == getattr(inline.shared, counter)
    for got, want in zip(pooled, inline):
        assert got.matched_frames == want.matched_frames
        assert got.stats.simulated_cost == want.stats.simulated_cost


def test_a_pooled_scan_covers_each_query_as_the_inline_scan_does(
    tiny_jackson, trained_od_filter
):
    """A windowed query with gaps and a short tail, an un-windowed one and
    a provably-empty one: each worker filters a chunk under the coverage
    masks it was dispatched with (a windowed query's gaps stay out), so the
    pooled scan equals the inline one counter for counter."""
    planner = QueryPlanner({"od": trained_od_filter}, PlannerConfig(count_tolerance=1))
    queries = [
        QueryBuilder("gapped").count("car").at_least(1).window(8, 11).build(),
        QueryBuilder("plain").count("car").at_least(1).build(),
        QueryBuilder("empty").count("car").at_least(1).build(),
    ]
    cascades = [planner.plan(query) for query in queries[:2]]
    cascades.append(FilterCascade(provably_empty=True))

    def run(**kwargs):
        return executor(tiny_jackson).execute_many(
            queries, tiny_jackson.test, cascades, **kwargs
        )

    inline = run(batch_size=8)
    pooled = run(batch_size=8, parallel=ParallelConfig(num_workers=2))
    assert pooled.shared.parallel.num_chunks == 7  # the plain query's 50 frames
    for got, want in zip(pooled, inline):
        assert got.matched_frames == want.matched_frames
        assert got.windows == want.windows
        for counter in (
            "frames_scanned",
            "frames_passed_filters",
            "detector_invocations",
            "filter_invocations",
        ):
            assert getattr(got.stats, counter) == getattr(want.stats, counter)
        assert (
            got.stats.simulated_cost.per_component_calls
            == want.stats.simulated_cost.per_component_calls
        )
    assert pooled[0].stats.frames_scanned == 4 * 8 + 6  # the tail is [44, 50)
    assert pooled[2].stats.frames_scanned == 0
    for counter in ("frames_scanned", "detector_invocations", "filter_computations"):
        assert getattr(pooled.shared, counter) == getattr(inline.shared, counter)


@pytest.mark.parametrize(
    "schedule, max_redispatch",
    [
        ({("decode", 11): 3}, 2),  # chunk 1 set aside before submission
        ({("worker_crash", 1): 1}, 0),  # chunk 1 poisoned at its merge point
    ],
)
def test_a_pooled_scan_loses_exactly_the_quarantined_chunk(
    single_object_stream, schedule, max_redispatch
):
    """Chunk ids stay partition positions past a quarantined chunk: the
    scan loses chunk 1's frames and nothing else."""
    stream = single_object_stream
    cascade = _pass_all(_CountingFilter())
    inline = _car_executor().execute(count_query(), stream, cascade, batch_size=8)
    config = ParallelConfig(num_workers=2, supervise=True, max_redispatch=max_redispatch)
    with FaultInjector(schedule=schedule, retry=RetryPolicy(max_attempts=3)) as injector:
        result = _car_executor().execute(
            count_query(), stream, cascade, batch_size=8, parallel=config
        )
    assert injector.unfired() == ()
    lost = tuple(range(8, 16))
    assert [record.frames for record in result.stats.faults.quarantined] == [lost]
    assert result.stats.parallel.num_chunks == len(stream) // 8
    assert result.matched_frames == tuple(
        index for index in inline.matched_frames if index not in lost
    )
    assert result.stats.frames_scanned == inline.stats.frames_scanned - len(lost)
    assert result.stats.filter_invocations == inline.stats.filter_invocations - len(lost)


def test_frame_prefetcher_window_is_bounded(single_object_stream):
    from repro.video.prefetch import FramePrefetcher

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
    config = ParallelConfig(num_workers=2)
    with pytest.raises(RuntimeError, match="injected decode failure"):
        executor(tiny_jackson).execute(
            query, faulty, planner.plan(query), batch_size=8, parallel=config
        )
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
    config = ParallelConfig(num_workers=2)
    spec = AggregateQuerySpec.from_query(queries[0], [lambda prediction: 1.0])
    runner = executor(tiny_jackson)
    for run in (
        lambda: runner.execute_many(queries, faulty, cascades, batch_size=8, parallel=config),
        lambda: runner.execute(queries[0], faulty, cascades[0], batch_size=8, parallel=config),
        # A whole-stream sample spans several chunks, so it renders ahead.
        lambda: runner.execute_aggregate(spec, faulty, cascades[0], sample_size=len(stream)),
    ):
        with pytest.raises(RuntimeError, match="injected decode failure"):
            run()
        assert _live_prefetch_threads() == []


def test_prefetcher_close_is_idempotent(stream):
    from repro.video.prefetch import FramePrefetcher

    framed = FramePrefetcher(stream, list(range(8)), depth=4, threads=1)
    assert framed.frame(0).index == 0
    framed.close()
    framed.close()  # second close is a no-op, not an error
    assert _live_prefetch_threads() == []
