"""Standing-query service: replay parity, churn, backpressure, budgets, soak.

The service's core promise is the *parity rail*: a finite stream replayed
chunk-by-chunk through :class:`~repro.service.QueryService` produces
bit-identical per-query results to one-shot ``execute_many`` on every engine
path (plain, windowed, temporal-exact, parallel) — because the chunk
pipeline is the executor's own, extracted into
:class:`~repro.query.session.ScanSession`.  On top of that the service adds
runtime membership churn, bounded ingestion with the three backpressure
policies, and per-query SLA budgets; each addition is tested here against
the behaviour the one-shot engine cannot express.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import pytest

from repro.cost import QueryBudget, SimulatedClock, merge_worker_breakdowns
from repro.detection import ReferenceDetector
from repro.query import (
    ParallelConfig,
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    TemporalConfig,
    parse_query,
)
from repro.query.session import ScanSession
from repro.service import (
    BufferEmitter,
    IngestionQueue,
    QueryService,
    StreamConfig,
)

WINDOWED_TEXT = """
SELECT cameraID, frameID
FROM (PROCESS inputVideo PRODUCE cameraID, frameID, vehBox1 USING VehDetector)
WINDOW HOPPING (SIZE 20, ADVANCE BY 10)
WHERE COUNT(car) >= 1
"""

DETECTOR_SEED = 77


# ----------------------------------------------------------------------
# Fixtures and helpers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload(trained_od_filter):
    """Three queries (plain / conjunctive / windowed) planned with one shared filter."""
    planner = QueryPlanner({"od": trained_od_filter}, PlannerConfig(count_tolerance=1))
    queries = [
        QueryBuilder("cars_eq1").count("car").equals(1).build(),
        QueryBuilder("car_and_person")
        .count("car").at_least(1)
        .count("person").at_least(1)
        .build(),
        parse_query(WINDOWED_TEXT, name="windowed_cars"),
    ]
    return queries, [planner.plan(query) for query in queries]


@pytest.fixture(scope="module")
def od_planner(trained_od_filter):
    return QueryPlanner({"od": trained_od_filter}, PlannerConfig(count_tolerance=1))


def _frames(stream, count=None):
    total = len(stream) if count is None else count
    return [stream.frame(index) for index in range(total)]


def _looped_frames(stream, total):
    """``total`` frames made by re-indexing the stream's frames cyclically."""
    base = _frames(stream)
    return [
        dataclasses.replace(base[index % len(base)], index=index)
        for index in range(total)
    ]


def _replay_through_service(
    queries,
    cascades,
    stream,
    class_names,
    *,
    chunk_size=16,
    feed_batch=7,
    temporal=None,
    parallel=None,
):
    """Feed ``stream`` through a fresh service; returns per-query results."""
    service = QueryService()
    service.attach_stream(
        "cam",
        ReferenceDetector(class_names=class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=chunk_size, temporal=temporal, parallel=parallel),
    )
    handles = [
        service.register("cam", query, cascade)
        for query, cascade in zip(queries, cascades)
    ]
    frames = _frames(stream)
    for start in range(0, len(frames), feed_batch):
        service.feed("cam", frames[start : start + feed_batch])
    results = service.close()
    return [results[handle] for handle in handles]


def _one_shot(queries, cascades, stream, class_names, **kwargs):
    executor = StreamingQueryExecutor(
        ReferenceDetector(class_names=class_names, seed=DETECTOR_SEED)
    )
    return executor.execute_many(queries, stream, cascades, **kwargs)


def _assert_result_parity(service_result, oneshot_result):
    assert service_result.query_name == oneshot_result.query_name
    assert service_result.matched_frames == oneshot_result.matched_frames
    assert service_result.stats.frames_scanned == oneshot_result.stats.frames_scanned
    assert (
        service_result.stats.frames_passed_filters
        == oneshot_result.stats.frames_passed_filters
    )
    assert (
        service_result.stats.detector_invocations
        == oneshot_result.stats.detector_invocations
    )
    assert (
        service_result.stats.filter_invocations
        == oneshot_result.stats.filter_invocations
    )
    assert (
        service_result.stats.simulated_cost.per_component_calls
        == oneshot_result.stats.simulated_cost.per_component_calls
    )
    assert service_result.stats.simulated_cost.total_ms == pytest.approx(
        oneshot_result.stats.simulated_cost.total_ms
    )
    if oneshot_result.windows is None:
        assert service_result.windows is None
    else:
        assert service_result.windows is not None
        assert [
            (w.bounds, w.matched_frames, w.stats) for w in service_result.windows
        ] == [(w.bounds, w.matched_frames, w.stats) for w in oneshot_result.windows]


class _SlowDetector(ReferenceDetector):
    """A reference detector with real wall-clock latency (overload injection)."""

    def __init__(self, *args, delay_seconds=0.004, **kwargs):
        super().__init__(*args, **kwargs)
        self._delay_seconds = delay_seconds

    def detect(self, frame):
        time.sleep(self._delay_seconds)
        return super().detect(frame)


# ----------------------------------------------------------------------
# The parity rail: service replay == one-shot execute_many, on every path
# ----------------------------------------------------------------------
def test_replay_parity_plain_and_windowed(workload, tiny_jackson):
    queries, cascades = workload
    via_service = _replay_through_service(
        queries, cascades, tiny_jackson.test, tiny_jackson.class_names
    )
    one_shot = _one_shot(
        queries, cascades, tiny_jackson.test, tiny_jackson.class_names, batch_size=16
    )
    for service_result, oneshot_result in zip(via_service, one_shot):
        _assert_result_parity(service_result, oneshot_result)


def test_replay_parity_is_chunking_invariant(workload, tiny_jackson):
    """Arbitrary feed batching and scan chunking produce identical results."""
    queries, cascades = workload
    baseline = _one_shot(
        queries, cascades, tiny_jackson.test, tiny_jackson.class_names, batch_size=16
    )
    for chunk_size, feed_batch in ((5, 3), (16, 50), (50, 1)):
        via_service = _replay_through_service(
            queries,
            cascades,
            tiny_jackson.test,
            tiny_jackson.class_names,
            chunk_size=chunk_size,
            feed_batch=feed_batch,
        )
        for service_result, oneshot_result in zip(via_service, baseline):
            _assert_result_parity(service_result, oneshot_result)


def test_replay_parity_temporal_exact(workload, tiny_jackson):
    queries, cascades = workload
    temporal = TemporalConfig(exact=True)
    via_service = _replay_through_service(
        queries,
        cascades,
        tiny_jackson.test,
        tiny_jackson.class_names,
        temporal=temporal,
    )
    one_shot = _one_shot(
        queries,
        cascades,
        tiny_jackson.test,
        tiny_jackson.class_names,
        temporal=temporal,
    )
    for service_result, oneshot_result in zip(via_service, one_shot):
        _assert_result_parity(service_result, oneshot_result)
        # execute_many reports temporal telemetry on the shared scan; the
        # service stamps the same session-wide stats onto each result.
        assert service_result.temporal == one_shot.shared.temporal


def test_replay_parity_parallel(workload, tiny_jackson):
    queries, cascades = workload
    parallel = ParallelConfig(num_workers=2, backend="thread", chunk_size=16)
    via_service = _replay_through_service(
        queries,
        cascades,
        tiny_jackson.test,
        tiny_jackson.class_names,
        parallel=parallel,
    )
    one_shot = _one_shot(
        queries,
        cascades,
        tiny_jackson.test,
        tiny_jackson.class_names,
        parallel=parallel,
    )
    for service_result, oneshot_result in zip(via_service, one_shot):
        _assert_result_parity(service_result, oneshot_result)


@pytest.mark.parametrize("backend", ("thread", "process"))
def test_parallel_session_replay_matches_one_shot(workload, tiny_jackson, backend):
    """One submit/merge loop: a live parallel session fed chunk by chunk and
    one-shot ``execute_many(parallel=...)`` merge the same chunks."""
    queries, cascades = workload
    parallel = ParallelConfig(num_workers=2, backend=backend, chunk_size=16)
    one_shot = _one_shot(
        queries, cascades, tiny_jackson.test, tiny_jackson.class_names,
        parallel=parallel,
    )
    session = ScanSession(
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        parallel=parallel,
    )
    with session:
        sids = [
            session.add_query(query, cascade)
            for query, cascade in zip(queries, cascades)
        ]
        frames = _frames(tiny_jackson.test)
        for start in range(0, len(frames), parallel.chunk_size):
            session.push_chunk(frames[start : start + parallel.chunk_size])
        replayed = session.finish()
    for sid, oneshot_result in zip(sids, one_shot):
        _assert_result_parity(replayed[sid], oneshot_result)
    stats = one_shot.shared.parallel
    assert session.chunks_merged == stats.num_chunks == 4
    session_workers = merge_worker_breakdowns(session.worker_breakdowns.values())
    assert session_workers.per_component_calls == stats.cost.merged.per_component_calls
    assert session_workers.total_ms == pytest.approx(stats.cost.merged.total_ms)


def test_closed_parallel_session_plans_without_a_backend(workload, tiny_jackson):
    """``StreamStats`` reads the plan after shutdown; that must not start workers
    nobody will close."""
    queries, cascades = workload
    session = ScanSession(
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        parallel=ParallelConfig(num_workers=2, backend="thread", chunk_size=16),
    )
    session.add_query(queries[0], cascades[0])
    session.close()
    assert session.unique_step_count == len(cascades[0].steps)
    assert session._backend is None
    # Nor may it take the filters' clocks again: nothing would give them back.
    assert all(frame_filter.clock is None for frame_filter in cascades[0].filters)


@pytest.mark.parametrize("close_first", ("first_attached", "last_attached"))
def test_sessions_sharing_a_filter_and_a_detector_close_in_any_order(
    workload, tiny_jackson, close_first
):
    """Two sessions over one cascade and one detector (two service streams
    planned by one planner): the session still open keeps the charges,
    whichever closed first, and the last close gives back the clocks from
    before the first attach.  Closing in attach order used to hand the
    original clock back under the open session (its cost report silently
    lost the charges) and then leave the first session's clock behind."""
    queries, cascades = workload
    (frame_filter,) = cascades[0].filters
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED)
    before = (frame_filter.clock, detector.clock)
    sessions = [ScanSession(detector) for _ in range(2)]
    for session in sessions:
        session.add_query(queries[0], cascades[0])
        session.unique_step_count  # plans: takes the clocks
    closing = 0 if close_first == "first_attached" else 1
    sessions[closing].close()
    still_open = sessions[1 - closing]
    frame = tiny_jackson.test.frame(0)
    frame_filter.predict_batch([frame])
    detector.detect(frame)
    calls = still_open.clock.snapshot().per_component_calls
    assert calls == {frame_filter.name: 1, detector.name: 1}
    assert sessions[closing].clock.snapshot().per_component_calls == {}
    still_open.close()
    assert frame_filter.clock is before[0] and detector.clock is before[1]


def test_concurrent_clock_holds_lose_no_update():
    """Shard threads take and give back holds on one shared object at once
    (more threads than cores, a 1 us switch interval): no hold is lost and
    the original clock comes back.  Without the lock a release finds the
    object's entry already dropped by another thread's release."""
    from repro.query import session as session_module

    class Shared:
        clock = None

    shared = Shared()
    original = shared.clock
    barrier = threading.Barrier(8)
    errors: list[BaseException] = []

    def churn():
        try:
            barrier.wait(timeout=10)
            for _ in range(20000):
                owner = object()
                session_module._hold_clock(shared, owner, SimulatedClock())
                session_module._release_clock(shared, owner)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert shared.clock is original and id(shared) not in session_module._CLOCK_HOLDS


# ----------------------------------------------------------------------
# Registry churn
# ----------------------------------------------------------------------
def test_churn_dedup_set_tracks_membership(od_planner, tiny_jackson):
    """The shared-step dedup set grows and shrinks with register/deregister."""
    build = lambda name: QueryBuilder(name).count("car").equals(1).build()  # noqa: E731
    service = QueryService()
    service.attach_stream(
        "cam",
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=10),
    )
    first = service.register("cam", (q := build("first")), od_planner.plan(q))
    stats = service.stats().streams["cam"]
    solo_steps = stats.total_steps
    assert stats.unique_steps == solo_steps

    # A semantically identical query dedups completely: total doubles,
    # unique stays put.
    second = service.register("cam", (q := build("second")), od_planner.plan(q))
    stats = service.stats().streams["cam"]
    assert stats.total_steps == 2 * solo_steps
    assert stats.unique_steps == solo_steps

    frames = _frames(tiny_jackson.test)
    service.feed("cam", frames[:20])
    service.deregister(second)
    stats = service.stats().streams["cam"]
    assert stats.total_steps == solo_steps
    assert stats.unique_steps == solo_steps
    service.feed("cam", frames[20:40])
    results = service.close()
    assert first in results and second not in results


def test_churn_windows_never_reemitted_and_attribution_consistent(
    workload, od_planner, tiny_jackson
):
    queries, cascades = workload
    windowed, windowed_cascade = queries[2], cascades[2]
    buffer = BufferEmitter()
    service = QueryService(emitters=[buffer])
    service.attach_stream(
        "cam",
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=10),
    )
    handle = service.register("cam", windowed, windowed_cascade)
    frames = _frames(tiny_jackson.test)

    service.feed("cam", frames[:25])
    # Mid-stream churn around the windowed query.
    extra_query = QueryBuilder("late_joiner").count("car").at_least(1).build()
    extra = service.register("cam", extra_query, od_planner.plan(extra_query))
    service.feed("cam", frames[25:40])
    report = service.shared_cost_report("cam")
    late_result = service.deregister(extra)
    service.feed("cam", frames[40:])
    results = service.close()

    # The late joiner only ever saw frames from its registration point on.
    assert late_result.stats.frames_scanned == 40 - 25
    assert all(index >= 25 for index in late_result.matched_frames)

    # Windows: emitted incrementally, exactly once, in order, and identical
    # to the final result's windows.
    emitted = buffer.windows(handle)
    bounds = [window.bounds for window in emitted]
    assert bounds == sorted(bounds, key=lambda b: b.start)
    assert len(set(bounds)) == len(bounds)
    assert [
        (w.bounds, w.matched_frames) for w in results[handle].windows
    ] == [(w.bounds, w.matched_frames) for w in emitted]
    # Hopping SIZE 20 ADVANCE 10 over 50 frames, include_partial default.
    assert [b.start for b in bounds] == [0, 10, 20, 30, 40]

    # Attribution stayed consistent across the membership change: every
    # registered query is attributed, and sharing never costs more than
    # standalone execution.
    assert set(report.attributed) == {"windowed_cars", "late_joiner"}
    assert report.shared_ms <= report.standalone_ms + 1e-9
    assert report.savings_ratio >= 1.0


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_block_policy_bounds_queue_depth(od_planner, tiny_jackson):
    query = QueryBuilder("cars").count("car").at_least(1).build()
    service = QueryService()
    service.attach_stream(
        "cam",
        _SlowDetector(
            class_names=tiny_jackson.class_names, seed=DETECTOR_SEED,
            delay_seconds=0.001,
        ),
        StreamConfig(chunk_size=4, queue_chunks=3, policy="block"),
    )
    service.register("cam", query, od_planner.plan(query))
    service.start()
    frames = _looped_frames(tiny_jackson.test, 120)
    for start in range(0, len(frames), 4):
        service.feed("cam", frames[start : start + 4])
    service.stop(drain=True)
    stats = service.stats().streams["cam"]
    assert stats.queue_high_water <= 3
    assert stats.chunks_processed == stats.chunks_ingested == 30
    assert stats.queue_depth == 0
    assert stats.dropped_chunks == 0
    assert stats.watermark == 119
    service.close()


def test_drop_oldest_policy_sheds_load(od_planner, tiny_jackson):
    query = QueryBuilder("cars").count("car").at_least(1).build()
    service = QueryService()
    service.attach_stream(
        "cam",
        _SlowDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=4, queue_chunks=2, policy="drop_oldest"),
    )
    service.register("cam", query, od_planner.plan(query))
    service.start()
    frames = _looped_frames(tiny_jackson.test, 160)
    for start in range(0, len(frames), 4):
        service.feed("cam", frames[start : start + 4])
    service.stop(drain=True)
    stats = service.stats().streams["cam"]
    assert stats.dropped_chunks > 0
    assert stats.chunks_processed == stats.chunks_ingested - stats.dropped_chunks
    assert stats.queue_high_water <= 2
    service.close()


def test_degrade_policy_flips_to_approximate_and_records_it(tiny_jackson):
    # An empty cascade sends every frame to the (slow) detector, so the
    # producer certainly outruns the consumer and forces the degraded mode.
    query = QueryBuilder("everything").count("car").at_least(0).build()
    service = QueryService()
    service.attach_stream(
        "cam",
        _SlowDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=4, queue_chunks=2, policy="degrade"),
    )
    handle = service.register("cam", query)
    service.start()
    frames = _looped_frames(tiny_jackson.test, 120)
    for start in range(0, len(frames), 4):
        service.feed("cam", frames[start : start + 4])
    service.stop(drain=True)
    stats = service.stats().streams["cam"]
    assert stats.degrade_events >= 1
    assert stats.degraded_chunks >= 1
    assert stats.degraded_frames > 0
    assert stats.dropped_chunks == 0  # degrade trades accuracy, not frames
    results = service.close()
    # Degraded execution is recorded on the result's temporal stats.
    temporal = results[handle].temporal
    assert temporal is not None
    assert temporal.frames_reused > 0


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------
def test_budget_violations_are_edge_triggered_and_emitted(od_planner, tiny_jackson):
    query = QueryBuilder("cars").count("car").at_least(1).build()
    buffer = BufferEmitter()
    service = QueryService(emitters=[buffer])
    service.attach_stream(
        "cam",
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=10),
    )
    handle = service.register(
        "cam",
        query,
        od_planner.plan(query),
        budget=QueryBudget(
            max_simulated_ms_total=0.5,
            min_frames_per_second=1e12,
        ),
    )
    frames = _frames(tiny_jackson.test)
    for start in range(0, len(frames), 10):
        service.feed("cam", frames[start : start + 10])
    stats = service.stats().streams["cam"]
    kinds = [violation.kind for violation in stats.violations]
    # Both ceilings fired exactly once despite five chunks (edge-triggered).
    assert sorted(kinds) == ["throughput", "total_cost"]
    emissions = buffer.emissions(kind="violation", handle=handle)
    assert {e.violation.kind for e in emissions} == {"throughput", "total_cost"}
    service.close()


# ----------------------------------------------------------------------
# Ingestion queue unit behaviour
# ----------------------------------------------------------------------
def test_ingestion_queue_policies():
    queue = IngestionQueue(maxsize=2, policy="drop_oldest")
    for chunk in ([1], [2], [3]):
        assert queue.put(chunk)
    assert queue.dropped_chunks == 1
    assert queue.get() == [2]

    degrading = IngestionQueue(maxsize=2, policy="degrade")
    for chunk in ([1], [2], [3]):
        assert degrading.put(chunk)
    assert degrading.degrade_requested
    assert degrading.degrade_events == 1
    # Hysteresis: the request clears at half capacity, not at first dequeue.
    assert degrading.get() == [1]
    assert degrading.degrade_requested
    assert degrading.get() == [2]
    assert not degrading.degrade_requested
    degrading.close()
    assert degrading.get() == [3]
    assert degrading.get() is None
    assert not degrading.put([4])

    with pytest.raises(ValueError):
        IngestionQueue(maxsize=0)
    with pytest.raises(ValueError):
        IngestionQueue(maxsize=1, policy="explode")


# ----------------------------------------------------------------------
# Soak smoke: 8 standing queries, 2 stream workers, bounded queues
# ----------------------------------------------------------------------
def test_soak_eight_standing_queries_two_workers(od_planner, tiny_jackson):
    total_frames = 240
    service = QueryService()
    for name in ("north", "south"):
        service.attach_stream(
            name,
            ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
            StreamConfig(chunk_size=8, queue_chunks=4, policy="block"),
        )
    handles: dict[str, list[int]] = {"north": [], "south": []}
    for name in handles:
        for position in range(4):
            query = (
                QueryBuilder(f"{name}_q{position}")
                .count("car").at_least(1 + position % 2)
                .build()
            )
            handles[name].append(service.register(name, query, od_planner.plan(query)))
    assert service.stats().active_queries == 8

    service.start()
    frames = _looped_frames(tiny_jackson.test, total_frames)
    for start in range(0, total_frames, 24):
        batch = frames[start : start + 24]
        for name in handles:
            service.feed(name, batch)
    service.stop(drain=True)

    for name in handles:
        stats = service.stats().streams[name]
        assert stats.queue_high_water <= 4  # bounded under block
        assert stats.queue_depth == 0
        assert stats.chunks_processed == stats.chunks_ingested == total_frames // 8
        assert stats.frames_ingested == total_frames
        assert stats.watermark == total_frames - 1
        assert stats.active_queries == 4

    results = service.close()
    assert len(results) == 8
    for name in handles:
        for handle in handles[name]:
            # Accumulators stayed bounded by coverage: every query scanned
            # each frame exactly once (stable-memory proxy).
            assert results[handle].stats.frames_scanned == total_frames
