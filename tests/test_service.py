"""Standing-query service: replay parity, churn, backpressure, budgets, soak.

The service's core promise is the *parity rail*: a finite stream replayed
chunk-by-chunk through :class:`~repro.service.QueryService` produces
bit-identical per-query results to one-shot ``execute_many`` on every engine
path (plain, windowed, temporal-exact, parallel) — because the chunk
pipeline is the executor's own, extracted into
:class:`~repro.query.session.ScanSession`.  The differential harness's
service and checkpoint configs hold every re-chunked replay to the one-shot
reference (``tests/test_differential.py``); this module keeps the session's
own submit/merge loop.  On top of that the service adds runtime membership
churn, bounded ingestion with the three backpressure policies, and per-query
SLA budgets; each addition is tested here against the behaviour the
one-shot engine cannot express.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time

import pytest

from repro.cost import QueryBudget, merge_worker_breakdowns
from repro.detection import ReferenceDetector
from repro.faults import FaultInjector
from repro.query import (
    ParallelConfig,
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    parse_query,
)
from repro.query.parallel import DEFAULT_CHUNK_SIZE
from repro.query.session import ScanSession
from repro.service import (
    BufferEmitter,
    IngestionQueue,
    QueryService,
    StreamConfig,
)
from repro.service.service import SHARD_WORKERS
from tests.differential import normalize

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


class _SlowDetector(ReferenceDetector):
    """A reference detector with real wall-clock latency (overload injection)."""

    def __init__(self, *args, delay_seconds=0.004, **kwargs):
        super().__init__(*args, **kwargs)
        self._delay_seconds = delay_seconds

    def detect(self, frame):
        time.sleep(self._delay_seconds)
        return super().detect(frame)


# ----------------------------------------------------------------------
# The parity rail beyond the harness: the live session's merge loop
# ----------------------------------------------------------------------
def test_parallel_session_replay_matches_one_shot(workload, tiny_jackson):
    """One submit/merge loop: a live parallel session fed chunk by chunk and
    one-shot ``execute_many(parallel=...)`` merge the same chunks."""
    queries, cascades = workload
    parallel = ParallelConfig(num_workers=2)
    one_shot = StreamingQueryExecutor(
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED)
    ).execute_many(queries, tiny_jackson.test, cascades, parallel=parallel)
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
        for start in range(0, len(frames), DEFAULT_CHUNK_SIZE):
            session.push_chunk(frames[start : start + DEFAULT_CHUNK_SIZE])
        replayed = session.finish()
    for sid, oneshot in zip(sids, one_shot):
        # Equal under the harness's normalizer.
        assert normalize(dataclasses.asdict(replayed[sid])) == normalize(
            dataclasses.asdict(oneshot)
        )
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
        parallel=ParallelConfig(num_workers=2),
    )
    session.add_query(queries[0], cascades[0])
    session.close()
    assert session.unique_step_count == len(cascades[0].steps)
    assert session._backend is None


def _detector(tiny_jackson):
    return ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED)


def _standalone_clock(query, cascade, detector, chunks):
    """The clock of one session that scans ``chunks`` alone."""
    session = ScanSession(detector)
    with session:
        session.add_query(query, cascade)
        for chunk in chunks:
            session.push_chunk(chunk)
    return session.clock.snapshot()


@pytest.mark.parametrize("close_first", ("first_attached", "last_attached"))
def test_sessions_sharing_a_filter_and_a_detector_close_in_any_order(
    workload, tiny_jackson, close_first
):
    """Two sessions over one cascade and one detector (two service streams
    planned by one planner), fed chunks in turn: each clock holds exactly
    what a standalone session over the same chunks charges, whichever
    closes first, and the one left open keeps scanning on its own clock.
    A shared filter or detector used to charge the newest open session's
    clock."""
    queries, cascades = workload
    query, cascade = queries[0], cascades[0]
    detector = _detector(tiny_jackson)
    frames = _frames(tiny_jackson.test, 48)
    chunks = [frames[start : start + 16] for start in range(0, 48, 16)]
    sessions = [ScanSession(detector) for _ in range(2)]
    for session in sessions:
        session.add_query(query, cascade)
    for chunk in chunks[:2]:
        for session in sessions:
            session.push_chunk(chunk)
    closing = 0 if close_first == "first_attached" else 1
    sessions[closing].close()
    still_open = sessions[1 - closing]
    still_open.push_chunk(chunks[2])
    still_open.close()
    expected = [
        _standalone_clock(query, cascade, _detector(tiny_jackson), chunks[:count])
        for count in (2, 3)
    ]
    assert sessions[closing].clock.snapshot() == expected[0]
    assert still_open.clock.snapshot() == expected[1]
    assert expected[1].per_component_calls[cascade.filters[0].name] == 48


@pytest.mark.parametrize("detectors", ("own", "shared"))
def test_streams_sharing_a_cascade_each_report_their_own_cost(
    workload, tiny_jackson, detectors
):
    """Two streams of one unstarted service share one planned cascade (and,
    parametrized, one detector) and are fed 16-frame chunks in turn: each
    stream's shared cost is exactly a standalone ``execute_many`` of its
    query over the same frames.  A shared filter or detector used to charge
    the newest stream's clock: 64 frames each split the filter calls 16 and
    112."""
    queries, cascades = workload
    query, cascade = queries[0], cascades[0]
    shared_detector = _detector(tiny_jackson)
    service = QueryService()
    names = ("a", "b")
    for name in names:
        detector = shared_detector if detectors == "shared" else _detector(tiny_jackson)
        service.attach_stream(name, detector, StreamConfig(chunk_size=16))
        service.register(name, query, cascade)
    frames = _frames(tiny_jackson.test, 48)
    for start in range(0, len(frames), 16):
        for name in names:
            service.feed(name, frames[start : start + 16])
    reports = {name: service.shared_cost_report(name).shared for name in names}
    service.close()
    standalone = StreamingQueryExecutor(_detector(tiny_jackson)).execute_many(
        [query], tiny_jackson.test, [cascade], frame_indices=range(48), batch_size=16
    )
    expected = standalone.shared.cost.shared
    assert expected.per_component_calls[cascade.filters[0].name] == 48
    for name in names:
        assert reports[name] == expected


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


#: ``(query, recall bound, precision bound)`` of a degraded session against
#: the same session undegraded (see the test's docstring for the slack)
_DEGRADE_CONTRACT = (
    (QueryBuilder("cars").count("car").at_least(1).build(), 0.90, 0.95),
    (
        QueryBuilder("cars-and-people").count("car").at_least(1)
        .count("person").at_least(1).build(),
        0.75,
        0.90,
    ),
    (QueryBuilder("cars-hopping").count("car").at_least(1).window(16, 8).build(), 0.90, 0.95),
)


def test_degraded_session_keeps_its_error_contract(tiny_jackson):
    """What the ``degrade`` policy gives up: a live session held degraded
    from its first chunk (approximate gate, every frame gated, no service
    thread), fed ``tiny_jackson.test`` in 4-frame chunks, against the same
    session undegraded, at detector seeds 0-7.

    Worst seed here: recall 0.933 and precision 0.978 on ``car>=1`` (and
    under the hopping window), recall 0.812 and precision 0.941 on
    ``car>=1 AND person>=1`` (16-17 true frames).  The bounds leave about
    0.03 of slack below those.  Over seeds 0-31 the two-class query's worst
    precision is 0.786 (seed 27), so a wider seed range needs a lower bound
    there.  The gate decides reuse from the frames alone, so the reuse rate
    is the same at every seed.
    """
    frames = [tiny_jackson.test.frame(index) for index in range(len(tiny_jackson.test))]

    def matches(seed, degraded):
        detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=seed)
        with ScanSession(detector, live=True) as session:
            sids = [session.add_query(query) for query, _, _ in _DEGRADE_CONTRACT]
            session.set_degraded(degraded)
            for start in range(0, len(frames), 4):
                session.push_chunk(frames[start : start + 4])
            reuse_rate = session.temporal_stats.reuse_rate
            assert session.degraded_frames == (len(frames) if degraded else 0)
            results = session.finish()
        return [set(results[sid].matched_frames) for sid in sids], reuse_rate

    for seed in range(8):
        exact, _ = matches(seed, degraded=False)
        approximate, reuse_rate = matches(seed, degraded=True)
        assert reuse_rate == pytest.approx(0.68)
        for (query, recall, precision), truth, got in zip(_DEGRADE_CONTRACT, exact, approximate):
            hits = len(truth & got)
            assert hits >= recall * len(truth), (seed, query.name, "recall")
            assert hits >= precision * len(got), (seed, query.name, "precision")


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
# Filter pools on shards: merge on completion, and a worker failure healed
# at the one chunk it belongs to
# ----------------------------------------------------------------------
def _filter_workers() -> int:
    return sum("filter-worker" in thread.name for thread in threading.enumerate())


def test_a_lone_shard_filters_on_a_pool_unless_it_gates(od_planner, tiny_jackson):
    """No ``parallel=``: the service's only stream filters on
    ``SHARD_WORKERS`` threads; a shard held degraded gates inline, and two
    streams filter inline, until one of them closes."""
    query = QueryBuilder("cars").count("car").at_least(1).build()
    frames = _frames(tiny_jackson.test, 32)
    before = _filter_workers()
    service = QueryService()

    def attach(name, config=StreamConfig(chunk_size=8)):
        service.attach_stream(
            name,
            ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
            config,
        )
        service.register(name, query, od_planner.plan(query))

    attach("gated")
    service._shard("gated").session.set_degraded(True)
    service.feed("gated", frames)
    assert _filter_workers() == before
    service.close_stream("gated")
    attach("north")
    service.feed("north", frames[:16])
    assert 0 < _filter_workers() - before <= SHARD_WORKERS  # threads start lazily
    attach("south")
    service.feed("north", frames[16:24])
    service.feed("south", frames)
    assert _filter_workers() == before
    south = service.close_stream("south")
    service.feed("north", frames[24:])
    assert 0 < _filter_workers() - before <= SHARD_WORKERS
    north = service.close()
    assert _filter_workers() == before
    # Pool on, off and on again mid-stream: the scan cannot tell.
    [north_result], [south_result] = north.values(), south.values()
    assert north_result.matched_frames == south_result.matched_frames
    assert north_result.stats.simulated_cost == south_result.stats.simulated_cost


def _crash_scan(od_planner, tiny_jackson, started, schedule=None):
    """The ``cars`` query on a live ``parallel=`` shard, fed 50 frames in
    8-frame chunks; returns (result, stream stats, fault emissions)."""
    query = QueryBuilder("cars").count("car").at_least(1).build()
    buffer = BufferEmitter()
    service = QueryService(emitters=[buffer])
    service.attach_stream(
        "cam",
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=8, parallel=ParallelConfig(num_workers=2)),
    )
    handle = service.register("cam", query, od_planner.plan(query))
    with FaultInjector(schedule=schedule) if schedule else contextlib.nullcontext():
        if started:
            service.start()
        service.feed("cam", _frames(tiny_jackson.test))
        service.stop(drain=True)
        stats = service.stats().streams["cam"]
        result = service.close()[handle]
    return result, stats, buffer.emissions(kind="fault")


@pytest.mark.parametrize("started", [False, True], ids=["synchronous", "started"])
def test_an_unsupervised_worker_crash_heals_exactly_its_chunk(
    od_planner, tiny_jackson, started
):
    """Chunk 1's crash surfaces at its merge, after later chunks were
    submitted: the shard re-dispatches chunk 1, and pushes no chunk twice."""
    baseline, _, _ = _crash_scan(od_planner, tiny_jackson, started)
    result, stats, faults = _crash_scan(
        od_planner, tiny_jackson, started, {("worker_crash", 1): 1}
    )
    assert result.matched_frames == baseline.matched_frames
    assert list(result.matched_frames) == sorted(set(result.matched_frames))
    assert result.stats.frames_scanned == baseline.stats.frames_scanned == 50
    assert stats.faults.redispatches == 1 and stats.quarantined_chunks == 0
    assert faults == []


@pytest.mark.parametrize("started", [False, True], ids=["synchronous", "started"])
def test_a_worker_crash_past_the_retries_quarantines_exactly_its_chunk(
    od_planner, tiny_jackson, started
):
    """A live pool re-dispatches a crashed chunk ``max_redispatch`` times,
    as a supervised one would, then sets that chunk alone aside."""
    retries = ParallelConfig(num_workers=2).max_redispatch
    baseline, _, _ = _crash_scan(od_planner, tiny_jackson, started)
    result, stats, faults = _crash_scan(
        od_planner, tiny_jackson, started, {("worker_crash", 1): retries + 1}
    )
    lost = tuple(range(8, 16))
    assert result.matched_frames == tuple(
        index for index in baseline.matched_frames if index not in lost
    )
    assert result.stats.frames_scanned == 50 - len(lost)
    assert stats.faults.redispatches == retries and stats.faults.exhausted == 1
    [record] = stats.faults.quarantined
    assert (record.site, record.key, record.frames) == ("worker", 1, lost)
    assert [emission.fault for emission in faults] == [record]


@pytest.mark.parametrize("started", [False, True], ids=["synchronous", "started"])
def test_a_pooled_shard_quarantines_an_overlapping_chunk_as_an_inline_one_does(
    od_planner, tiny_jackson, started
):
    """Frames 8-15 sent twice, the repeat right behind the first while it
    may still be in flight: checked against what was pushed, not merged,
    the repeat is set aside and nothing is counted twice."""
    query = QueryBuilder("cars").count("car").at_least(1).build()
    frames = _frames(tiny_jackson.test)
    batch = frames[:16] + frames[8:16] + frames[16:]

    def scan(inline):
        service = QueryService()
        service.attach_stream(
            "cam",
            ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
            StreamConfig(chunk_size=8),
        )
        if inline:  # a second stream: every shard filters inline
            service.attach_stream("idle", ReferenceDetector(class_names=tiny_jackson.class_names))
        handle = service.register("cam", query, od_planner.plan(query))
        if started:
            service.start()
        service.feed("cam", batch)
        service.stop(drain=True)
        stats = service.stats().streams["cam"]
        return service.close()[handle], stats.faults.quarantined

    pooled, pooled_records = scan(inline=False)
    inline, inline_records = scan(inline=True)
    [record] = pooled_records
    assert (record.site, record.frames) == ("runtime", tuple(range(8, 16)))
    assert pooled_records == inline_records
    assert pooled.matched_frames == inline.matched_frames
    assert list(pooled.matched_frames) == sorted(set(pooled.matched_frames))
    assert pooled.stats.frames_scanned == inline.stats.frames_scanned == 50


class _BrokenDetector(ReferenceDetector):
    """A reference detector with a genuine (non-injected) bug at one frame."""

    def detect(self, frame):
        if frame.index == 20:
            raise ValueError("detector bug")
        return super().detect(frame)


@pytest.mark.parametrize("started", [False, True], ids=["synchronous", "started"])
def test_a_pooled_shard_quarantines_the_chunk_whose_detector_phase_raised(
    tiny_jackson, started
):
    """The merge of chunk 2 raises after later chunks were submitted: that
    chunk alone is set aside, as an inline shard sets it aside."""
    query = QueryBuilder("everything").count("car").at_least(0).build()
    service = QueryService()
    service.attach_stream(
        "cam",
        _BrokenDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=8),
    )
    handle = service.register("cam", query)
    if started:
        service.start()
    service.feed("cam", _frames(tiny_jackson.test))
    service.stop(drain=True)
    stats = service.stats().streams["cam"]
    result = service.close()[handle]
    lost = range(16, 24)
    assert result.matched_frames == tuple(index for index in range(50) if index not in lost)
    [record] = stats.faults.quarantined
    assert (record.site, record.frames) == ("runtime", tuple(lost))


def test_a_started_pooled_shard_emits_a_chunk_without_another_feed(
    od_planner, tiny_jackson
):
    """Merge on completion: one fed chunk's matches and windows arrive once
    its filter phase is done, not at the next feed."""
    cars = QueryBuilder("cars").count("car").at_least(0).build()
    windowed = QueryBuilder("cars_w").count("car").at_least(0).window(8, 8).build()
    buffer = BufferEmitter()
    service = QueryService(emitters=[buffer])
    service.attach_stream(
        "cam",
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=16, parallel=ParallelConfig(num_workers=2)),
    )
    handles = [
        service.register("cam", query, od_planner.plan(query)) for query in (cars, windowed)
    ]
    service.start()
    try:
        service.feed("cam", _frames(tiny_jackson.test, 16))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and len(buffer.windows(handles[1])) < 2:
            time.sleep(0.01)
        matches = buffer.emissions("matches", handles[0])
        assert [emission.matched_frames for emission in matches] == [tuple(range(16))]
        assert [window.bounds.stop for window in buffer.windows(handles[1])] == [8, 16]
    finally:
        service.close()


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
