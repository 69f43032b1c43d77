"""Seeded chaos soak: every fault site fired during the standing-query soak.

The capstone promise of the fault layer, asserted end to end: run the
8-query / 2-worker soak (one inline stream, one stream on supervised
worker threads) twice — once clean, once under a :class:`FaultInjector`
whose schedule hits *every* fault site, including one worker crash, one
worker stall and one poison chunk — and

* every recoverable fault leaves its stream's results bit-identical to
  the clean run;
* the one poison chunk removes exactly its own frames and nothing else,
  and surfaces as a quarantine record plus a ``kind="fault"`` emission;
* every scheduled fault is accounted for (``unfired()`` is empty and the
  :class:`FaultReport` tallies injections, retries, respawns and
  re-dispatches);
* the service tears down without leaking threads.

Filter and detector faults are deliberately routed through the *inline*
stream only, where the retry policy absorbs them: the two streams' frames
carry disjoint indices, so those frame-keyed sites never match a ``south``
frame.  (Inside a worker a filter fault is a failed task, healed by the
supervisor's re-dispatch instead, which the ``worker_crash`` entry already
covers.)
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.detection import ReferenceDetector
from repro.faults import FaultError, FaultInjector, RetryPolicy
from repro.query import ParallelConfig, PlannerConfig, QueryBuilder, QueryPlanner
from repro.query.session import ScanSession
from repro.service import BufferEmitter, QueryService, StreamConfig

pytestmark = pytest.mark.chaos

DETECTOR_SEED = 77
TOTAL_FRAMES = 240
CHUNK_SIZE = 8
CHAOS_RETRY = RetryPolicy(max_attempts=3, backoff_ms=1.0, backoff_factor=2.0)

#: The soak's fault schedule.  Recoverable everywhere except the poison
#: chunk: ``filter@64`` fires ``max_attempts`` times, exhausting the retry
#: budget for the inline chunk whose first frame is 64.
CHAOS_SCHEDULE = {
    ("decode", 7): 1,  # during frame materialisation (retried transparently)
    ("filter", 16): 1,  # inline chunk retry on the north stream
    ("filter", 64): CHAOS_RETRY.max_attempts,  # the poison chunk
    ("detector", 37): 1,  # frame-level retry on the north stream
    ("worker_crash", 3): 1,  # fails one worker task on the south stream
    ("worker_stall", 11): 1,  # wedges one; the supervisor times it out
    ("queue_stall", 2): 1,  # one ingestion dequeue times out empty
    ("emitter", 6): 1,  # one delivery to the buffer emitter raises
    ("shard_crash", "north:12"): 1,  # shard worker dies mid-chunk, replays
}
POISON_FRAMES = tuple(range(64, 64 + CHUNK_SIZE))


@pytest.fixture(scope="module")
def od_planner(trained_od_filter):
    return QueryPlanner({"od": trained_od_filter}, PlannerConfig(count_tolerance=1))


def _looped_frames(stream, total):
    base = [stream.frame(index) for index in range(len(stream))]
    return [
        dataclasses.replace(base[index % len(base)], index=index)
        for index in range(total)
    ]


def _run_soak(od_planner, tiny_jackson, *, emitters=()):
    """One 8-query/2-worker soak pass; returns (per-handle results, stats).

    ``north`` scans inline (filter/detector/shard faults live here, and its
    first query carries no cascade so every frame reaches the detector);
    ``south`` scans through the supervised parallel engine (worker
    crash/stall faults live there).
    """
    service = QueryService(emitters=list(emitters))
    parallel = ParallelConfig(num_workers=2, supervise=True, worker_timeout_seconds=0.5)
    for name, config in (
        ("north", StreamConfig(chunk_size=CHUNK_SIZE, queue_chunks=4, policy="block")),
        (
            "south",
            StreamConfig(
                chunk_size=CHUNK_SIZE,
                queue_chunks=4,
                policy="block",
                parallel=parallel,
            ),
        ),
    ):
        service.attach_stream(
            name,
            ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
            config,
        )
    handles: dict[str, list[int]] = {"north": [], "south": []}
    for name in handles:
        for position in range(4):
            query = (
                QueryBuilder(f"{name}_q{position}")
                .count("car").at_least(1 + position % 2)
                .build()
            )
            # north_q0 runs cascade-free so the detector sees every frame
            # (the detector fault site needs a frame that surely reaches it).
            cascade = (
                None
                if (name, position) == ("north", 0)
                else od_planner.plan(query)
            )
            handles[name].append(service.register(name, query, cascade))

    service.start()
    frames = _looped_frames(tiny_jackson.test, TOTAL_FRAMES)
    # south's indices follow north's: the frame-keyed sites stay on north.
    streams = {
        "north": frames,
        "south": [
            dataclasses.replace(frame, index=TOTAL_FRAMES + frame.index)
            for frame in frames
        ],
    }
    for start in range(0, TOTAL_FRAMES, 24):
        for name in handles:
            service.feed(name, streams[name][start : start + 24])
    service.stop(drain=True)
    stats = {name: service.stats().streams[name] for name in handles}
    results = service.close()
    return (
        {name: [results[handle] for handle in handles[name]] for name in handles},
        stats,
    )


def _assert_parity(result, baseline):
    assert result.query_name == baseline.query_name
    assert result.matched_frames == baseline.matched_frames
    assert result.stats.frames_scanned == baseline.stats.frames_scanned
    assert result.stats.frames_passed_filters == baseline.stats.frames_passed_filters
    assert result.stats.detector_invocations == baseline.stats.detector_invocations
    assert result.stats.filter_invocations == baseline.stats.filter_invocations
    assert (
        result.stats.simulated_cost.per_component_calls
        == baseline.stats.simulated_cost.per_component_calls
    )
    assert result.stats.simulated_cost.total_ms == pytest.approx(
        baseline.stats.simulated_cost.total_ms
    )


def _await_teardown(thread_floor, timeout=10.0):
    """Wait out straggler teardown (an abandoned stalled worker finishes its
    injected sleep before its pool winds down), then assert no leaks."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if threading.active_count() <= thread_floor:
            return
        time.sleep(0.1)
    assert threading.active_count() <= thread_floor, (
        f"leaked threads: {[t.name for t in threading.enumerate()]}"
    )


def test_chaos_soak_is_bit_identical_and_fully_accounted(
    od_planner, tiny_jackson
):
    thread_floor = threading.active_count()

    baseline, baseline_stats = _run_soak(od_planner, tiny_jackson)
    for name in ("north", "south"):
        assert baseline_stats[name].faults is None
        assert baseline_stats[name].quarantined_chunks == 0

    buffer = BufferEmitter()
    injector = FaultInjector(
        seed=11, schedule=CHAOS_SCHEDULE, stall_seconds=1.2, retry=CHAOS_RETRY
    )
    with pytest.warns(RuntimeWarning, match="BufferEmitter"):
        with injector:
            chaos, chaos_stats = _run_soak(
                od_planner, tiny_jackson, emitters=[buffer]
            )

    # -- the capstone: every scheduled fault fired, and is accounted ------
    assert injector.unfired() == ()
    report = injector.report(
        tuple(chaos_stats["north"].faults.quarantined)
        + tuple(chaos_stats["south"].faults.quarantined)
    )
    expected_by_site: dict[str, int] = {}
    for (site, _key), count in CHAOS_SCHEDULE.items():
        expected_by_site[site] = expected_by_site.get(site, 0) + count
    assert report.by_site() == expected_by_site
    assert report.exhausted == 1  # exactly the poison chunk
    assert report.recovered >= 3  # decode, filter@16, detector@37
    assert report.respawns >= 1  # the stalled pool (a failed task leaves it intact)
    assert report.redispatches >= 2  # both south chunks were re-dispatched
    assert report.backoff_ms > 0.0  # simulated, never wall-clock
    assert len(report.quarantined) == 1

    # -- south (worker threads, crash + stall): bit-identical -------------
    for result, base in zip(chaos["south"], baseline["south"]):
        _assert_parity(result, base)
    assert chaos_stats["south"].quarantined_chunks == 0
    assert chaos_stats["south"].chunks_processed == TOTAL_FRAMES // CHUNK_SIZE
    for name in ("north", "south"):
        assert chaos_stats[name].queue_depth == 0
        assert chaos_stats[name].dropped_chunks == 0

    # -- north: exactly the poison chunk is lost, nothing else ------------
    lost = set(POISON_FRAMES)
    for result, base in zip(chaos["north"], baseline["north"]):
        assert result.matched_frames == tuple(
            index for index in base.matched_frames if index not in lost
        )
    assert chaos_stats["north"].quarantined_chunks == 1
    assert chaos_stats["north"].chunks_processed == TOTAL_FRAMES // CHUNK_SIZE
    record = chaos_stats["north"].faults.quarantined[0]
    assert record.site == "filter"
    assert record.frames == POISON_FRAMES

    # -- the poison chunk surfaced as a fault emission ---------------------
    fault_emissions = buffer.emissions(kind="fault")
    assert len(fault_emissions) == 1
    assert fault_emissions[0].stream == "north"
    assert fault_emissions[0].handle == -1
    assert fault_emissions[0].fault.frames == POISON_FRAMES
    # The injected emitter raise was counted, not fatal.
    assert chaos_stats["north"].emitter_errors + chaos_stats[
        "south"
    ].emitter_errors == 1

    # -- no thread leaks --------------------------------------------------
    _await_teardown(thread_floor)


class _RecordingDetector(ReferenceDetector):
    """Remembers which frames reached the detector."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen: list[int] = []

    def detect(self, frame):
        self.seen.append(frame.index)
        return super().detect(frame)


@pytest.mark.parametrize("live", [False, True])
@pytest.mark.parametrize("crashed", [1, 4])
def test_error_exit_discards_in_flight_chunks(od_planner, tiny_jackson, live, crashed):
    """A parallel session left on an exception abandons the scan.

    Unsupervised, a worker crash at chunk 1 of 6 surfaces at that chunk's
    merge point mid-scan, one at chunk 4 in the closing drain.  Either way
    the ``with`` block must raise exactly that error, merge none of the
    chunks behind it (no detector call past the crashed chunk) and leave no
    worker or decode-ahead thread behind.
    """
    thread_floor = threading.active_count()
    query = QueryBuilder("cars").count("car").at_least(1).build()
    detector = _RecordingDetector(
        class_names=tiny_jackson.class_names, seed=DETECTOR_SEED
    )
    frames = _looped_frames(tiny_jackson.test, 6 * CHUNK_SIZE)
    config = ParallelConfig(num_workers=2)
    with FaultInjector(schedule={("worker_crash", crashed): 1}):
        with pytest.raises(FaultError) as excinfo:
            with ScanSession(detector, live=live, parallel=config) as session:
                session.add_query(query, od_planner.plan(query))
                for start in range(0, len(frames), CHUNK_SIZE):
                    session.push_chunk(frames[start : start + CHUNK_SIZE])
    assert type(excinfo.value) is FaultError
    assert (excinfo.value.site, excinfo.value.key) == ("worker_crash", crashed)
    assert all(index < crashed * CHUNK_SIZE for index in detector.seen), detector.seen
    _await_teardown(thread_floor)
    assert not [
        thread.name
        for thread in threading.enumerate()
        if "filter-worker" in thread.name or "decode-ahead" in thread.name
    ]
