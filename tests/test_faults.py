"""Fault injection, self-healing execution, quarantine and checkpoint/resume.

The fault layer's core promise is *bit-identical recovery*: any injected
fault that the retry policy or the worker supervisor can absorb (decode
error, filter/detector exception, worker crash or stall, queue stall,
shard crash, emitter raise) leaves the scan's output — matched frames,
windows, work counters, simulated cost — exactly equal to a fault-free
run, with the whole episode accounted on ``ExecutionStats.faults``; the
differential harness's fault-schedule configs hold decode, filter and
detector retries to that on every path (``tests/test_differential.py -m
chaos``), and this module keeps the per-site goldens it does not.  A
fault that *exhausts* its budget quarantines the smallest possible frame
group (a frame for the detector, a chunk elsewhere) and the scan
continues; nothing else changes.  Checkpoint/restore extends the promise
across process death: a resumed session re-emits no window and skips
none.
"""

from __future__ import annotations

import pickle
import re
import threading
from contextlib import nullcontext
from dataclasses import asdict

import pytest

from repro import hooks
from repro.cost import RETRY_BACKOFF_COMPONENT, SimulatedClock
from repro.detection import ReferenceDetector
from repro.faults import (
    FaultError,
    FaultExhausted,
    FaultInjector,
    FaultReport,
    QuarantineRecord,
    RetryPolicy,
    current_injector,
    current_report,
    install,
    maybe_install_from_env,
    parse_fault_spec,
    uninstall,
)
from repro.query import (
    FilterCascade,
    ParallelConfig,
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    parse_query,
)
from repro.query.diagnostics import AnalysisError
from repro.query.session import CHECKPOINT_VERSION, ScanSession
from repro.service import (
    BufferEmitter,
    CallbackEmitter,
    QueryService,
    StreamConfig,
)
from tests.differential import normalize

DETECTOR_SEED = 77

WINDOWED_TEXT = """
SELECT cameraID, frameID
FROM (PROCESS inputVideo PRODUCE cameraID, frameID, vehBox1 USING VehDetector)
WINDOW HOPPING (SIZE 20, ADVANCE BY 10)
WHERE COUNT(car) >= 1
"""


# ----------------------------------------------------------------------
# Fixtures and helpers
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _no_injector_leaks():
    """Every test must leave the injector slot empty."""
    assert current_injector() is None
    yield
    leaked = current_injector()
    uninstall()
    assert leaked is None, f"test leaked installed injector {leaked!r}"


@pytest.fixture(scope="module")
def od_planner(trained_od_filter):
    return QueryPlanner({"od": trained_od_filter}, PlannerConfig(count_tolerance=1))


@pytest.fixture(scope="module")
def cars_workload(od_planner):
    query = QueryBuilder("cars").count("car").at_least(1).build()
    return [query], [od_planner.plan(query)]


def _executor(tiny_jackson):
    return StreamingQueryExecutor(
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED)
    )


def _frames(stream):
    return [stream.frame(index) for index in range(len(stream))]


def _assert_result_parity(result, baseline):
    """Equal but for what a recovered run adds: the harness's normalizer."""
    assert normalize(asdict(result)) == normalize(asdict(baseline))


def _service_scan(
    queries,
    cascades,
    stream,
    class_names,
    *,
    chunk_size=10,
    emitters=(),
    start=False,
):
    """Feed ``stream`` through a fresh service; returns (results, stats)."""
    service = QueryService(emitters=list(emitters))
    service.attach_stream(
        "cam",
        ReferenceDetector(class_names=class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=chunk_size),
    )
    handles = [
        service.register("cam", query, cascade)
        for query, cascade in zip(queries, cascades)
    ]
    if start:
        service.start()
    frames = _frames(stream)
    for begin in range(0, len(frames), chunk_size):
        service.feed("cam", frames[begin : begin + chunk_size])
    if start:
        service.stop(drain=True)
    stats = service.stats().streams["cam"]
    results = service.close()
    return [results[handle] for handle in handles], stats


# ----------------------------------------------------------------------
# RetryPolicy and the injector's decision core
# ----------------------------------------------------------------------
def test_retry_policy_backoff_math_and_validation():
    policy = RetryPolicy(max_attempts=4, backoff_ms=2.0, backoff_factor=3.0)
    assert [policy.backoff_for(n) for n in (1, 2, 3)] == [2.0, 6.0, 18.0]
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_ms=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)


def test_schedule_is_consumed_per_attempt():
    injector = FaultInjector(schedule={("decode", 5): 2})
    assert injector.unfired() == (("decode", 5, 2),)
    assert injector.should_fault("decode", 5)
    assert injector.should_fault("decode", 5)
    assert not injector.should_fault("decode", 5)
    assert injector.unfired() == ()
    report = injector.report()
    assert report.injected_count == 2
    assert report.by_site() == {"decode": 2}
    assert [fault.occurrence for fault in report.injected] == [1, 2]


def test_rate_injection_is_seeded_and_interleaving_free():
    draws = lambda seed: [  # noqa: E731
        FaultInjector(seed=seed, rates={"emitter": 0.4}).should_fault("emitter", key)
        for key in range(64)
    ]
    first, second = draws(7), draws(7)
    assert first == second  # same seed, same decisions — no global RNG
    assert draws(8) != first  # the seed actually matters
    assert 0 < sum(first) < 64  # a 40% rate fires some but not all


def test_injector_rejects_bad_configuration():
    with pytest.raises(ValueError):
        FaultInjector(schedule={("warp_core", 1): 1})
    with pytest.raises(ValueError):
        FaultInjector(schedule={("decode", 1): 0})
    with pytest.raises(ValueError):
        FaultInjector(rates={"decode": 1.5})
    with pytest.raises(ValueError):
        FaultInjector(stall_seconds=-1.0)


def test_with_retry_recovers_and_charges_simulated_backoff():
    injector = FaultInjector(
        schedule={("filter", 0): 2},
        retry=RetryPolicy(max_attempts=3, backoff_ms=2.0, backoff_factor=2.0),
    )
    clock = SimulatedClock()
    calls = []
    result = injector.with_retry("filter", 0, clock, lambda: calls.append(1) or 42)
    assert result == 42
    assert len(calls) == 1  # both faults fired pre-attempt; the thunk ran once
    per_ms = clock.breakdown.per_component_ms
    assert per_ms[RETRY_BACKOFF_COMPONENT] == pytest.approx(6.0)
    report = injector.report()
    assert (report.retries, report.recovered, report.exhausted) == (2, 1, 0)
    assert report.backoff_ms == pytest.approx(6.0)


def test_with_retry_exhaustion_raises_with_attempt_count():
    injector = FaultInjector(
        schedule={("filter", 3): 3}, retry=RetryPolicy(max_attempts=3)
    )
    with pytest.raises(FaultExhausted) as excinfo:
        injector.with_retry("filter", 3, None, lambda: 1)
    assert excinfo.value.site == "filter"
    assert excinfo.value.key == 3
    assert excinfo.value.attempts == 3
    report = injector.report()
    assert (report.retries, report.recovered, report.exhausted) == (3, 0, 1)


def test_with_retry_never_retries_genuine_errors():
    injector = FaultInjector()
    attempts = []

    def thunk():
        attempts.append(1)
        raise ValueError("not an injected fault")

    with pytest.raises(ValueError):
        injector.with_retry("filter", 0, None, thunk)
    assert len(attempts) == 1
    assert injector.report().retries == 0


# ----------------------------------------------------------------------
# Hook installation
# ----------------------------------------------------------------------
def test_install_uninstall_and_double_install_semantics():
    assert hooks.injector is None
    injector = FaultInjector()
    install(injector)
    try:
        assert hooks.injector is injector
        with pytest.raises(RuntimeError):
            install(FaultInjector())
        # A stale handle from another session must not evict the live one.
        uninstall(FaultInjector())
        assert hooks.injector is injector and current_injector() is injector
    finally:
        uninstall(injector)
    assert hooks.injector is None
    uninstall()  # idempotent when nothing is installed


def test_injector_slot_is_emptied_when_the_session_body_raises():
    with pytest.raises(KeyError):
        with FaultInjector() as injector:
            assert hooks.injector is injector
            raise KeyError("boom")
    assert hooks.injector is None


def test_injector_is_a_context_manager():
    with FaultInjector() as injector:
        assert current_injector() is injector
    assert current_injector() is None


def test_current_report_is_none_on_fault_free_runs():
    assert current_report(()) is None
    record = QuarantineRecord("runtime", 0, (0,), "boom")
    report = current_report((record,))
    assert isinstance(report, FaultReport)
    assert report.quarantined == (record,)
    assert report.injected_count == 0


# ----------------------------------------------------------------------
# REPRO_FAULTS spec parsing and env installation
# ----------------------------------------------------------------------
def test_parse_fault_spec_grammar():
    injector = parse_fault_spec(
        "seed=7, stall=0.5; retries=4, backoff=2.5,"
        " decode@12, filter@8x3, shard_crash@cam:1, emitter%0.05"
    )
    assert injector.seed == 7
    assert injector.stall_seconds == 0.5
    assert injector.retry.max_attempts == 4
    assert injector.retry.backoff_ms == 2.5
    assert injector._schedule == {
        ("decode", 12): 1,
        ("filter", 8): 3,
        ("shard_crash", "cam:1"): 1,
    }
    assert injector._rates == {"emitter": 0.05}
    with pytest.raises(ValueError):
        parse_fault_spec("warp=9")
    with pytest.raises(ValueError):
        parse_fault_spec("justaword")
    with pytest.raises(ValueError):
        parse_fault_spec("warp_core@1")


def test_parse_fault_spec_keeps_every_valid_key_form():
    injector = parse_fault_spec(
        "decode@0x2, worker_stall@3, queue_stall@0, emitter@6,"
        " shard_crash@box:12x2, detector%1, filter%0, seed=-4"
    )
    assert injector.seed == -4
    assert injector._schedule == {
        ("decode", 0): 2,
        ("worker_stall", 3): 1,
        ("queue_stall", 0): 1,
        ("emitter", 6): 1,
        ("shard_crash", "box:12"): 2,
    }
    assert injector._rates == {"detector": 1.0, "filter": 0.0}
    assert (injector.stall_seconds, injector.retry) == (0.25, RetryPolicy())


@pytest.mark.parametrize(
    "bad",
    [
        "decode@",  # no key
        "decode@12x",  # a count suffix with no count
        "decode@1.5",  # frame indices are integers
        "filter@ax3",  # a string key at an integer-keyed site
        "worker_crash@-1",  # chunk ids are never negative
        "decode@12x0",  # a count below one
        "shard_crash@5",  # shard keys are "<stream>:<chunk>"
        "shard_crash@cam:01",  # ... and the shard writes chunk numbers plainly
        "stall=nan",
        "stall=inf",
        "stall=1e10",  # past what time.sleep accepts
        "stall=-1",
        "backoff=nan",
        "backoff=inf",
        "retries=0",
        "seed=abc",
        "emitter%nan",
        "emitter%abc",
        "warp_core@1",
        "warp=9",
        "justaword",
    ],
)
def test_parse_fault_spec_names_the_token_it_refuses(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        parse_fault_spec(f"seed=7, decode@3, {bad}, emitter%0.5")


@pytest.mark.parametrize(
    "build",
    [
        lambda: RetryPolicy(max_attempts=float("nan")),
        lambda: RetryPolicy(backoff_ms=float("nan")),
        lambda: RetryPolicy(backoff_ms=float("inf")),
        lambda: RetryPolicy(backoff_factor=float("nan")),
        lambda: RetryPolicy(backoff_factor=float("inf")),
        lambda: FaultInjector(stall_seconds=float("nan")),
        lambda: FaultInjector(stall_seconds=float("inf")),
        lambda: FaultInjector(schedule={("decode", "12"): 1}),
        lambda: FaultInjector(schedule={("decode", True): 1}),
        lambda: FaultInjector(schedule={("shard_crash", 5): 1}),
        lambda: FaultInjector(schedule={("decode", 1): float("nan")}),
        lambda: FaultInjector(rates={"decode": float("nan")}),
    ],
    ids=[
        "attempts-nan", "backoff-nan", "backoff-inf", "factor-nan", "factor-inf",
        "stall-nan", "stall-inf", "string-frame-key", "bool-frame-key", "int-shard-key",
        "count-nan", "rate-nan",
    ],
)
def test_constructors_refuse_values_no_fault_could_use(build):
    with pytest.raises(ValueError):
        build()


def test_a_nan_stall_in_the_environment_fails_at_service_construction(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "worker_stall@0, stall=nan")
    with pytest.raises(ValueError, match=re.escape("'stall=nan'")):
        QueryService()
    assert current_injector() is None


def test_maybe_install_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert maybe_install_from_env() is None

    monkeypatch.setenv("REPRO_FAULTS", "decode@3")
    injector = maybe_install_from_env()
    assert injector is not None and current_injector() is injector
    # A second caller (e.g. a service built inside the session) defers.
    assert maybe_install_from_env() is None
    uninstall(injector)


def test_concurrent_env_installs_have_one_winner_and_no_error(monkeypatch):
    """Two services constructed at once with ``REPRO_FAULTS`` set: check and
    install are one step, so one installs and the other defers.  They used
    to be two lock acquisitions with the spec parse in between; both
    callers passed the check and the loser died in ``install``."""
    from repro.faults import injector as injector_module

    monkeypatch.setenv("REPRO_FAULTS", "decode@3")
    barrier = threading.Barrier(2)
    parse = injector_module.parse_fault_spec

    def parse_then_meet(spec):
        # Hold both callers at the same point mid-call, past any early
        # check, so the interleaving does not depend on the scheduler.
        built = parse(spec)
        barrier.wait(timeout=10)
        return built

    monkeypatch.setattr(injector_module, "parse_fault_spec", parse_then_meet)
    outcomes: list = []

    def construct():
        try:
            outcomes.append(maybe_install_from_env())
        except Exception as error:  # the parent's failure mode
            outcomes.append(error)

    threads = [threading.Thread(target=construct) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    winners = [outcome for outcome in outcomes if outcome is not None]
    assert len(outcomes) == 2 and len(winners) == 1, outcomes
    assert current_injector() is winners[0]
    uninstall(winners[0])


def test_failed_service_close_still_uninstalls_the_env_injector(
    cars_workload, tiny_jackson, monkeypatch
):
    """Regression: ``close()`` uninstalled the ``REPRO_FAULTS`` injector only
    after every ``close_stream`` returned, so one raising left it live with
    no owner and the next service declined to install its own."""
    monkeypatch.setenv("REPRO_FAULTS", "decode@3")
    queries, cascades = cars_workload
    service = QueryService()
    assert service._env_injector is not None
    assert current_injector() is service._env_injector
    service.attach_stream(
        "cam", ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED)
    )
    service.register("cam", queries[0], cascades[0])

    def failing_finish():
        raise RuntimeError("worker error surfacing in the drain")

    monkeypatch.setattr(service._shards["cam"], "finish", failing_finish)
    with pytest.raises(RuntimeError, match="surfacing in the drain"):
        service.close()
    assert current_injector() is None
    successor = QueryService()
    try:
        assert successor._env_injector is not None
    finally:
        successor.close()


# ----------------------------------------------------------------------
# Golden fault-site tests: decode
# ----------------------------------------------------------------------
def test_decode_exhaustion_quarantines_the_chunk(cars_workload, tiny_jackson):
    queries, cascades = cars_workload
    baseline = _executor(tiny_jackson).execute_many(
        queries, tiny_jackson.test, cascades, batch_size=10
    )
    retry = RetryPolicy(max_attempts=3)
    with FaultInjector(schedule={("decode", 3): 3}, retry=retry):
        faulted = _executor(tiny_jackson).execute_many(
            queries, tiny_jackson.test, cascades, batch_size=10
        )
    lost = set(range(0, 10))  # frame 3's chunk under batch_size=10
    # ``frames_scanned`` counts what entered the accumulators; the gap is
    # carried by the quarantine record and visible in the work counters.
    assert faulted[0].stats.frames_scanned == baseline[0].stats.frames_scanned - len(lost)
    assert (
        faulted[0].stats.filter_invocations
        == baseline[0].stats.filter_invocations - len(lost)
    )
    assert faulted[0].matched_frames == tuple(
        index for index in baseline[0].matched_frames if index not in lost
    )
    report = faulted[0].stats.faults
    assert report.exhausted == 1
    assert len(report.quarantined) == 1
    record = report.quarantined[0]
    assert record.site == "decode" and record.key == 3
    assert record.frames == tuple(sorted(lost))


# ----------------------------------------------------------------------
# Golden fault-site tests: filter and detector
# ----------------------------------------------------------------------
def test_filter_poison_chunk_is_quarantined(cars_workload, tiny_jackson):
    queries, cascades = cars_workload
    baseline = _executor(tiny_jackson).execute_many(
        queries, tiny_jackson.test, cascades, batch_size=10
    )
    with FaultInjector(
        schedule={("filter", 10): 3}, retry=RetryPolicy(max_attempts=3)
    ):
        faulted = _executor(tiny_jackson).execute_many(
            queries, tiny_jackson.test, cascades, batch_size=10
        )
    lost = set(range(10, 20))
    assert (
        faulted[0].stats.filter_invocations
        == baseline[0].stats.filter_invocations - len(lost)
    )
    assert faulted[0].matched_frames == tuple(
        index for index in baseline[0].matched_frames if index not in lost
    )
    record = faulted[0].stats.faults.quarantined[0]
    assert record.site == "filter" and record.frames == tuple(sorted(lost))


def test_quarantined_chunk_reads_the_same_one_shot_and_through_the_service(
    od_planner, tiny_jackson
):
    """One result builder: ``frames_scanned`` counts the frames that entered
    the accumulators (per query and per window) and ``stats.faults`` names
    the rest, whichever engine produced the result."""
    queries, cascades = _checkpoint_workload(od_planner)
    schedule, retry = {("filter", 10): 3}, RetryPolicy(max_attempts=3)
    with FaultInjector(schedule=schedule, retry=retry):
        one_shot = _executor(tiny_jackson).execute_many(
            queries, tiny_jackson.test, cascades, batch_size=10
        )
    with FaultInjector(schedule=schedule, retry=retry):
        replayed, _ = _service_scan(
            queries, cascades, tiny_jackson.test, tiny_jackson.class_names
        )
    lost = tuple(range(10, 20))
    for via_service, via_executor in zip(replayed, one_shot):
        assert via_executor.stats.frames_scanned == len(tiny_jackson.test) - len(lost)
        assert via_service.stats.frames_scanned == via_executor.stats.frames_scanned
        assert via_service.stats.faults is not None
        assert (
            via_service.stats.faults.quarantined
            == via_executor.stats.faults.quarantined
        )
        assert [record.frames for record in via_service.stats.faults.quarantined] == [lost]
        assert via_service.windows == via_executor.windows
    # The window [10, 30) lost half its frames, [0, 20) the other half.
    assert [window.stats.frames_scanned for window in replayed[1].windows] == [
        10, 10, 20, 20, 10,
    ]


def test_detector_exhaustion_quarantines_one_frame(tiny_jackson):
    # An empty cascade sends every frame to the detector.
    query = QueryBuilder("everything").count("car").at_least(0).build()
    baseline = _executor(tiny_jackson).execute_many(
        [query], tiny_jackson.test, [FilterCascade()], batch_size=10
    )
    with FaultInjector(
        schedule={("detector", 5): 3}, retry=RetryPolicy(max_attempts=3)
    ):
        faulted = _executor(tiny_jackson).execute_many(
            [query], tiny_jackson.test, [FilterCascade()], batch_size=10
        )
    # The quarantine is frame-granular: only frame 5 is lost.
    assert faulted[0].matched_frames == tuple(
        index for index in baseline[0].matched_frames if index != 5
    )
    # The frame passed its (empty) cascade before the detector gave up, so
    # per-query coverage stats keep it; the *shared* invocation counter is
    # the honest one — the detector never produced an answer for frame 5.
    assert (
        faulted.shared.detector_invocations
        == baseline.shared.detector_invocations - 1
    )
    report = faulted[0].stats.faults
    assert report.exhausted == 1
    assert len(report.quarantined) == 1
    record = report.quarantined[0]
    assert record.site == "detector" and record.frames == (5,)


# ----------------------------------------------------------------------
# The gated (degraded) path shares the one frame evaluation, fault sites
# included
# ----------------------------------------------------------------------
def _gated_session_scan(tiny_jackson, degraded, schedule=None, frames=20):
    """Push 10-frame chunks of an everything-query through a live session,
    held degraded (gated by ``DEGRADED_GATE``) from its first chunk or not.

    Degraded, the first 20 frames of ``tiny_jackson.test`` compute frames
    0, 3, 6, 9, 13 and 17 and reuse the keyframe at the others.
    """
    query = QueryBuilder("everything").count("car").at_least(0).build()
    detector = ReferenceDetector(
        class_names=tiny_jackson.class_names, seed=DETECTOR_SEED
    )
    pushed = _frames(tiny_jackson.test)[:frames]
    with ScanSession(detector, live=True) as session:
        sid = session.add_query(query, FilterCascade())
        session.set_degraded(degraded)
        state = session.states[sid]
        with (
            FaultInjector(schedule=schedule, retry=RetryPolicy(max_attempts=3))
            if schedule is not None
            else nullcontext()
        ):
            for begin in range(0, frames, 10):
                session.push_chunk(pushed[begin : begin + 10])
        return (
            tuple(session.quarantined),
            (list(state.scanned), list(state.passed), list(state.matched)),
            session.shared_detector_invocations,
            session.temporal_stats,
        )


def test_gated_detector_exhaustion_quarantines_one_frame(tiny_jackson):
    # Frame 6 is a computed frame of the degraded scan.  Every frame of the
    # everything-query matches, reused or computed, so the gated scan must
    # agree with the inline one frame for frame, under the fault too.
    schedule = {("detector", 6): 3}
    inline = _gated_session_scan(tiny_jackson, False, schedule)
    gated = _gated_session_scan(tiny_jackson, True, schedule)
    records, (scanned, passed, matched), detector_calls, stats = gated
    # Frame-granular: only frame 6 is set aside; frames 0-5 are not
    # re-reported and frames 7-9 are not lost.
    assert [(r.site, r.frames) for r in records] == [("detector", (6,))]
    assert scanned == list(range(20)) and passed == list(range(20))
    assert matched == [index for index in range(20) if index != 6]
    assert (records, (scanned, passed, matched)) == inline[:2]
    assert inline[2] == 19
    # The gate computed the frames it did not reuse; frame 6's call gave up.
    assert detector_calls == stats.frames_computed - 1 < 19


def test_gated_poisoned_frame_is_not_installed_as_keyframe(tiny_jackson):
    # The degraded gate trusts every reuse.  Frame 13 is computed and frames
    # 14-16 reuse it; frame 13's detector call exhausts its retries.
    clean = _gated_session_scan(tiny_jackson, True)
    records, (scanned, _, matched), _, stats = _gated_session_scan(
        tiny_jackson, True, {("detector", 13): 3}
    )
    assert clean[3].frames_computed == 6
    assert [record.frames for record in records] == [(13,)]
    assert scanned == list(range(20))
    # Had the answerless frame 13 become the keyframe, frames 14-16 would
    # have reused "no match".  It did not: frame 14 was computed instead.
    assert matched == [index for index in range(20) if index != 13]
    assert stats.frames_computed == clean[3].frames_computed + 1


# ----------------------------------------------------------------------
# Golden fault-site tests: worker crash / stall under supervision
# ----------------------------------------------------------------------
@pytest.mark.parallel
def test_unsupervised_scan_fails_fast(cars_workload, tiny_jackson):
    queries, cascades = cars_workload
    parallel = ParallelConfig(num_workers=2)
    with FaultInjector(schedule={("worker_crash", 0): 1}):
        with pytest.raises(FaultError):
            _executor(tiny_jackson).execute_many(
                queries, tiny_jackson.test, cascades, batch_size=8, parallel=parallel
            )


@pytest.mark.parallel
def test_worker_redispatch_exhaustion_quarantines_chunk(
    cars_workload, tiny_jackson
):
    queries, cascades = cars_workload
    parallel = ParallelConfig(num_workers=2, supervise=True, max_redispatch=1)
    baseline = _executor(tiny_jackson).execute_many(
        queries, tiny_jackson.test, cascades, batch_size=8, parallel=parallel
    )
    # Two crashes of chunk 1 exceed max_redispatch=1: poisoned chunk.
    with FaultInjector(schedule={("worker_crash", 1): 2}):
        faulted = _executor(tiny_jackson).execute_many(
            queries, tiny_jackson.test, cascades, batch_size=8, parallel=parallel
        )
    lost = set(range(8, 16))  # chunk 1 under batch_size=8
    assert faulted[0].matched_frames == tuple(
        index for index in baseline[0].matched_frames if index not in lost
    )
    report = faulted[0].stats.faults
    assert report.exhausted == 1
    record = report.quarantined[0]
    assert record.site == "worker" and record.frames == tuple(sorted(lost))


@pytest.mark.parallel
def test_worker_chunk_ids_stay_partition_positions_past_an_undecodable_chunk(
    cars_workload, tiny_jackson
):
    """``worker_crash@k`` keys partition chunk ``k`` even when chunk ``k-1``
    was set aside before it reached a worker."""
    queries, cascades = cars_workload
    stream = tiny_jackson.test
    chunk_size = 8
    last = (len(stream) - 1) // chunk_size
    undecodable = (last - 1) * chunk_size + 3
    retry = RetryPolicy(max_attempts=3)
    decode = {("decode", undecodable): retry.max_attempts}
    with FaultInjector(schedule=decode, retry=retry):
        inline = _executor(tiny_jackson).execute_many(
            queries, stream, cascades, batch_size=chunk_size
        )
    parallel = ParallelConfig(num_workers=2, supervise=True)
    with FaultInjector(
        schedule={**decode, ("worker_crash", last): 1}, retry=retry
    ) as injector:
        faulted = _executor(tiny_jackson).execute_many(
            queries, stream, cascades, batch_size=chunk_size, parallel=parallel
        )
    # Had the undecodable chunk not consumed an id, the ids would stop at
    # ``last - 1`` and the crash aimed at the last chunk would never fire.
    assert injector.unfired() == ()
    _assert_result_parity(faulted[0], inline[0])
    quarantined = faulted[0].stats.faults.quarantined
    assert quarantined == inline[0].stats.faults.quarantined
    assert [record.frames for record in quarantined] == [
        tuple(range((last - 1) * chunk_size, last * chunk_size))
    ]
    assert faulted[0].stats.faults.redispatches >= 1
    assert faulted.shared.parallel.num_chunks == last + 1
    assert (
        faulted.shared.filter_computations == inline.shared.filter_computations
        and faulted.shared.detector_invocations == inline.shared.detector_invocations
    )


@pytest.mark.parallel
def test_worker_submission_that_gives_up_still_consumes_its_chunk_id(
    cars_workload, tiny_jackson, monkeypatch
):
    """A pool broken before chunk 1 ships, with no re-dispatch budget left:
    the chunk is quarantined at submission and later chunks keep their ids."""
    from concurrent.futures import BrokenExecutor, Executor

    from repro.query.parallel import WorkerSupervisor

    build_pool = WorkerSupervisor._build_pool
    submitted: list[int] = []

    class BreaksOnChunkOne(Executor):
        def __init__(self, pool):
            self._pool = pool

        def submit(self, task, chunk_id, *args):
            submitted.append(chunk_id)
            if chunk_id == 1:
                raise BrokenExecutor("pool broken by a sibling's crash")
            return self._pool.submit(task, chunk_id, *args)

        def shutdown(self, wait=True, *, cancel_futures=False):
            self._pool.shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(
        WorkerSupervisor,
        "_build_pool",
        lambda supervisor: BreaksOnChunkOne(build_pool(supervisor)),
    )
    queries, cascades = cars_workload
    parallel = ParallelConfig(num_workers=2, supervise=True, max_redispatch=0)
    with FaultInjector(schedule={}):
        faulted = _executor(tiny_jackson).execute_many(
            queries, tiny_jackson.test, cascades, batch_size=8, parallel=parallel
        )
    assert submitted == list(range(faulted.shared.parallel.num_chunks))
    record = faulted[0].stats.faults.quarantined[0]
    assert record.site == "worker" and record.frames == tuple(range(8, 16))


def test_broken_worker_submit_is_redispatched_exactly_once(monkeypatch):
    """Regression: a ``submit`` that raised ``BrokenExecutor`` was recovered
    (re-dispatched) and then submitted *again* by the dispatch loop, which
    filtered the chunk twice."""
    from concurrent.futures import BrokenExecutor, Executor, Future

    from repro.query.parallel import WorkerSupervisor

    attempts: list[int] = []  # every attempt's chunk id, the failed one included
    submitted: list[int] = []

    class StubPool(Executor):
        broken = True  # only the very first submit, on the first pool, fails

        def submit(self, task, chunk_id, covered, directive, frames):
            attempts.append(chunk_id)
            if StubPool.broken:
                StubPool.broken = False
                raise BrokenExecutor("pool broken by a sibling's crash")
            submitted.append(chunk_id)
            future: Future = Future()
            future.set_result("outcome")
            return future

    monkeypatch.setattr(WorkerSupervisor, "_build_pool", lambda supervisor: StubPool())
    config = ParallelConfig(num_workers=2, supervise=True, max_redispatch=2)
    supervisor = WorkerSupervisor(config, [], [])
    entry = supervisor.submit(0, [0, 1], [], None)
    assert attempts == [0, 0] and submitted == [0]
    # One failed attempt plus its one re-dispatch, onto a respawned pool.
    assert entry.attempts == 2
    assert supervisor.redispatches == 1 and supervisor.respawns == 1
    assert supervisor.result(entry) == "outcome"
    supervisor.close()


# ----------------------------------------------------------------------
# Golden fault-site tests: service-side sites (shard, queue, emitter)
# ----------------------------------------------------------------------
def test_shard_crash_exhaustion_quarantines_and_emits(
    cars_workload, tiny_jackson
):
    queries, cascades = cars_workload
    base_results, _ = _service_scan(
        queries, cascades, tiny_jackson.test, tiny_jackson.class_names
    )
    buffer = BufferEmitter()
    # One more crash than the shard retry budget: the chunk is poisoned.
    with FaultInjector(schedule={("shard_crash", "cam:0"): 4}) as injector:
        results, stats = _service_scan(
            queries,
            cascades,
            tiny_jackson.test,
            tiny_jackson.class_names,
            emitters=[buffer],
        )
    lost = set(range(0, 10))
    assert results[0].matched_frames == tuple(
        index for index in base_results[0].matched_frames if index not in lost
    )
    assert stats.quarantined_chunks == 1
    assert stats.faults.quarantined[0].site == "shard_crash"
    emissions = buffer.emissions(kind="fault")
    assert len(emissions) == 1
    assert emissions[0].handle == -1  # quarantine is per stream, not per query
    assert emissions[0].fault.frames == tuple(sorted(lost))
    assert injector.unfired() == ()


def test_queue_stall_is_absorbed_by_the_timed_worker_loop(
    cars_workload, tiny_jackson
):
    queries, cascades = cars_workload
    base_results, _ = _service_scan(
        queries, cascades, tiny_jackson.test, tiny_jackson.class_names
    )
    with FaultInjector(schedule={("queue_stall", 0): 1}) as injector:
        results, stats = _service_scan(
            queries,
            cascades,
            tiny_jackson.test,
            tiny_jackson.class_names,
            start=True,
        )
    _assert_result_parity(results[0], base_results[0])
    assert stats.chunks_processed == stats.chunks_ingested
    assert stats.queue_depth == 0
    assert stats.faults.by_site() == {"queue_stall": 1}
    assert injector.unfired() == ()


def test_injected_emitter_raise_counts_and_warns_once(
    cars_workload, tiny_jackson
):
    queries, cascades = cars_workload
    buffer = BufferEmitter()
    with FaultInjector(
        schedule={("emitter", 0): 1, ("emitter", 1): 1}
    ) as injector:
        with pytest.warns(RuntimeWarning) as caught:
            results, stats = _service_scan(
                queries,
                cascades,
                tiny_jackson.test,
                tiny_jackson.class_names,
                emitters=[buffer],
            )
    assert stats.emitter_errors == 2
    # Two failures of the same emitter produce exactly one warning.
    assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 1
    assert results[0].matched_frames  # the scan itself was untouched
    assert injector.unfired() == ()


def test_raising_emitter_never_kills_the_shard(cars_workload, tiny_jackson):
    queries, cascades = cars_workload
    base_results, _ = _service_scan(
        queries, cascades, tiny_jackson.test, tiny_jackson.class_names
    )

    def explode(emission):
        raise RuntimeError("subscriber bug")

    buffer = BufferEmitter()
    with pytest.warns(RuntimeWarning, match="CallbackEmitter"):
        results, stats = _service_scan(
            queries,
            cascades,
            tiny_jackson.test,
            tiny_jackson.class_names,
            emitters=[CallbackEmitter(explode), buffer],
        )
    _assert_result_parity(results[0], base_results[0])
    assert stats.emitter_errors > 0
    # The healthy emitter kept receiving everything.
    assert buffer.matched_frames() == list(base_results[0].matched_frames)


# ----------------------------------------------------------------------
# Checkpoint / restore
# ----------------------------------------------------------------------
def _checkpoint_workload(od_planner):
    plain = QueryBuilder("cars").count("car").at_least(1).build()
    windowed = parse_query(WINDOWED_TEXT, name="windowed_cars")
    return (
        [plain, windowed],
        [od_planner.plan(plain), od_planner.plan(windowed)],
    )


def _attach_and_register(service, queries, cascades, class_names, emitter=None):
    service.attach_stream(
        "cam",
        ReferenceDetector(class_names=class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=10),
    )
    return [
        service.register("cam", query, cascade, emitter=emitter)
        for query, cascade in zip(queries, cascades)
    ]


def test_checkpoint_restore_round_trip_is_bit_identical(
    od_planner, tiny_jackson
):
    queries, cascades = _checkpoint_workload(od_planner)
    frames = _frames(tiny_jackson.test)

    # Uninterrupted run: the ground truth.
    full = QueryService()
    handles = _attach_and_register(
        full, queries, cascades, tiny_jackson.class_names
    )
    for begin in range(0, len(frames), 10):
        full.feed("cam", frames[begin : begin + 10])
    truth = full.close()

    # Crashed run: scan half, checkpoint, and throw the service away.
    first = QueryService()
    _attach_and_register(first, queries, cascades, tiny_jackson.class_names)
    for begin in range(0, 30, 10):
        first.feed("cam", frames[begin : begin + 10])
    snapshot = pickle.loads(pickle.dumps(first.checkpoint("cam")))
    first.close()

    # Resumed run: fresh service, same queries in the same order.
    buffer = BufferEmitter()
    resumed = QueryService(emitters=[buffer])
    new_handles = _attach_and_register(
        resumed, queries, cascades, tiny_jackson.class_names
    )
    resumed.restore_stream("cam", snapshot)
    for begin in range(30, len(frames), 10):
        resumed.feed("cam", frames[begin : begin + 10])
    results = resumed.close()

    for old, new in zip(handles, new_handles):
        _assert_result_parity(results[new], truth[old])
    # Windows already emitted before the checkpoint are never re-emitted:
    # frames 0..29 closed the windows starting at 0 and 10, so the resumed
    # service emits only the remaining ones.
    resumed_starts = [w.bounds.start for w in buffer.windows()]
    assert resumed_starts == [20, 30, 40]


@pytest.mark.parametrize(
    "chunk_size, cut, streak",
    [
        pytest.param(10, 40, 3, id="mid-reuse-streak"),
        pytest.param(11, 22, 0, id="keyframe-just-before-the-cut"),
    ],
)
def test_checkpoint_restore_of_a_gated_session(
    od_planner, tiny_jackson, chunk_size, cut, streak
):
    """A shard held degraded gates with ``DEGRADED_GATE``; its checkpoint
    carries the gate (keyframe signature, streak, cached verdict), and the
    resumed shard finishes as the uninterrupted one, reuses included."""
    queries, cascades = _checkpoint_workload(od_planner)
    frames = _frames(tiny_jackson.test)

    def degraded_service():
        service = QueryService()
        service.attach_stream(
            "cam",
            ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
            StreamConfig(chunk_size=chunk_size),
        )
        service._shard("cam").session.set_degraded(True)
        handles = [
            service.register("cam", query, cascade)
            for query, cascade in zip(queries, cascades)
        ]
        return service, handles

    def feed(service, begin, end):
        for start in range(begin, end, chunk_size):
            service.feed("cam", frames[start : min(start + chunk_size, end)])

    full, handles = degraded_service()
    feed(full, 0, len(frames))
    truth = full.close()

    first, _ = degraded_service()
    feed(first, 0, cut)
    snapshot = pickle.loads(pickle.dumps(first.checkpoint("cam")))
    first.close()
    assert snapshot["version"] == CHECKPOINT_VERSION
    assert snapshot["session"]["degraded"]
    assert snapshot["degrade_gate"]["streak"] == streak

    resumed, new_handles = degraded_service()
    with pytest.raises(ValueError, match="version"):
        # The pre-_ChunkVerdict payload (version 1) caches another outcome shape.
        resumed.restore_stream("cam", {**snapshot, "version": 1})
    resumed.restore_stream("cam", snapshot)
    feed(resumed, cut, len(frames))
    results = resumed.close()

    for old, new in zip(handles, new_handles):
        _assert_result_parity(results[new], truth[old])
        assert results[new].temporal == truth[old].temporal
        assert results[new].temporal.frames_reused > 0


@pytest.mark.parametrize(
    "version", [1, 2, 3, 4, None], ids=["v1", "v2", "v3", "v4", "missing"]
)
def test_restore_refuses_an_old_or_unversioned_checkpoint_untouched(
    od_planner, tiny_jackson, version
):
    """Versions 1 to 4 (payloads from before the cached chunk verdict, from
    before the per-query profiler state, with the profiler state that
    version 4 dropped, and with the session-wide temporal gate and the
    tail-drop warning registry that version 5 dropped) and a payload with
    no version are refused before the session changes: the refused
    session still checkpoints as fresh, then restores the current payload
    and finishes as the uninterrupted scan."""
    queries, cascades = _checkpoint_workload(od_planner)
    frames = _frames(tiny_jackson.test)

    def session():
        opened = ScanSession(
            ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
            live=True,
        )
        for query, cascade in zip(queries, cascades):
            opened.add_query(query, cascade)
        return opened

    with session() as uninterrupted:
        uninterrupted.push_chunk(frames[:20])
        uninterrupted.push_chunk(frames[20:40])
        truth = uninterrupted.finish()
    with session() as first:
        first.push_chunk(frames[:20])
        snapshot = first.checkpoint()
    stale = {key: value for key, value in snapshot.items() if key != "version"}
    if version is not None:
        stale["version"] = version

    with session() as resumed:
        fresh = resumed.checkpoint()
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version!r}"):
            resumed.restore(stale)
        assert resumed.checkpoint() == fresh
        resumed.restore(snapshot)
        resumed.push_chunk(frames[20:40])
        results = resumed.finish()
    assert list(results) == list(truth) == [0, 1]
    for sid, baseline in truth.items():
        _assert_result_parity(results[sid], baseline)


def test_restore_rejects_mismatched_or_dirty_sessions(od_planner, tiny_jackson):
    queries, cascades = _checkpoint_workload(od_planner)
    frames = _frames(tiny_jackson.test)

    source = QueryService()
    _attach_and_register(source, queries, cascades, tiny_jackson.class_names)
    source.feed("cam", frames[:10])
    snapshot = source.checkpoint("cam")
    source.close()

    # A session that has already scanned cannot be restored over.
    dirty = QueryService()
    _attach_and_register(dirty, queries, cascades, tiny_jackson.class_names)
    dirty.feed("cam", frames[:10])
    with pytest.raises(RuntimeError, match="fresh session"):
        dirty.restore_stream("cam", snapshot)
    dirty.close()

    # The same queries must be re-registered in the same order.
    renamed = QueryService()
    other = QueryBuilder("someone_else").count("car").at_least(1).build()
    _attach_and_register(
        renamed, [other, queries[1]], cascades, tiny_jackson.class_names
    )
    with pytest.raises(ValueError, match="key mismatch"):
        renamed.restore_stream("cam", snapshot)
    renamed.close()

    # Unknown checkpoint versions are refused outright.
    refused = QueryService()
    _attach_and_register(refused, queries, cascades, tiny_jackson.class_names)
    with pytest.raises(ValueError, match="version"):
        refused.restore_stream("cam", {**snapshot, "version": 999})
    refused.close()


# ----------------------------------------------------------------------
# Service lifecycle hardening (the satellite behaviours)
# ----------------------------------------------------------------------
def test_unknown_stream_raises_keyerror_naming_it(tiny_jackson):
    service = QueryService()
    query = QueryBuilder("cars").count("car").at_least(1).build()
    with pytest.raises(KeyError, match="ghost"):
        service.feed("ghost", _frames(tiny_jackson.test)[:5])
    with pytest.raises(KeyError, match="ghost"):
        service.register("ghost", query)
    with pytest.raises(KeyError, match="ghost"):
        service.checkpoint("ghost")
    assert service.close_stream("ghost") == {}
    service.close()


def test_closed_stream_refuses_feed_and_register(cars_workload, tiny_jackson):
    queries, cascades = cars_workload
    service = QueryService()
    service.attach_stream(
        "cam",
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=10),
    )
    service.register("cam", queries[0], cascades[0])
    frames = _frames(tiny_jackson.test)
    service.feed("cam", frames[:10])
    service.stop(drain=True)
    with pytest.raises(AnalysisError, match="'cam'"):
        service.feed("cam", frames[10:20])
    late = QueryBuilder("late").count("car").at_least(1).build()
    with pytest.raises(AnalysisError, match="'cam'"):
        service.register("cam", late)
    service.close()


def test_stop_without_drain_cannot_deadlock_and_is_idempotent(
    cars_workload, tiny_jackson
):
    queries, cascades = cars_workload
    service = QueryService()
    service.attach_stream(
        "cam",
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=DETECTOR_SEED),
        StreamConfig(chunk_size=5, queue_chunks=8),
    )
    service.register("cam", queries[0], cascades[0])
    service.start()
    service.feed("cam", _frames(tiny_jackson.test))
    service.stop(drain=False)  # must return within one poll interval
    service.stop(drain=False)  # double stop is a no-op
    results = service.close()
    assert service.close() == {}  # double close is a no-op
    assert len(results) == 1
