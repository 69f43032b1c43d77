"""Runtime sanitizers (RC0xx / NU0xx): golden findings, seeded races, overhead.

Unit-level tests drive :class:`SanitizerSession` directly with orchestrated
threads (every code gets a golden repro); engine-level tests seed real
defects into a parallel scan — a filter shared across worker clones
(``__deepcopy__`` returning ``self``) for the RC003 race, a thread-dependent
check for RC004 nondeterminism, NaN-poisoned weights for NU001 — and assert
the sanitized engine rejects them while ``sanitize=None`` stays bit-identical
to the sequential path with every hook uninstalled.

Run with ``pytest -m parallel`` (CI's sanitize job runs this module).
"""

from __future__ import annotations

import copy
import threading
import time

import numpy as np
import pytest

from repro import hooks
from repro.analysis import AnalysisError
from repro.analysis.sanitizers import (
    SANITIZE_MODES,
    SanitizerSession,
    active_session,
    chunk_digest,
    parse_sanitize_spec,
    sanitized_scan,
)
from repro.cost import SimulatedClock
from repro.detection import ReferenceDetector
from repro.faults import FaultInjector, RetryPolicy
from repro.filters.base import FilterPrediction, FrameFilter
from repro.filters.neural import NeuralBranchFilter, build_branch_network
from repro.query import (
    CascadeStep,
    FilterCascade,
    ParallelConfig,
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
)
from repro.spatial.grid import Grid

pytestmark = pytest.mark.parallel


# ----------------------------------------------------------------------
# Spec parsing and config validation
# ----------------------------------------------------------------------
def test_parse_sanitize_spec_accepts_all_forms():
    assert parse_sanitize_spec(None) == frozenset()
    assert parse_sanitize_spec("race") == frozenset({"race"})
    assert parse_sanitize_spec("race,numeric") == frozenset({"race", "numeric"})
    assert parse_sanitize_spec("race + determinism") == frozenset(
        {"race", "determinism"}
    )
    assert parse_sanitize_spec("all") == frozenset(SANITIZE_MODES)
    assert parse_sanitize_spec(["numeric"]) == frozenset({"numeric"})
    with pytest.raises(ValueError, match="unknown sanitizer"):
        parse_sanitize_spec("rase")


def test_parallel_config_rejects_in_process_modes_on_process_backend():
    with pytest.raises(ValueError, match="process backend"):
        ParallelConfig(num_workers=2, backend="process", sanitize="race")
    # Determinism only digests merge-loop state in the parent process.
    config = ParallelConfig(num_workers=2, backend="process", sanitize="determinism")
    assert config.sanitize_modes == frozenset({"determinism"})


def test_repro_sanitize_env_supplies_the_default(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "race,numeric")
    assert ParallelConfig(num_workers=2).sanitize_modes == frozenset(
        {"race", "numeric"}
    )
    # Explicit sanitize= wins over the environment.
    assert ParallelConfig(num_workers=2, sanitize="determinism").sanitize_modes == (
        frozenset({"determinism"})
    )
    # Incompatible env modes are dropped (not raised) for the process backend.
    assert ParallelConfig(
        num_workers=2, backend="process"
    ).sanitize_modes == frozenset()


def test_one_active_session_per_process():
    with sanitized_scan("race") as session:
        assert active_session() is session
        with pytest.raises(RuntimeError, match="already active"):
            SanitizerSession("numeric").activate()
    assert active_session() is None


# ----------------------------------------------------------------------
# Golden unit repros, one per code
# ----------------------------------------------------------------------
def _run_in_lockstep(first, second):
    """Run ``first`` and ``second`` so their critical sections overlap."""
    entered = threading.Barrier(2)
    errors: list[BaseException] = []

    def runner(body):
        try:
            body(entered)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=runner, args=(body,), name=f"lockstep-{index}")
        for index, body in enumerate((first, second))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


def test_rc001_disjoint_locksets_on_shared_state():
    session = SanitizerSession("race", strict=False)
    owner = object()

    def body(barrier):
        with session.cache_access(owner, frozenset((id(barrier),))):
            barrier.wait()
            time.sleep(0.01)

    def other_body(barrier):
        with session.cache_access(owner, frozenset()):
            barrier.wait()
            time.sleep(0.01)

    assert not _run_in_lockstep(body, other_body)
    report = session.report()
    assert report.codes == ("RC001",)
    assert "no common lock held" in report.diagnostics[0].message


def test_rc001_silent_when_a_common_lock_is_held():
    session = SanitizerSession("race", strict=False)
    owner = object()
    lock = threading.Lock()
    locks = frozenset((id(lock),))

    def body(barrier):
        barrier.wait()
        with lock, session.cache_access(owner, locks):
            time.sleep(0.005)

    assert not _run_in_lockstep(body, body)
    assert not session.report().diagnostics


def test_rc002_two_threads_in_one_worker_window():
    session = SanitizerSession("race", strict=False)

    def body(barrier):
        with session.worker_window(0, resource_key=1234):
            barrier.wait()
            time.sleep(0.01)

    assert not _run_in_lockstep(body, body)
    assert session.report().codes == ("RC002",)


def test_rc003_one_clock_charged_from_two_worker_windows():
    # The charges themselves never overlap — only the worker windows do —
    # so this exercises the cross-window ``touched`` detection, not the
    # direct temporal-overlap path.
    session = SanitizerSession("race", strict=False)
    clock = SimulatedClock()
    first_charged = threading.Event()
    second_done = threading.Event()

    def first(_barrier):
        with session.worker_window(0, resource_key=0):
            with session.clock_access(clock, "charge", "f", 1.0):
                pass
            first_charged.set()
            assert second_done.wait(timeout=5.0)  # hold the window open

    def second(_barrier):
        assert first_charged.wait(timeout=5.0)
        try:
            with session.worker_window(1, resource_key=1):
                with session.clock_access(clock, "charge", "f", 1.0):
                    pass
        finally:
            second_done.set()

    assert not _run_in_lockstep(first, second)
    report = session.report()
    assert "RC003" in report.codes
    assert "two concurrent worker tasks" in report.render()


def test_nu001_nu002_name_layer_and_chunk():
    session = SanitizerSession("numeric", strict=False)
    net = build_branch_network(2, image_size=8, grid_size=4)
    layer = net.trunk.layers[0]
    with session.worker_window(7, resource_key=id(net)):
        bad = np.array([[1.0, float("nan")], [float("inf"), 0.0]])
        session.check_layer_output(net, 0, layer, bad)
    codes = session.report().codes
    assert codes == ("NU001", "NU002")
    rendered = session.report().render()
    assert "Conv2D(3->8" in rendered
    assert "(chunk 7)" in rendered


def test_nu003_non_finite_charge_through_the_installed_hook():
    clock = SimulatedClock()
    with sanitized_scan("numeric", strict=False) as session:
        clock.charge("detector", float("inf"))
    report = session.report()
    assert report.codes == ("NU003",)
    assert "charge('detector', inf)" in report.diagnostics[0].message


def test_strict_session_raises_at_the_first_finding():
    session = SanitizerSession("numeric", strict=True)
    with pytest.raises(AnalysisError, match="NU001"):
        session.check_layer_output(
            object(), 0, object(), np.array([float("nan")])
        )


def test_chunk_digest_is_order_sensitive_and_stable():
    assert chunk_digest([[1, 2], [3]]) == chunk_digest([[1, 2], [3]])
    assert chunk_digest([[1, 2], [3]]) != chunk_digest([[2, 1], [3]])


# ----------------------------------------------------------------------
# Engine-level seeded defects
# ----------------------------------------------------------------------
class _CheapFilter(FrameFilter):
    """A deterministic filter that passes every frame (and can dawdle)."""

    family = "OD"
    name = "cheap_test_filter"
    latency_ms = 1.0

    def __init__(self, grid: Grid, delay_s: float = 0.0) -> None:
        super().__init__()
        self.grid = grid
        self.delay_s = delay_s

    def predict(self, frame) -> FilterPrediction:
        self._charge()
        if self.delay_s:
            time.sleep(self.delay_s)
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


class _CloneResistantFilter(_CheapFilter):
    """The seeded race: worker 'clones' all alias one filter (and one clock)."""

    name = "clone_resistant_filter"

    def __deepcopy__(self, memo):
        return self


def _grid_for(stream) -> Grid:
    frame = stream.frame(0)
    return Grid(
        rows=4,
        cols=4,
        frame_width=frame.image.shape[1],
        frame_height=frame.image.shape[0],
    )


def _always_pass_cascade(frame_filter) -> FilterCascade:
    return FilterCascade(
        steps=[
            CascadeStep(
                name="seeded", frame_filter=frame_filter, check=lambda p: True
            )
        ]
    )


def _query():
    return QueryBuilder("sanitized").count("car").at_least(0).build()


def _executor(stream):
    return StreamingQueryExecutor(ReferenceDetector(class_names=("car",), seed=9))


def test_seeded_race_raises_rc003_under_sanitize_race(single_object_stream):
    stream = single_object_stream
    shared = _CloneResistantFilter(_grid_for(stream), delay_s=0.002)
    config = ParallelConfig(
        num_workers=2, backend="thread", chunk_size=4, sanitize="race"
    )
    with pytest.raises(AnalysisError) as excinfo:
        _executor(stream).execute(
            _query(), stream, _always_pass_cascade(shared), parallel=config
        )
    codes = {d.code for d in excinfo.value.diagnostics}
    assert codes & {"RC002", "RC003"}
    # The same seeded defect passes silently with the sanitizer off.
    clean = _executor(stream).execute(
        _query(), stream, _always_pass_cascade(shared), parallel=ParallelConfig(
            num_workers=2, backend="thread", chunk_size=4
        )
    )
    assert clean.stats.sanitizer_report is None


def test_honest_filter_is_race_clean(single_object_stream):
    stream = single_object_stream
    config = ParallelConfig(
        num_workers=2, backend="thread", chunk_size=4, sanitize="race,numeric"
    )
    result = _executor(stream).execute(
        _query(), stream, _always_pass_cascade(_CheapFilter(_grid_for(stream))),
        parallel=config,
    )
    report = result.stats.sanitizer_report
    assert report is not None and report.ok and not report.diagnostics


def test_thread_dependent_check_raises_rc004_under_determinism(single_object_stream):
    stream = single_object_stream
    cascade = FilterCascade(
        steps=[
            CascadeStep(
                name="thread-dependent",
                frame_filter=_CheapFilter(_grid_for(stream)),
                check=lambda p: threading.current_thread().name.startswith(
                    "filter-worker"
                ),
            )
        ]
    )
    config = ParallelConfig(
        num_workers=2, backend="thread", chunk_size=8, sanitize="determinism"
    )
    with pytest.raises(AnalysisError, match="RC004") as excinfo:
        _executor(stream).execute(_query(), stream, cascade, parallel=config)
    assert "chunk 0" in str(excinfo.value)


def test_deterministic_scan_is_rc004_clean(single_object_stream):
    stream = single_object_stream
    config = ParallelConfig(
        num_workers=2, backend="thread", chunk_size=8, sanitize="determinism"
    )
    result = _executor(stream).execute(
        _query(), stream, _always_pass_cascade(_CheapFilter(_grid_for(stream))),
        parallel=config,
    )
    assert result.stats.sanitizer_report is not None
    assert result.stats.sanitizer_report.ok


@pytest.mark.filterwarnings("ignore::repro.analysis.WindowTailDropWarning")
def test_determinism_reruns_each_chunk_under_its_dispatched_coverage(
    tiny_jackson, trained_od_filter
):
    """A windowed query with gaps and a dropped tail, an un-windowed one and
    a provably-empty one in one sanitized scan: every chunk is re-run under
    the coverage masks it was dispatched with (a windowed query's alive set
    leaves out the gaps), so the digests agree and the scan equals the inline
    one."""
    planner = QueryPlanner({"od": trained_od_filter}, PlannerConfig(count_tolerance=1))
    queries = [
        QueryBuilder("gapped").count("car").at_least(1).window(8, 11).build(),
        QueryBuilder("plain").count("car").at_least(1).build(),
        QueryBuilder("empty").count("car").at_least(1).build(),
    ]
    cascades = [planner.plan(query) for query in queries[:2]]
    cascades.append(FilterCascade(provably_empty=True))

    def run(**kwargs):
        detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=9)
        return StreamingQueryExecutor(detector).execute_many(
            queries, tiny_jackson.test, cascades, include_partial_windows=False, **kwargs
        )

    inline = run(batch_size=8)
    sanitized = run(
        parallel=ParallelConfig(
            num_workers=2, backend="thread", chunk_size=8, sanitize="determinism"
        )
    )
    assert sanitized.shared.sanitizer_report.ok
    assert sanitized.shared.parallel.num_chunks == 7  # the plain query's 50 frames
    for got, want in zip(sanitized, inline):
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
    assert sanitized[0].stats.frames_scanned == 4 * 8
    assert sanitized[2].stats.frames_scanned == 0
    for counter in ("frames_scanned", "detector_invocations", "filter_computations"):
        assert getattr(sanitized.shared, counter) == getattr(inline.shared, counter)


@pytest.mark.parametrize(
    "schedule, max_redispatch",
    [
        ({("decode", 11): 3}, 2),  # chunk 1 set aside before submission
        ({("worker_crash", 1): 1}, 0),  # chunk 1 poisoned at its merge point
    ],
)
def test_determinism_digests_stay_aligned_past_a_quarantined_chunk(
    single_object_stream, monkeypatch, schedule, max_redispatch
):
    """One digest per partition chunk, keyed by partition position."""
    stream = single_object_stream
    digests: dict[int, str | None] = {}
    verify = SanitizerSession.verify_determinism

    def spy(session, *args, **kwargs):
        digests.update(session._chunk_digests)
        return verify(session, *args, **kwargs)

    monkeypatch.setattr(SanitizerSession, "verify_determinism", spy)
    config = ParallelConfig(
        num_workers=2, backend="thread", chunk_size=8, sanitize="determinism",
        supervise=True, max_redispatch=max_redispatch,
    )
    with FaultInjector(schedule=schedule, retry=RetryPolicy(max_attempts=3)) as injector:
        result = _executor(stream).execute(
            _query(), stream, _always_pass_cascade(_CheapFilter(_grid_for(stream))),
            parallel=config,
        )
    assert injector.unfired() == ()
    assert [record.frames for record in result.stats.faults.quarantined] == [
        tuple(range(8, 16))
    ]
    assert sorted(digests) == list(range(result.stats.parallel.num_chunks))
    assert digests[1] is None
    assert all(digest for chunk_id, digest in digests.items() if chunk_id != 1)
    # Strict mode: a digest recorded under a drifted id would have raised RC004.
    assert result.stats.sanitizer_report.ok


def test_nan_weights_raise_nu001_under_sanitize_numeric(single_object_stream):
    stream = single_object_stream
    network = build_branch_network(1, image_size=8, grid_size=4)
    network.set_training(False)
    conv = network.trunk.layers[0]
    conv.weight[0, 0, 0, 0] = float("nan")
    frame = stream.frame(0)
    poisoned = NeuralBranchFilter(
        network,
        class_names=("car",),
        image_size=8,
        grid_size=4,
        frame_width=frame.image.shape[1],
        frame_height=frame.image.shape[0],
    )
    config = ParallelConfig(
        num_workers=2, backend="thread", chunk_size=8, sanitize="numeric"
    )
    with pytest.raises(AnalysisError, match="NU001") as excinfo:
        _executor(stream).execute(
            _query(), stream,
            _always_pass_cascade(poisoned),
            frame_indices=range(8),
            parallel=config,
        )
    assert "Conv2D" in str(excinfo.value)
    assert "chunk" in str(excinfo.value)


def test_non_strict_scan_collects_findings_and_warns(single_object_stream):
    stream = single_object_stream
    cascade = FilterCascade(
        steps=[
            CascadeStep(
                name="thread-dependent",
                frame_filter=_CheapFilter(_grid_for(stream)),
                check=lambda p: threading.current_thread().name.startswith(
                    "filter-worker"
                ),
            )
        ]
    )
    config = ParallelConfig(
        num_workers=2,
        backend="thread",
        chunk_size=8,
        sanitize="determinism",
        sanitize_strict=False,
    )
    with pytest.warns(UserWarning, match="RC004"):
        result = _executor(stream).execute(_query(), stream, cascade, parallel=config)
    report = result.stats.sanitizer_report
    assert report is not None and report.codes == ("RC004",)


# ----------------------------------------------------------------------
# Zero overhead when off: parity + uninstalled hooks
# ----------------------------------------------------------------------
def test_sanitize_none_keeps_parallel_parity_bit_identical(single_object_stream):
    stream = single_object_stream
    cascade = _always_pass_cascade(_CheapFilter(_grid_for(stream)))
    baseline = _executor(stream).execute(_query(), stream, cascade, batch_size=8)
    result = _executor(stream).execute(
        _query(), stream, copy.deepcopy(cascade),
        parallel=ParallelConfig(num_workers=2, backend="thread", chunk_size=8),
    )
    assert result.matched_frames == baseline.matched_frames
    assert (
        result.stats.simulated_cost.per_component_calls
        == baseline.stats.simulated_cost.per_component_calls
    )
    assert result.stats.simulated_cost.per_component_ms == pytest.approx(
        baseline.stats.simulated_cost.per_component_ms
    )
    assert result.stats.sanitizer_report is None


def test_hooks_stay_uninstalled_without_a_session():
    assert hooks.sanitizer is None and active_session() is None


def test_sanitized_scan_restores_hooks_even_on_error():
    with pytest.raises(RuntimeError, match="boom"):
        with sanitized_scan("race,numeric") as session:
            assert hooks.sanitizer is session
            # The sanitizer's slot is its own: the injector's never moved.
            assert hooks.injector is None
            raise RuntimeError("boom")
    assert hooks.sanitizer is None


def test_stale_session_handle_does_not_evict_the_live_session():
    stale = SanitizerSession("race")
    stale.deactivate()  # never activated: a no-op
    with sanitized_scan("numeric") as session:
        stale.deactivate()
        assert hooks.sanitizer is session
    assert hooks.sanitizer is None
