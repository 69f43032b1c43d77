"""The one scan loop: a resumable shared multi-query scan fed chunk by chunk.

Every scan in the repo — one-shot ``execute``/``execute_many`` and the
always-on :class:`~repro.service.QueryService` — is "build a
:class:`ScanSession`, feed it, read the states".  The session holds all
cross-chunk state: the per-query accumulators, the merged cascade plan, the
clock attachment, the temporal delta gate, the live window partials and the
parallel backend's in-flight chunks.  Chunk size is the loop's only variable:
the per-frame mode of the executor (``batch_size=None``) is chunk size 1
through :meth:`ScanSession.push_chunk`, and the filter phase of every chunk is
:func:`~repro.query.parallel.run_filter_chunk`, the function the parallel
workers run.  The cascade walk therefore exists exactly twice: vectorized
over a chunk in ``run_filter_chunk`` and per frame in
:meth:`ScanSession._evaluate_frame`, which the temporal gate needs because it
decides reuse one frame at a time.

Two operating modes share the accumulation code:

* ``live=False`` — the executor's mode.  Queries carry precomputed coverage
  (``member_set``) and window partitioning stays with the executor, which
  feeds the session in one of two ways: rendered chunks through
  :meth:`~ScanSession.push_chunk` (with :meth:`~ScanSession.quarantine_chunk`
  for a chunk that could not be rendered), or the whole index sequence
  through :meth:`~ScanSession.run_temporal_scan` (adaptive stride and
  boundary refinement need random access, which a pushed chunk cannot
  give).
* ``live=True`` — the service mode.  Coverage is computed from each query's
  hopping window relative to the frame index at which it registered, windows
  are emitted incrementally the moment the stream's watermark passes their
  end, and queries may be added and removed between chunks (the merged plan
  is recomputed, already-emitted windows are never re-emitted).

In both modes a session built with ``parallel=`` runs the filter phase of
pushed chunks on a worker backend and merges the outcomes strictly in chunk
order; :meth:`ScanSession._push_parallel` / :meth:`ScanSession._merge_next`
are the only submit/merge loop in the repo.  Chunk ids are positions in the
sequence of chunks handed to the session (pushed or set aside), which is what
``worker_crash@k`` / ``worker_stall@k`` fault schedules and the determinism
sanitizer's per-chunk digests are keyed by.

In both modes the session attaches the filters' and the detector's clocks
(and builds the worker backend) when it (re)plans and restores them in
:meth:`~ScanSession.close`, so ``with session:`` is the one context manager
around a scan.  Leaving the ``with`` block on an exception discards in-flight
chunks instead of merging them.

Parity rail: replaying a finite stream chunk-by-chunk through a live session
produces bit-identical per-query results to one-shot ``execute_many`` — both
run this module's accumulation code, and window emission replicates
``_partition_into_windows`` / ``HoppingWindow.windows_over`` semantics
(including the at-most-one-truncated-tail rule).  ``tests/test_service.py``
asserts the parity on the plain, windowed, temporal-exact and parallel paths.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.aggregates.windows import HoppingWindow, WindowBounds, warn_window_tail_drop
from repro.cost import BudgetViolation, CostBreakdown, QueryBudget, SimulatedClock
from repro.detection.base import Detector
from repro.filters.base import FilterPrediction, FrameFilter
from repro.query.ast import Query
from repro.query.evaluation import evaluate_predicates_on_detections
from repro.faults.injector import FaultExhausted, QuarantineRecord
from repro.query.parallel import (
    CascadeProfiler,
    ChunkDispatch,
    ParallelConfig,
    PlanRevision,
    WorkerSupervisor,
    _distinct_filters,
    _worker_sort_key,
    run_filter_chunk,
)
from repro.query.planner import (
    FilterCascade,
    expected_cascade_cost_ms,
    merge_cascade_steps,
    replan_order,
)
from repro.query.temporal import (
    TemporalConfig,
    TemporalScan,
    TemporalStats,
    _Telemetry,
    clocks_detached,
    with_component_reuses,
)
from repro.video.stream import Frame

if TYPE_CHECKING:  # runtime import would be circular (executor imports us)
    from repro.query.executor import QueryExecutionResult, WindowResult

# Runtime sanitizer hook, installed by repro.analysis.sanitizers while a
# sanitized scan runs.  ``None`` means off, and every use is guarded with
# ``is not None`` so the uninstrumented engine is unchanged (INV007).
_WORKER_SANITIZER = None

# Fault-injection hook, installed by repro.faults while a chaos session
# runs.  Same zero-overhead contract as the sanitizer hooks (INV009):
# ``None`` means off, every use sits behind an ``is not None`` guard.
_FAULT_INJECTOR = None

#: Version tag of the :meth:`ScanSession.checkpoint` payload schema.
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class _SessionVerdict:
    """One query's share of a temporally-gated frame outcome.

    ``components`` holds the ``(name, latency_ms)`` cost components a
    standalone run of the query would have charged for the frame.
    """

    components: tuple[tuple[str, float], ...]
    passed: bool
    matched: bool


@dataclass(frozen=True)
class _SessionTemporalOutcome:
    """Cached per-frame outcome of a session's temporal step.

    ``per_query`` is keyed by session id (only covering queries appear);
    the gate's context key pins the covering set, so two outcomes compared
    by the gate always hold the same keys.
    """

    per_query: dict[int, _SessionVerdict]
    computed_components: tuple[str, ...]
    detector_ran: bool


@dataclass
class QueryState:
    """Cross-chunk state of one standing (or executor-internal) query.

    The accumulator lists (``scanned`` / ``passed`` / ``matched``) grow in
    scan order — in live mode that is ascending frame order, which is what
    lets window emission count by bisection.  ``attributed`` maps
    ``(component_name, latency_ms)`` to the calls a standalone run of this
    query would have made, exactly as ``execute_many`` attributes cost.
    """

    sid: int
    key: str
    query: Query
    cascade: FilterCascade
    member_set: set[int] | None
    window: HoppingWindow | None
    include_partial: bool
    origin: int
    active: bool = True
    provably_empty: bool = False
    scanned: list[int] = field(default_factory=list)
    passed: list[int] = field(default_factory=list)
    matched: list[int] = field(default_factory=list)
    filter_invocations: int = 0
    attributed: dict[tuple[str, float], int] = field(default_factory=dict)
    profiler: CascadeProfiler | None = None
    budget: QueryBudget | None = None
    violations: list[BudgetViolation] = field(default_factory=list)
    violated_kinds: set[str] = field(default_factory=set)
    registered_wall: float = 0.0
    #: next window start index still awaiting emission (live windowed mode)
    next_window_start: int = 0
    windows_closed: bool = False
    emitted_windows: list["WindowResult"] = field(default_factory=list)
    match_cursor: int = 0
    final: "QueryExecutionResult | None" = None

    def covers(self, index: int) -> bool:
        """Whether this query's coverage includes stream frame ``index``."""
        if self.provably_empty:
            return False
        if self.member_set is not None:
            return index in self.member_set
        if index < self.origin:
            return False
        if self.window is None:
            return True
        return (index - self.origin) % self.window.advance < self.window.size


@dataclass(frozen=True)
class ChunkProgress:
    """What one :meth:`ScanSession.push_chunk` call newly established.

    ``new_matches[sid]`` holds match indices confirmed since the previous
    report (parallel sessions confirm at the in-order merge, so a push may
    report matches from earlier chunks and none from its own);
    ``new_windows[sid]`` the window results whose end passed the watermark.
    """

    watermark: int
    new_matches: dict[int, tuple[int, ...]]
    new_windows: dict[int, tuple["WindowResult", ...]]

    @property
    def has_emissions(self) -> bool:
        return bool(self.new_matches or self.new_windows)


class ScanSession:
    """A resumable shared multi-query scan fed one chunk at a time.

    See the module docstring for the ``live`` modes.  A session is *not*
    thread-safe: the service serialises all access per stream shard.  The
    session owns the clock attachment: every registered cascade's distinct
    filters and the detector charge ``self.clock`` from the first plan until
    :meth:`close`.

    ``parallel`` distributes the filter phase of pushed chunks over a worker
    backend with the engine's in-order merge (at most
    ``num_workers + prefetch_depth`` chunks in flight; results, counters and
    clock history are identical to the inline path).  ``temporal`` applies
    delta gating across chunk boundaries with a persistent
    :class:`~repro.query.temporal.DeltaGate` — only ``max_stride=1`` is
    supported (striding needs the whole index sequence up front, which a
    live session never has) and it cannot be combined with ``parallel``.

    ``degrade`` configures the approximate mode that
    :meth:`set_degraded` flips the session into under ingestion overload:
    frames are delta-gated with ``degrade`` (``exact=False`` — reuses are
    trusted, not verified) until the pressure clears.
    """

    def __init__(
        self,
        detector: Detector,
        clock: SimulatedClock | None = None,
        *,
        live: bool = True,
        parallel: ParallelConfig | None = None,
        temporal: TemporalConfig | None = None,
        profile: bool = False,
        degrade: TemporalConfig | None = None,
    ) -> None:
        if temporal is not None and parallel is not None:
            raise ValueError(
                "a session gates frames sequentially; combining temporal= "
                "with parallel= is not supported (the one-shot executor "
                "composes them as prefetch-only)"
            )
        if temporal is not None and temporal.max_stride != 1:
            raise ValueError(
                "session temporal gating needs max_stride=1: adaptive "
                "striding requires the full index sequence up front"
            )
        if degrade is not None and degrade.exact:
            raise ValueError("the degrade config must be approximate (exact=False)")
        if degrade is not None and degrade.max_stride != 1:
            raise ValueError("the degrade config needs max_stride=1")
        self.detector = detector
        self.clock = clock if clock is not None else SimulatedClock()
        self.live = live
        self._parallel = parallel
        self._temporal = temporal
        self._profile = profile
        self._degrade_config = degrade or TemporalConfig(exact=False)
        self._states: list[QueryState] = []
        self._watermark = -1
        self._closed = False
        self._cost_baseline = self.clock.snapshot()
        # Merged plan over the *active* queries, rebuilt on membership change.
        self._plan_dirty = False
        self._active: list[int] = []
        self._active_cascades: list[FilterCascade] = []
        self._assignments: list[list[int]] = []
        self._unique_steps: list = []
        self._distinct_filters: list[FrameFilter] = []
        self._attached: list[tuple[FrameFilter, SimulatedClock | None]] = []
        self._detector_prev_clock = None
        self._detector_attached = False
        # Shared-scan counters (what the scan actually did).
        self.shared_filter_computations = 0
        self.shared_detector_invocations = 0
        self.union_frames_scanned = 0
        # Temporal machinery: a persistent gate (lazy import avoids paying
        # for it on non-temporal sessions), session-lifetime telemetry.
        self._gate = None
        self._telemetry = _Telemetry()
        self._filter_reuses = 0
        self._detector_reuses = 0
        self._detector_component = getattr(detector, "name", "detector")
        self._detector_latency = float(getattr(detector, "latency_ms", 0.0))
        #: degraded-mode state (see :meth:`set_degraded`)
        self.degraded = False
        self.degraded_frames = 0
        self._degrade_gate = None
        # Parallel pipelining state (dispatch goes through a supervisor so
        # dead/stalled workers heal when the config asks for it).  The
        # backend lives exactly as long as the plan it was built from; an
        # in-flight ``None`` is a chunk id consumed by a set-aside chunk.
        self._backend: WorkerSupervisor | None = None
        self._inflight: dict[int, tuple[ChunkDispatch, tuple[int, ...]] | None] = {}
        self._next_submit = 0
        self._next_merge = 0
        self._worker_totals: dict[str, CostBreakdown] = {}
        self.chunks_merged = 0
        #: once-per-session dedup registry for WindowTailDropWarning
        self._warn_registry: set = set()
        #: chunks/frames set aside after retries and supervision gave up
        self.quarantined: list[QuarantineRecord] = []
        self._started_wall = time.perf_counter()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def states(self) -> list[QueryState]:
        return self._states

    @property
    def active_sids(self) -> tuple[int, ...]:
        self._ensure_plan()
        return tuple(self._active)

    @property
    def unique_step_count(self) -> int:
        """Cascade steps after cross-query dedup, over the active queries."""
        self._ensure_plan()
        return len(self._unique_steps)

    @property
    def total_step_count(self) -> int:
        self._ensure_plan()
        return sum(len(cascade.steps) for cascade in self._active_cascades)

    @property
    def step_assignments(self) -> list[list[int]]:
        """Per active query, each cascade step's position among the deduped steps."""
        self._ensure_plan()
        return self._assignments

    @property
    def watermark(self) -> int:
        """Highest merged frame index (``-1`` before any chunk)."""
        return self._watermark

    def add_query(
        self,
        query: Query,
        cascade: FilterCascade | None = None,
        *,
        member_set: set[int] | None = None,
        budget: QueryBudget | None = None,
        key: str | None = None,
        include_partial_windows: bool = True,
    ) -> int:
        """Register a query; returns its session id (stable across churn).

        In live mode coverage derives from ``query.window`` relative to the
        registration point (``member_set`` must be ``None``); in executor
        mode ``member_set`` is the precomputed coverage (``None`` = every
        frame) and window partitioning stays with the caller.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if self.live and member_set is not None:
            raise ValueError("live sessions compute coverage from the query window")
        cascade = cascade if cascade is not None else FilterCascade()
        window: HoppingWindow | None = None
        origin = self._watermark + 1
        if self.live and query.window is not None:
            window = HoppingWindow(size=query.window.size, advance=query.window.advance)
        state = QueryState(
            sid=len(self._states),
            key=key if key is not None else query.name,
            query=query,
            cascade=cascade,
            member_set=member_set if not self.live else None,
            window=window,
            include_partial=include_partial_windows,
            origin=origin,
            provably_empty=cascade.provably_empty,
            budget=budget,
            registered_wall=time.perf_counter(),
            next_window_start=origin,
        )
        if self._profile and len(cascade.steps) > 1:
            state.profiler = CascadeProfiler(cascade, _observer_config(self._parallel))
        self._states.append(state)
        self._invalidate_plan()
        return state.sid

    def remove_query(self, sid: int) -> "QueryExecutionResult":
        """Deregister a query, flushing its tail window, and return its result."""
        state = self._states[sid]
        if not state.active:
            raise ValueError(f"query sid={sid} is not active")
        self._drain_all()
        self._flush_windows(state)
        state.active = False
        state.final = self._finalize_state(state)
        self._invalidate_plan()
        return state.final

    def _invalidate_plan(self) -> None:
        # Membership changed: drain the parallel pipeline under the *old*
        # plan (in-flight outcomes are shaped by the old active list), then
        # drop the backend so the next push rebuilds it with the new plan.
        self._drain_all()
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        self._plan_dirty = True

    def _ensure_plan(self) -> None:
        if not self._plan_dirty:
            return
        self._active = [state.sid for state in self._states if state.active]
        self._active_cascades = [self._states[sid].cascade for sid in self._active]
        self._unique_steps, assignments = merge_cascade_steps(self._active_cascades)
        self._assignments = [list(row) for row in assignments]
        distinct = _distinct_filters(self._active_cascades)
        self._attach_to_clock(distinct)
        self._distinct_filters = distinct
        if self._parallel is not None and self._active and not self._closed:
            # Built with the plan, i.e. before the caller renders a first
            # frame: process workers must fork before any decode-ahead
            # thread exists (a fork after threads can inherit held locks).
            self._backend = WorkerSupervisor(
                self._parallel, self._active_cascades, self._assignments
            )
        self._plan_dirty = False

    def _attach_to_clock(self, distinct: list[FrameFilter]) -> None:
        still = {id(frame_filter) for frame_filter in distinct}
        kept: list[tuple[FrameFilter, SimulatedClock | None]] = []
        attached = {id(frame_filter) for frame_filter, _ in self._attached}
        for frame_filter, previous in self._attached:
            if id(frame_filter) in still:
                kept.append((frame_filter, previous))
            else:
                frame_filter.clock = previous
        for frame_filter in distinct:
            if id(frame_filter) not in attached:
                kept.append((frame_filter, frame_filter.clock))
                frame_filter.clock = self.clock
        self._attached = kept
        if not self._detector_attached and hasattr(self.detector, "clock"):
            self._detector_prev_clock = self.detector.clock
            self.detector.clock = self.clock
            self._detector_attached = True

    # ------------------------------------------------------------------
    # Pushing chunks
    # ------------------------------------------------------------------
    def push_chunk(self, frames: Sequence[Frame]) -> ChunkProgress:
        """Feed one chunk of frames through the pipeline.

        Live sessions require strictly ascending frame indices past the
        watermark (window emission counts by bisection over the accumulator
        lists).  Returns the matches and completed windows the push newly
        confirmed — for parallel sessions that is whatever merged, which may
        lag the submitted chunk by up to the in-flight window.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        frames = list(frames)
        if not frames:
            return self._progress({})
        if self.live:
            previous = self._watermark
            for frame in frames:
                if frame.index <= previous:
                    raise ValueError(
                        f"live sessions need strictly ascending frame indices: "
                        f"{frame.index} after watermark {previous}"
                    )
                previous = frame.index
        self._ensure_plan()
        cursors = self._match_cursors()
        if not self._active:
            self._watermark = max(self._watermark, frames[-1].index)
            return self._progress(cursors)
        try:
            if self._temporal is not None or self.degraded:
                self._push_temporal(frames)
            elif self._parallel is not None:
                self._push_parallel(frames)
            else:
                self._push_inline(frames)
        except FaultExhausted as error:
            # Poison chunk: retries (and, on the parallel path, re-dispatch
            # at submission) gave up.  Quarantine and keep scanning — a
            # standing query must outlive one bad chunk.
            self._quarantine(frames, error)
        return self._progress(cursors)

    def quarantine_chunk(
        self, frames: Sequence[object], error: BaseException
    ) -> QuarantineRecord:
        """Set aside a chunk the caller could not push; the scan continues.

        ``frames`` may be :class:`Frame` objects or bare indices (decode
        exhaustion never materialised any frames).  On a parallel session
        the chunk still consumes a chunk id, so ids stay positions in the
        sequence of chunks handed to the session — what ``worker_crash@k``
        schedules and the determinism sanitizer's digests are keyed by.
        """
        if self._parallel is not None:
            self._inflight[self._next_submit] = None
            self._next_submit += 1
        return self._quarantine(frames, error)

    def _quarantine(
        self, frames: Sequence[object], error: BaseException
    ) -> QuarantineRecord:
        """Record one chunk (or frame) recovery gave up on.

        The watermark still advances past it so window emission and later
        pushes are unaffected; the quarantined frames simply never enter any
        accumulator, and the record lands on ``quarantined`` (surfaced as
        ``FaultReport.quarantined`` and ``Emission(kind="fault")``).
        """
        indices = tuple(
            frame.index if isinstance(frame, Frame) else int(frame)  # type: ignore[attr-defined]
            for frame in frames
        )
        record = QuarantineRecord(
            site=getattr(error, "site", "runtime"),
            key=getattr(error, "key", indices[0] if indices else -1),
            frames=indices,
            error=str(error),
        )
        self.quarantined.append(record)
        if indices:
            self._watermark = max(self._watermark, indices[-1])
        return record

    def _match_cursors(self) -> dict[int, int]:
        return {state.sid: len(state.matched) for state in self._states if state.active}

    def _progress(self, cursors: dict[int, int]) -> ChunkProgress:
        new_matches: dict[int, tuple[int, ...]] = {}
        new_windows: dict[int, tuple] = {}
        for sid, start in cursors.items():
            state = self._states[sid]
            if len(state.matched) > start:
                new_matches[sid] = tuple(state.matched[start:])
            completed = self._emit_completed(state)
            if completed:
                new_windows[sid] = tuple(completed)
        return ChunkProgress(
            watermark=self._watermark,
            new_matches=new_matches,
            new_windows=new_windows,
        )

    # -- inline (sequential) path --------------------------------------
    def _push_inline(self, frames: list[Frame]) -> None:
        states = [self._states[sid] for sid in self._active]
        covered = [[state.covers(frame.index) for frame in frames] for state in states]
        orders = self._current_orders()
        if _FAULT_INJECTOR is not None:
            # Chunk-atomic retry: the fault site is *before* any
            # accumulation inside run_filter_chunk, so a retried chunk
            # replays bit-identically and exhaustion poisons the whole
            # chunk (no partial counters to unwind).
            alive, invocations, attributed, computed, step_stats = (
                _FAULT_INJECTOR.with_retry(
                    "filter",
                    frames[0].index,
                    self.clock,
                    lambda: run_filter_chunk(
                        self._active_cascades,
                        self._assignments,
                        covered,
                        orders,
                        frames,
                    ),
                )
            )
        else:
            alive, invocations, attributed, computed, step_stats = run_filter_chunk(
                self._active_cascades, self._assignments, covered, orders, frames
            )
        self._accumulate_filter_phase(
            states, frames, covered, alive, invocations, attributed, computed
        )
        self._observe_profilers(states, step_stats, frames[-1].index)
        self._detector_phase(states, frames, [set(row) for row in alive])
        self._watermark = max(self._watermark, frames[-1].index)

    def _current_orders(self) -> list[tuple[int, ...]]:
        orders: list[tuple[int, ...]] = []
        for sid in self._active:
            profiler = self._states[sid].profiler
            if profiler is not None:
                orders.append(tuple(profiler.order))
            else:
                orders.append(tuple(range(len(self._states[sid].cascade.steps))))
        return orders

    def _observe_profilers(
        self, states: list[QueryState], step_stats, at_frame: int
    ) -> None:
        for state, stats_row in zip(states, step_stats):
            if state.profiler is not None:
                state.profiler.observe(stats_row, at_frame)

    def _accumulate_filter_phase(
        self,
        states: list[QueryState],
        frames: list[Frame],
        covered: list[list[bool]],
        alive: Sequence[Sequence[int]],
        invocations: Sequence[int],
        attributed: Sequence[dict[tuple[str, float], int]],
        computed: int,
    ) -> None:
        self.shared_filter_computations += computed
        union = 0
        for k in range(len(frames)):
            if any(mask[k] for mask in covered):
                union += 1
        self.union_frames_scanned += union
        for position, state in enumerate(states):
            state.scanned.extend(
                frame.index for k, frame in enumerate(frames) if covered[position][k]
            )
            state.passed.extend(alive[position])
            state.filter_invocations += invocations[position]
            for component, calls in attributed[position].items():
                state.attributed[component] = state.attributed.get(component, 0) + calls

    def _detector_phase(
        self, states: list[QueryState], frames: list[Frame], alive_sets: list[set[int]]
    ) -> None:
        for frame in frames:
            interested = [
                position
                for position in range(len(states))
                if frame.index in alive_sets[position]
            ]
            if not interested:
                continue
            if _FAULT_INJECTOR is not None:
                try:
                    detections = _FAULT_INJECTOR.with_retry(
                        "detector",
                        frame.index,
                        self.clock,
                        lambda frame=frame: self.detector.detect(frame),
                    )
                except FaultExhausted as error:
                    # Frame-level quarantine: the frame keeps its filter
                    # accounting (that work really ran) but contributes no
                    # matches, and the scan moves on.
                    self._quarantine([frame], error)
                    continue
            else:
                detections = self.detector.detect(frame)
            self.shared_detector_invocations += 1
            for position in interested:
                state = states[position]
                if evaluate_predicates_on_detections(state.query, detections):
                    state.matched.append(frame.index)

    # -- parallel path --------------------------------------------------
    def _push_parallel(self, frames: list[Frame]) -> None:
        assert self._parallel is not None and self._backend is not None
        states = [self._states[sid] for sid in self._active]
        chunk = [frame.index for frame in frames]
        covered = [[state.covers(index) for index in chunk] for state in states]
        chunk_id = self._next_submit
        self._next_submit += 1
        # Consumed even if the submission itself gives up (FaultExhausted).
        self._inflight[chunk_id] = None
        entry = self._backend.submit(chunk_id, chunk, frames, covered, self._current_orders())
        self._inflight[chunk_id] = (entry, tuple(self._active))
        if self.live:
            # Emit as early as possible.  A one-shot scan reads nothing
            # between pushes, and merging only when the window is full keeps
            # the adaptive re-planner's submit-time orders independent of
            # worker timing.
            self._drain_ready()
        max_inflight = self._parallel.num_workers + self._parallel.prefetch_depth
        while len(self._inflight) >= max_inflight:
            self._merge_next()

    def _drain_ready(self) -> None:
        while self._next_merge in self._inflight:
            pending = self._inflight[self._next_merge]
            if pending is not None and not pending[0].future.done():
                return
            self._merge_next()

    def _drain_all(self) -> None:
        while self._next_merge in self._inflight:
            self._merge_next()

    def _discard_inflight(self) -> None:
        """Drop every in-flight chunk unmerged (the scan is being abandoned)."""
        for pending in self._inflight.values():
            if pending is not None:
                self._backend.discard(pending[0])
        self._inflight.clear()

    def _merge_next(self) -> None:
        """The in-order merge point: what :meth:`_push_inline` does after filtering.

        Absorbs the chunk's filter cost into the session clock, accumulates
        the per-query counters and runs the detector-union phase, so the
        parallel path stays chunk-for-chunk identical to the inline one.
        """
        chunk_id = self._next_merge
        pending = self._inflight.pop(chunk_id)
        self._next_merge += 1
        outcome = None
        if pending is not None:
            entry, sids = pending
            try:
                outcome = self._backend.result(entry)
            except FaultExhausted as error:
                # Poisoned chunk: supervision re-dispatched it to the limit.
                # The handle is already released; quarantine and keep merging.
                self._quarantine(entry.frames, error)
        if _WORKER_SANITIZER is not None:
            _WORKER_SANITIZER.observe_chunk(chunk_id, outcome)
        if outcome is None:
            return
        self._worker_totals[outcome.worker] = self._worker_totals.get(
            outcome.worker, CostBreakdown()
        ).merged_with(outcome.breakdown)
        states = [self._states[sid] for sid in sids]
        frames = entry.frames
        self.clock.absorb(outcome.breakdown)
        self._accumulate_filter_phase(
            states,
            frames,
            entry.covered,
            outcome.alive,
            outcome.filter_invocations,
            outcome.attributed,
            outcome.computed,
        )
        self._detector_phase(states, frames, [set(row) for row in outcome.alive])
        self._observe_profilers(states, outcome.step_stats, frames[-1].index)
        self._watermark = max(self._watermark, frames[-1].index)
        self.chunks_merged += 1

    @property
    def worker_breakdowns(self) -> dict[str, CostBreakdown]:
        """Per-worker simulated-cost totals of the parallel phase, by worker label."""
        return {
            label: self._worker_totals[label].copy()
            for label in sorted(self._worker_totals, key=_worker_sort_key)
        }

    # -- temporal path --------------------------------------------------
    def _active_gate(self):
        from repro.query.temporal import DeltaGate

        if self._temporal is not None and not self.degraded:
            if self._gate is None:
                self._gate = DeltaGate(self._temporal)
            return self._gate, self._temporal.exact
        if self._degrade_gate is None:
            self._degrade_gate = DeltaGate(self._degrade_config)
        return self._degrade_gate, False

    def _covering(self, index: int) -> tuple[int, ...]:
        """Sids of the active queries covering ``index`` — the gate's context key."""
        return tuple(sid for sid in self._active if self._states[sid].covers(index))

    def run_temporal_scan(
        self,
        config: TemporalConfig,
        indices: Sequence[int],
        render: Callable[[int], Frame],
    ) -> TemporalStats:
        """Executor mode: gate, stride and refine over a known index sequence.

        The change signature is query-independent, so one gate decision
        covers every query at once: a stable frame reuses the keyframe's
        whole shared outcome.  Reuse and stride inheritance only happen
        between frames covered by the same set of queries (the scan's
        context key), so a windowed query's coverage boundary always forces
        a keyframe.  :class:`~repro.query.temporal.TemporalScan` supplies
        the striding and refinement; evaluation, verification, reuse
        charging and accumulation are the ones :meth:`push_chunk` gates
        with.  ``render`` materialises a frame (the parallel composition
        passes a decode-ahead prefetcher).  Unlike a pushed chunk, a retry
        budget exhausted mid-scan propagates: skipped frames inherit from
        their neighbours, so there is no chunk to set aside.
        """
        self._ensure_plan()
        contexts: dict[int, tuple[int, ...]] = {}

        def context_key(index: int) -> tuple[int, ...]:
            context = contexts.get(index)
            if context is None:
                context = contexts[index] = self._covering(index)
            return context

        scan = TemporalScan(
            config,
            render=render,
            compute=lambda frame: self._evaluate_frame(
                frame, context_key(frame.index), charged=True
            ),
            verify=lambda frame: self._verify_frame(frame, context_key(frame.index)),
            reuse_charge=self._reuse_charge,
            verdict=_temporal_verdict,
            context_key=context_key,
        )
        outcomes, stats = scan.run(indices)
        for index, outcome in zip(indices, outcomes):
            self._apply_temporal_outcome(index, outcome)
        self.union_frames_scanned += len(outcomes)
        return with_component_reuses(stats, self._filter_reuses, self._detector_reuses)

    def _push_temporal(self, frames: list[Frame]) -> None:
        gate, exact = self._active_gate()
        for frame in frames:
            context = self._covering(frame.index)
            if not context:
                continue
            self._telemetry.frames_total += 1
            self.union_frames_scanned += 1
            if self.degraded:
                self.degraded_frames += 1
            if gate.decide(frame.image, context):
                outcome = gate.outcome
                gate.mark_reused()
                self._telemetry.frames_reused += 1
                self._reuse_charge(outcome)
                if exact:
                    truth = self._verify_frame(frame, context)
                    self._telemetry.verified_frames += 1
                    if _temporal_verdict(truth) != _temporal_verdict(outcome):
                        self._telemetry.reuse_mismatches += 1
                        gate.replace_outcome(truth)
                    outcome = truth
            else:
                outcome = self._evaluate_frame(frame, context, charged=True)
                gate.set_keyframe(frame.image, outcome, context)
                self._telemetry.frames_computed += 1
            self._apply_temporal_outcome(frame.index, outcome)
        self._watermark = max(self._watermark, frames[-1].index)

    def _evaluate_frame(
        self, frame: Frame, context: tuple[int, ...], charged: bool
    ) -> _SessionTemporalOutcome:
        index_by_sid = {sid: position for position, sid in enumerate(self._active)}
        predictions: dict[tuple, FilterPrediction] = {}
        step_outcomes: dict[int, bool] = {}
        computed: list[str] = []
        per_query: dict[int, _SessionVerdict] = {}
        survivors: list[int] = []
        for sid in context:
            state = self._states[sid]
            position = index_by_sid[sid]
            cascade = state.cascade
            step_positions = self._assignments[position]
            alive = True
            counted: set[tuple] = set()
            components: list[tuple[str, float]] = []
            step_stats = [(0, 0)] * len(cascade.steps)
            order = (
                state.profiler.order
                if state.profiler is not None
                else range(len(cascade.steps))
            )
            for step_position in order:
                if not alive:
                    break
                step = cascade.steps[step_position]
                unique_position = step_positions[step_position]
                identity = step.frame_filter.identity
                if identity not in predictions:
                    predictions[identity] = step.frame_filter.predict(frame)
                    computed.append(step.frame_filter.name)
                    if charged:
                        self.shared_filter_computations += 1
                if identity not in counted:
                    counted.add(identity)
                    components.append(
                        (step.frame_filter.name, step.frame_filter.latency_ms)
                    )
                if unique_position not in step_outcomes:
                    step_outcomes[unique_position] = step.passes(predictions[identity])
                step_stats[step_position] = (
                    1,
                    1 if step_outcomes[unique_position] else 0,
                )
                if not step_outcomes[unique_position]:
                    alive = False
            if charged and state.profiler is not None:
                state.profiler.observe(step_stats, frame.index)
            per_query[sid] = _SessionVerdict(
                components=tuple(components), passed=alive, matched=False
            )
            if alive:
                survivors.append(sid)
        detector_ran = False
        if survivors:
            if _FAULT_INJECTOR is not None:
                # Exhaustion propagates: the temporal pipeline is
                # keyframe-relative, so push_chunk quarantines the rest of
                # the chunk rather than skipping one frame mid-gate.
                detections = _FAULT_INJECTOR.with_retry(
                    "detector",
                    frame.index,
                    self.clock,
                    lambda: self.detector.detect(frame),
                )
            else:
                detections = self.detector.detect(frame)
            detector_ran = True
            if charged:
                self.shared_detector_invocations += 1
            for sid in survivors:
                if evaluate_predicates_on_detections(self._states[sid].query, detections):
                    entry = per_query[sid]
                    per_query[sid] = _SessionVerdict(
                        components=entry.components, passed=entry.passed, matched=True
                    )
        return _SessionTemporalOutcome(
            per_query=per_query,
            computed_components=tuple(computed),
            detector_ran=detector_ran,
        )

    def _verify_frame(
        self, frame: Frame, context: tuple[int, ...]
    ) -> _SessionTemporalOutcome:
        with clocks_detached(self._distinct_filters, self.detector):
            return self._evaluate_frame(frame, context, charged=False)

    def _reuse_charge(self, outcome: _SessionTemporalOutcome) -> None:
        for component in outcome.computed_components:
            self.clock.reuse(component)
        self._filter_reuses += len(outcome.computed_components)
        if outcome.detector_ran:
            self.clock.reuse(self._detector_component)
            self._detector_reuses += 1

    def _apply_temporal_outcome(
        self, index: int, outcome: _SessionTemporalOutcome
    ) -> None:
        for sid, entry in outcome.per_query.items():
            state = self._states[sid]
            state.scanned.append(index)
            state.filter_invocations += len(entry.components)
            for component in entry.components:
                state.attributed[component] = state.attributed.get(component, 0) + 1
            if entry.passed:
                state.passed.append(index)
            if entry.matched:
                state.matched.append(index)

    @property
    def temporal_stats(self) -> TemporalStats:
        """Session-lifetime gating telemetry (all zeros if never gated)."""
        return with_component_reuses(
            self._telemetry.freeze(), self._filter_reuses, self._detector_reuses
        )

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    def set_degraded(self, degraded: bool) -> None:
        """Enter/leave the temporal-approximate degraded mode.

        Entering drains the parallel pipeline (degraded frames gate
        sequentially); leaving drops the degrade gate so the next overload
        starts from a fresh keyframe.  Idempotent.
        """
        if degraded == self.degraded:
            return
        self._drain_all()
        self.degraded = degraded
        if not degraded:
            self._degrade_gate = None

    # ------------------------------------------------------------------
    # Budgets
    # ------------------------------------------------------------------
    def check_budgets(self, now: float | None = None) -> list[BudgetViolation]:
        """Evaluate every active query's budget; returns *new* violations.

        Each budget kind fires once per query (edge-triggered): the service
        records the event and keeps running — SLA accounting, not a breaker.
        """
        now = now if now is not None else time.perf_counter()
        fresh: list[BudgetViolation] = []
        for sid in self.active_sids:
            state = self._states[sid]
            if state.budget is None:
                continue
            simulated_ms = sum(
                latency * calls for (_, latency), calls in state.attributed.items()
            ) + self._detector_latency * len(state.passed)
            for violation in state.budget.violations(
                label=state.key,
                frames=len(state.scanned),
                elapsed_seconds=max(now - state.registered_wall, 0.0),
                simulated_ms=simulated_ms,
                at_frame=self._watermark,
            ):
                if violation.kind in state.violated_kinds:
                    continue
                state.violated_kinds.add(violation.kind)
                state.violations.append(violation)
                fresh.append(violation)
        return fresh

    # ------------------------------------------------------------------
    # Replanning
    # ------------------------------------------------------------------
    def replan(self) -> list[PlanRevision]:
        """Re-plan every profiled query's step order from observed pass rates.

        The manual counterpart of the engine's adaptive re-planner (the same
        :func:`~repro.query.planner.replan_order` /
        :func:`~repro.query.planner.expected_cascade_cost_ms` machinery that
        :meth:`~repro.query.planner.QueryPlanner.replan` delegates to): a new
        order is adopted when the observed rates say it is strictly cheaper,
        and applies to chunks pushed after this call.
        """
        revisions: list[PlanRevision] = []
        for sid in self.active_sids:
            state = self._states[sid]
            profiler = state.profiler
            if profiler is None:
                continue
            rates = profiler.pass_rates()
            latencies = [step.frame_filter.latency_ms for step in state.cascade.steps]
            candidate = replan_order(latencies, rates)
            if candidate == profiler.order:
                continue
            current_cost = expected_cascade_cost_ms(latencies, rates, profiler.order)
            candidate_cost = expected_cascade_cost_ms(latencies, rates, candidate)
            if candidate_cost <= 0.0 or current_cost <= candidate_cost:
                continue
            revision = PlanRevision(
                at_frame=self._watermark,
                old_order=tuple(profiler.order),
                new_order=candidate,
                step_names=tuple(step.name for step in state.cascade.steps),
                observed_pass_rates=rates,
                expected_gain=current_cost / candidate_cost,
            )
            profiler.revisions.append(revision)
            profiler.order = candidate
            revisions.append(revision)
        return revisions

    # ------------------------------------------------------------------
    # Window emission (live mode)
    # ------------------------------------------------------------------
    def _emit_completed(self, state: QueryState) -> list["WindowResult"]:
        if state.window is None or not self.live or state.windows_closed:
            return []
        out: list = []
        size = state.window.size
        advance = state.window.advance
        while state.next_window_start + size <= self._watermark + 1:
            bounds = WindowBounds(
                start=state.next_window_start, stop=state.next_window_start + size
            )
            out.append(self._window_result(state, bounds))
            state.next_window_start += advance
        state.emitted_windows.extend(out)
        return out

    def _window_result(self, state: QueryState, bounds: WindowBounds) -> "WindowResult":
        from repro.query.executor import WindowResult, WindowStats

        lo = bisect_left(state.matched, bounds.start)
        hi = bisect_left(state.matched, bounds.stop)
        return WindowResult(
            bounds=bounds,
            matched_frames=tuple(state.matched[lo:hi]),
            stats=WindowStats(
                frames_scanned=_count_between(state.scanned, bounds),
                frames_passed_filters=_count_between(state.passed, bounds),
            ),
        )

    def _flush_windows(self, state: QueryState) -> list["WindowResult"]:
        """Emit the tail window at end of coverage, matching ``windows_over``.

        After the completed windows, at most one truncated window remains;
        with ``include_partial`` it is emitted, otherwise the drop is warned
        once per session (deduplicated across standing queries with the same
        window geometry) — and, either way, no later start is materialised,
        replicating the generator's break-after-partial rule.
        """
        if state.window is None or not self.live or state.windows_closed:
            return []
        out = self._emit_completed(state)
        state.windows_closed = True
        end = self._watermark + 1
        start = state.next_window_start
        if start < end:
            if state.include_partial:
                bounds = WindowBounds(start=start, stop=end)
                tail = self._window_result(state, bounds)
                state.emitted_windows.append(tail)
                out.append(tail)
            else:
                warn_window_tail_drop(
                    size=state.window.size,
                    advance=state.window.advance,
                    start=start,
                    stop=end,
                    num_frames=end,
                    registry=self._warn_registry,
                )
        return out

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def _attributed_cost(self, state: QueryState) -> CostBreakdown:
        """What a standalone run of ``state``'s query would have charged so far."""
        breakdown = CostBreakdown()
        for (component, latency), calls in state.attributed.items():
            breakdown.per_component_ms[component] = (
                breakdown.per_component_ms.get(component, 0.0) + latency * calls
            )
            breakdown.per_component_calls[component] = (
                breakdown.per_component_calls.get(component, 0) + calls
            )
        survivors = len(state.passed)
        if survivors:
            breakdown.per_component_ms[self._detector_component] = (
                breakdown.per_component_ms.get(self._detector_component, 0.0)
                + self._detector_latency * survivors
            )
            breakdown.per_component_calls[self._detector_component] = (
                breakdown.per_component_calls.get(self._detector_component, 0)
                + survivors
            )
        return breakdown

    def _finalize_state(self, state: QueryState) -> "QueryExecutionResult":
        from repro.query.executor import ExecutionStats, QueryExecutionResult

        breakdown = self._attributed_cost(state)
        survivors = len(state.passed)
        stats = ExecutionStats(
            frames_scanned=len(state.scanned),
            frames_passed_filters=survivors,
            detector_invocations=survivors,
            filter_invocations=state.filter_invocations,
            simulated_cost=breakdown,
            wall_clock_seconds=time.perf_counter() - state.registered_wall,
            batch_size=None,
            plan_revisions=(
                tuple(state.profiler.revisions) if state.profiler is not None else ()
            ),
        )
        return QueryExecutionResult(
            query_name=state.query.name,
            cascade_description=state.cascade.describe(),
            matched_frames=tuple(state.matched),
            stats=stats,
            windows=(
                tuple(state.emitted_windows) if state.window is not None else None
            ),
            temporal=(
                self.temporal_stats
                if (self._temporal is not None or self.degraded_frames)
                else None
            ),
        )

    def finish(self) -> dict[int, "QueryExecutionResult"]:
        """Drain, flush every active query's tail window, finalise and close.

        Returns sid → result for the queries still registered; queries
        removed earlier keep the result :meth:`remove_query` returned (also
        available as ``states[sid].final``).
        """
        self._drain_all()
        results: dict[int, "QueryExecutionResult"] = {}
        for state in self._states:
            if not state.active:
                continue
            self._flush_windows(state)
            state.final = self._finalize_state(state)
            results[state.sid] = state.final
        self.close()
        return results

    def shared_cost_report(self):
        """A :class:`~repro.cost.SharedCostReport` over the session so far.

        ``shared`` is the clock delta since the session started; attribution
        covers *every* query ever registered (removed queries keep the cost
        they accrued), labelled as ``execute_many`` labels duplicates.
        """
        from repro.cost import SharedCostReport
        from repro.query.executor import _unique_query_labels

        labels = _unique_query_labels([state.query for state in self._states])
        attributed = {
            label: self._attributed_cost(state)
            for state, label in zip(self._states, labels)
        }
        return SharedCostReport(
            shared=self.clock.delta_since(self._cost_baseline), attributed=attributed
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Serialise the session's live progress into a picklable payload.

        The payload captures everything a crashed shard worker needs to
        resume *without re-emitting or skipping windows*: per-query
        accumulators and window cursors (``next_window_start`` /
        ``emitted_windows`` / ``match_cursor``), the watermark, the shared
        counters, the clock delta accrued since the session started,
        temporal-gate state (signature, streak, cached outcome) and the
        quarantine list.  The parallel pipeline is drained first so no
        in-flight chunk is lost.  Wall-clock fields (``registered_wall``)
        are deliberately *not* captured: elapsed-time budgets restart at
        restore, since the wall time of a dead process is meaningless.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        self._drain_all()
        states_payload = []
        for state in self._states:
            states_payload.append(
                {
                    "key": state.key,
                    "origin": state.origin,
                    "active": state.active,
                    "scanned": list(state.scanned),
                    "passed": list(state.passed),
                    "matched": list(state.matched),
                    "filter_invocations": state.filter_invocations,
                    "attributed": dict(state.attributed),
                    "violations": list(state.violations),
                    "violated_kinds": set(state.violated_kinds),
                    "next_window_start": state.next_window_start,
                    "windows_closed": state.windows_closed,
                    "emitted_windows": list(state.emitted_windows),
                    "match_cursor": state.match_cursor,
                }
            )
        telemetry = self._telemetry
        return {
            "version": CHECKPOINT_VERSION,
            "live": self.live,
            "watermark": self._watermark,
            "clock_delta": self.clock.delta_since(self._cost_baseline),
            "shared_filter_computations": self.shared_filter_computations,
            "shared_detector_invocations": self.shared_detector_invocations,
            "union_frames_scanned": self.union_frames_scanned,
            "chunks_merged": self.chunks_merged,
            "degraded": self.degraded,
            "degraded_frames": self.degraded_frames,
            "filter_reuses": self._filter_reuses,
            "detector_reuses": self._detector_reuses,
            "telemetry": {
                "frames_total": telemetry.frames_total,
                "frames_computed": telemetry.frames_computed,
                "frames_reused": telemetry.frames_reused,
                "frames_skipped": telemetry.frames_skipped,
                "refinement_probes": telemetry.refinement_probes,
                "verified_frames": telemetry.verified_frames,
                "reuse_mismatches": telemetry.reuse_mismatches,
                "max_stride_used": telemetry.max_stride_used,
            },
            "gate": None if self._gate is None else self._gate.state_dict(),
            "degrade_gate": (
                None
                if self._degrade_gate is None
                else self._degrade_gate.state_dict()
            ),
            "warn_registry": set(self._warn_registry),
            "quarantined": list(self.quarantined),
            "states": states_payload,
        }

    def restore(self, snapshot: dict) -> None:
        """Load a :meth:`checkpoint` payload into a freshly-built session.

        The caller rebuilds the session the way the original was built —
        same constructor arguments, same queries re-added via
        :meth:`add_query` in the same order — and then restores.  The
        restored session continues exactly where the checkpoint was cut:
        already-emitted windows and matches are never re-emitted (their
        cursors are part of the payload) and the next pushed chunk must
        start past the restored watermark, so nothing is skipped either.
        """
        if snapshot.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {snapshot.get('version')!r}"
            )
        if self._closed:
            raise RuntimeError("session is closed")
        if bool(snapshot["live"]) != self.live:
            raise ValueError("checkpoint live-mode flag does not match the session")
        if (
            self._watermark != -1
            or self.chunks_merged
            or any(state.scanned for state in self._states)
        ):
            raise RuntimeError(
                "restore() needs a fresh session (no chunks pushed yet)"
            )
        payload = snapshot["states"]
        if len(payload) != len(self._states):
            raise ValueError(
                f"checkpoint holds {len(payload)} queries, session has "
                f"{len(self._states)} — re-add the same queries in order"
            )
        for state, entry in zip(self._states, payload):
            if state.key != entry["key"]:
                raise ValueError(
                    f"query key mismatch at sid={state.sid}: checkpoint "
                    f"{entry['key']!r} vs session {state.key!r}"
                )
            state.origin = entry["origin"]
            state.active = entry["active"]
            state.scanned = list(entry["scanned"])
            state.passed = list(entry["passed"])
            state.matched = list(entry["matched"])
            state.filter_invocations = entry["filter_invocations"]
            state.attributed = dict(entry["attributed"])
            state.violations = list(entry["violations"])
            state.violated_kinds = set(entry["violated_kinds"])
            state.next_window_start = entry["next_window_start"]
            state.windows_closed = entry["windows_closed"]
            state.emitted_windows = list(entry["emitted_windows"])
            state.match_cursor = entry["match_cursor"]
        self._watermark = snapshot["watermark"]
        # Re-charge the checkpointed simulated cost onto this session's
        # clock (absorb replays both charges and reuses), so cost reports
        # after a resume match an uninterrupted run.  The baseline stays at
        # construction time, which predates the absorb by definition.
        self.clock.absorb(snapshot["clock_delta"])
        self.shared_filter_computations = snapshot["shared_filter_computations"]
        self.shared_detector_invocations = snapshot["shared_detector_invocations"]
        self.union_frames_scanned = snapshot["union_frames_scanned"]
        self.chunks_merged = snapshot["chunks_merged"]
        self.degraded = snapshot["degraded"]
        self.degraded_frames = snapshot["degraded_frames"]
        self._filter_reuses = snapshot["filter_reuses"]
        self._detector_reuses = snapshot["detector_reuses"]
        for name, value in snapshot["telemetry"].items():
            setattr(self._telemetry, name, value)
        if snapshot["gate"] is not None:
            if self._temporal is None:
                raise ValueError(
                    "checkpoint carries temporal gate state but the session "
                    "was built without temporal="
                )
            from repro.query.temporal import DeltaGate

            self._gate = DeltaGate(self._temporal)
            self._gate.load_state(snapshot["gate"])
        if snapshot["degrade_gate"] is not None:
            from repro.query.temporal import DeltaGate

            self._degrade_gate = DeltaGate(self._degrade_config)
            self._degrade_gate.load_state(snapshot["degrade_gate"])
        self._warn_registry = set(snapshot["warn_registry"])
        self.quarantined = list(snapshot["quarantined"])
        self._invalidate_plan()

    def close(self) -> None:
        """Tear down the backend and restore every clock.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._drain_all()
        finally:
            if self._backend is not None:
                # Non-empty only when the drain itself raised: what it left
                # in flight still holds shared-memory handles.
                self._discard_inflight()
                self._backend.close()
                self._backend = None
            for frame_filter, previous in self._attached:
                frame_filter.clock = previous
            self._attached = []
            if self._detector_attached:
                self.detector.clock = self._detector_prev_clock
                self._detector_attached = False

    def __enter__(self) -> "ScanSession":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None:
            # Abandoning the scan: blocking on every in-flight chunk and
            # running its detector phase would waste the work, and a second
            # error raised from the drain would mask the one being raised.
            self._discard_inflight()
        self.close()


def _temporal_verdict(outcome: _SessionTemporalOutcome) -> tuple:
    """The gate-comparison verdict of a session temporal outcome."""
    return tuple(
        (sid, entry.passed, entry.matched)
        for sid, entry in sorted(outcome.per_query.items())
    )


def _observer_config(base: ParallelConfig | None) -> ParallelConfig:
    """A profiler config that records observations but never auto-revises.

    ``CascadeProfiler.observe`` is a no-op unless the config is adaptive, so
    observe-only profiling (driving the *manual* :meth:`ScanSession.replan`)
    uses an adaptive config whose consideration interval is unreachable.  A
    genuinely adaptive caller config is used as-is — the engine's mid-stream
    auto-revision semantics then apply.
    """
    if base is not None and base.adaptive:
        return base
    window = base.adaptive_window if base is not None else 32
    return ParallelConfig(
        adaptive=True, adaptive_window=window, adaptive_interval=1_000_000_000
    )


def _count_between(values: list[int], bounds: WindowBounds) -> int:
    """Count entries of a sorted list that fall inside half-open ``bounds``."""
    return bisect_left(values, bounds.stop) - bisect_left(values, bounds.start)
