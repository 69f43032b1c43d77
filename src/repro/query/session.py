"""The one scan loop: a resumable shared multi-query scan fed chunk by chunk.

Every scan in the repo — one-shot ``execute``/``execute_many`` and the
always-on :class:`~repro.service.QueryService` — is "build a
:class:`ScanSession`, feed it, read the states".  The session holds all
cross-chunk state: the per-query accumulators, the merged cascade plan, the
simulated clock, the degraded mode's delta gate, the live window partials
and the worker pool's in-flight chunks.  Chunk size is the loop's only
variable: the executor's per-frame mode (``batch_size=1``) and its default
(``batch_size=None``, 16-frame chunks) both go
through :meth:`ScanSession.push_chunk`, and the filter phase of every chunk is
:func:`~repro.query.parallel.run_filter_chunk`, the function the parallel
workers run.  The cascade walk therefore exists exactly once, in
``run_filter_chunk``, and so does the frame evaluation around it
(:meth:`ScanSession._evaluate`: cascade, detector, predicates): the delta
gate, which decides reuse one frame at a time, evaluates a chunk of one and
caches its :class:`_ChunkVerdict` — the same shape every chunk accumulates.
The gate loop itself is :class:`~repro.query.temporal.TemporalScan`'s, and
the session is its one owner.

Coverage has one rule in both modes, :meth:`QueryState.covers`: a query
scans the frames of its hopping window (every frame without one) counted from
its registration point, up to an optional ``stop``, and a sampled (aggregate)
query only the frames of its sample.  Two operating modes share
the accumulation code:

* ``live=False`` — the executor's mode.  Every query registers at frame 0
  and a windowed one stops where its last materialised window instance ends;
  window partitioning stays with the executor
  (:func:`~repro.query.results.partition_into_windows` over the finished
  accumulators), which feeds the session in one of two ways: rendered chunks through
  :meth:`~ScanSession.push_chunk` (with :meth:`~ScanSession.quarantine_chunk`
  for a chunk that could not be rendered), or the whole index sequence
  through :meth:`~ScanSession.run_temporal_scan` (adaptive stride and
  boundary refinement need random access, which a pushed chunk cannot
  give).
* ``live=True`` — the service mode.  A query registers at the frame after
  the watermark and never stops, windows are emitted incrementally the moment
  the stream's watermark passes their end, and queries may be added and
  removed between chunks (the merged plan is recomputed, already-emitted
  windows are never re-emitted).  A live session gates frames only while
  :meth:`~ScanSession.set_degraded` holds it degraded.

In both modes a session built with ``parallel=`` runs the filter phase of
pushed chunks on a worker pool and merges the outcomes strictly in chunk
order; :meth:`ScanSession._push_parallel` / :meth:`ScanSession._merge_next`
are the only submit/merge loop in the repo.  Chunk ids are positions in the
sequence of chunks handed to the session (pushed or set aside), which is what
``worker_crash@k`` / ``worker_stall@k`` fault schedules are keyed by.  A live
session reports what each chunk established as one :class:`ChunkProgress` per
chunk, from whichever call merged it (:meth:`~ScanSession.push_chunk`,
:meth:`~ScanSession.merge_ready`, :meth:`~ScanSession.drain`); a live pooled
session merges nothing after a push's submission, so the service can merge a
chunk the moment its filter phase completes (``on_chunk_done``).  The merge of
a ``resilient`` session (a service shard's) never raises: a chunk whose worker
crashed is re-dispatched, and one that still fails is quarantined at its own
chunk id.

In both modes the session charges its own clock for the work it schedules:
each filter call as ``run_filter_chunk`` issues it (on a pool, to the
worker's private clock, absorbed at the merge) and each detector call in
:meth:`~ScanSession._detector_phase`.  Filters and detectors carry no clock,
so sessions sharing one (two service streams planned by one planner) each
charge exactly their own scan's work, and exact-mode verification charges
nothing by not charging.  The session builds the worker pool when it
(re)plans and tears it down in :meth:`~ScanSession.close`, so ``with
session:`` is the one context manager around a scan.  Leaving the ``with``
block on an exception discards in-flight chunks instead of merging them.

Parity rail: replaying a finite stream chunk-by-chunk through a live session
produces bit-identical per-query results to one-shot ``execute_many`` — both
run this module's accumulation code, both build a query's result with
:func:`~repro.query.results.query_result` and count a window with
:func:`~repro.query.results.window_result`, and window emission replicates
``HoppingWindow.windows_over(include_partial=True)`` semantics (the
windows of a frame query always end with at most one truncated tail).  The
differential harness's service and checkpoint configs
(``tests/test_differential.py``) assert the parity on the plain, windowed
and parallel paths.
"""

from __future__ import annotations

import copy
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Callable, Sequence

from repro import hooks
from repro.aggregates.windows import HoppingWindow, WindowBounds
from repro.cost import (
    BudgetViolation,
    CostBreakdown,
    QueryBudget,
    SharedCostReport,
    SimulatedClock,
)
from repro.detection.base import Detector
from repro.query.ast import Query
from repro.query.evaluation import evaluate_predicates_on_detections
from repro.faults.injector import FaultExhausted, QuarantineRecord, current_report
from repro.filters.base import FilterPrediction
from repro.query.parallel import (
    ChunkDispatch,
    FilteredChunk,
    ParallelConfig,
    WorkerSupervisor,
    _worker_sort_key,
    clone_cascades,
    filter_with_retry,
)
from repro.query.planner import FilterCascade, merge_cascade_steps
from repro.query.results import QueryExecutionResult, WindowResult, query_result, window_result
from repro.query.temporal import (
    TemporalConfig,
    TemporalScan,
    TemporalStats,
    _Telemetry,
)
from repro.video.prefetch import PREFETCH_DEPTH
from repro.video.stream import Frame

#: Version tag of the :meth:`ScanSession.checkpoint` payload schema.
CHECKPOINT_VERSION = 5

#: The gate :meth:`ScanSession.set_degraded` switches a session to under
#: ingestion overload: approximate (reuses are trusted, not verified), one
#: frame at a time.
DEGRADED_GATE = TemporalConfig(exact=False)

#: What a checkpoint carries, named once for :meth:`ScanSession.checkpoint`
#: and :meth:`ScanSession.restore` alike: the :class:`QueryState` fields a
#: restore cannot rebuild from ``add_query`` (``key`` is compared, not
#: loaded; the wall-clock fields are handled apart), and the
#: session attributes that are plain values.
_STATE_FIELDS = (
    "origin",
    "active",
    "scanned",
    "passed",
    "matched",
    "filter_invocations",
    "attributed",
    "violations",
    "violated_kinds",
    "next_window_start",
    "windows_closed",
    "emitted_windows",
)
_SESSION_FIELDS = (
    "_watermark",
    "shared_filter_computations",
    "shared_detector_invocations",
    "union_frames_scanned",
    "chunks_merged",
    "degraded",
    "degraded_frames",
    "quarantined",
)

@dataclass(frozen=True)
class _ChunkVerdict:
    """What evaluating one chunk established, per query, in chunk positions.

    Index-free on purpose: the inline and parallel paths accumulate a
    chunk's verdict once; the temporal path caches the verdict of a chunk of
    one as the keyframe outcome and accumulates it again at every frame that
    reuses it.  Rows follow the queries the chunk was evaluated for.
    ``filtered`` is the cascade walk's record (its filter accounting and the
    shared computations a reuse avoids), ``detected`` counts detector calls
    and ``poisoned`` holds ``(position, error)`` for frames whose detector
    call exhausted its retries: they keep their filter accounting but
    contribute no match.  ``controls`` holds each query's control rows
    (see :class:`QueryState`), empty unless a query carries controls.
    """

    passed: tuple[tuple[int, ...], ...]
    matched: tuple[tuple[int, ...], ...]
    filtered: FilteredChunk
    detected: int
    poisoned: tuple[tuple[int, FaultExhausted], ...] = ()
    controls: tuple[tuple[tuple[float, ...], ...], ...] = ()


@dataclass
class QueryState:
    """Cross-chunk state of one standing (or executor-internal) query.

    The accumulator lists (``scanned`` / ``passed`` / ``matched``) grow in
    scan order — in live mode that is ascending frame order, which is what
    lets window emission count by bisection.  ``attributed`` maps
    ``(component_name, latency_ms)`` to the calls a standalone run of this
    query would have made, exactly as ``execute_many`` attributes cost.
    A sampled (aggregate) query covers only the frames of its ``sample``
    (``None`` = no sample), and its ``controls`` fill ``control_rows``: one
    row per passed frame, off its cascade's primary filter's prediction.
    """

    sid: int
    key: str
    query: Query
    cascade: FilterCascade
    window: HoppingWindow | None
    origin: int
    #: first frame index past the query's coverage (``None`` = endless)
    stop: int | None = None
    active: bool = True
    provably_empty: bool = False
    scanned: list[int] = field(default_factory=list)
    passed: list[int] = field(default_factory=list)
    matched: list[int] = field(default_factory=list)
    filter_invocations: int = 0
    attributed: dict[tuple[str, float], int] = field(default_factory=dict)
    budget: QueryBudget | None = None
    violations: list[BudgetViolation] = field(default_factory=list)
    violated_kinds: set[str] = field(default_factory=set)
    registered_wall: float = 0.0
    #: next window start index still awaiting emission (live windowed mode)
    next_window_start: int = 0
    windows_closed: bool = False
    emitted_windows: list[WindowResult] = field(default_factory=list)
    final: QueryExecutionResult | None = None
    sample: frozenset[int] | None = None
    controls: tuple[Callable[[FilterPrediction], float], ...] = ()
    control_rows: list[tuple[float, ...]] = field(default_factory=list)

    def covers(self, index: int) -> bool:
        """Whether this query scans stream frame ``index``: the one coverage rule."""
        if self.provably_empty or (self.stop is not None and index >= self.stop):
            return False
        if self.sample is not None and index not in self.sample:
            return False
        if self.window is None:
            return index >= self.origin
        return self.window.covers(index, self.origin)

    def control_rows_of(
        self, predictions: dict[tuple, dict[int, FilterPrediction]], positions: Sequence[int]
    ) -> tuple[tuple[float, ...], ...]:
        """The control rows of the chunk ``positions``, off a chunk's prediction cache."""
        if not self.controls or not positions:
            return ()
        cache = predictions[self.cascade.primary_filter.identity]
        return tuple(tuple(control(cache[k]) for control in self.controls) for k in positions)


@dataclass(frozen=True)
class ChunkProgress:
    """What merging one chunk newly established in a live session.

    ``new_matches[sid]`` holds the chunk's match indices and
    ``new_windows[sid]`` the window results whose end the chunk's merge moved
    the watermark past.  A pooled session confirms a chunk at its in-order
    merge, so a call may report chunks pushed earlier and none of its own.
    """

    new_matches: dict[int, tuple[int, ...]]
    new_windows: dict[int, tuple[WindowResult, ...]]


class ScanSession:
    """A resumable shared multi-query scan fed one chunk at a time.

    See the module docstring for the ``live`` modes.  A session is *not*
    thread-safe: the service serialises all access per stream shard.  The
    session charges ``self.clock`` for every filter and detector call it
    schedules (a pool worker's calls arrive with the chunk's breakdown);
    verification charges nothing.

    ``parallel`` distributes the filter phase of pushed chunks over a worker
    pool with the engine's in-order merge (at most
    ``num_workers + PREFETCH_DEPTH`` chunks in flight; results, counters and
    clock history are identical to the inline path); the pool is built
    at the first pushed chunk, and :meth:`set_parallel` moves the filter
    phase on or off a pool between chunks.

    :meth:`set_degraded` flips the session into an approximate mode under
    ingestion overload: pushed frames are delta-gated, one at a time and
    across chunk boundaries, by a resumable
    :class:`~repro.query.temporal.TemporalScan` with :data:`DEGRADED_GATE`
    until the pressure clears.  Nothing else gates a pushed chunk; the
    one-shot executor gates through :meth:`run_temporal_scan`.

    ``resilient`` keeps a standing scan going past a chunk whose pool
    failure surfaces at its merge, pushes after it was submitted: an
    injected worker crash is re-dispatched up to ``max_redispatch`` times
    even unsupervised, and a chunk that still fails, or whose detector phase
    raises, is quarantined at its own chunk id (an inline push raises
    instead, and its caller sets the pushed chunk aside).  Otherwise a merge
    failure other than a poison chunk propagates and abandons the scan.
    """

    def __init__(
        self,
        detector: Detector,
        clock: SimulatedClock | None = None,
        *,
        live: bool = True,
        parallel: ParallelConfig | None = None,
        resilient: bool = False,
    ) -> None:
        self.detector = detector
        self.clock = clock if clock is not None else SimulatedClock()
        self.live = live
        self._parallel = parallel
        self._resilient = resilient
        self._states: list[QueryState] = []
        self._watermark = -1
        self._closed = False
        self._cost_baseline = self.clock.snapshot()
        # Merged plan over the *active* queries, rebuilt on membership change.
        self._plan_dirty = False
        self._active: list[int] = []
        self._row_of: dict[int, int] = {}
        self._active_cascades: list[FilterCascade] = []
        self._assignments: list[list[int]] = []
        self._unique_steps: list = []
        # Shared-scan counters (what the scan actually did).
        self.shared_filter_computations = 0
        self.shared_detector_invocations = 0
        self.union_frames_scanned = 0
        # Temporal machinery: session-lifetime telemetry shared by the
        # executor's temporal scan and the resumable one gating degraded mode.
        self._telemetry = _Telemetry()
        self._degrade_scan: TemporalScan | None = None
        self._detector_component = detector.name
        self._detector_latency = float(detector.latency_ms)
        #: degraded-mode state (see :meth:`set_degraded`)
        self.degraded = False
        self.degraded_frames = 0
        # Parallel pipelining state (dispatch goes through a supervisor so
        # dead/stalled workers heal when the config asks for it).  The
        # pool lives exactly as long as the plan it was built from; an
        # in-flight ``None`` is a chunk id consumed by a chunk set aside,
        # recorded in ``_set_aside`` until its turn in the merge.
        self._backend: WorkerSupervisor | None = None
        self._inflight: dict[int, tuple[ChunkDispatch, tuple[int, ...]] | None] = {}
        self._set_aside: dict[int, tuple[Sequence[object], BaseException]] = {}
        self._next_submit = 0
        self._next_merge = 0
        #: live mode: the last frame index pushed or set aside (ahead of the
        #: watermark while chunks are in flight)
        self._last_pushed = -1
        #: live mode: per merged chunk, what the next report hands out
        self._reports: list[ChunkProgress] = []
        #: called with no arguments, on a worker thread, whenever a chunk's
        #: filter phase finishes (the service wakes its shard thread with it)
        self.on_chunk_done: Callable[[], None] | None = None
        self._worker_totals: dict[str, CostBreakdown] = {}
        self.chunks_merged = 0
        #: chunks/frames set aside after retries and supervision gave up
        self.quarantined: list[QuarantineRecord] = []

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
    def watermark(self) -> int:
        """Highest merged frame index (``-1`` before any chunk)."""
        return self._watermark

    def add_query(
        self,
        query: Query,
        cascade: FilterCascade | None = None,
        *,
        stop: int | None = None,
        budget: QueryBudget | None = None,
        key: str | None = None,
        sample: frozenset[int] | None = None,
        controls: Sequence[Callable[[FilterPrediction], float]] = (),
    ) -> int:
        """Register a query; returns its session id (stable across churn).

        The query covers the frames of ``query.window`` (every frame without
        one) from the frame after the watermark up to ``stop`` (``None`` = no
        end; the executor passes where a windowed query's last materialised
        instance ends).  On a pooled session, a filter the pool's workers
        would share is refused here with :func:`clone_cascades`'s
        ``ValueError``, and the query is not added; a pool attached later by
        :meth:`set_parallel` refuses it at its first push.  ``sample`` and
        ``controls`` register a sampled query: see :class:`QueryState`.  A
        live session takes no sample (a checkpoint carries none), so it
        refuses one with ``ValueError`` and adds nothing.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if sample is not None and self.live:
            raise ValueError(f"{query.name!r}: a live session takes no sampled query")
        cascade = cascade if cascade is not None else FilterCascade()
        if controls and cascade.primary_filter is None:
            raise ValueError(f"{query.name!r} has controls but no filter to read them from")
        if self._parallel is not None:
            clone_cascades([cascade], {id(frame_filter) for frame_filter in cascade.filters})
        window: HoppingWindow | None = None
        origin = self._watermark + 1
        if query.window is not None:
            window = HoppingWindow(size=query.window.size, advance=query.window.advance)
        state = QueryState(
            sid=len(self._states),
            key=key if key is not None else query.name,
            query=query,
            cascade=cascade,
            window=window,
            origin=origin,
            stop=stop,
            provably_empty=cascade.provably_empty,
            budget=budget,
            registered_wall=time.perf_counter(),
            next_window_start=origin,
            sample=sample,
            controls=tuple(controls),
        )
        self._states.append(state)
        self._invalidate_plan()
        return state.sid

    def remove_query(self, sid: int) -> QueryExecutionResult:
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
        # drop the pool so the next push rebuilds it with the new plan.
        self._drain_all()
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        self._plan_dirty = True

    def _ensure_plan(self) -> None:
        if not self._plan_dirty:
            return
        self._active = [state.sid for state in self._states if state.active]
        self._row_of = {sid: row for row, sid in enumerate(self._active)}
        self._active_cascades = [self._states[sid].cascade for sid in self._active]
        self._unique_steps, assignments = merge_cascade_steps(self._active_cascades)
        self._assignments = [list(row) for row in assignments]
        self._plan_dirty = False

    # ------------------------------------------------------------------
    # Pushing chunks
    # ------------------------------------------------------------------
    def push_chunk(self, frames: Sequence[Frame]) -> list[ChunkProgress]:
        """Feed one chunk of frames through the pipeline.

        Live sessions require strictly ascending frame indices past the
        watermark and past every chunk still in flight (window emission
        counts by bisection over the accumulator lists).  Returns one
        :class:`ChunkProgress` per chunk merged since the last report, in
        chunk order (always empty in executor mode).  An inline or degraded
        push merges its own chunk.  A pooled live push only submits, after
        merging the oldest chunks while :attr:`window_full`
        (:meth:`merge_ready` merges the rest).
        """
        if self._closed:
            raise RuntimeError("session is closed")
        frames = list(frames)
        if not frames:
            return self._take_reports()
        if self.live:
            previous = max(self._watermark, self._last_pushed)
            for frame in frames:
                if frame.index <= previous:
                    raise ValueError(
                        f"live sessions need strictly ascending frame indices: "
                        f"{frame.index} after {previous}"
                    )
                previous = frame.index
            self._last_pushed = previous
        self._ensure_plan()
        pooled = self._parallel is not None and not self.degraded
        if pooled and self._active:
            # Merges inside report themselves; the submission merges nothing.
            self._push_parallel(frames)
            return self._take_reports()
        cursors = self._match_cursors() if self.live else None
        try:
            if not self._active:
                self._watermark = max(self._watermark, frames[-1].index)
            elif self.degraded:
                self._push_degraded(frames)
            else:
                self._push_inline(frames)
        except FaultExhausted as error:
            # Poison chunk: retries gave up.  Quarantine and keep scanning —
            # a standing query must outlive one bad chunk.
            self._quarantine(frames, error)
        if cursors is not None:
            self._reports.append(self._progress(cursors))
        return self._take_reports()

    def merge_ready(self) -> list[ChunkProgress]:
        """Merge, in chunk order, every in-flight chunk whose filter phase is done.

        While :attr:`window_full` the oldest chunk is waited for first, as
        the next push would wait for it.  Returns one :class:`ChunkProgress`
        per chunk merged since the last report.
        """
        while self.window_full:
            self._merge_next()
        self._drain_ready()
        return self._take_reports()

    def drain(self) -> list[ChunkProgress]:
        """Merge every in-flight chunk (blocking); returns what :meth:`merge_ready` does."""
        self._drain_all()
        return self._take_reports()

    @property
    def parallel(self) -> ParallelConfig | None:
        """The pool configuration pushed chunks filter on (``None``: inline)."""
        return self._parallel

    @property
    def window_full(self) -> bool:
        """Whether a pooled live push would first wait for the oldest chunk in flight."""
        if self._parallel is None:
            return False
        return len(self._inflight) >= self._parallel.num_workers + PREFETCH_DEPTH

    def _take_reports(self) -> list[ChunkProgress]:
        reports, self._reports = self._reports, []
        return reports

    def quarantine_chunk(self, frames: Sequence[object], error: BaseException) -> None:
        """Set aside a chunk the caller could not push; the scan continues.

        ``frames`` may be :class:`Frame` objects or bare indices (decode
        exhaustion never materialised any frames).  On a parallel session
        the chunk still consumes a chunk id, so ids stay positions in the
        sequence of chunks handed to the session — what ``worker_crash@k``
        schedules are keyed by — and it is recorded at its turn in the
        merge, so the watermark never passes a chunk still in flight.
        """
        if self._parallel is None:
            self._quarantine(frames, error)
            return
        frames = list(frames)
        if frames:
            last = frames[-1]
            self._last_pushed = max(
                self._last_pushed, last.index if isinstance(last, Frame) else int(last)
            )
        chunk_id = self._next_submit
        self._next_submit += 1
        self._inflight[chunk_id] = None
        self._set_aside[chunk_id] = (frames, error)
        if self._next_merge == chunk_id:
            self._merge_next()

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
        return ChunkProgress(new_matches=new_matches, new_windows=new_windows)

    # -- the one frame evaluation ---------------------------------------
    def _evaluate(
        self,
        sids: Sequence[int],
        frames: list[Frame],
        covered: list[list[bool]] | None,
        charged: bool = True,
    ) -> _ChunkVerdict:
        """Evaluate one chunk for the active queries ``sids``; accumulates nothing.

        Cascade walk (:func:`~repro.query.parallel.filter_with_retry`), then
        detector and predicates on the survivors.  A pushed chunk is
        evaluated for every active query under its ``covered`` masks; a gated
        frame is a chunk of one for the queries covering it.
        """
        rows = [self._row_of[sid] for sid in sids]
        cascades = [self._active_cascades[row] for row in rows]
        assignments = [self._assignments[row] for row in rows]
        filtered = filter_with_retry(
            self.clock, cascades, assignments, covered, frames, charged
        )
        return self._detector_phase(sids, frames, filtered, charged)

    def _detector_phase(
        self,
        sids: Sequence[int],
        frames: list[Frame],
        filtered: FilteredChunk,
        charged: bool = True,
    ) -> _ChunkVerdict:
        """Detector and predicates on a filtered chunk's survivors: its verdict.

        ``charged`` counts the evaluation as work the scan did (each
        detector call on the clock, shared counters);
        exact-mode verification is not.  Retry backoff is charged either way.
        """
        queries = [self._states[sid].query for sid in sids]
        alive_sets = [set(row) for row in filtered.alive]
        passed: list[list[int]] = [[] for _ in sids]
        matched: list[list[int]] = [[] for _ in sids]
        poisoned: list[tuple[int, FaultExhausted]] = []
        detected = 0
        for k, frame in enumerate(frames):
            interested = [
                row for row, survivors in enumerate(alive_sets) if frame.index in survivors
            ]
            if not interested:
                continue
            for row in interested:
                passed[row].append(k)
            if hooks.injector is not None:
                try:
                    detections = hooks.injector.with_retry(
                        "detector",
                        frame.index,
                        self.clock,
                        lambda frame=frame: self.detector.detect(frame),
                    )
                except FaultExhausted as error:
                    # Frame-level quarantine (at accumulation): the frame
                    # keeps its filter accounting (that work really ran) but
                    # contributes no matches, and the scan moves on.
                    poisoned.append((k, error))
                    continue
            else:
                detections = self.detector.detect(frame)
            if charged:
                self.clock.charge_calls(self.detector)
            detected += 1
            for row in interested:
                if evaluate_predicates_on_detections(queries[row], detections):
                    matched[row].append(k)
        if charged:
            self.shared_filter_computations += sum(filtered.computed.values())
            self.shared_detector_invocations += detected
        # The one aggregate-aware spot: a query with controls reads them off
        # the chunk's predictions of its passed frames.  The verdict keeps no
        # predictions, so a cached keyframe and a checkpoint carry none.
        controls = [
            self._states[sid].control_rows_of(filtered.predictions, positions)
            for sid, positions in zip(sids, passed)
        ]
        return _ChunkVerdict(
            passed=tuple(map(tuple, passed)),
            matched=tuple(map(tuple, matched)),
            filtered=replace(filtered, predictions={}),
            detected=detected,
            poisoned=tuple(poisoned),
            controls=tuple(controls) if any(controls) else (),
        )

    def _accumulate(
        self,
        sids: Sequence[int],
        indices: Sequence[int],
        covered: Sequence[Sequence[bool]] | None,
        verdict: _ChunkVerdict,
    ) -> None:
        """Apply a verdict to the frames ``indices``: the one accumulation.

        ``covered`` masks each query's coverage of the chunk (``None`` =
        every query covers every frame, as on the gated path).
        """
        if covered is None:
            self.union_frames_scanned += len(indices)
        else:
            self.union_frames_scanned += sum(map(any, zip(*covered)))
        for row, sid in enumerate(sids):
            state = self._states[sid]
            state.scanned.extend(
                indices if covered is None else compress(indices, covered[row])
            )
            state.passed.extend(indices[k] for k in verdict.passed[row])
            state.matched.extend(indices[k] for k in verdict.matched[row])
            state.filter_invocations += verdict.filtered.invocations[row]
            if verdict.controls:
                state.control_rows.extend(verdict.controls[row])
            for component, calls in verdict.filtered.attributed[row].items():
                state.attributed[component] = state.attributed.get(component, 0) + calls
        for k, error in verdict.poisoned:
            self._quarantine([indices[k]], error)

    # -- inline (sequential) path --------------------------------------
    def _push_inline(self, frames: list[Frame]) -> None:
        indices = [frame.index for frame in frames]
        covered = [
            [self._states[sid].covers(index) for index in indices] for sid in self._active
        ]
        verdict = self._evaluate(self._active, frames, covered)
        self._accumulate(self._active, indices, covered, verdict)
        self._watermark = max(self._watermark, indices[-1])

    # -- parallel path --------------------------------------------------
    def _push_parallel(self, frames: list[Frame]) -> None:
        assert self._parallel is not None
        max_inflight = self._parallel.num_workers + PREFETCH_DEPTH
        if self.live:
            # Make room before submitting, so that a failed merge leaves this
            # chunk unsubmitted; everything else merges in merge_ready.  A
            # one-shot scan reads nothing between pushes, so an earlier
            # merge buys it nothing; merging only when the window is full
            # makes its sequence of submissions and merges a function of
            # the chunk count, not of worker timing, so a rerun replays it.
            while self.window_full:
                self._merge_next()
        if self._backend is None:
            self._backend = WorkerSupervisor(
                self._parallel,
                self._active_cascades,
                self._assignments,
                redispatch_crashes=self._resilient,
            )
        chunk = [frame.index for frame in frames]
        covered = [
            [self._states[sid].covers(index) for index in chunk] for sid in self._active
        ]
        chunk_id = self._next_submit
        self._next_submit += 1
        # Consumed even if the submission itself fails.
        self._inflight[chunk_id] = None
        try:
            entry = self._backend.submit(chunk_id, chunk, frames, covered)
        except FaultExhausted as error:
            # Re-dispatch at submission gave up: a poison chunk, set aside
            # at its turn in the merge.
            self._set_aside[chunk_id] = (frames, error)
            return
        self._inflight[chunk_id] = (entry, tuple(self._active))
        self._watch(entry)
        if not self.live:
            while len(self._inflight) >= max_inflight:
                self._merge_next()

    def _watch(self, entry: ChunkDispatch) -> None:
        if self.on_chunk_done is not None:
            notify = self.on_chunk_done
            entry.future.add_done_callback(lambda _future: notify())

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
        self._set_aside.clear()

    def _merge_next(self) -> None:
        """The in-order merge point: what :meth:`_push_inline` does after filtering.

        Absorbs the chunk's filter cost into the session clock, runs the
        detector-union phase and accumulates the verdict, so the parallel
        path stays chunk-for-chunk identical to the inline one.  A chunk set
        aside is quarantined here, at its turn, and so is a poison chunk
        (its retries or re-dispatches gave up).  A ``resilient`` session
        quarantines a chunk whose merge fails in any other way too: the
        filter work that ran stays charged, as an inline chunk's would.
        """
        chunk_id = self._next_merge
        pending = self._inflight.pop(chunk_id)
        self._next_merge += 1
        cursors = self._match_cursors() if self.live else None
        entry = verdict = None
        if pending is None:
            aside = self._set_aside.pop(chunk_id, None)
            if aside is not None:
                self._quarantine(*aside)
        else:
            entry, sids = pending
            try:
                outcome = self._backend.result(entry)
                self._worker_totals[outcome.worker] = self._worker_totals.get(
                    outcome.worker, CostBreakdown()
                ).merged_with(outcome.breakdown)
                self.clock.absorb(outcome.breakdown)
                verdict = self._detector_phase(sids, entry.frames, outcome.filtered)
            except Exception as error:
                if not (self._resilient or isinstance(error, FaultExhausted)):
                    raise
                self._quarantine(entry.frames, error)
        if verdict is not None:
            self._accumulate(sids, entry.indices, entry.covered, verdict)
            self._watermark = max(self._watermark, entry.indices[-1])
            self.chunks_merged += 1
        if cursors is not None:
            self._reports.append(self._progress(cursors))

    @property
    def worker_breakdowns(self) -> dict[str, CostBreakdown]:
        """Per-worker simulated-cost totals of the parallel phase, by worker label."""
        return {
            label: self._worker_totals[label].copy()
            for label in sorted(self._worker_totals, key=_worker_sort_key)
        }

    # -- temporal path --------------------------------------------------
    def _new_scan(self, config: TemporalConfig) -> TemporalScan:
        """A resumable gate loop over this session's frame evaluation.

        The outcome it caches is the :class:`_ChunkVerdict` of a chunk of
        one, evaluated for the queries covering the frame (the gate's
        context key, so two verdicts the gate compares hold the same rows).
        """

        def evaluate(frame: Frame, context: tuple[int, ...], charged: bool) -> _ChunkVerdict:
            verdict = self._evaluate(context, [frame], None, charged)
            if verdict.poisoned and not self.live:
                # A strided scan's skipped frames inherit from their
                # neighbours: there is no one frame to set aside.
                raise verdict.poisoned[0][1]
            return verdict

        def reuse(verdict: _ChunkVerdict) -> tuple[int, int]:
            computed = verdict.filtered.computed
            for component, calls in computed.items():
                self.clock.reuse(component, calls)
            if verdict.detected:
                self.clock.reuse(self._detector_component, verdict.detected)
            return sum(computed.values()), verdict.detected

        return TemporalScan(config, evaluate=evaluate, reuse=reuse, telemetry=self._telemetry)

    def _covering(self, index: int) -> tuple[int, ...]:
        """Sids of the active queries covering ``index`` — the gate's context key."""
        return tuple(sid for sid in self._active if self._states[sid].covers(index))

    def _run_gated(
        self,
        scan: TemporalScan,
        indices: Sequence[int],
        contexts: Sequence[tuple[int, ...]],
        render: Callable[[int], Frame],
    ) -> None:
        """Gate ``indices`` and accumulate each verdict for the queries that
        cover its frame, ``contexts[position]`` (the scan's context key,
        computed once per position by the caller)."""
        verdicts = scan.run(indices, render, contexts)
        for index, context, verdict in zip(indices, contexts, verdicts):
            self._accumulate(context, [index], None, verdict)

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
        a keyframe.  It is the gate loop a degraded :meth:`push_chunk` runs,
        over the whole sequence at once so that it may stride; ``render``
        materialises a frame (the executor passes a decode-ahead prefetcher
        to an exact or a parallel scan).  Unlike a pushed chunk, a
        ``detector`` retry budget exhausted mid-scan propagates: skipped
        frames inherit from their neighbours, so there is no one frame to
        set aside.
        """
        self._ensure_plan()
        contexts = [self._covering(index) for index in indices]
        self._run_gated(self._new_scan(config), indices, contexts, render)
        return self.temporal_stats

    def _push_degraded(self, frames: list[Frame]) -> None:
        pushed = {frame.index: frame for frame in frames}
        covering = {index: self._covering(index) for index in pushed}
        indices = [index for index in pushed if covering[index]]
        self.degraded_frames += len(indices)
        if self._degrade_scan is None:
            self._degrade_scan = self._new_scan(DEGRADED_GATE)
        contexts = [covering[index] for index in indices]
        self._run_gated(self._degrade_scan, indices, contexts, pushed.__getitem__)
        self._watermark = max(self._watermark, frames[-1].index)

    @property
    def temporal_stats(self) -> TemporalStats:
        """Session-lifetime gating telemetry (all zeros if never gated)."""
        return self._telemetry.freeze()

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
            self._degrade_scan = None

    def set_parallel(self, parallel: ParallelConfig | None) -> None:
        """Move the filter phase onto a pool of ``parallel`` workers, or inline.

        The pipeline drains first and a pool is rebuilt at the next push,
        as on a membership change; the results cannot tell.
        """
        self._invalidate_plan()
        self._parallel = parallel

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
    # Window emission (live mode)
    # ------------------------------------------------------------------
    def _emit_completed(self, state: QueryState) -> list[WindowResult]:
        if state.window is None or not self.live or state.windows_closed:
            return []
        out: list = []
        size = state.window.size
        advance = state.window.advance
        while state.next_window_start + size <= self._watermark + 1:
            bounds = WindowBounds(
                start=state.next_window_start, stop=state.next_window_start + size
            )
            out.append(window_result(bounds, state.scanned, state.passed, state.matched))
            state.next_window_start += advance
        state.emitted_windows.extend(out)
        return out

    def _flush_windows(self, state: QueryState) -> list[WindowResult]:
        """Emit the tail window at end of coverage, matching ``windows_over``.

        After the completed windows, at most one truncated window remains;
        it is emitted, and no later start is materialised, replicating
        ``windows_over(include_partial=True)``'s break-after-partial rule.
        """
        if state.window is None or not self.live or state.windows_closed:
            return []
        out = self._emit_completed(state)
        state.windows_closed = True
        end = self._watermark + 1
        start = state.next_window_start
        if start < end:
            tail = window_result(
                WindowBounds(start=start, stop=end), state.scanned, state.passed, state.matched
            )
            state.emitted_windows.append(tail)
            out.append(tail)
        return out

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def _attributed_cost(self, state: QueryState) -> CostBreakdown:
        """What a standalone run of ``state``'s query would have charged so far."""
        breakdown = CostBreakdown()
        for (component, latency), calls in state.attributed.items():
            breakdown.add(component, latency * calls, calls)
        survivors = len(state.passed)
        if survivors:
            breakdown.add(self._detector_component, self._detector_latency * survivors, survivors)
        return breakdown

    def _finalize_state(self, state: QueryState) -> QueryExecutionResult:
        return query_result(
            state,
            self._attributed_cost(state),
            tuple(state.emitted_windows) if state.window is not None else None,
            time.perf_counter() - state.registered_wall,
            temporal=self.temporal_stats if self.degraded_frames else None,
            faults=current_report(tuple(self.quarantined)),
        )

    def finish(self) -> dict[int, QueryExecutionResult]:
        """Drain, flush every active query's tail window, finalise and close.

        Returns sid → result for the queries still registered; queries
        removed earlier keep the result :meth:`remove_query` returned (also
        available as ``states[sid].final``).
        """
        self._drain_all()
        results: dict[int, QueryExecutionResult] = {}
        for state in self._states:
            if not state.active:
                continue
            self._flush_windows(state)
            state.final = self._finalize_state(state)
            results[state.sid] = state.final
        self.close()
        return results

    def shared_cost_report(self) -> SharedCostReport:
        """A :class:`~repro.cost.SharedCostReport` over the session so far.

        ``shared`` is the clock delta since the session started; attribution
        covers *every* query ever registered (removed queries keep the cost
        they accrued), duplicate names disambiguated by position.
        """
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
        resume *without re-emitting or skipping windows*: per query the
        ``_STATE_FIELDS`` (accumulators, window cursors, budget violations);
        for the session the ``_SESSION_FIELDS``
        (watermark, shared counters, degraded mode, quarantine list), the
        clock delta accrued since the session started and the degrade
        gate's state (signature, streak, cached outcome).  The parallel
        pipeline is drained first so no in-flight chunk is lost.  Wall-clock
        fields (``registered_wall``) are deliberately *not* captured:
        elapsed-time budgets restart at restore, since the wall time of a
        dead process is meaningless.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        self._drain_all()
        return {
            "version": CHECKPOINT_VERSION,
            "live": self.live,
            "clock_delta": self.clock.delta_since(self._cost_baseline),
            "telemetry": dict(vars(self._telemetry)),
            "degrade_gate": (
                None if self._degrade_scan is None else self._degrade_scan.state_dict()
            ),
            "session": {name: copy.copy(getattr(self, name)) for name in _SESSION_FIELDS},
            "states": [
                {
                    "key": state.key,
                    **{name: copy.copy(getattr(state, name)) for name in _STATE_FIELDS},
                }
                for state in self._states
            ],
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
        for state, entry in zip(self._states, payload):
            for name in _STATE_FIELDS:
                setattr(state, name, copy.copy(entry[name]))
        for name in _SESSION_FIELDS:
            setattr(self, name, copy.copy(snapshot["session"][name]))
        # Re-charge the checkpointed simulated cost onto this session's
        # clock (absorb replays both charges and reuses), so cost reports
        # after a resume match an uninterrupted run.  The baseline stays at
        # construction time, which predates the absorb by definition.
        self.clock.absorb(snapshot["clock_delta"])
        vars(self._telemetry).update(snapshot["telemetry"])
        if snapshot["degrade_gate"] is not None:
            self._degrade_scan = self._new_scan(DEGRADED_GATE)
            self._degrade_scan.load_state(snapshot["degrade_gate"])
        self._invalidate_plan()

    def close(self) -> None:
        """Tear down the worker pool.  Idempotent."""
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

    def __enter__(self) -> "ScanSession":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None:
            # Abandoning the scan: blocking on every in-flight chunk and
            # running its detector phase would waste the work, and a second
            # error raised from the drain would mask the one being raised.
            self._discard_inflight()
        self.close()


def _unique_query_labels(queries: Sequence[Query]) -> list[str]:
    """Per-query labels for cost attribution, disambiguating duplicate names."""
    counts = Counter(query.name for query in queries)
    seen: Counter[str] = Counter()
    labels: list[str] = []
    for query in queries:
        seen[query.name] += 1
        suffix = f"#{seen[query.name]}" if counts[query.name] > 1 else ""
        labels.append(query.name + suffix)
    return labels
