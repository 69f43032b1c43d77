"""Parallel pipelined execution: worker pools, decode-ahead prefetch, re-planning.

The batched executor (PR 1) amortises numpy call overhead but still runs
every stage on one core: render a chunk, filter it, verify the survivors,
repeat.  This module turns that loop into a pipeline:

* a **decode-ahead prefetcher** (:class:`FramePrefetcher`) renders the next
  ``PREFETCH_DEPTH`` chunks' worth of frames on background threads while
  earlier chunks are being filtered;
* a **chunk-granular worker pool** runs the filter-cascade phase of several
  chunks concurrently — ``backend="thread"`` gives each worker its own
  deep-copied cascade (the numpy filters release the GIL in their stacked
  operations but share scratch state, so workers must not share filter
  objects), ``backend="process"`` ships the pickled cascades to each worker
  once and the frames per chunk *zero-copy* through
  ``multiprocessing.shared_memory`` (workers see numpy views over the shared
  block; only pixels cross the boundary — ground truth stays in the parent,
  preserving the rule that filters see nothing but pixels);
* results are **re-merged in stream order**: the reference detector runs in
  the main process on each chunk's cascade survivors exactly when that chunk
  is merged, so matched frames, work counters and the simulated-cost history
  are identical to the sequential batched path no matter how chunks raced.

Cost accounting stays exact under concurrency by construction: each worker
charges its filter work to a *private* :class:`~repro.cost.SimulatedClock`,
zeroed at the top of every chunk, and returns what the chunk charged; the one
in-order merge loop (:meth:`~repro.query.session.ScanSession._merge_next`)
absorbs the chunks' breakdowns into the main clock in chunk order
(:meth:`~repro.cost.SimulatedClock.absorb`), and
the per-worker totals are reported in a
:class:`~repro.cost.ParallelCostReport` alongside the run's wall clock.

**Adaptive runtime re-planning** rides on the ordered merge stream: a
:class:`CascadeProfiler` watches each step's live pass rate over a sliding
window and, when the observed cost per rejection says the planned order is
wasting filter milliseconds (a planning-time estimate was wrong, or the
stream drifted), feeds the rates to
:meth:`~repro.query.planner.QueryPlanner.replan` and switches subsequently
*submitted* chunks to the corrected order.  Cascade steps are conjunctive,
so reordering never changes which frames survive — every revision is logged
as a :class:`PlanRevision` on the execution's stats, and ``adaptive`` is off
by default.
"""

from __future__ import annotations

import copy
import os
import pickle
import queue
import sys
import threading
import time
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import closing, contextmanager, nullcontext, suppress
from dataclasses import dataclass
from multiprocessing import (
    get_all_start_methods,
    get_context,
    resource_tracker,
    shared_memory,
)
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import hooks
from repro.cost import CostBreakdown, ParallelCostReport, SimulatedClock
from repro.faults.injector import FaultError, FaultExhausted
from repro.filters.base import FilterPrediction, FrameFilter
from repro.query.planner import (
    FilterCascade,
    QueryPlanner,
    expected_cascade_cost_ms,
    replan_order,
)
from repro.video.stream import Frame, VideoStream

#: chunks the decode-ahead prefetcher keeps rendered ahead of submission, and
#: the chunks a session holds in flight beyond one per worker
PREFETCH_DEPTH = 2
#: decode-ahead threads (never more than the filter workers)
PREFETCH_THREADS = 2


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the parallel pipelined execution engine.

    ``num_workers`` filter workers process chunks of ``chunk_size`` frames
    concurrently while the prefetcher keeps ``PREFETCH_DEPTH`` further chunks
    rendered ahead of submission.  ``backend`` selects threads (cheap to
    start, share memory, scale as far as the filters release the GIL) or
    processes (immune to the GIL; cascades are pickled to each worker once
    and frames travel zero-copy through shared memory — requires picklable
    cascades, which every planner-built cascade is).  See DESIGN.md for a
    thread-vs-process decision guide.

    ``adaptive=True`` enables mid-stream re-planning: every
    ``adaptive_interval`` merged observations the profiler compares the
    current step order against the order implied by the pass rates observed
    over the last ``adaptive_window`` observations (ignoring steps with fewer
    than ``adaptive_min_evaluated`` evaluated frames) and switches when the
    expected per-frame filter cost improves by at least
    ``adaptive_margin``x.  Off by default: the reorder is always
    output-preserving, but cost accounting then depends on the observed
    stream rather than the planned order.

    ``supervise=True`` turns on worker supervision (see
    :class:`WorkerSupervisor`): a chunk whose worker dies
    (``BrokenProcessPool``, injected crash) or stalls past
    ``worker_timeout_seconds`` is re-dispatched — after respawning the
    pool when the old one is broken or wedged — up to ``max_redispatch``
    times before the chunk is declared poisoned.  The in-order merge is
    untouched, so recovered runs stay bit-identical to fault-free ones.
    Off by default: an unsupervised run never starts the timeout
    machinery and fails fast exactly as before.

    ``sanitize`` enables the opt-in runtime sanitizers of
    :mod:`repro.analysis.sanitizers` for the chunked scan: ``"race"`` (the
    lockset/ownership race detector), ``"numeric"`` (NaN/Inf checks on layer
    outputs and cost accumulators), ``"determinism"`` (parallel vs
    sequential chunk-digest diffing), a comma-joined combination, or
    ``"all"``.  ``race`` and ``numeric`` instrument in-process state and
    therefore need ``backend="thread"``.  ``sanitize_strict=True`` (default)
    raises :class:`~repro.analysis.AnalysisError` at the first finding;
    otherwise findings are collected on the execution stats'
    ``sanitizer_report``.  The ``REPRO_SANITIZE`` environment variable
    supplies a default spec when ``sanitize`` is unset (modes the backend
    cannot support are dropped), which is how CI runs the whole parallel
    suite under full instrumentation without touching each test.
    """

    num_workers: int = 4
    backend: str = "thread"
    chunk_size: int = 16
    adaptive: bool = False
    adaptive_window: int = 32
    adaptive_interval: int = 8
    adaptive_margin: float = 1.2
    adaptive_min_evaluated: int = 16
    sanitize: str | None = None
    sanitize_strict: bool = True
    supervise: bool = False
    worker_timeout_seconds: float = 30.0
    max_redispatch: int = 2

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be positive: {self.num_workers}")
        if self.backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process': {self.backend!r}"
            )
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be positive: {self.chunk_size}")
        if self.adaptive_window < 1 or self.adaptive_interval < 1:
            raise ValueError("adaptive_window and adaptive_interval must be positive")
        if self.adaptive_margin < 1.0:
            raise ValueError(
                f"adaptive_margin must be >= 1.0: {self.adaptive_margin}"
            )
        if self.adaptive_min_evaluated < 1:
            raise ValueError(
                f"adaptive_min_evaluated must be positive: {self.adaptive_min_evaluated}"
            )
        if self.worker_timeout_seconds <= 0.0:
            raise ValueError(
                f"worker_timeout_seconds must be positive: {self.worker_timeout_seconds}"
            )
        if self.max_redispatch < 0:
            raise ValueError(
                f"max_redispatch must be non-negative: {self.max_redispatch}"
            )
        # Local import: repro.analysis sits above the query package, so
        # importing it at module level would cycle (same reason as the
        # process backend's audit import).
        from repro.analysis.sanitizers import parse_sanitize_spec

        if self.sanitize is None:
            env_spec = os.environ.get("REPRO_SANITIZE")
            if env_spec:
                modes = parse_sanitize_spec(env_spec)
                if self.backend == "process":
                    # The session lives in the parent's ``hooks.sanitizer``; a
                    # pool worker empties its copy of the slot, so an
                    # env-driven default silently keeps what the backend can
                    # actually run.
                    modes = modes - {"race", "numeric"}
                object.__setattr__(
                    self, "sanitize", ",".join(sorted(modes)) if modes else None
                )
        else:
            modes = parse_sanitize_spec(self.sanitize)
            if not modes:
                object.__setattr__(self, "sanitize", None)
            elif self.backend == "process" and modes & {"race", "numeric"}:
                raise ValueError(
                    "sanitize='race'/'numeric' instrument in-process state the "
                    "process backend cannot observe; use backend='thread' (the "
                    "determinism checker works on either backend)"
                )

    @property
    def sanitize_modes(self) -> frozenset[str]:
        """The enabled sanitizer modes as a set (empty when off)."""
        from repro.analysis.sanitizers import parse_sanitize_spec

        return parse_sanitize_spec(self.sanitize)


@dataclass(frozen=True)
class PlanRevision:
    """One mid-stream cascade reorder performed by the adaptive re-planner.

    ``old_order`` / ``new_order`` hold the cascade's step positions (indices
    into the *planned* cascade) in execution order before and after the
    revision; ``step_names`` names the steps by planned position so the
    orders are readable.  ``observed_pass_rates`` are the sliding-window pass
    rates (by planned position, ``None`` = too few observations) that drove
    the decision, and ``expected_gain`` the predicted per-frame filter-cost
    ratio old/new under those rates.  ``at_frame`` is the stream index at
    whose in-order merge point the revision was adopted; work submitted
    after that point runs the new order (chunks already in flight finish
    under the old one — harmless, since both orders pass the same frames).
    """

    at_frame: int
    old_order: tuple[int, ...]
    new_order: tuple[int, ...]
    step_names: tuple[str, ...]
    observed_pass_rates: tuple[float | None, ...]
    expected_gain: float

    def describe(self) -> str:
        old = " -> ".join(self.step_names[position] for position in self.old_order)
        new = " -> ".join(self.step_names[position] for position in self.new_order)
        return (
            f"frame {self.at_frame}: [{old}] => [{new}] "
            f"(expected {self.expected_gain:.2f}x)"
        )


@dataclass(frozen=True)
class ParallelStats:
    """Telemetry of one parallel pipelined execution.

    ``num_chunks == 0`` marks a prefetch-only run (the temporal-coherence
    composition, where gating is inherently sequential and parallelism
    contributes decode-ahead rendering only).
    """

    backend: str
    num_workers: int
    chunk_size: int
    num_chunks: int
    cost: ParallelCostReport


class CascadeProfiler:
    """Sliding-window selectivity/cost profiler driving adaptive re-planning.

    A session builds one per query iff its config is ``adaptive``.  It is
    told, for every evaluated chunk (a chunk of one on the temporal path),
    how many frames each cascade step evaluated and passed — *in
    planned-step positions*, so the bookkeeping is independent of the order
    currently executing.  Every ``adaptive_interval`` observations
    :meth:`consider` turns the window into per-step pass rates, asks
    :func:`~repro.query.planner.replan_order` for the order those rates
    imply, and adopts it iff the expected per-frame filter cost improves by
    ``adaptive_margin``x (the margin plus the evaluation floor keep
    borderline rates from making the order flap).  Observed rates are
    conditional on the order that produced them — the classic independence
    approximation of filter ordering, same as planning-time selectivity
    measurement.
    """

    #: what a checkpoint carries (:meth:`state_dict`): the adopted order and
    #: its log, and the window the next decision will be made from
    _STATE_FIELDS = ("order", "revisions", "_window", "_totals", "_since_consider")

    def __init__(self, cascade: FilterCascade, config: ParallelConfig) -> None:
        self._cascade = cascade
        self._config = config
        self._latencies = [step.frame_filter.latency_ms for step in cascade.steps]
        self._names = tuple(step.name for step in cascade.steps)
        self._window: deque[Sequence[tuple[int, int]]] = deque()
        self._totals = [[0, 0] for _ in cascade.steps]
        self._since_consider = 0
        self.order: tuple[int, ...] = tuple(range(len(cascade.steps)))
        self.revisions: list[PlanRevision] = []

    def observe(self, step_stats: Sequence[tuple[int, int]], at_frame: int) -> None:
        """Record one merged observation; maybe revise the order.

        ``step_stats[p]`` is ``(evaluated, passed)`` for planned step ``p``;
        ``at_frame`` is the stream index of the merge point, recorded on any
        revision this observation triggers.
        """
        self._window.append(tuple(step_stats))
        for position, (evaluated, passed) in enumerate(step_stats):
            self._totals[position][0] += evaluated
            self._totals[position][1] += passed
        while len(self._window) > self._config.adaptive_window:
            expired = self._window.popleft()
            for position, (evaluated, passed) in enumerate(expired):
                self._totals[position][0] -= evaluated
                self._totals[position][1] -= passed
        self._since_consider += 1
        if self._since_consider >= self._config.adaptive_interval:
            self._since_consider = 0
            self.consider(at_frame)

    def pass_rates(self) -> tuple[float | None, ...]:
        """Windowed pass rate per planned step (``None`` below the evaluation floor)."""
        floor = self._config.adaptive_min_evaluated
        return tuple(
            passed / evaluated if evaluated >= floor else None
            for evaluated, passed in self._totals
        )

    def replanned_cascade(self) -> FilterCascade:
        """The cascade reordered to the profiler's current order (via :meth:`QueryPlanner.replan`)."""
        return QueryPlanner.replan(self._cascade, self.pass_rates())

    def consider(self, at_frame: int) -> PlanRevision | None:
        """Adopt the order the observed rates imply, if it pays; the one re-plan decision."""
        rates = self.pass_rates()
        candidate = replan_order(self._latencies, rates)
        if candidate == self.order:
            return None
        current_cost = expected_cascade_cost_ms(self._latencies, rates, self.order)
        candidate_cost = expected_cascade_cost_ms(self._latencies, rates, candidate)
        if candidate_cost <= 0.0:
            return None
        gain = current_cost / candidate_cost
        if gain < self._config.adaptive_margin:
            return None
        revision = PlanRevision(
            at_frame=at_frame,
            old_order=self.order,
            new_order=candidate,
            step_names=self._names,
            observed_pass_rates=rates,
            expected_gain=gain,
        )
        self.revisions.append(revision)
        self.order = candidate
        return revision

    def state_dict(self) -> dict:
        """Checkpointable profiler state (see :meth:`ScanSession.checkpoint`)."""
        return {name: copy.deepcopy(getattr(self, name)) for name in self._STATE_FIELDS}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into a profiler of the same cascade."""
        for name in self._STATE_FIELDS:
            setattr(self, name, copy.deepcopy(state[name]))


# ----------------------------------------------------------------------
# The chunk filter phase (shared by the sequential shared scan and the
# worker pool's one task body)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FilteredChunk:
    """What one chunk's cascade walk established, per query.

    ``alive[q]`` holds the stream indices that survived query ``q``'s
    cascade in chunk order, ``invocations[q]`` / ``attributed[q]`` the filter
    work a standalone run of ``q`` would have paid (calls per
    ``(component, latency_ms)``), ``computed`` the frames each filter
    component was actually evaluated on (what a temporal reuse of the chunk
    avoids) and ``step_stats[q][p]`` the ``(evaluated, passed)`` counts of
    planned step ``p`` for the profiler.
    """

    alive: tuple[tuple[int, ...], ...]
    invocations: tuple[int, ...]
    attributed: tuple[dict[tuple[str, float], int], ...]
    computed: dict[str, int]
    step_stats: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class ChunkOutcome:
    """One chunk's filter phase as a worker returns it.

    Everything downstream of the filters (detector, predicate evaluation,
    window partitioning) happens at the in-order merge in the main process,
    so this is the complete worker→main contract: the filtered chunk and the
    simulated filter cost the worker charged for it.
    """

    chunk_id: int
    worker: str
    filtered: FilteredChunk
    breakdown: CostBreakdown


def run_filter_chunk(
    query_cascades: Sequence[FilterCascade],
    assignments: Sequence[Sequence[int]],
    covered: Sequence[Sequence[bool]] | None,
    orders: Sequence[Sequence[int]],
    frames: Sequence[Frame],
) -> FilteredChunk:
    """Run every query's cascade over one chunk of frames.

    The shared-scan contract of ``execute_many``, restricted to one chunk: a
    filter shared by several queries' cascades is evaluated at most once per
    frame (cross-query prediction cache keyed by filter identity), deduped
    steps share their pass/fail outcome, and each query's attribution counts
    what a standalone run would have paid.  ``covered[q][k]`` masks frames
    outside query ``q``'s window coverage (``None`` = all frames covered);
    ``orders[q]`` is the execution order over cascade ``q``'s planned step
    positions (the adaptive re-planner's output; identity when static).
    """
    if hooks.injector is not None:
        # Fault site *before* any accumulation, keyed by the chunk's first
        # frame index (identical inline and in workers), so a faulted chunk
        # is all-or-nothing and a retry replays it bit-identically.
        if frames:
            hooks.injector.filter_event(frames[0].index)
    num_queries = len(query_cascades)
    alive_indices: list[tuple[int, ...]] = []
    filter_invocations = [0] * num_queries
    attributed: list[dict[tuple[str, float], int]] = [{} for _ in range(num_queries)]
    step_stats: list[list[tuple[int, int]]] = [
        [(0, 0)] * len(cascade.steps) for cascade in query_cascades
    ]
    computed: dict[str, int] = {}
    predictions: dict[tuple, dict[int, FilterPrediction]] = {}
    outcomes: dict[tuple[int, int], bool] = {}
    for position, (cascade, step_positions) in enumerate(
        zip(query_cascades, assignments)
    ):
        if covered is None:
            alive = list(range(len(frames)))
        else:
            alive = [k for k in range(len(frames)) if covered[position][k]]
        counted: dict[int, set[tuple]] = {}
        for step_position in orders[position]:
            if not alive:
                break
            step = cascade.steps[step_position]
            unique_position = step_positions[step_position]
            identity = step.frame_filter.identity
            per_filter = predictions.setdefault(identity, {})
            missing = [k for k in alive if k not in per_filter]
            if missing:
                batch = step.frame_filter.predict_batch([frames[k] for k in missing])
                name = step.frame_filter.name
                computed[name] = computed.get(name, 0) + len(missing)
                for k, prediction in zip(missing, batch):
                    per_filter[k] = prediction
            component = (step.frame_filter.name, step.frame_filter.latency_ms)
            for k in alive:
                seen = counted.setdefault(k, set())
                if identity not in seen:
                    seen.add(identity)
                    filter_invocations[position] += 1
                    attributed[position][component] = (
                        attributed[position].get(component, 0) + 1
                    )
            still_alive = []
            for k in alive:
                outcome_key = (unique_position, k)
                if outcome_key not in outcomes:
                    outcomes[outcome_key] = step.passes(per_filter[k])
                if outcomes[outcome_key]:
                    still_alive.append(k)
            step_stats[position][step_position] = (len(alive), len(still_alive))
            alive = still_alive
        alive_indices.append(tuple(frames[k].index for k in alive))
    return FilteredChunk(
        alive=tuple(alive_indices),
        invocations=tuple(filter_invocations),
        attributed=tuple(attributed),
        computed=computed,
        step_stats=tuple(map(tuple, step_stats)),
    )


# ----------------------------------------------------------------------
# The decode-ahead prefetcher
# ----------------------------------------------------------------------
class FramePrefetcher:
    """Decode-ahead rendering over a known index sequence.

    Wraps ``stream.frame`` for every scan that knows its index sequence up
    front (chunked parallel scans, temporal gating, aggregate sampling):
    requesting a frame schedules background rendering of the next ``depth``
    indices of the sequence.  The window is bounded on
    both sides — scheduled entries falling more than ``depth`` positions
    behind the newest request are cancelled (if still queued) and dropped,
    so an adaptive-stride scan that skips most of the sequence neither
    retains every speculatively rendered frame nor decodes far behind the
    scan head.  Out-of-window requests (binary-search refinement probes,
    exact-mode re-verification) are rendered by the stream.  Scans get one
    through :func:`decode_ahead`, which closes it on every exit path.
    """

    def __init__(
        self,
        stream: VideoStream,
        indices: Sequence[int],
        depth: int,
        threads: int,
    ) -> None:
        self._stream = stream
        self._order = list(indices)
        self._position_of = {
            index: position for position, index in enumerate(self._order)
        }
        self._depth = max(0, depth)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, threads), thread_name_prefix="decode-ahead"
        )
        self._futures: dict[int, Future] = {}
        self._scheduled = 0
        self._evicted = 0
        self._lock = threading.Lock()
        self._closed = False

    def _schedule_through(self, position: int) -> None:
        limit = min(position + 1, len(self._order))
        with self._lock:
            while self._scheduled < limit:
                index = self._order[self._scheduled]
                self._futures[index] = self._pool.submit(self._stream.frame, index)
                self._scheduled += 1

    def _evict_behind(self, position: int) -> None:
        limit = min(position - self._depth, len(self._order))
        with self._lock:
            while self._evicted < limit:
                index = self._order[self._evicted]
                future = self._futures.pop(index, None)
                if future is not None:
                    future.cancel()
                self._evicted += 1

    def frame(self, index: int) -> Frame:
        position = self._position_of.get(index)
        if position is not None:
            self._schedule_through(position + self._depth)
            self._evict_behind(position)
        with self._lock:
            future = self._futures.pop(index, None)
        if future is not None and not future.cancelled():
            return future.result()
        return self._stream.frame(index)

    def close(self) -> None:
        """Shut the decode-ahead pool down; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=True)


@contextmanager
def decode_ahead(
    stream: VideoStream,
    indices: Sequence[int],
    parallel: ParallelConfig | None,
    chunk_size: int | None = None,
) -> Iterator[Callable[[int], Frame]]:
    """The ``render(index)`` of one scan over ``indices``.

    ``stream.frame`` itself when ``parallel`` is ``None``, so callers do not
    branch; otherwise a :class:`FramePrefetcher` running ``PREFETCH_DEPTH``
    chunks of ``chunk_size`` frames (default: the config's) ahead, closed
    however the block exits.  The only place that constructs one (lint
    INV011).  Enter it after the scan is planned, so that process workers
    fork before the first decode-ahead thread starts.
    """
    if parallel is None:
        yield stream.frame
        return
    depth = PREFETCH_DEPTH * (chunk_size or parallel.chunk_size)
    threads = min(PREFETCH_THREADS, parallel.num_workers)
    with closing(FramePrefetcher(stream, indices, depth, threads)) as prefetcher:
        yield prefetcher.frame


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------
def _distinct_filters(cascades: Sequence[FilterCascade]) -> list[FrameFilter]:
    distinct: list[FrameFilter] = []
    for cascade in cascades:
        for frame_filter in cascade.filters:
            if all(frame_filter is not existing for existing in distinct):
                distinct.append(frame_filter)
    return distinct


def _attach_worker_clock(
    cascades: Sequence[FilterCascade],
) -> SimulatedClock:
    clock = SimulatedClock()
    for frame_filter in _distinct_filters(cascades):
        frame_filter.clock = clock
    return clock


class _Worker:
    """One pool worker's private cascades and clock."""

    def __init__(
        self,
        label: str,
        cascades: Sequence[FilterCascade],
        assignments: Sequence[Sequence[int]],
    ) -> None:
        self.label = label
        self.cascades = cascades
        self.assignments = assignments
        self.clock = _attach_worker_clock(cascades)

    def filter_chunk(
        self,
        chunk_id: int,
        covered: Sequence[Sequence[bool]] | None,
        orders: Sequence[Sequence[int]],
        frames: Sequence[Frame],
    ) -> ChunkOutcome:
        """Filter one chunk; the outcome carries exactly what the chunk charged.

        The private clock starts every chunk from zero, so the breakdown is
        the chunk's own sums: subtracting a running total instead would make
        its last ulp depend on which chunks this worker ran before.
        """
        self.clock.reset()
        filtered = run_filter_chunk(self.cascades, self.assignments, covered, orders, frames)
        return ChunkOutcome(chunk_id, self.label, filtered, self.clock.snapshot())


#: the one worker slot: ``_SLOT.worker`` is the calling pool worker's
#: ``_Worker``, installed by :func:`_init_worker` (thread-local, so every pool
#: thread holds its own; a pool process has one thread that runs tasks)
_SLOT = threading.local()


def _init_worker(source: "bytes | queue.SimpleQueue[_Worker]") -> None:
    """The one pool initializer: install this pool worker's ``_Worker``.

    A process worker unpickles its own cascades from the plan's payload; a
    thread worker takes one of the clones the supervisor deep-copied up front
    (one per thread, so no two tasks ever share a clone).
    """
    if isinstance(source, bytes):
        # A forked worker inherits both hook slots as copies and must consult
        # neither.  The parent keeps consuming the injector's schedule on its
        # own (worker faults are decided parent-side in
        # ``WorkerSupervisor._dispatch`` and shipped with the task), and a
        # sanitizer session's findings recorded in the child would never reach
        # the parent's report.
        hooks.reset()
        _SLOT.worker = _Worker(f"pid-{os.getpid()}", *pickle.loads(source))
    else:
        _SLOT.worker = source.get_nowait()


@dataclass(frozen=True)
class _SharedFrames:
    """A chunk's frames on their way to a process worker: one shared-memory block."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    indices: tuple[int, ...]

    def frames(self, block: shared_memory.SharedMemory) -> list[Frame]:
        """Numpy views over the attached ``block``: pixels only, ground truth stays home."""
        images = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=block.buf)
        return [
            Frame(index=index, image=images[k], ground_truth=None)
            for k, index in enumerate(self.indices)
        ]


def _apply_worker_directive(
    directive: tuple[str, float] | None, chunk_id: int, process: bool
) -> None:
    """Enact a parent-side crash/stall directive inside a worker task.

    Runs at the very top of the task — before any frame is touched or any
    shared memory attached — so a crashed or stalled attempt leaves no
    partial filter charges and holds no view over a block the supervisor is
    about to unlink.  The stall is a deliberate wall-clock sleep: it
    simulates a *hung* worker for the supervisor's timeout to catch, which a
    simulated-clock charge could never do.
    """
    if directive is None:
        return
    action, seconds = directive
    if action == "stall":
        time.sleep(seconds)
    elif action == "crash":
        if process:
            os._exit(13)
        raise FaultError("worker_crash", chunk_id, "injected worker crash")


def _filter_task(
    chunk_id: int,
    covered: Sequence[Sequence[bool]] | None,
    orders: Sequence[Sequence[int]],
    directive: tuple[str, float] | None,
    frames: "Sequence[Frame] | _SharedFrames",
) -> ChunkOutcome:
    """The one task body, in a pool thread and a pool process alike.

    Only a process worker receives :class:`_SharedFrames`; it attaches the
    block, which the parent owns and unlinks once the chunk is merged (pool
    workers share the parent's resource tracker, so the attach-side
    registration is a harmless set-dedup).
    """
    shared = frames if isinstance(frames, _SharedFrames) else None
    _apply_worker_directive(directive, chunk_id, process=shared is not None)
    worker: _Worker = _SLOT.worker
    if hooks.sanitizer is not None:
        window = hooks.sanitizer.worker_window(chunk_id, id(worker.cascades))
    else:
        window = nullcontext()
    block = None if shared is None else shared_memory.SharedMemory(name=shared.name)
    try:
        with window:
            chunk = frames if shared is None else shared.frames(block)
            return worker.filter_chunk(chunk_id, covered, orders, chunk)
    finally:
        if block is not None:
            # Drop the views first: close() raises while one is alive (as
            # it may be in an exception's traceback).
            chunk = []
            with suppress(BufferError):
                block.close()


def _process_payload(
    cascades: Sequence[FilterCascade], assignments: Sequence[Sequence[int]]
) -> bytes:
    """The plan pickled for process workers: pre-flight and payload in one.

    Only when pickling fails does the concurrency audit run (local import:
    ``repro.analysis`` depends on the query AST package, which initialises
    this module), to say why — a lambda or function-local check, an
    unpicklable step — in one ``AnalysisError`` (a ``ValueError``) raised
    before any worker process exists.
    """
    try:
        return pickle.dumps((list(cascades), [list(row) for row in assignments]))
    except Exception as error:
        from repro.analysis import AnalysisError, Severity, audit_cascade

        findings = [d for cascade in cascades for d in audit_cascade(cascade).diagnostics]
        headline = "; ".join(
            f"{d.code}: {d.message}" for d in findings if d.severity is Severity.ERROR
        )
        raise AnalysisError(
            "backend='process' needs picklable, worker-safe cascades "
            "(planner-built cascades are; hand-built lambda checks are "
            f"not) — use backend='thread' instead [{headline}]",
            diagnostics=tuple(findings),
        ) from error


@dataclass(slots=True, eq=False)
class ChunkDispatch:
    """One dispatched chunk and everything needed to re-dispatch it.

    ``orders`` are the step orders stamped at *original* submission time;
    a re-dispatch reuses them even if the adaptive profiler has moved on,
    so a recovered run stays bit-identical to a fault-free one.  ``block``
    is the shared-memory block a process-pool attempt ships the frames in.
    """

    chunk_id: int
    indices: list[int]
    frames: list[Frame]
    covered: Sequence[Sequence[bool]] | None
    orders: Sequence[Sequence[int]]
    future: Future | None = None
    block: shared_memory.SharedMemory | None = None
    generation: int = 0
    attempts: int = 0


class WorkerSupervisor:
    """Owns the filter worker pool and heals dead or stalled workers.

    One ``concurrent.futures`` pool of ``num_workers`` workers, each holding
    its own :class:`_Worker` (installed by :func:`_init_worker`) and running
    :func:`_filter_task`.  The backend decides two things only: how the pool
    is built (:meth:`_build_pool`) and how a chunk's frames travel — a
    thread gets the frame references, a process one shared-memory block that
    the supervisor creates at dispatch and releases at merge, on failure or
    on discard.

    State machine per chunk (``supervise=True``)::

        DISPATCHED --result ok--------------------------> MERGED
            |  ^
            |  +--redispatch (attempts <= max_redispatch)-+
            |                                             |
            +--FaultError (thread worker crash) ----------+
            +--BrokenExecutor (process worker death) -> respawn pool -+
            +--timeout worker_timeout_seconds (stall) -> respawn pool -+
            |
            +--attempts exhausted--> FaultExhausted -> quarantine

    The pool is respawned at most once per failure *generation*: a dead
    process worker breaks every in-flight future of its pool at once, and
    only the first observed failure pays the respawn — the siblings are
    re-dispatched onto the already-fresh pool.  An unsupervised scan never
    arms the timeout and propagates the first failure unchanged.
    """

    def __init__(
        self,
        config: ParallelConfig,
        query_cascades: Sequence[FilterCascade],
        assignments: Sequence[Sequence[int]],
    ) -> None:
        self._config = config
        self._cascades = list(query_cascades)
        self._assignments = [list(row) for row in assignments]
        # Pickled once per plan: every pool built for it ships these bytes.
        self._payload = (
            _process_payload(self._cascades, self._assignments)
            if config.backend == "process"
            else None
        )
        self._pool = self._build_pool()
        self._generation = 0
        self.respawns = 0
        self.redispatches = 0

    def _build_pool(self) -> Executor:
        """A fresh pool for the plan: the first build and every respawn."""
        workers = self._config.num_workers
        if self._payload is None:
            clones: queue.SimpleQueue[_Worker] = queue.SimpleQueue()
            for worker_id in range(workers):
                # A worker's cascades are deep-copied *together*, so filters
                # shared across queries stay shared within the clone and the
                # cross-query prediction cache keeps working.
                clone = copy.deepcopy(self._cascades)
                clones.put(_Worker(f"thread-{worker_id}", clone, self._assignments))
            return ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="filter-worker",
                initializer=_init_worker,
                initargs=(clones,),
            )
        # Fork is the cheap path (no re-import, payload inherited) but is
        # only reliably safe on Linux — macOS's Objective-C runtime aborts
        # in forked children, which is why CPython's own default there is
        # spawn.  Everywhere else, pay the spawn cost.
        use_fork = sys.platform == "linux" and "fork" in get_all_start_methods()
        # Start the parent's resource tracker before any worker exists, so
        # every worker inherits it: the workers' attach-side shared-memory
        # registrations then dedupe against the parent's create-side ones
        # instead of spawning per-worker trackers that would try to clean up
        # blocks the parent already unlinked.
        try:
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - platform-specific
            pass
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context("fork" if use_fork else "spawn"),
            initializer=_init_worker,
            initargs=(self._payload,),
        )
        # Spawn (or fork) every worker *now*, before any decode-ahead thread
        # starts: forking after threads exist risks inheriting held locks.
        for warmup in [pool.submit(os.getpid) for _ in range(workers)]:
            warmup.result()
        return pool

    def submit(
        self,
        chunk_id: int,
        indices: Sequence[int],
        frames: list[Frame],
        covered: Sequence[Sequence[bool]] | None,
        orders: Sequence[Sequence[int]],
    ) -> ChunkDispatch:
        entry = ChunkDispatch(chunk_id, list(indices), frames, covered, orders)
        self._dispatch(entry)
        return entry

    def _dispatch(self, entry: ChunkDispatch) -> None:
        entry.attempts += 1
        entry.generation = self._generation
        directive = None
        if hooks.injector is not None:
            # The one worker-fault site.  Crash/stall is decided here,
            # parent-side (fork/spawn children hold stale schedule copies),
            # and again on every re-dispatch: the schedule entry is consumed
            # by then, so the re-dispatched attempt runs the chunk clean.
            directive = hooks.injector.worker_directive(entry.chunk_id)
        try:
            frames = entry.frames if self._payload is None else self._share(entry)
            entry.future = self._pool.submit(
                _filter_task, entry.chunk_id, entry.covered, entry.orders, directive, frames
            )
        except BrokenExecutor as error:
            # A sibling's crash can break the pool before this chunk even
            # ships; same recovery path as a failed result.  ``_recover``
            # re-dispatches (or raises), so the chunk must not be submitted
            # again here: a second submit would orphan the first one's
            # shared-memory block and filter the chunk twice.
            self._recover(entry, error, respawn=True)
        except BaseException:
            self._release(entry)
            raise

    @staticmethod
    def _share(entry: ChunkDispatch) -> _SharedFrames:
        """Copy a chunk's frames into a fresh shared-memory block (``entry.block``)."""
        images = [frame.image for frame in entry.frames]
        shape = (len(images),) + images[0].shape
        dtype = images[0].dtype
        if any(image.shape != images[0].shape or image.dtype != dtype for image in images):
            raise ValueError("process backend needs uniform frame shapes per chunk")
        entry.block = shared_memory.SharedMemory(
            create=True, size=int(np.prod(shape)) * dtype.itemsize
        )
        stacked = np.ndarray(shape, dtype=dtype, buffer=entry.block.buf)
        for k, image in enumerate(images):
            stacked[k] = image
        return _SharedFrames(entry.block.name, shape, dtype.name, tuple(entry.indices))

    def result(self, entry: ChunkDispatch) -> ChunkOutcome:
        """Block for one chunk's outcome, healing failures in place.

        Always releases the chunk's shared-memory block — success, failure
        and exhaustion paths alike — so no segment outlives its merge point.
        """
        timeout = (
            self._config.worker_timeout_seconds if self._config.supervise else None
        )
        while True:
            assert entry.future is not None
            try:
                outcome = entry.future.result(timeout)
            except FuturesTimeout as error:
                self._recover(entry, error, respawn=True)
            except FaultError as error:
                # A thread worker "crash": the pool itself is intact.
                self._recover(entry, error, respawn=False)
            except BrokenExecutor as error:
                self._recover(entry, error, respawn=True)
            else:
                self._release(entry)
                return outcome

    def _recover(
        self, entry: ChunkDispatch, error: BaseException, *, respawn: bool
    ) -> None:
        self._release(entry)
        if not self._config.supervise:
            raise error
        if entry.attempts > self._config.max_redispatch:
            if hooks.injector is not None:
                hooks.injector.log.note_exhausted()
            raise FaultExhausted(
                "worker",
                entry.chunk_id,
                entry.attempts,
                str(error) or type(error).__name__,
            ) from error
        if respawn and entry.generation == self._generation:
            self._respawn()
        self.redispatches += 1
        if hooks.injector is not None:
            hooks.injector.log.note_redispatch()
        self._dispatch(entry)

    def _respawn(self) -> None:
        self._generation += 1
        self.respawns += 1
        if hooks.injector is not None:
            hooks.injector.log.note_respawn()
        # Fresh pool first: re-dispatched chunks must never queue behind a
        # stalled task in the old one.  The old pool is abandoned without
        # waiting (a wedged worker would block a wait=True shutdown).
        old, self._pool = self._pool, self._build_pool()
        old.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _release(entry: ChunkDispatch) -> None:
        if entry.block is not None:
            entry.block.close()
            entry.block.unlink()
            entry.block = None

    def discard(self, entry: ChunkDispatch) -> None:
        """Teardown-path cleanup for a chunk that will never be merged."""
        if entry.future is not None and not entry.future.cancel():
            try:
                entry.future.result(self._config.worker_timeout_seconds)
            except Exception:  # pragma: no cover - teardown path
                pass
        self._release(entry)

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)

# ----------------------------------------------------------------------
# Chunking and worker labels (the submit/merge loop itself is
# ScanSession._push_parallel / _merge_next)
# ----------------------------------------------------------------------
def partition_chunks(indices: Sequence[int], chunk_size: int) -> list[list[int]]:
    """Split a scan's frame indices into submission chunks."""
    return [
        list(indices[start : start + chunk_size])
        for start in range(0, len(indices), chunk_size)
    ]


def _worker_sort_key(label: str) -> tuple:
    """Numeric-aware ordering for worker labels (``thread-10`` after ``thread-2``)."""
    prefix, _, suffix = label.rpartition("-")
    if suffix.isdigit():
        return (prefix, int(suffix))
    return (label, -1)
