"""Parallel pipelined execution: the chunk filter phase and the worker pool.

The batched executor (PR 1) amortises numpy call overhead but still runs
every stage on one core: render a chunk, filter it, verify the survivors,
repeat.  This module turns that loop into a pipeline:

* the **decode-ahead prefetcher**
  (:func:`~repro.video.prefetch.decode_ahead`, in the video layer) renders
  the next ``PREFETCH_DEPTH`` chunks' worth of frames on one background
  thread while earlier chunks are being filtered (a multi-chunk one-shot
  scan without a pool uses it too, with or without a filter step);
* a **chunk-granular worker pool** runs the filter-cascade phase of several
  chunks concurrently on threads, each worker with its own deep-copied
  cascades (the numpy filters release the GIL in their stacked operations
  but share scratch state, so workers must not share filter objects);
* results are **re-merged in stream order**: the reference detector runs in
  the merge thread on each chunk's cascade survivors exactly when that chunk
  is merged, so matched frames, work counters and the simulated-cost history
  are identical to the sequential batched path no matter how chunks raced.

Cost accounting stays exact under concurrency by construction: filters
charge nothing themselves, and :func:`run_filter_chunk` charges each
``predict_batch`` it issues to the clock it is handed.  Each worker hands it
a *private* :class:`~repro.cost.SimulatedClock`, built once with the worker
and zeroed at the top of every chunk, and returns what the chunk charged; the one
in-order merge loop (:meth:`~repro.query.session.ScanSession._merge_next`)
absorbs the chunks' breakdowns into the main clock in chunk order
(:meth:`~repro.cost.SimulatedClock.absorb`), and
the per-worker totals are reported in a
:class:`~repro.cost.ParallelCostReport` alongside the run's wall clock.
"""

from __future__ import annotations

import copy
import queue
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Sequence

from repro import hooks
from repro.cost import CostBreakdown, ParallelCostReport, SimulatedClock
from repro.faults.injector import FaultError, FaultExhausted
from repro.filters.base import FilterPrediction, FrameFilter
from repro.query.planner import FilterCascade
from repro.video.stream import Frame

#: frames per chunk wherever the caller names none: a one-shot chunked scan
#: without ``batch_size`` (with or without ``parallel=``) and a service stream
DEFAULT_CHUNK_SIZE = 16


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the filter worker pool.

    ``num_workers`` filter workers process a scan's chunks concurrently
    while the prefetcher keeps ``PREFETCH_DEPTH`` further chunks rendered
    ahead of submission.  The chunk size is not the pool's: a one-shot scan
    chunks by its ``batch_size`` (``None`` = ``DEFAULT_CHUNK_SIZE``), a
    service shard by its ``StreamConfig.chunk_size``.  Workers are threads;
    DESIGN.md "Parallel pipeline" records the measurement that retired the
    process pool.

    ``supervise=True`` turns on worker supervision (see
    :class:`WorkerSupervisor`): a chunk whose worker dies
    (a broken pool, injected crash) or stalls past
    ``worker_timeout_seconds`` is re-dispatched — after respawning the
    pool when the old one is broken or wedged — up to ``max_redispatch``
    times before the chunk is declared poisoned.  The in-order merge is
    untouched, so recovered runs stay bit-identical to fault-free ones.
    Off by default: an unsupervised run never starts the timeout
    machinery and fails fast exactly as before.
    """

    num_workers: int = 4
    supervise: bool = False
    worker_timeout_seconds: float = 30.0
    max_redispatch: int = 2

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be positive: {self.num_workers}")
        if self.worker_timeout_seconds <= 0.0:
            raise ValueError(
                f"worker_timeout_seconds must be positive: {self.worker_timeout_seconds}"
            )
        if self.max_redispatch < 0:
            raise ValueError(
                f"max_redispatch must be non-negative: {self.max_redispatch}"
            )


@dataclass(frozen=True)
class ParallelStats:
    """Telemetry of one parallel pipelined execution."""

    num_workers: int
    chunk_size: int
    num_chunks: int
    cost: ParallelCostReport


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
    avoids), ``predictions`` the cache the walk filled (filter identity ->
    chunk position -> prediction; no part of its outcome).
    """

    alive: tuple[tuple[int, ...], ...]
    invocations: tuple[int, ...]
    attributed: tuple[dict[tuple[str, float], int], ...]
    computed: dict[str, int]
    predictions: dict[tuple, dict[int, FilterPrediction]] = field(compare=False, repr=False)


@dataclass(frozen=True)
class ChunkOutcome:
    """One chunk's filter phase as a worker returns it.

    Everything downstream of the filters (detector, predicate evaluation,
    window partitioning) happens at the in-order merge on the merge thread,
    so this is the complete worker→main contract: the filtered chunk and the
    simulated filter cost the worker charged for it.
    """

    chunk_id: int
    worker: str
    filtered: FilteredChunk
    breakdown: CostBreakdown


def run_filter_chunk(
    clock: SimulatedClock | None,
    query_cascades: Sequence[FilterCascade],
    assignments: Sequence[Sequence[int]],
    covered: Sequence[Sequence[bool]] | None,
    frames: Sequence[Frame],
) -> FilteredChunk:
    """Run every query's cascade over one chunk of frames.

    The shared-scan contract of ``execute_many``, restricted to one chunk: a
    filter shared by several queries' cascades is evaluated at most once per
    frame (cross-query prediction cache keyed by filter identity), a
    first-step filter predicts the union of its queries' covered frames as
    one batch, deduped steps share their pass/fail outcome, and each
    query's attribution counts what a standalone run would have paid.
    ``covered[q][k]`` masks frames outside query ``q``'s coverage (its
    windows, its sample; ``None`` = all frames covered).
    Every cascade's steps run in their planned order.  Each
    ``predict_batch`` is charged to ``clock`` as it returns; ``None``
    charges nothing (exact-mode verification).
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
    computed: dict[str, int] = {}
    predictions: dict[tuple, dict[int, FilterPrediction]] = {}
    outcomes: dict[tuple[int, int], bool] = {}
    coverage = [
        list(range(len(frames))) if covered is None
        else [k for k in range(len(frames)) if covered[position][k]]
        for position in range(num_queries)
    ]
    # A first step sees every frame its query covers, so the first query to
    # run a first-step filter predicts the frames of every query starting
    # with it as one batch: queries covering different frames (windows,
    # samples) do not split the chunk into one small batch each.
    first_steps: dict[tuple, set[int]] = {}
    for cascade, alive in zip(query_cascades, coverage):
        if cascade.steps:
            first_steps.setdefault(cascade.steps[0].frame_filter.identity, set()).update(alive)
    for position, (cascade, step_positions, alive) in enumerate(
        zip(query_cascades, assignments, coverage)
    ):
        counted: dict[int, set[tuple]] = {}
        for step, unique_position in zip(cascade.steps, step_positions):
            if not alive:
                break
            identity = step.frame_filter.identity
            per_filter = predictions.setdefault(identity, {})
            wanted = alive
            if step is cascade.steps[0] and identity in first_steps:
                wanted = sorted(first_steps.pop(identity))
            missing = [k for k in wanted if k not in per_filter]
            if missing:
                batch = step.frame_filter.predict_batch([frames[k] for k in missing])
                if clock is not None:
                    clock.charge_calls(step.frame_filter, len(missing))
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
            alive = still_alive
        alive_indices.append(tuple(frames[k].index for k in alive))
    return FilteredChunk(
        alive=tuple(alive_indices),
        invocations=tuple(filter_invocations),
        attributed=tuple(attributed),
        computed=computed,
        predictions=predictions,
    )


def filter_with_retry(
    clock: SimulatedClock,
    query_cascades: Sequence[FilterCascade],
    assignments: Sequence[Sequence[int]],
    covered: Sequence[Sequence[bool]] | None,
    frames: Sequence[Frame],
    charged: bool = True,
) -> FilteredChunk:
    """:func:`run_filter_chunk` under the ``filter`` site's retry policy.

    The one filter phase of the inline evaluation and of a pool worker, so
    a fault is retried alike on either side, backoff charged to ``clock``.
    The filter calls are charged to ``clock`` too, unless ``charged`` is
    false (exact-mode verification); backoff is charged either way.
    The retry is chunk-atomic: the fault site is *before* any accumulation
    inside :func:`run_filter_chunk`, so a retried chunk replays
    bit-identically and exhaustion poisons the whole chunk (no partial
    counters to unwind).
    """
    calls_clock = clock if charged else None
    if hooks.injector is not None:
        return hooks.injector.with_retry(
            "filter",
            frames[0].index,
            clock,
            lambda: run_filter_chunk(
                calls_clock, query_cascades, assignments, covered, frames
            ),
        )
    return run_filter_chunk(calls_clock, query_cascades, assignments, covered, frames)


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


def clone_cascades(
    cascades: Sequence[FilterCascade], owned: set[int]
) -> list[FilterCascade]:
    """A deep copy of ``cascades`` whose filters are all new objects.

    The copy is taken *together*, so a filter shared across queries stays
    shared within it.  ``owned`` holds the ids of the filters already in
    use (the originals, earlier clones) and gains the copy's.  A filter
    whose deep copy is an owned object (a ``__deepcopy__`` returning
    ``self``) is refused with a ``ValueError`` naming it: two pool workers
    would share it.
    """
    clone = copy.deepcopy(list(cascades))
    for frame_filter in _distinct_filters(clone):
        if id(frame_filter) in owned:
            raise ValueError(
                f"filter {frame_filter.name!r} ({type(frame_filter).__name__}) "
                f"is the same object after a deep copy, so pool workers "
                f"would share it: its __deepcopy__ must build a new filter"
            )
        owned.add(id(frame_filter))
    return clone


@dataclass(frozen=True, eq=False)
class _Worker:
    """One pool worker's private cascades and clock (built once, in
    :meth:`WorkerSupervisor._build_pool`)."""

    label: str
    cascades: Sequence[FilterCascade]
    assignments: Sequence[Sequence[int]]
    clock: SimulatedClock

    def filter_chunk(
        self,
        chunk_id: int,
        covered: Sequence[Sequence[bool]] | None,
        frames: Sequence[Frame],
    ) -> ChunkOutcome:
        """Filter one chunk; the outcome carries exactly what the chunk charged.

        The private clock starts every chunk from zero, so the breakdown is
        the chunk's own sums: subtracting a running total instead would make
        its last ulp depend on which chunks this worker ran before.  Retry
        backoff is the chunk's too; an exhausted ``filter`` budget fails the
        task with :class:`FaultExhausted`.
        """
        self.clock.reset()
        filtered = filter_with_retry(
            self.clock, self.cascades, self.assignments, covered, frames
        )
        return ChunkOutcome(chunk_id, self.label, filtered, self.clock.snapshot())


#: the one worker slot: ``_SLOT.worker`` is the calling pool thread's
#: ``_Worker``, installed by :func:`_init_worker`
_SLOT = threading.local()


def _init_worker(clones: "queue.SimpleQueue[_Worker]") -> None:
    """The one pool initializer: install this pool thread's ``_Worker``.

    Each thread takes one of the clones the supervisor deep-copied up front
    (one per thread, so no two tasks ever share a clone).
    """
    _SLOT.worker = clones.get_nowait()


def _apply_worker_directive(directive: tuple[str, float] | None, chunk_id: int) -> None:
    """Enact a supervisor-side crash/stall directive inside a worker task.

    Runs at the very top of the task, before any frame is touched, so a
    crashed or stalled attempt leaves no partial filter charges.  The stall
    is a deliberate wall-clock sleep: it simulates a *hung* worker for the
    supervisor's timeout to catch, which a simulated-clock charge could
    never do.
    """
    if directive is None:
        return
    action, seconds = directive
    if action == "stall":
        time.sleep(seconds)
    elif action == "crash":
        raise FaultError("worker_crash", chunk_id, "injected worker crash")


def _filter_task(
    chunk_id: int,
    covered: Sequence[Sequence[bool]] | None,
    directive: tuple[str, float] | None,
    frames: Sequence[Frame],
) -> ChunkOutcome:
    """The one task body a pool thread runs."""
    _apply_worker_directive(directive, chunk_id)
    worker: _Worker = _SLOT.worker
    return worker.filter_chunk(chunk_id, covered, frames)


@dataclass(slots=True, eq=False)
class ChunkDispatch:
    """One dispatched chunk and everything needed to re-dispatch it."""

    chunk_id: int
    indices: list[int]
    frames: list[Frame]
    covered: Sequence[Sequence[bool]] | None
    future: Future | None = None
    generation: int = 0
    attempts: int = 0


class WorkerSupervisor:
    """Owns the filter worker pool and heals dead or stalled workers.

    One ``ThreadPoolExecutor`` of ``num_workers`` threads, each holding its
    own :class:`_Worker` (installed by :func:`_init_worker`) and running
    :func:`_filter_task` on the chunk's frame references.

    State machine per chunk (``supervise=True``)::

        DISPATCHED --result ok--------------------------> MERGED
            |  ^
            |  +--redispatch (attempts <= max_redispatch)-+
            |                                             |
            +--FaultError (injected worker crash) --------+
            +--BrokenExecutor (initializer failed) -> respawn pool -+
            +--timeout worker_timeout_seconds (stall) -> respawn pool -+
            |
            +--attempts exhausted--> FaultExhausted -> quarantine

    The pool is respawned at most once per failure *generation*: when one
    failure breaks or wedges the pool, every sibling in flight on it fails
    too, and only the first observed failure pays the respawn — the
    siblings are re-dispatched onto the already-fresh pool.  An
    unsupervised scan never arms the timeout and propagates the first
    failure unchanged, except that ``redispatch_crashes`` (a live session's
    pool: a standing query outlives a crashed worker) re-dispatches an
    injected worker crash up to ``max_redispatch`` times all the same.
    """

    def __init__(
        self,
        config: ParallelConfig,
        query_cascades: Sequence[FilterCascade],
        assignments: Sequence[Sequence[int]],
        *,
        redispatch_crashes: bool = False,
    ) -> None:
        self._config = config
        self._redispatch_crashes = redispatch_crashes
        self._cascades = list(query_cascades)
        self._assignments = [list(row) for row in assignments]
        self._pool = self._build_pool()
        self._generation = 0
        self.respawns = 0
        self.redispatches = 0

    def _build_pool(self) -> ThreadPoolExecutor:
        """A fresh pool for the plan: the first build and every respawn.

        The one place a worker clock is built (lint INV004): one private
        clock per worker, for the pool's lifetime.  Workers must not share
        filter objects, so :func:`clone_cascades` refuses a filter that a
        deep copy hands back as itself, before any chunk is filtered.
        """
        workers = self._config.num_workers
        clones: queue.SimpleQueue[_Worker] = queue.SimpleQueue()
        owned = {id(frame_filter) for frame_filter in _distinct_filters(self._cascades)}
        for worker_id in range(workers):
            clones.put(
                _Worker(
                    f"thread-{worker_id}",
                    clone_cascades(self._cascades, owned),
                    self._assignments,
                    SimulatedClock(),
                )
            )
        return ThreadPoolExecutor(
            max_workers=workers,
            thread_name_prefix="filter-worker",
            initializer=_init_worker,
            initargs=(clones,),
        )

    def submit(
        self,
        chunk_id: int,
        indices: Sequence[int],
        frames: list[Frame],
        covered: Sequence[Sequence[bool]] | None,
    ) -> ChunkDispatch:
        entry = ChunkDispatch(chunk_id, list(indices), frames, covered)
        self._dispatch(entry)
        return entry

    def _dispatch(self, entry: ChunkDispatch) -> None:
        entry.attempts += 1
        entry.generation = self._generation
        directive = None
        if hooks.injector is not None:
            # The one worker-fault site.  Crash/stall is decided here, on
            # the dispatching thread, and again on every re-dispatch: the
            # schedule entry is consumed by then, so the re-dispatched
            # attempt runs the chunk clean.
            directive = hooks.injector.worker_directive(entry.chunk_id)
        try:
            entry.future = self._pool.submit(
                _filter_task, entry.chunk_id, entry.covered, directive, entry.frames
            )
        except BrokenExecutor as error:
            # A sibling's failure can break the pool before this chunk even
            # ships; same recovery path as a failed result.  ``_recover``
            # re-dispatches (or raises), so the chunk must not be submitted
            # again here: a second submit would filter the chunk twice.
            self._recover(entry, error, respawn=True)

    def result(self, entry: ChunkDispatch) -> ChunkOutcome:
        """Block for one chunk's outcome, healing failures in place."""
        timeout = (
            self._config.worker_timeout_seconds if self._config.supervise else None
        )
        while True:
            assert entry.future is not None
            try:
                return entry.future.result(timeout)
            except FuturesTimeout as error:
                self._recover(entry, error, respawn=True)
            except FaultExhausted:
                # The task's own retry budget gave up: the chunk is poison,
                # and running it again would not heal it.
                raise
            except FaultError as error:
                # An injected worker crash: the pool itself is intact.
                self._recover(entry, error, respawn=False)
            except BrokenExecutor as error:
                self._recover(entry, error, respawn=True)

    def _recover(
        self, entry: ChunkDispatch, error: BaseException, *, respawn: bool
    ) -> None:
        crash = self._redispatch_crashes and isinstance(error, FaultError)
        if not (self._config.supervise or crash):
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

    def discard(self, entry: ChunkDispatch) -> None:
        """Teardown-path wait for a chunk that will never be merged."""
        if entry.future is not None and not entry.future.cancel():
            try:
                entry.future.result(self._config.worker_timeout_seconds)
            except Exception:  # pragma: no cover - teardown path
                pass

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


def _worker_sort_key(label: str) -> int:
    """Numeric ordering for worker labels (``thread-10`` after ``thread-2``)."""
    return int(label.rpartition("-")[2])
