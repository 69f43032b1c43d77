"""The standing-query monitoring service.

:class:`QueryService` runs always-on queries against named live streams.
Each attached stream is one *shard*: a bounded ingestion queue, one worker
thread, and a live :class:`~repro.query.session.ScanSession` that holds the
shard's scan state.  Queries register and deregister at runtime — the
session recomputes the cross-query dedup plan
(:func:`~repro.query.planner.merge_cascade_steps`) on every membership
change — and every incremental event (new matches, completed windows,
budget violations, final results) is pushed to the configured emitters.

The execution semantics are exactly the one-shot engine's: a finite stream
replayed chunk-by-chunk through the service produces bit-identical
per-query results to ``execute_many``, because the chunk pipeline *is* the
executor's, extracted into the session (see ``repro/query/session.py``).
The service adds what one-shot execution cannot express: arrival, churn,
backpressure (see ``repro/service/ingest.py``) and per-query SLA accounting
(:class:`~repro.cost.QueryBudget`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import hooks
from repro.cost import BudgetViolation, QueryBudget, SimulatedClock
from repro.detection.base import Detector
from repro.faults.injector import (
    FaultError,
    FaultExhausted,
    FaultReport,
    current_report,
    maybe_install_from_env,
    uninstall,
)
from repro.query.ast import Query
from repro.query.diagnostics import AnalysisError
from repro.query.parallel import DEFAULT_CHUNK_SIZE, ParallelConfig
from repro.query.planner import FilterCascade
from repro.query.session import ChunkProgress, ScanSession
from repro.service.emitters import Emission, Emitter, deliver
from repro.service.ingest import IngestionQueue
from repro.service.registry import QueryRegistry, StandingQuery
from repro.video.stream import Frame

#: the shard worker's dequeue poll interval: short enough that
#: ``stop(drain=False)`` is observed promptly, long enough to stay off the
#: queue lock while idle
_WORKER_POLL_SECONDS = 0.05

#: injected shard-worker crashes survived per chunk before the chunk is
#: quarantined as poison
_MAX_SHARD_RETRIES = 3

#: filter workers of a shard built without ``parallel=`` while it is its
#: service's only stream: the backbone and the
#: filter heads leave the shard thread, which keeps the detector phase, the
#: merge and the emitters.  DESIGN.md "Standing-query service" has the
#: measurements behind the count and behind the one-stream rule.
SHARD_WORKERS = 2


@dataclass(frozen=True)
class StreamConfig:
    """Per-stream execution and ingestion settings.

    ``chunk_size`` is the scan granularity (``feed`` re-chunks arbitrary
    frame batches to it); ``queue_chunks`` bounds the ingestion queue and
    ``policy`` picks the backpressure behaviour (``"block"`` /
    ``"drop_oldest"`` / ``"degrade"``).  ``parallel`` configures the
    shard's scan session as it configures the one-shot executor, except
    that the shard chunks by ``chunk_size``.  A shard without it filters on
    a pool of :data:`SHARD_WORKERS` threads, as
    ``ParallelConfig(num_workers=SHARD_WORKERS)`` would, while its stream
    is the service's only one, and inline while other streams' shard
    threads share the cores.  A shard gates frames only while the
    ``degrade`` policy has it in its degraded episode: then its session
    gates inline, one frame at a time, with
    :data:`~repro.query.session.DEGRADED_GATE`.
    """

    chunk_size: int = DEFAULT_CHUNK_SIZE
    queue_chunks: int = 8
    policy: str = "block"
    parallel: ParallelConfig | None = None

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.queue_chunks <= 0:
            raise ValueError(f"queue_chunks must be positive, got {self.queue_chunks}")


@dataclass(frozen=True)
class StreamStats:
    """A point-in-time snapshot of one stream shard."""

    stream: str
    active_queries: int
    chunks_ingested: int
    frames_ingested: int
    chunks_processed: int
    queue_depth: int
    queue_high_water: int
    dropped_chunks: int
    degrade_events: int
    degraded: bool
    degraded_chunks: int
    degraded_frames: int
    unique_steps: int
    total_steps: int
    watermark: int
    violations: tuple[BudgetViolation, ...]
    emitter_errors: int
    #: frame groups quarantined after exhausting their retry budgets
    quarantined_chunks: int = 0
    #: injected-fault / quarantine accounting (``None`` on fault-free shards)
    faults: FaultReport | None = None


@dataclass(frozen=True)
class ServiceStats:
    """Service-wide snapshot: per-stream stats plus the roll-ups."""

    streams: dict[str, StreamStats] = field(default_factory=dict)

    @property
    def active_queries(self) -> int:
        return sum(stats.active_queries for stats in self.streams.values())

    @property
    def violations(self) -> tuple[BudgetViolation, ...]:
        out: list[BudgetViolation] = []
        for stats in self.streams.values():
            out.extend(stats.violations)
        return tuple(out)

    @property
    def degrade_events(self) -> int:
        return sum(stats.degrade_events for stats in self.streams.values())

    @property
    def dropped_chunks(self) -> int:
        return sum(stats.dropped_chunks for stats in self.streams.values())

    @property
    def quarantined_chunks(self) -> int:
        return sum(stats.quarantined_chunks for stats in self.streams.values())


class _StreamShard:
    """One stream's queue + worker + scan session (internal)."""

    def __init__(
        self,
        name: str,
        detector: Detector,
        config: StreamConfig,
        registry: QueryRegistry,
        service_emitters: Sequence[Emitter],
        clock: SimulatedClock | None,
    ) -> None:
        self.name = name
        self.config = config
        self._default_pool = None
        if config.parallel is None:
            self._default_pool = ParallelConfig(num_workers=SHARD_WORKERS)
        self.session = ScanSession(
            detector, clock, live=True, parallel=config.parallel, resilient=True
        )
        self.queue = IngestionQueue(config.queue_chunks, config.policy)
        # A finished chunk ends the shard thread's wait for the next one.
        self.session.on_chunk_done = self.queue.wake
        self.lock = threading.RLock()
        self._registry = registry
        self._service_emitters = service_emitters
        self._sid_to_handle: dict[int, int] = {}
        self._thread: threading.Thread | None = None
        self.chunks_ingested = 0
        self.frames_ingested = 0
        self.chunks_processed = 0
        self.degraded_chunks = 0
        self.emitter_errors = 0
        self.violations: list[BudgetViolation] = []
        # Fault-tolerance bookkeeping: emitters that already got their
        # first-failure warning, and how many of the session's quarantine
        # records have been pushed out as ``kind="fault"`` emissions.
        self._warned_emitters: set[int] = set()
        self._faults_emitted = 0

    def use_default_pool(self, alone: bool) -> None:
        """Filter on the default pool while ``alone`` (the service's only stream)."""
        if self._default_pool is None:
            return
        wanted = self._default_pool if alone else None
        with self.lock:
            if self.session.parallel is not wanted:
                self._merge(self.session.drain)
                self.session.set_parallel(wanted)

    # -- membership (called by the service, shard lock serialises vs scan) --
    def admit(self, entry: StandingQuery) -> None:
        with self.lock:
            # A membership change drains the pool; emit what it merges.
            self._merge(self.session.drain)
            entry.sid = self.session.add_query(
                entry.query,
                entry.cascade,
                budget=entry.budget,
                key=entry.key,
            )
            self._sid_to_handle[entry.sid] = entry.handle

    def evict(self, entry: StandingQuery):
        with self.lock:
            self._merge(self.session.drain)
            emitted_before = len(self.session.states[entry.sid].emitted_windows)
            result = self.session.remove_query(entry.sid)
            del self._sid_to_handle[entry.sid]
            self._emit_tail_windows(entry, result, emitted_before)
            self._emit(entry, "result", result=result)
            return result

    # -- ingestion -------------------------------------------------------
    def feed(self, frames: Sequence[Frame]) -> int:
        """Re-chunk and ingest ``frames``; returns chunks accepted."""
        if self.queue.closed:
            raise AnalysisError(
                f"stream {self.name!r} is closed to ingestion (stop/close "
                "already shut its queue); attach a fresh stream to keep feeding"
            )
        accepted = 0
        size = self.config.chunk_size
        synchronous = self._thread is None
        for start in range(0, len(frames), size):
            chunk = list(frames[start : start + size])
            if synchronous:
                self._run_chunk_resilient(chunk)
            elif not self.queue.put(chunk):
                break
            accepted += 1
            self.chunks_ingested += 1
            self.frames_ingested += len(chunk)
        if synchronous:
            # A returned synchronous feed has delivered its emissions.
            self._merge(self.session.drain)
        return accepted

    def _worker_loop(self) -> None:
        # The timed get bounds how long the worker can sit inside the queue:
        # ``stop(drain=False)`` clears the backlog and closes the queue, and
        # within one poll interval the loop observes closed-and-drained and
        # exits — it cannot deadlock on a wakeup that was never signalled.
        # ``None`` alone is *not* an exit signal (timeouts, injected queue
        # stalls and a finished pool chunk's ``wake`` return it too), so the
        # loop re-checks the queue state.  Behind a backlog the merges ride
        # on the pushes (``_process_chunk``); an empty queue merges on a wake.
        while True:
            chunk = self.queue.get(timeout=_WORKER_POLL_SECONDS)
            if chunk is not None:
                self._run_chunk_resilient(chunk)
            elif not (self.queue.closed and self.queue.depth == 0):
                self._merge(self.session.merge_ready)
            else:
                # Closed and drained: block on the chunks still in flight
                # (polling would starve the workers of the GIL).
                self._merge(self.session.drain)
                return

    def _merge(self, step: Callable[[], list[ChunkProgress]]) -> None:
        """Run one merging session call under the lock and emit what it merged."""
        with self.lock:
            self._emit_reports(step())

    def _run_chunk_resilient(self, chunk: Sequence[Frame]) -> None:
        """Scan one chunk, surviving injected shard crashes and poison input.

        An injected ``shard_crash`` fault fires *before* the session sees the
        chunk, so re-running it is exact — this is the self-healing retry a
        supervisor restarting a crashed shard worker would perform.  A chunk
        that keeps failing (or raises a genuine error) is quarantined and the
        scan moves on; the stream never wedges on poison input.
        """
        attempts = 0
        while True:
            attempts += 1
            try:
                if hooks.injector is not None:
                    hooks.injector.shard_event(self.name, self.chunks_processed)
                self._process_chunk(chunk)
                return
            except FaultExhausted as error:
                self._quarantine(chunk, error)
                return
            except FaultError as error:
                if attempts > _MAX_SHARD_RETRIES:
                    self._quarantine(chunk, error)
                    return
                continue
            except Exception as error:
                self._quarantine(chunk, error)
                return

    def _quarantine(self, chunk: Sequence[Frame], error: BaseException) -> None:
        with self.lock:
            self.session.quarantine_chunk(list(chunk), error)
            # A pooled session records it at its turn in the merge.
            self._merge(self.session.merge_ready)

    def _process_chunk(self, frames: Sequence[Frame]) -> None:
        with self.lock:
            if self.queue.policy == "degrade":
                requested = self.queue.degrade_requested
                if requested != self.session.degraded:
                    self._merge(self.session.drain)
                    self.session.set_degraded(requested)
            # Merge what is done, and wait for room, so the push only
            # submits.  Behind a backlog the merges wait for a full window and
            # then run as one batch.
            if self.session.window_full or not self.queue.depth:
                self._merge(self.session.merge_ready)
            reports = self.session.push_chunk(frames)
            if self.session.degraded:
                self.degraded_chunks += 1
            self.chunks_processed += 1
            self._emit_reports(reports)

    # -- emission --------------------------------------------------------
    def _entry_for_sid(self, sid: int) -> StandingQuery | None:
        handle = self._sid_to_handle.get(sid)
        if handle is None:
            return None
        return self._registry.get(handle)

    def _emit(self, entry: StandingQuery, kind: str, **payload) -> None:
        """Deliver one of ``entry``'s own emissions, stamped with the current watermark."""
        self._deliver(
            Emission(
                stream=self.name,
                key=entry.key,
                handle=entry.handle,
                kind=kind,
                watermark=self.session.watermark,
                **payload,
            ),
            entry,
        )

    def _deliver(self, emission: Emission, entry: StandingQuery | None) -> None:
        emitters: list[Emitter] = list(self._service_emitters)
        if entry is not None and entry.emitter is not None:
            emitters.append(entry.emitter)
        self.emitter_errors += deliver(
            emitters, emission, warned=self._warned_emitters
        )

    def _emit_quarantines(self) -> None:
        """Push new quarantine records as ``kind="fault"`` emissions.

        Runs under the shard lock.  Covers both shard-level quarantines
        (:meth:`_quarantine`) and the ones the session performed internally
        (detector retry exhaustion, parallel-worker redispatch exhaustion).
        """
        records = self.session.quarantined
        for record in records[self._faults_emitted :]:
            self._deliver(
                Emission(
                    stream=self.name,
                    key=str(record.site),
                    handle=-1,
                    kind="fault",
                    watermark=self.session.watermark,
                    fault=record,
                ),
                None,
            )
        self._faults_emitted = len(records)

    def _emit_reports(self, reports: list[ChunkProgress]) -> None:
        """Emit each merged chunk's progress and check budgets after it."""
        for progress in reports:
            self._emit_progress(progress)
            self._check_budgets()
        self._emit_quarantines()

    def _emit_progress(self, progress: ChunkProgress) -> None:
        for sid, matches in progress.new_matches.items():
            entry = self._entry_for_sid(sid)
            if entry is not None:
                self._emit(entry, "matches", matched_frames=matches)
        for sid, windows in progress.new_windows.items():
            entry = self._entry_for_sid(sid)
            if entry is not None:
                for window in windows:
                    self._emit(entry, "window", window=window)

    def _emit_tail_windows(self, entry: StandingQuery, result, emitted_before: int) -> None:
        """Emit windows flushed at finalisation (the truncated tail, if any).

        Windows completed during the scan were emitted incrementally from
        ``_emit_progress``; finalisation may flush at most one more partial
        window, and it must reach the emitters exactly once too.
        """
        windows = getattr(result, "windows", None)
        if not windows:
            return
        for window in windows[emitted_before:]:
            self._emit(entry, "window", window=window)

    def _check_budgets(self) -> None:
        fresh = self.session.check_budgets()
        if not fresh:
            return
        self.violations.extend(fresh)
        for violation in fresh:
            entry = None
            for state in self.session.states:
                if any(existing is violation for existing in state.violations):
                    entry = self._entry_for_sid(state.sid)
                    break
            self._deliver(
                Emission(
                    stream=self.name,
                    key=violation.label,
                    handle=entry.handle if entry is not None else -1,
                    kind="violation",
                    watermark=self.session.watermark,
                    violation=violation,
                ),
                entry,
            )

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._worker_loop, name=f"query-service-{self.name}", daemon=True
        )
        self._thread.start()

    def stop(self, drain: bool = True) -> None:
        self.queue.close(drain=drain)
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def finish(self) -> dict[int, object]:
        """Stop ingestion, drain, finalise every remaining query."""
        self.stop(drain=True)
        results: dict[int, object] = {}
        with self.lock:
            self._merge(self.session.drain)
            emitted_before = {
                state.sid: len(state.emitted_windows) for state in self.session.states
            }
            for sid, result in self.session.finish().items():
                entry = self._entry_for_sid(sid)
                if entry is None:
                    continue
                results[entry.handle] = result
                self._emit_tail_windows(entry, result, emitted_before[sid])
                self._emit(entry, "result", result=result)
            self._sid_to_handle.clear()
        return results

    def stats(self) -> StreamStats:
        with self.lock:
            queue = self.queue.snapshot()
            return StreamStats(
                stream=self.name,
                active_queries=len(self.session.active_sids),
                chunks_ingested=self.chunks_ingested,
                frames_ingested=self.frames_ingested,
                chunks_processed=self.chunks_processed,
                queue_depth=int(queue["depth"]),
                queue_high_water=int(queue["high_water"]),
                dropped_chunks=int(queue["dropped_chunks"]),
                degrade_events=int(queue["degrade_events"]),
                degraded=self.session.degraded,
                degraded_chunks=self.degraded_chunks,
                degraded_frames=self.session.degraded_frames,
                unique_steps=self.session.unique_step_count,
                total_steps=self.session.total_step_count,
                watermark=self.session.watermark,
                violations=tuple(self.violations),
                emitter_errors=self.emitter_errors,
                quarantined_chunks=len(self.session.quarantined),
                faults=current_report(tuple(self.session.quarantined)),
            )


class QueryService:
    """Register standing queries on live streams; collect incremental results.

    Quickstart::

        service = QueryService(emitters=[buffer := BufferEmitter()])
        service.attach_stream("lobby", detector)
        handle = service.register("lobby", query, cascade)
        service.start()
        for batch in arriving_batches:
            service.feed("lobby", batch)
        results = service.close()            # handle -> QueryExecutionResult
        windows = buffer.windows(handle)     # incremental window emissions
    """

    def __init__(self, emitters: Sequence[Emitter] = ()) -> None:
        self.registry = QueryRegistry()
        self._emitters = list(emitters)
        self._shards: dict[str, _StreamShard] = {}
        self._started = False
        # ``$REPRO_FAULTS`` chaos mode: install the described injector for
        # this service's lifetime (no-op when unset or when an explicit
        # injection session is already live — we must not fight it).
        self._env_injector = maybe_install_from_env()

    # -- streams ---------------------------------------------------------
    def attach_stream(
        self,
        name: str,
        detector: Detector,
        config: StreamConfig | None = None,
        *,
        clock: SimulatedClock | None = None,
    ) -> None:
        """Attach a named live stream; queries register against it by name."""
        if name in self._shards:
            raise ValueError(f"stream {name!r} is already attached")
        shard = _StreamShard(
            name, detector, config or StreamConfig(), self.registry,
            self._emitters, clock,
        )
        self._shards[name] = shard
        self._share_cores()
        if self._started:
            shard.start()

    def _share_cores(self) -> None:
        """Give a default filter pool to a lone stream only.

        Each stream's shard thread already occupies a core, so a second
        stream leaves no core for a pool: two pools on two cores lose to two
        inline shards (DESIGN.md "Standing-query service").
        """
        alone = len(self._shards) == 1
        for shard in self._shards.values():
            shard.use_default_pool(alone)

    def _shard(self, name: str) -> _StreamShard:
        try:
            return self._shards[name]
        except KeyError:
            raise KeyError(
                f"unknown stream {name!r}; attached: {sorted(self._shards)}"
            ) from None

    # -- standing queries ------------------------------------------------
    def register(
        self,
        stream: str,
        query: Query,
        cascade: FilterCascade | None = None,
        *,
        key: str | None = None,
        budget: QueryBudget | None = None,
        emitter: Emitter | None = None,
    ) -> int:
        """Register a standing query on ``stream``; returns its handle.

        The query starts covering frames from the stream's *current*
        watermark — it observes nothing retroactively.  ``emitter`` (if
        given) receives this query's emissions in addition to the
        service-wide emitters.  On a pooled stream, a filter the pool's
        workers would share raises ``ValueError`` naming it, and the query
        is not registered.
        """
        shard = self._shard(stream)
        if shard.queue.closed:
            raise AnalysisError(
                f"cannot register {query.name!r}: stream {stream!r} is closed "
                "to ingestion (stop/close already shut its queue)"
            )
        entry = self.registry.add(
            dict(
                stream=stream,
                key=key if key is not None else query.name,
                query=query,
                cascade=cascade if cascade is not None else FilterCascade(),
                budget=budget,
                emitter=emitter,
            )
        )
        try:
            shard.admit(entry)
        except Exception:
            self.registry.remove(entry.handle)
            raise
        return entry.handle

    def deregister(self, handle: int):
        """Remove a standing query; flushes its tail window, returns its result."""
        entry = self.registry.get(handle)
        result = self._shard(entry.stream).evict(entry)
        self.registry.remove(handle)
        return result

    # -- ingestion -------------------------------------------------------
    def feed(self, stream: str, frames: Sequence[Frame]) -> int:
        """Ingest ``frames`` into ``stream``; returns the chunks accepted.

        Before :meth:`start` the frames are processed synchronously on the
        caller's thread (deterministic replay mode — what the parity tests
        use); after it they are enqueued for the shard worker per the
        stream's backpressure policy.
        """
        return self._shard(stream).feed(frames)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Start one ingestion worker per attached stream."""
        self._started = True
        for shard in self._shards.values():
            shard.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the workers (draining queued chunks by default)."""
        self._started = False
        for shard in self._shards.values():
            shard.stop(drain=drain)

    def close_stream(self, name: str) -> dict[int, object]:
        """Detach a stream, finalising its remaining queries (handle → result).

        Idempotent: closing a stream that is unknown or already closed
        returns ``{}`` instead of raising — teardown paths (``close``,
        ``__exit__``, supervisors cleaning up after a crash) may race or
        repeat without consequence.
        """
        shard = self._shards.get(name)
        if shard is None:
            return {}
        results = shard.finish()
        for handle in self.registry.handles_for(name):
            self.registry.remove(handle)
        del self._shards[name]
        self._share_cores()
        return results

    def close(self) -> dict[int, object]:
        """Close every stream; returns handle → final result for all of them.

        Idempotent: a second ``close`` finds no streams and returns ``{}``.
        """
        results: dict[int, object] = {}
        try:
            for name in list(self._shards):
                results.update(self.close_stream(name))
            self._started = False
        finally:
            # Also when a stream's close raised: an injector nobody owns
            # would stay live process-wide, and the next service would find
            # the slot taken and decline to install its own.
            if self._env_injector is not None:
                uninstall(self._env_injector)
                self._env_injector = None
        return results

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- checkpoint / resume ---------------------------------------------
    def checkpoint(self, stream: str) -> dict:
        """Snapshot the stream shard's live scan progress.

        The snapshot is picklable and self-contained (see
        :meth:`~repro.query.session.ScanSession.checkpoint`); taken under
        the shard lock, so it is consistent with respect to the worker.
        Pending queued chunks are *not* captured — re-feed anything fed
        after the checkpoint when resuming.
        """
        shard = self._shard(stream)
        with shard.lock:
            shard._merge(shard.session.drain)
            return shard.session.checkpoint()

    def restore_stream(self, name: str, snapshot: dict) -> None:
        """Restore a freshly attached stream from a :meth:`checkpoint`.

        The stream must have been re-attached and the same queries
        re-registered in the same order (the session verifies the keys);
        afterwards the shard continues exactly where the snapshot left off —
        no window re-emitted, none skipped.
        """
        shard = self._shard(name)
        with shard.lock:
            shard.session.restore(snapshot)

    # -- introspection ---------------------------------------------------
    def shared_cost_report(self, stream: str):
        """The stream shard's :class:`~repro.cost.SharedCostReport` so far."""
        shard = self._shard(stream)
        with shard.lock:
            return shard.session.shared_cost_report()

    def stats(self) -> ServiceStats:
        return ServiceStats(
            streams={name: shard.stats() for name, shard in self._shards.items()}
        )
