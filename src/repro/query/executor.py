"""Streaming query execution with filter cascades.

For every frame of the stream the executor runs the (cheap) filter cascade;
only frames that survive every cascade step are handed to the expensive
reference detector, whose detections are then checked exactly against the
query predicates.  Frames rejected by the cascade are skipped entirely — this
is the source of the orders-of-magnitude speedups reported in Table III.

There is one scan loop, :class:`~repro.query.session.ScanSession`, and chunk
size is its only variable: the stream is processed in chunks of
``batch_size`` frames (``None`` = chunks of
:data:`~repro.query.parallel.DEFAULT_CHUNK_SIZE`, ``1`` = one frame at a time).
Each cascade step runs as one vectorized
:meth:`~repro.filters.base.FrameFilter.predict_batch` call over the chunk's
surviving frames, the survivor set narrows step by step, and the detector
only sees the frames that survive the whole cascade.  The scan charges each
``predict_batch`` of ``n`` frames as one batched charge of ``n`` calls, so
every chunk size returns the same matched frames, the same work counters
and the same simulated cost (call counts exactly, milliseconds to
float-rounding); larger chunks are faster in wall-clock (see the perf ledger's ``table3_perframe`` /
``table3_batched`` pair).

Every chunk size honors the query's ``WINDOW HOPPING`` clause: the stream is
segmented into hopping-window instances (a trailing remainder shorter than
the window is one shorter last instance), every frame covered by at least
one window is filtered/verified exactly once (overlapping windows share the
per-frame work), and the result carries one
:class:`~repro.query.results.WindowResult` per window instance alongside the
flat ``matched_frames`` (the result records live in
:mod:`repro.query.results`).  Aggregate monitoring queries
go through :meth:`StreamingQueryExecutor.execute_aggregate`, which uses the
planned cascade's primary filter as the control-variate source.

:meth:`StreamingQueryExecutor.execute_many` applies the same shared-work
principle one level up, across *queries*: N queries run in one scan in which
each frame is materialised once, a filter shared by several queries'
cascades is evaluated at most once per frame, and the detector runs at most
once per frame on the union of all queries' cascade survivors — with
per-query results identical to running each query alone and a
:class:`~repro.cost.SharedCostReport` separating the work charged once from
what each query would have paid standalone.

Passing a :class:`~repro.query.temporal.TemporalConfig` (``temporal=...``)
to :meth:`~StreamingQueryExecutor.execute` or
:meth:`~StreamingQueryExecutor.execute_many` additionally exploits
*temporal coherence*: frames whose cheap change signature barely differs
from the last keyframe reuse that keyframe's filter predictions and
detector verdict instead of recomputing them, and over stable segments the
scan strides past frames entirely, localizing match boundaries by binary
search (see :mod:`repro.query.temporal`).  Avoided invocations are recorded
as reused calls on the cost breakdown; the default ``exact=True`` mode
verifies every reuse so results stay bit-identical to a non-temporal run.

Costs are accounted twice:

* *simulated* cost, using the paper's measured per-component latencies
  (filter branches ~1.5–1.9 ms, Mask R-CNN ~200 ms), which is what the
  execution-time tables report.  Filters and detectors only carry their
  latency; the scan charges each call it schedules to the executor's
  clock (the clock passed in, or the executor's own), so two scans
  sharing a filter or a detector never charge each other's clocks;
* *wall-clock* cost of this reproduction's own code, reported alongside for
  transparency (our numpy filters and simulated detector have very different
  absolute costs than GPU inference).
"""

from __future__ import annotations

import time
from dataclasses import replace
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

# Imported from the submodule (not the repro.aggregates package) so that the
# aggregates -> query.ast -> query.executor import chain finds the window
# types already initialised.
from repro.aggregates.windows import HoppingWindow, WindowBounds
from repro.cost import ParallelCostReport, SimulatedClock
from repro.detection.base import Detector
from repro.faults.injector import FaultExhausted, current_report
from repro.filters.base import FrameFilter
from repro.query.ast import Query, WindowSpec
from repro.query.parallel import (
    DEFAULT_CHUNK_SIZE,
    ParallelConfig,
    ParallelStats,
    partition_chunks,
)
from repro.query.planner import FilterCascade
from repro.query.results import (
    AggregateExecutionResult,
    MultiQueryExecutionResult,
    QueryExecutionResult,
    SharedExecutionStats,
    WindowAggregateEstimate,
    partition_into_windows,
    query_result,
)
from repro.query.session import ScanSession
from repro.query.temporal import TemporalConfig, TemporalStats
from repro.video.prefetch import decode_ahead
from repro.video.stream import VideoStream, checked_frame_indices

if TYPE_CHECKING:  # runtime import would be circular; see execute_aggregate
    from repro.aggregates.controls import ControlValueFn
    from repro.aggregates.monitor import AggregateQuerySpec, MonitoringReport


class StreamingQueryExecutor:
    """Executes queries over a stream with an optional filter cascade."""

    def __init__(self, detector: Detector, clock: SimulatedClock | None = None) -> None:
        self.detector = detector
        self.clock = clock or SimulatedClock()

    def execute(
        self,
        query: Query,
        stream: VideoStream,
        cascade: FilterCascade | None = None,
        frame_indices: Sequence[int] | None = None,
        batch_size: int | None = None,
        temporal: TemporalConfig | None = None,
        parallel: ParallelConfig | None = None,
    ) -> QueryExecutionResult:
        """Run ``query`` over ``stream`` (optionally restricted to ``frame_indices``).

        ``batch_size`` is the chunk size of the scan: ``batch_size=n``
        processes the stream in chunks of ``n`` frames with vectorized
        filter batches, ``None`` in chunks of
        :data:`~repro.query.parallel.DEFAULT_CHUNK_SIZE` (``stats.batch_size``
        still reports ``None``).  Every chunk size
        produces identical matched frames and work counters.  When the scan
        has more than one chunk, one ``decode-ahead`` thread renders the
        next two chunks while the current one is filtered and verified,
        with or without a filter step; output is unchanged, because a frame
        renders the same on any thread.

        When the query carries a ``WINDOW HOPPING`` clause the scan is
        restricted to the frames covered by at least one window instance, each
        frame is filtered/verified once no matter how many overlapping windows
        contain it, and the result's ``windows`` field reports the per-window
        match sets.  A trailing window shorter than the declared size is
        materialised, so the windows cover every stream frame whenever
        ``advance <= size`` (with ``advance > size`` the inter-window gaps
        are never scanned) — see
        :meth:`~repro.aggregates.windows.HoppingWindow.windows_over`.

        ``temporal`` enables the temporal-coherence layer: stable frames
        reuse the last keyframe's filter predictions and detector verdict,
        and with ``max_stride > 1`` stable segments are strided past
        entirely (see :mod:`repro.query.temporal`).  Temporal gating is
        inherently sequential, so it cannot be combined with ``batch_size``
        or ``parallel``.
        With the default ``exact=True`` the matched frames (and windows) are
        bit-identical to a non-temporal run while the simulated cost shows
        what the approximate mode would charge; with ``exact=False`` reused
        verdicts are trusted as-is.

        ``parallel`` runs the filter-cascade phase of the scan's
        ``batch_size``-frame chunks on ``num_workers`` concurrent workers
        (see :mod:`repro.query.parallel`) while a decode-ahead prefetcher
        renders upcoming chunks, and results are re-merged in stream order —
        output is bit-identical to the inline chunked scan.

        The scan is the shared scan of :meth:`execute_many` with one query,
        so its counters are the work actually performed: under ``temporal``
        reused and stride-skipped frames show up as reused calls on the
        clock and in ``temporal``, not as invocations.
        """
        # `is None`, not truthiness: a provably-empty cascade has no steps
        # (len 0, hence falsy) but must keep its short-circuit flag.
        cascade = cascade if cascade is not None else FilterCascade()
        scan = self._scan([query], stream, [cascade], frame_indices, batch_size, temporal, parallel)
        result, shared = scan.results[0], scan.shared
        if cascade.provably_empty:
            # Static analysis proved the query can match no frame, so the
            # scan covered none — zero frames rendered, filtered or verified:
            # no chunking, no wall time, no fault site consulted.  Windowed
            # queries still report their (empty) window instances so the
            # result shape matches a normal windowed run.
            return replace(
                result,
                stats=replace(
                    result.stats, wall_clock_seconds=0.0, batch_size=batch_size, faults=None
                ),
            )
        return replace(
            result,
            temporal=shared.temporal,
            stats=replace(
                result.stats,
                detector_invocations=shared.detector_invocations,
                filter_invocations=shared.filter_computations,
                simulated_cost=shared.cost.shared,
                batch_size=shared.batch_size,
                parallel=shared.parallel,
            ),
        )

    # ------------------------------------------------------------------
    # Multi-query shared execution
    # ------------------------------------------------------------------
    def execute_many(
        self,
        queries: Sequence[Query],
        stream: VideoStream,
        cascades: Sequence[FilterCascade | None] | None = None,
        *,
        frame_indices: Sequence[int] | None = None,
        batch_size: int | None = None,
        temporal: TemporalConfig | None = None,
        parallel: ParallelConfig | None = None,
    ) -> MultiQueryExecutionResult:
        """Run several queries over ``stream`` in one shared scan.

        Work that independent :meth:`execute` calls would repeat is performed
        once:

        * each frame is materialised (rendered) once and reused by every
          query;
        * a filter appearing in several queries' cascades is evaluated at
          most once per frame — predictions live in a cross-query per-chunk
          cache keyed by the filter's
          :attr:`~repro.filters.base.FrameFilter.identity`, and cascade steps
          that :func:`~repro.query.planner.merge_cascade_steps` proves
          semantically identical share their pass/fail outcome as well;
        * the detector runs at most once per frame, on the union of all
          queries' cascade survivors, and the resulting detections are
          evaluated against each interested query's predicates.

        ``cascades[i]`` is the cascade for ``queries[i]`` (``None`` entries
        mean no filtering).  When ``cascades`` is omitted entirely, every
        query runs brute force — still sharing frames and detector runs.

        Per-query results match running each query alone: the same matched
        frames and windows, the same work counters and call counts, and a
        simulated cost *attributed* from the shared run (what the query would
        have paid standalone) as latency x calls.  :meth:`execute` reports
        the clock's per-chunk charges summed instead, so the two costs are
        equal up to float rounding, not bit for bit.  The actual — smaller —
        cost of the shared scan is reported once in ``shared``, whose
        :class:`~repro.cost.SharedCostReport` separates work charged once
        from the per-query attributions.  Only ``wall_clock_seconds`` is not
        attributable: each per-query result carries the whole shared run's
        wall clock.

        Windowed queries partition the shared scan exactly as in
        :meth:`execute`: each windowed query is restricted to the frames its
        windows cover and its matches are split into per-window results;
        un-windowed queries in the same call scan every frame.

        ``temporal`` applies the temporal-coherence layer to the *shared*
        scan: the change signature is query-independent, so one stable frame
        reuses the entire shared outcome — every query's cascade verdicts
        and the detector verdict at once.  Reuse only happens between frames
        covered by the same set of queries (window boundaries force a
        keyframe refresh).  As in :meth:`execute`, temporal gating is
        sequential and cannot be combined with ``batch_size`` or
        ``parallel``; in the default ``exact=True`` mode per-query results
        stay bit-identical to a non-temporal run.

        ``parallel`` distributes the shared scan's filter phase across the
        worker pool exactly as in :meth:`execute` — the cross-query
        prediction cache lives per chunk, so sharing is unaffected — with
        the detector phase and predicate evaluation at the in-order merge.
        """
        queries = list(queries)
        if not queries:
            raise ValueError("execute_many needs at least one query")
        if cascades is None:
            query_cascades = [FilterCascade() for _ in queries]
        else:
            # `is None`, not truthiness: provably-empty cascades are falsy
            # (zero steps) but carry the short-circuit flag.
            query_cascades = [
                cascade if cascade is not None else FilterCascade()
                for cascade in cascades
            ]
            if len(query_cascades) != len(queries):
                raise ValueError(
                    f"{len(queries)} queries but {len(query_cascades)} cascades"
                )
        return self._scan(
            queries, stream, query_cascades, frame_indices, batch_size, temporal, parallel
        )

    def _scan(
        self,
        queries: Sequence[Query],
        stream: VideoStream,
        query_cascades: Sequence[FilterCascade],
        frame_indices: Sequence[int] | None,
        batch_size: int | None,
        temporal: TemporalConfig | None,
        parallel: ParallelConfig | None,
        samples: Sequence[frozenset[int]] | None = None,
        controls: Sequence[Sequence["ControlValueFn"]] | None = None,
    ) -> MultiQueryExecutionResult:
        """The one scan behind :meth:`execute`, :meth:`execute_many` and
        the samples of :meth:`execute_aggregate` and
        :meth:`~repro.aggregates.monitor.AggregateMonitor.estimate`.

        Build a :class:`~repro.query.session.ScanSession`, feed it, read the
        states.  The session owns the loop (accumulation, the detector-union
        phase, the worker pool and its in-order merge, the simulated charges,
        and coverage: one rule, ``QueryState.covers``, given
        each windowed query's last instance end as ``stop``); the executor
        decides only how frames reach it: one
        ``render(index)`` from :func:`~repro.video.prefetch.decode_ahead`
        and two drivers.  A chunked scan (no ``temporal``) of more than one
        chunk, and every pooled scan (``parallel``), renders the next chunks
        on one decode-ahead thread while this one filters and verifies; when
        a frame it asks for is still being drawn, this thread renders the
        next queued ones itself rather than wait.  A gated scan renders
        ahead on one thread when it has a filter step and an ``exact`` gate
        over more than one frame, which renders every frame; otherwise
        ``render`` is ``stream.frame``.  Frames render deterministically
        per index on any thread, so the rule changes wall time only.
        Rendered chunks of ``batch_size`` frames (``None`` = chunks of
        ``DEFAULT_CHUNK_SIZE``) go through ``push_chunk`` (a session built
        with ``parallel=`` filters them on its workers); under ``temporal``
        the whole index sequence goes through the temporal driver, where
        gating is sequential.  The filter phase of a
        chunk is :func:`~repro.query.parallel.run_filter_chunk` whether it
        runs inline or in a worker, so the parallel engine is chunk-for-chunk
        identical to the inline scan by construction.  ``samples[i]`` and
        ``controls[i]`` register query ``i`` as a sampled query: it covers
        only its sample's frames and reads its ``control_rows`` off them.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be positive: {batch_size}")
        if temporal is not None and (batch_size is not None or parallel is not None):
            raise ValueError(
                "temporal execution is sequential; combining temporal= with "
                "batch_size= or parallel= is not supported"
            )
        base_indices = checked_frame_indices(frame_indices, stream)
        per_query_windows = [
            _window_bounds_for(query.window, stream, include_partial=True) for query in queries
        ]
        chunk_size = batch_size or DEFAULT_CHUNK_SIZE
        temporal_stats: TemporalStats | None = None
        started = time.perf_counter()
        # Cost is measured as a delta against the session's snapshot of the
        # clock rather than by resetting it: a caller-supplied shared clock
        # (e.g. one accumulating cost across several executions) keeps its
        # history.
        session = ScanSession(self.detector, clock=self.clock, live=False, parallel=parallel)
        with session:
            for query, cascade, bounds, sample, query_controls in zip(
                queries, query_cascades, per_query_windows,
                samples or repeat(None), controls or repeat(()),
            ):
                # A windowed query covers its windows up to where the last
                # materialised instance ends (none: no frame at all).
                stop = None if bounds is None else (bounds[-1].stop if bounds else 0)
                session.add_query(
                    query, cascade, stop=stop, sample=sample, controls=query_controls
                )
            # Plans the scan: steps merged across queries.
            unique_steps = session.unique_step_count
            # The frames some query covers (a provably-empty query covers
            # none, so it pulls no frame into the union on its own).
            union_indices = [index for index in base_indices if session._covering(index)]
            # One render thread runs ahead while this one filters and
            # verifies, with or without a filter step or a pool.  When
            # this thread would wait on a frame still being drawn, it
            # renders the next queued ones itself (``FramePrefetcher``),
            # so a second render thread only contends for the cores.  An
            # unpooled single chunk has nothing to overlap and stays
            # inline; DESIGN.md "Parallel pipeline" has the numbers.
            if temporal is None:
                chunks = partition_chunks(union_indices, chunk_size)
                threads = 1 if parallel is not None or len(chunks) > 1 else 0
                ahead = chunk_size
            else:
                # Gating is sequential: nothing is chunked and the session
                # gets no workers.  An exact gate renders every frame (to
                # verify it), so it renders ahead too, through two maximal
                # strides: backfill and refinement probes stay in the
                # window.  An approximate gate decides what is rendered
                # at all, and a cascade-free gate has no filter phase to
                # render behind, so both stay inline.
                chunks = []
                exact = unique_steps > 0 and temporal.exact and len(union_indices) > 1
                threads = 1 if exact else 0
                ahead = temporal.max_stride
            with decode_ahead(stream, union_indices, ahead, threads) as render:
                if temporal is not None:
                    temporal_stats = session.run_temporal_scan(temporal, union_indices, render)
                else:
                    for chunk in chunks:
                        try:
                            # One materialisation per frame, shared by every query.
                            frames = [render(index) for index in chunk]
                        except FaultExhausted as error:
                            # A frame of this chunk could not be decoded within
                            # the retry budget: set it aside and keep scanning.
                            session.quarantine_chunk(chunk, error)
                            continue
                        session.push_chunk(frames)
        elapsed = time.perf_counter() - started

        cost = session.shared_cost_report()
        # ``None`` on every fault-free run; an installed injector still
        # yields a report (decode retries happen in the stream).
        fault_report = current_report(tuple(session.quarantined))
        # One attributed breakdown per query, in registration order.
        results = [
            query_result(
                state,
                attributed,
                (
                    partition_into_windows(bounds, state.scanned, state.passed, state.matched)
                    if bounds is not None
                    else None
                ),
                elapsed,
                batch_size=batch_size,
                faults=fault_report,
            )
            for state, attributed, bounds in zip(
                session.states, cost.attributed.values(), per_query_windows
            )
        ]
        parallel_stats = (
            ParallelStats(
                num_workers=parallel.num_workers,
                chunk_size=chunk_size,
                num_chunks=len(chunks),
                cost=ParallelCostReport(
                    per_worker=tuple(session.worker_breakdowns.values()),
                    wall_clock_seconds=elapsed,
                ),
            )
            if parallel is not None
            else None
        )
        shared_stats = SharedExecutionStats(
            frames_scanned=session.union_frames_scanned,
            detector_invocations=session.shared_detector_invocations,
            filter_computations=session.shared_filter_computations,
            unique_steps=unique_steps,
            total_steps=sum(len(cascade) for cascade in query_cascades),
            cost=cost,
            wall_clock_seconds=elapsed,
            batch_size=batch_size,
            temporal=temporal_stats,
            parallel=parallel_stats,
        )
        return MultiQueryExecutionResult(results=tuple(results), shared=shared_stats)

    # ------------------------------------------------------------------
    # Aggregate monitoring queries
    # ------------------------------------------------------------------
    def execute_aggregate(
        self,
        spec: "AggregateQuerySpec",
        stream: VideoStream,
        cascade: FilterCascade | None = None,
        *,
        frame_filter: FrameFilter | None = None,
        sample_size: int = 60,
        repetitions: int = 1,
        seed: int = 0,
    ) -> AggregateExecutionResult:
        """Estimate an aggregate monitoring query through the planner/executor API.

        The control-variate source is the planned ``cascade``'s primary
        filter (the same class-aware filter the cascade would use to skip
        frames in exact execution), or an explicit ``frame_filter`` override.
        Estimation itself is delegated to
        :class:`~repro.aggregates.monitor.AggregateMonitor` seeded with
        ``seed``, so for an un-windowed spec the reports are numerically
        identical to ``repetitions`` calls of ``AggregateMonitor.estimate``
        with the same seed.  Every sample is drawn first (window by window,
        then repetition by repetition), and then all of them run through one
        :meth:`_scan`, the scan every frame query runs, each sample a sampled
        query covering only its own frames: chunked, rendered ahead past one
        chunk, and each distinct sampled frame rendered, filtered and
        detected once however many samples share it.  Each report's
        per-frame cost is its own sample's attributed cost, and its
        ``wall_clock_seconds`` the wall time of the one scan, as
        :meth:`execute_many` reports each query's.

        For a windowed spec (``spec.window`` set, e.g. parsed from a query's
        ``WINDOW HOPPING`` clause) one estimate per window instance is
        reported, each sampling ``sample_size`` frames uniformly within its
        window.  Only full-size windows are estimated — the paper's
        aggregate experiments use fixed-size windows so every estimate
        averages over the same population size — unlike :meth:`execute`,
        whose windows keep the stream's shorter tail.

        A sample too small for the control-variate estimator, of the stream
        or of any window instance, raises ``ValueError`` naming that
        population before anything renders or is charged
        (:func:`~repro.aggregates.monitor.sampling_population`).
        """
        if repetitions < 1:
            raise ValueError(f"repetitions must be positive: {repetitions}")
        # `is not None`, not truthiness: a provably-empty cascade is falsy.
        cascade = cascade if cascade is not None else FilterCascade()
        source = frame_filter if frame_filter is not None else cascade.primary_filter
        if source is None:
            raise ValueError(
                "execute_aggregate needs a cascade with at least one filter "
                "or an explicit frame_filter to use as the control-variate source"
            )
        # Deferred import: repro.aggregates.monitor imports repro.query at
        # module load, so a top-level import here would be circular.
        from repro.aggregates.monitor import AggregateMonitor, sampling_population

        monitor = AggregateMonitor(
            detector=self.detector, frame_filter=source, clock=self.clock, seed=seed
        )
        instances: list[WindowBounds] | None = None
        if spec.window is not None:
            instances = _window_bounds_for(spec.window, stream, include_partial=False)
            if not instances:
                raise ValueError("a windowed aggregate needs frames; the stream is empty")
        # Every population is checked before anything renders.
        populations = [
            sampling_population(spec, stream, sample_size, bounds)
            for bounds in (instances if instances is not None else [None])
        ]
        samples = [
            monitor._draw(population, sample_size)
            for population in populations
            for _ in range(repetitions)
        ]
        estimates = monitor._estimate_samples(spec, stream, samples)
        groups = [
            tuple(estimates[start : start + repetitions])
            for start in range(0, len(estimates), repetitions)
        ]
        windows: tuple[WindowAggregateEstimate, ...] | None = None
        reports: tuple["MonitoringReport", ...] = ()
        if instances is None:
            reports = groups[0]
        else:
            windows = tuple(
                WindowAggregateEstimate(bounds=bounds, reports=group)
                for bounds, group in zip(instances, groups)
            )
        return AggregateExecutionResult(
            query_name=spec.name,
            cascade_description=cascade.describe(),
            filter_name=source.name,
            reports=reports,
            windows=windows,
        )


def _window_bounds_for(
    window: WindowSpec | None, stream: VideoStream, include_partial: bool
) -> list[WindowBounds] | None:
    """The hopping-window instances of ``window`` over ``stream`` (``None`` if un-windowed).

    An empty stream is an empty execution (as in the un-windowed path); a
    non-empty stream too short for even one full window is a configuration
    error where only full windows count (an aggregate's).
    """
    if window is None:
        return None
    hopping = HoppingWindow(size=window.size, advance=window.advance)
    bounds = list(hopping.windows_over(len(stream), include_partial=include_partial))
    if not bounds and len(stream) > 0:
        raise ValueError(
            f"window of size {window.size} produces no instances over "
            f"a {len(stream)}-frame stream; an aggregate estimates full "
            "windows only, so shrink the window"
        )
    return bounds
