"""Streaming query execution with filter cascades.

For every frame of the stream the executor runs the (cheap) filter cascade;
only frames that survive every cascade step are handed to the expensive
reference detector, whose detections are then checked exactly against the
query predicates.  Frames rejected by the cascade are skipped entirely — this
is the source of the orders-of-magnitude speedups reported in Table III.

There is one scan loop, :class:`~repro.query.session.ScanSession`, and chunk
size is its only variable: the stream is processed in chunks of
``batch_size`` frames (``None`` = one frame at a time, i.e. chunks of one).
Each cascade step runs as one vectorized
:meth:`~repro.filters.base.FrameFilter.predict_batch` call over the chunk's
surviving frames, the survivor set narrows step by step, and the detector
only sees the frames that survive the whole cascade.  Filter latencies are
charged with the clock's ``calls=n`` batched-charge API, so every chunk size
returns the same matched frames, the same work counters and the same
simulated cost (call counts exactly, milliseconds to float-rounding); larger
chunks are faster in wall-clock (see the perf ledger's ``table3_perframe`` /
``table3_batched`` pair).

Every chunk size honors the query's ``WINDOW HOPPING`` clause: the stream is
segmented into hopping-window instances, every frame covered by at least one
window is filtered/verified exactly once (overlapping windows share the
per-frame work), and the result carries one :class:`WindowResult` per window
instance alongside the flat ``matched_frames``.  Aggregate monitoring queries
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
to :meth:`~StreamingQueryExecutor.execute`,
:meth:`~StreamingQueryExecutor.execute_many` or
:meth:`~StreamingQueryExecutor.execute_aggregate` additionally exploits
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
  execution-time tables report;
* *wall-clock* cost of this reproduction's own code, reported alongside for
  transparency (our numpy filters and simulated detector have very different
  absolute costs than GPU inference).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

# Imported from the submodule (not the repro.aggregates package) so that the
# aggregates -> query.ast -> query.executor import chain finds the window
# types already initialised.
from repro.aggregates.windows import HoppingWindow, WindowBounds
from repro.cost import CostBreakdown, ParallelCostReport, SharedCostReport, SimulatedClock
from repro.detection.base import Detector
from repro.faults.injector import FaultExhausted, current_report
from repro.filters.base import FrameFilter
from repro.query.ast import Query
from repro.query.evaluation import evaluate_predicates_on_detections
from repro.query.parallel import (
    CascadeProfiler,
    ParallelConfig,
    ParallelStats,
    PlanRevision,
    decode_ahead,
    partition_chunks,
)
from repro.query.planner import FilterCascade
from repro.query.session import ScanSession
from repro.query.temporal import TemporalConfig, TemporalStats
from repro.video.stream import VideoStream, checked_frame_indices

if TYPE_CHECKING:  # runtime import would be circular; see execute_aggregate
    from repro.aggregates.monitor import AggregateQuerySpec, MonitoringReport
    from repro.analysis.diagnostics import AnalysisReport
    from repro.faults.injector import FaultReport


@dataclass(frozen=True)
class ExecutionStats:
    """Work and cost accounting for one query execution."""

    frames_scanned: int
    frames_passed_filters: int
    detector_invocations: int
    filter_invocations: int
    simulated_cost: CostBreakdown
    wall_clock_seconds: float
    #: chunk size of the batched execution mode; ``None`` = sequential
    batch_size: int | None = None
    #: mid-stream cascade reorders performed by the adaptive re-planner
    #: (empty unless ``ParallelConfig(adaptive=True)`` was in effect)
    plan_revisions: tuple[PlanRevision, ...] = ()
    #: worker/prefetch telemetry of a parallel pipelined execution
    #: (``None`` when the scan ran without a ``ParallelConfig``)
    parallel: ParallelStats | None = None
    #: findings of the runtime sanitizers (``None`` unless the scan ran with
    #: ``ParallelConfig(sanitize=...)``; empty report = instrumented and clean)
    sanitizer_report: "AnalysisReport | None" = None
    #: injected-fault and quarantine accounting of the scan (``None`` when no
    #: :class:`~repro.faults.FaultInjector` was installed and nothing was
    #: quarantined — i.e. every fault-free run)
    faults: "FaultReport | None" = None

    @property
    def simulated_seconds(self) -> float:
        return self.simulated_cost.total_seconds

    @property
    def filter_selectivity(self) -> float:
        """Fraction of frames that survived the cascade (lower = more selective).

        An execution that scanned no frames has no survival fraction at all;
        returning ``0.0`` would read as "perfectly selective", so the empty
        case returns ``nan`` (check with :func:`math.isnan`).
        """
        if self.frames_scanned == 0:
            return float("nan")
        return self.frames_passed_filters / self.frames_scanned


@dataclass(frozen=True)
class WindowStats:
    """Per-window frame counts of a windowed execution.

    These are cardinalities of the window's frame sets, not work counters:
    overlapping windows share one filter evaluation and one verification per
    frame, so attributing invocations per window would double-charge shared
    work.  The execution-wide totals live in :class:`ExecutionStats`.
    """

    frames_scanned: int
    frames_passed_filters: int


@dataclass(frozen=True)
class WindowResult:
    """Per-window match set of a windowed query execution."""

    bounds: WindowBounds
    matched_frames: tuple[int, ...]
    stats: WindowStats

    @property
    def num_matches(self) -> int:
        return len(self.matched_frames)

    @property
    def match_fraction(self) -> float:
        """Fraction of the window's scanned frames that matched (``nan`` if none scanned)."""
        if self.stats.frames_scanned == 0:
            return float("nan")
        return self.num_matches / self.stats.frames_scanned


@dataclass(frozen=True)
class QueryExecutionResult:
    """The outcome of executing a query over a stream.

    For windowed queries ``windows`` holds one :class:`WindowResult` per
    hopping-window instance (in stream order); ``matched_frames`` stays the
    flat match set over all frames covered by any window, so the union of the
    per-window match sets always equals ``matched_frames``.  Un-windowed
    executions have ``windows=None``.  ``temporal`` carries the
    reuse/stride telemetry of a temporally-coherent execution (``None`` when
    the scan ran without a :class:`~repro.query.temporal.TemporalConfig`).
    """

    query_name: str
    cascade_description: str
    matched_frames: tuple[int, ...]
    stats: ExecutionStats
    windows: tuple[WindowResult, ...] | None = None
    temporal: TemporalStats | None = None

    @property
    def num_matches(self) -> int:
        return len(self.matched_frames)

    @property
    def num_windows(self) -> int:
        return len(self.windows) if self.windows is not None else 0

    # ------------------------------------------------------------------
    # Accuracy against a reference (brute-force) result
    # ------------------------------------------------------------------
    def accuracy_against(self, reference_frames: Iterable[int]) -> dict[str, float]:
        """Precision / recall / F1 / accuracy relative to a reference answer set.

        The paper reports, for count queries, the fraction of true answer
        frames that the filtered execution identifies (here ``recall``; the
        verification step makes false positives impossible when the same
        detector defines the truth), and the F1 measure for spatial queries.
        """
        truth = set(reference_frames)
        found = set(self.matched_frames)
        true_positives = len(truth & found)
        false_positives = len(found - truth)
        false_negatives = len(truth - found)
        precision = (
            true_positives / (true_positives + false_positives)
            if (true_positives + false_positives)
            else 1.0
        )
        recall = (
            true_positives / (true_positives + false_negatives)
            if (true_positives + false_negatives)
            else 1.0
        )
        f1 = (
            2 * precision * recall / (precision + recall)
            if (precision + recall) > 0
            else 0.0
        )
        return {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "accuracy": recall,
            "true_positives": float(true_positives),
            "false_positives": float(false_positives),
            "false_negatives": float(false_negatives),
        }

    def speedup_against(self, reference: "QueryExecutionResult") -> float:
        """Simulated-time speedup relative to another execution (e.g. brute force).

        Edge cases are defined so empty comparisons read sensibly: two
        zero-cost executions are equally fast (``1.0``); a zero-cost
        execution compared against a real one is infinitely faster
        (``inf``).
        """
        own = self.stats.simulated_seconds
        other = reference.stats.simulated_seconds
        if own <= 0:
            return 1.0 if other <= 0 else float("inf")
        return other / own


@dataclass(frozen=True)
class SharedExecutionStats:
    """Actual work performed by one shared multi-query scan.

    Unlike the per-query :class:`ExecutionStats` (which attribute to each
    query the work it would have paid running alone), these counters are what
    the shared run really did: every frame materialised once, every shared
    filter evaluated at most once per frame, the detector run at most once
    per frame on the union of all queries' cascade survivors.
    """

    #: distinct frames materialised and scanned (union over all queries)
    frames_scanned: int
    #: detector runs — one per frame that survived *some* query's cascade
    detector_invocations: int
    #: filter frame-evaluations actually performed across all shared filters
    filter_computations: int
    #: cascade steps after cross-query dedup / before dedup
    unique_steps: int
    total_steps: int
    cost: SharedCostReport
    wall_clock_seconds: float
    batch_size: int | None = None
    #: reuse/stride telemetry of a temporally-coherent shared scan
    temporal: TemporalStats | None = None
    #: worker/prefetch telemetry of a parallel pipelined shared scan
    parallel: ParallelStats | None = None
    #: findings of the runtime sanitizers (``None`` unless the scan ran with
    #: ``ParallelConfig(sanitize=...)``; empty report = instrumented and clean)
    sanitizer_report: "AnalysisReport | None" = None

    @property
    def savings_ratio(self) -> float:
        """Simulated-cost ratio of N independent runs over the shared run."""
        return self.cost.savings_ratio


@dataclass(frozen=True)
class MultiQueryExecutionResult:
    """The outcome of executing several queries in one shared scan.

    ``results[i]`` corresponds to ``queries[i]`` of the
    :meth:`StreamingQueryExecutor.execute_many` call and is bit-identical in
    matched frames and work counters to running that query alone; ``shared``
    reports the work the one scan actually performed.
    """

    results: tuple[QueryExecutionResult, ...]
    shared: SharedExecutionStats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> QueryExecutionResult:
        return self.results[index]

    def result_for(self, query_name: str) -> QueryExecutionResult:
        """The result of the (single) query named ``query_name``."""
        found = [result for result in self.results if result.query_name == query_name]
        if not found:
            raise KeyError(f"no query named {query_name!r} in this execution")
        if len(found) > 1:
            raise KeyError(f"{len(found)} queries named {query_name!r}; index by position")
        return found[0]


@dataclass(frozen=True)
class WindowAggregateEstimate:
    """Aggregate estimates for one window instance of a windowed spec."""

    bounds: WindowBounds
    reports: tuple["MonitoringReport", ...]

    @property
    def cv_mean(self) -> float:
        """Mean of the control-variate estimates across the repetitions."""
        return float(np.mean([report.control_variate.mean for report in self.reports]))


@dataclass(frozen=True)
class AggregateExecutionResult:
    """The outcome of executing an aggregate monitoring query.

    Un-windowed specs produce ``reports`` (one
    :class:`~repro.aggregates.monitor.MonitoringReport` per repetition) and
    ``windows=None``; windowed specs produce one
    :class:`WindowAggregateEstimate` per hopping-window instance and an empty
    ``reports``.
    """

    query_name: str
    cascade_description: str
    filter_name: str
    reports: tuple["MonitoringReport", ...]
    windows: tuple[WindowAggregateEstimate, ...] | None = None

    @property
    def all_reports(self) -> tuple["MonitoringReport", ...]:
        """Every report produced, whole-stream or per-window."""
        if self.windows is None:
            return self.reports
        return tuple(report for window in self.windows for report in window.reports)


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
        include_partial_windows: bool = True,
        temporal: TemporalConfig | None = None,
        parallel: ParallelConfig | None = None,
        strict: bool = False,
    ) -> QueryExecutionResult:
        """Run ``query`` over ``stream`` (optionally restricted to ``frame_indices``).

        ``strict=True`` re-runs the static analyzer over the query and the
        cascade right before execution and raises
        :class:`~repro.analysis.AnalysisError` (a ``ValueError``) on
        error-severity findings — the belt-and-braces entry point for
        cascades that did not come from ``QueryPlanner.plan(strict=True)``.

        ``batch_size`` is the chunk size of the scan: ``None`` evaluates one
        frame at a time, ``batch_size=n`` processes the stream in chunks of
        ``n`` frames with vectorized filter batches.  Every chunk size
        produces identical matched frames and work counters.

        When the query carries a ``WINDOW HOPPING`` clause the scan is
        restricted to the frames covered by at least one window instance, each
        frame is filtered/verified once no matter how many overlapping windows
        contain it, and the result's ``windows`` field reports the per-window
        match sets.  ``include_partial_windows`` controls whether a trailing
        window shorter than the declared size is materialised; with the
        default ``True`` the windows cover every stream frame whenever
        ``advance <= size`` (with ``advance > size`` the inter-window gaps
        are never scanned regardless).  Pass ``False`` for the paper's
        fixed-size-window semantics, which silently drop the remainder — see
        :meth:`~repro.aggregates.windows.HoppingWindow.windows_over`.

        ``temporal`` enables the temporal-coherence layer: stable frames
        reuse the last keyframe's filter predictions and detector verdict,
        and with ``max_stride > 1`` stable segments are strided past
        entirely (see :mod:`repro.query.temporal`).  Temporal gating is
        inherently sequential, so it cannot be combined with ``batch_size``.
        With the default ``exact=True`` the matched frames (and windows) are
        bit-identical to a non-temporal run while the simulated cost shows
        what the approximate mode would charge; with ``exact=False`` reused
        verdicts are trusted as-is.

        ``parallel`` runs the scan through the parallel pipelined engine
        (see :mod:`repro.query.parallel`): the filter-cascade phase of
        ``chunk_size``-frame chunks executes on ``num_workers`` concurrent
        workers while a decode-ahead prefetcher renders upcoming chunks, and
        results are re-merged in stream order — output is bit-identical to
        the inline chunked scan.  When ``batch_size`` is also given it
        overrides the config's chunk size (parallel execution *is* batched
        execution, distributed).  Combined with ``temporal`` the gating
        stays sequential (reuse decisions are inherently order-dependent)
        and parallelism contributes decode-ahead rendering only.  With
        ``parallel.adaptive`` the cascade order is re-planned mid-stream
        from observed pass rates; every reorder is logged in
        ``stats.plan_revisions`` and the matched frames are unaffected
        (conjunctive steps commute).

        The scan is the shared scan of :meth:`execute_many` with one query,
        so its counters are the work actually performed: under ``temporal``
        reused and stride-skipped frames show up as reused calls on the
        clock and in ``temporal``, not as invocations.
        """
        # `is None`, not truthiness: a provably-empty cascade has no steps
        # (len 0, hence falsy) but must keep its short-circuit flag.
        cascade = cascade if cascade is not None else FilterCascade()
        scan = self._scan(
            [query], stream, [cascade], frame_indices, batch_size,
            include_partial_windows, temporal, parallel, strict,
        )
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
                batch_size=shared.batch_size if temporal is None else None,
                parallel=shared.parallel,
                sanitizer_report=shared.sanitizer_report,
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
        planner=None,
        frame_indices: Sequence[int] | None = None,
        batch_size: int | None = None,
        include_partial_windows: bool = True,
        temporal: TemporalConfig | None = None,
        parallel: ParallelConfig | None = None,
        strict: bool = False,
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
        mean no filtering).  When ``cascades`` is omitted entirely, a
        ``planner`` (:class:`~repro.query.planner.QueryPlanner`) may be
        supplied to plan one cascade per query; with neither, every query
        runs brute force — still sharing frames and detector runs.

        Per-query results have exact parity with running each query alone:
        the same matched frames and windows, and per-query work counters /
        simulated cost *attributed* from the shared run (what the query would
        have paid standalone).  The actual — smaller — cost of the shared
        scan is reported once in ``shared``, whose
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
        sequential and cannot be combined with ``batch_size``; in the
        default ``exact=True`` mode per-query results stay bit-identical to
        a non-temporal run.

        ``parallel`` distributes the shared scan's filter phase across the
        worker pool exactly as in :meth:`execute` — the cross-query
        prediction cache lives per chunk, so sharing is unaffected — with
        the detector phase and predicate evaluation at the in-order merge.
        Adaptive re-planning profiles each query's cascade independently;
        per-query ``stats.plan_revisions`` carry the reorders.
        """
        queries = list(queries)
        if not queries:
            raise ValueError("execute_many needs at least one query")
        if cascades is None:
            if planner is not None:
                query_cascades = [planner.plan(query) for query in queries]
            else:
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
            queries, stream, query_cascades, frame_indices, batch_size,
            include_partial_windows, temporal, parallel, strict,
        )

    def _scan(
        self,
        queries: Sequence[Query],
        stream: VideoStream,
        query_cascades: Sequence[FilterCascade],
        frame_indices: Sequence[int] | None,
        batch_size: int | None,
        include_partial_windows: bool,
        temporal: TemporalConfig | None,
        parallel: ParallelConfig | None,
        strict: bool,
    ) -> MultiQueryExecutionResult:
        """The one scan behind :meth:`execute` and :meth:`execute_many`.

        Build a :class:`~repro.query.session.ScanSession`, feed it, read the
        states.  The session owns the loop (accumulation, the detector-union
        phase, the worker backend and its in-order merge, clock attachment
        and restoration); the executor decides only how frames reach it: one
        ``render(index)`` from :func:`~repro.query.parallel.decode_ahead`
        (``stream.frame``, rendered ahead when ``parallel`` is set) and two
        drivers.  Rendered chunks of ``chunk_size`` frames go through
        ``push_chunk`` (``batch_size=None`` = chunks of one; a session built
        with ``parallel=`` filters them on its workers); under
        ``temporal`` the whole index sequence goes
        through the temporal driver, where gating is sequential and
        ``parallel`` contributes decode-ahead only.  The filter phase of a
        chunk is :func:`~repro.query.parallel.run_filter_chunk` whether it
        runs inline or in a worker, so the parallel engine is chunk-for-chunk
        identical to the inline scan by construction.

        With ``parallel.sanitize`` set, a chunked parallel scan runs under an
        activated :class:`~repro.analysis.sanitizers.SanitizerSession`:
        findings raise ``AnalysisError`` mid-scan (``sanitize_strict=True``,
        the default) or are collected into ``sanitizer_report`` and surfaced
        as Python warnings.  ``sanitize=None`` leaves ``hooks.sanitizer`` empty.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be positive: {batch_size}")
        if temporal is not None and batch_size is not None:
            raise ValueError(
                "temporal execution is sequential; combining temporal= with "
                "batch_size= is not supported"
            )
        if strict:
            # Local import: repro.analysis depends on the query AST package.
            from repro.analysis import lint_plan, lint_query

            for query, cascade in zip(queries, query_cascades):
                lint_query(query, strict=True)
                lint_plan(cascade, strict=True)
        base_indices = checked_frame_indices(frame_indices, stream)

        # Per-query frame coverage: windowed queries restrict to their windows.
        per_query_windows: list[list[WindowBounds] | None] = []
        per_query_indices: list[list[int]] = []
        for query, cascade in zip(queries, query_cascades):
            bounds = _window_bounds_for(query, stream, include_partial_windows)
            per_query_windows.append(bounds)
            if cascade.provably_empty:
                # Statically proven to match nothing: the query takes part in
                # no frame of the shared scan (and pulls no frame into the
                # union on its own).
                per_query_indices.append([])
            else:
                per_query_indices.append(
                    _restrict_to_coverage(base_indices, bounds)
                    if bounds is not None
                    else list(base_indices)
                )
        member_sets = [set(indices) for indices in per_query_indices]
        union_indices = [
            index
            for index in base_indices
            if any(index in members for members in member_sets)
        ]

        chunk_size = batch_size or (parallel.chunk_size if parallel is not None else 1)
        # Gating is sequential: under ``temporal`` nothing is chunked and the
        # session gets no workers (nor does a scan that covers no frame).
        chunks = partition_chunks(union_indices, chunk_size) if temporal is None else []
        temporal_stats: TemporalStats | None = None
        sanitizer_report: AnalysisReport | None = None
        sanitizer_scope = nullcontext()
        if parallel is not None and temporal is None and parallel.sanitize:
            # Local import: repro.analysis imports the query AST package.
            from repro.analysis.sanitizers import sanitized_scan

            sanitizer_scope = sanitized_scan(parallel.sanitize, strict=parallel.sanitize_strict)
        started = time.perf_counter()
        # Cost is measured as a delta against the session's snapshot of the
        # clock rather than by resetting it: a caller-supplied shared clock
        # (e.g. one accumulating cost across several executions) keeps its
        # history.
        session = ScanSession(
            self.detector, clock=self.clock, live=False, parallel=parallel if chunks else None
        )
        with sanitizer_scope as sanitizer:
            with session:
                for query, cascade, members in zip(queries, query_cascades, member_sets):
                    session.add_query(query, cascade, member_set=members)
                if parallel is not None and parallel.adaptive:
                    # One profiler per query: the temporal evaluation and chunk
                    # submission read its step order, the in-order merge feeds it.
                    for state in session.states:
                        state.profiler = CascadeProfiler(state.cascade, parallel)
                # Plans the scan: steps merged across queries, every filter and
                # the detector charge our clock until the session closes, and a
                # parallel session's worker backend exists from here on.
                unique_steps = session.unique_step_count
                # After the plan, so that process workers fork before the
                # first decode-ahead thread starts.
                with decode_ahead(stream, union_indices, parallel, chunk_size) as render:
                    if temporal is not None:
                        temporal_stats = session.run_temporal_scan(
                            temporal, union_indices, render
                        )
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
            if sanitizer is not None:
                # The session has drained: every chunk's digest is recorded.
                sanitizer.verify_determinism(
                    stream, chunks, query_cascades, session.step_assignments, member_sets
                )
                sanitizer_report = sanitizer.report()
        if sanitizer_report is not None:
            # Strict sessions raised from inside the scan; anything still
            # here is a non-strict run, so surface findings as warnings.
            sanitizer_report.emit_warnings()
        elapsed = time.perf_counter() - started

        cost = session.shared_cost_report()
        # ``None`` on every fault-free run; an installed injector still
        # yields a report (decode retries happen in the stream).
        fault_report = current_report(tuple(session.quarantined))
        reported_batch_size = chunk_size if parallel is not None else batch_size
        # One attributed breakdown per query, in registration order.
        attributed = list(cost.attributed.values())
        results = []
        for position, state in enumerate(session.states):
            indices, bounds = per_query_indices[position], per_query_windows[position]
            stats = ExecutionStats(
                frames_scanned=len(indices),
                frames_passed_filters=len(state.passed),
                detector_invocations=len(state.passed),
                filter_invocations=state.filter_invocations,
                simulated_cost=attributed[position],
                wall_clock_seconds=elapsed,
                batch_size=reported_batch_size,
                plan_revisions=(
                    tuple(state.profiler.revisions) if state.profiler is not None else ()
                ),
                faults=fault_report,
            )
            results.append(
                QueryExecutionResult(
                    query_name=state.query.name,
                    cascade_description=state.cascade.describe(),
                    matched_frames=tuple(state.matched),
                    stats=stats,
                    windows=(
                        _partition_into_windows(bounds, indices, state.passed, state.matched)
                        if bounds is not None
                        else None
                    ),
                )
            )
        parallel_stats = (
            ParallelStats(
                backend=parallel.backend,
                num_workers=parallel.num_workers,
                chunk_size=chunk_size,
                prefetch_depth=parallel.prefetch_depth,
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
            frames_scanned=len(union_indices),
            detector_invocations=session.shared_detector_invocations,
            filter_computations=session.shared_filter_computations,
            unique_steps=unique_steps,
            total_steps=sum(len(cascade) for cascade in query_cascades),
            cost=cost,
            wall_clock_seconds=elapsed,
            batch_size=reported_batch_size,
            temporal=temporal_stats,
            parallel=parallel_stats,
            sanitizer_report=sanitizer_report,
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
        include_partial_windows: bool = False,
        temporal: TemporalConfig | None = None,
        parallel: ParallelConfig | None = None,
    ) -> AggregateExecutionResult:
        """Estimate an aggregate monitoring query through the planner/executor API.

        The control-variate source is the planned ``cascade``'s primary
        filter (the same class-aware filter the cascade would use to skip
        frames in exact execution), or an explicit ``frame_filter`` override.
        Estimation itself is delegated to
        :class:`~repro.aggregates.monitor.AggregateMonitor` seeded with
        ``seed``, so for an un-windowed spec the reports are numerically
        identical to calling ``AggregateMonitor.estimate`` directly with the
        same seed — while the filter side of every sample batch runs as one
        vectorized ``predict_batch`` call.

        For a windowed spec (``spec.window`` set, e.g. parsed from a query's
        ``WINDOW HOPPING`` clause) one estimate per window instance is
        reported, each sampling ``sample_size`` frames uniformly within its
        window.  ``include_partial_windows`` defaults to ``False`` here —
        the paper's aggregate experiments use fixed-size windows so every
        estimate averages over the same population size — unlike
        :meth:`execute`, whose default covers the whole stream.

        ``temporal`` applies delta gating to the sample evaluation: a
        sampled frame whose change signature barely differs from the
        previous sample reuses that sample's exact value and control values
        instead of re-running the detector and filter (sample indices are
        sorted, so nearby samples of a stable stream are nearly identical).
        Exact mode verifies every reuse, keeping estimates bit-identical to
        a non-temporal run.

        ``parallel`` contributes decode-ahead rendering of each estimate's
        sampled frames (sample evaluation itself is already one vectorized
        batch, so the estimates are unchanged — only the wall clock drops
        when rendering dominates).
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
        from repro.aggregates.monitor import AggregateMonitor

        monitor = AggregateMonitor(
            detector=self.detector, frame_filter=source, clock=self.clock, seed=seed
        )
        windows: tuple[WindowAggregateEstimate, ...] | None = None
        reports: tuple["MonitoringReport", ...] = ()
        if spec.window is not None:
            hopping = HoppingWindow(size=spec.window.size, advance=spec.window.advance)
            windows = tuple(
                WindowAggregateEstimate(
                    bounds=bounds,
                    reports=tuple(
                        monitor.estimate(
                            spec,
                            stream,
                            sample_size,
                            window=bounds,
                            temporal=temporal,
                            parallel=parallel,
                        )
                        for _ in range(repetitions)
                    ),
                )
                for bounds in hopping.windows_over(
                    len(stream), include_partial=include_partial_windows
                )
            )
            if not windows:
                hint = (
                    "shrink the window or pass include_partial_windows=True"
                    if len(stream) > 0
                    else "the stream is empty"
                )
                raise ValueError(
                    f"window of size {spec.window.size} produces no instances over "
                    f"a {len(stream)}-frame stream; {hint}"
                )
        else:
            reports = tuple(
                monitor.estimate(
                    spec, stream, sample_size, temporal=temporal, parallel=parallel
                )
                for _ in range(repetitions)
            )
        return AggregateExecutionResult(
            query_name=spec.name,
            cascade_description=cascade.describe(),
            filter_name=source.name,
            reports=reports,
            windows=windows,
        )


def _window_bounds_for(
    query: Query, stream: VideoStream, include_partial_windows: bool
) -> list[WindowBounds] | None:
    """The query's hopping-window instances over ``stream`` (``None`` if un-windowed).

    An empty stream is an empty execution (as in the un-windowed path); a
    non-empty stream too short for even one window is a configuration error.
    """
    if query.window is None:
        return None
    hopping = HoppingWindow(size=query.window.size, advance=query.window.advance)
    bounds = list(hopping.windows_over(len(stream), include_partial=include_partial_windows))
    if not bounds and len(stream) > 0:
        raise ValueError(
            f"window of size {query.window.size} produces no instances over "
            f"a {len(stream)}-frame stream; shrink the window or pass "
            "include_partial_windows=True"
        )
    return bounds


def _unique_query_labels(queries: Sequence[Query]) -> list[str]:
    """Per-query labels for cost attribution, disambiguating duplicate names."""
    counts: dict[str, int] = {}
    for query in queries:
        counts[query.name] = counts.get(query.name, 0) + 1
    seen: dict[str, int] = {}
    labels: list[str] = []
    for query in queries:
        if counts[query.name] == 1:
            labels.append(query.name)
        else:
            seen[query.name] = seen.get(query.name, 0) + 1
            labels.append(f"{query.name}#{seen[query.name]}")
    return labels


def _restrict_to_coverage(
    indices: Sequence[int], window_bounds: Sequence[WindowBounds]
) -> list[int]:
    """Keep only the indices covered by at least one window.

    Hopping windows arrive sorted by start, so their union collapses to a
    short merged-interval list; membership is then one vectorized
    ``searchsorted`` over the candidate indices rather than materialising a
    per-frame set (overlapping windows would insert every frame
    ``size/advance`` times).
    """
    if not window_bounds:
        return []
    merged: list[list[int]] = []
    for bounds in window_bounds:
        if merged and bounds.start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], bounds.stop)
        else:
            merged.append([bounds.start, bounds.stop])
    starts = np.asarray([interval[0] for interval in merged], dtype=np.int64)
    stops = np.asarray([interval[1] for interval in merged], dtype=np.int64)
    candidates = np.asarray(list(indices), dtype=np.int64)
    positions = np.searchsorted(starts, candidates, side="right") - 1
    covered = (positions >= 0) & (candidates < stops[np.clip(positions, 0, None)])
    return [int(index) for index in candidates[covered]]


def _partition_into_windows(
    window_bounds: Sequence[WindowBounds],
    indices: Sequence[int],
    passed: Sequence[int],
    matched: Sequence[int],
) -> tuple[WindowResult, ...]:
    """Split one shared scan into per-window results.

    Every frame was filtered/verified exactly once; a frame covered by
    several overlapping windows simply appears in each of their results.
    Counting uses ``searchsorted`` on the sorted index arrays, so the split
    costs O((W + N) log N) rather than W x N membership tests.
    """
    scanned_sorted = np.sort(np.asarray(list(indices), dtype=np.int64))
    passed_sorted = np.sort(np.asarray(list(passed), dtype=np.int64))
    matched_sorted = np.sort(np.asarray(list(matched), dtype=np.int64))

    def _count_in(values: np.ndarray, bounds: WindowBounds) -> int:
        return int(
            np.searchsorted(values, bounds.stop, side="left")
            - np.searchsorted(values, bounds.start, side="left")
        )

    results = []
    for bounds in window_bounds:
        lo = int(np.searchsorted(matched_sorted, bounds.start, side="left"))
        hi = int(np.searchsorted(matched_sorted, bounds.stop, side="left"))
        results.append(
            WindowResult(
                bounds=bounds,
                matched_frames=tuple(int(index) for index in matched_sorted[lo:hi]),
                stats=WindowStats(
                    frames_scanned=_count_in(scanned_sorted, bounds),
                    frames_passed_filters=_count_in(passed_sorted, bounds),
                ),
            )
        )
    return tuple(results)


def brute_force_execute(
    query: Query,
    stream: VideoStream,
    detector: Detector,
    frame_indices: Sequence[int] | None = None,
    clock: SimulatedClock | None = None,
) -> QueryExecutionResult:
    """Annotate every frame with the detector and evaluate the query exactly.

    This is the baseline the paper compares against ("we also evaluate each
    query in a brute force manner annotating all frames with Mask R-CNN")
    and the oracle every engine configuration is tested against, so it is a
    loop of its own: it shares the pure window helpers of this module with
    the executor and nothing with the scan session, the parallel pipeline
    or the temporal layer.
    """
    clock = clock or SimulatedClock()
    indices = checked_frame_indices(frame_indices, stream)
    window_bounds = _window_bounds_for(query, stream, include_partial_windows=True)
    if window_bounds is not None:
        indices = _restrict_to_coverage(indices, window_bounds)
    cost_baseline = clock.snapshot()
    charges_clock = hasattr(detector, "clock")
    if charges_clock:
        previous_clock = detector.clock
        detector.clock = clock
    matched: list[int] = []
    started = time.perf_counter()
    try:
        for index in indices:
            detections = detector.detect(stream.frame(index))
            if evaluate_predicates_on_detections(query, detections):
                matched.append(index)
    finally:
        if charges_clock:
            detector.clock = previous_clock
    elapsed = time.perf_counter() - started
    return QueryExecutionResult(
        query_name=query.name,
        cascade_description=FilterCascade().describe(),
        matched_frames=tuple(matched),
        stats=ExecutionStats(
            frames_scanned=len(indices),
            frames_passed_filters=len(indices),
            detector_invocations=len(indices),
            filter_invocations=0,
            simulated_cost=clock.delta_since(cost_baseline),
            wall_clock_seconds=elapsed,
            faults=current_report(()),
        ),
        windows=(
            _partition_into_windows(window_bounds, indices, indices, matched)
            if window_bounds is not None
            else None
        ),
    )
