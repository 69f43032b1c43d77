"""Result and stats records of query execution, and the one builder of each.

A leaf module: everything here is a plain frozen dataclass over values the
scan produced, so the engine (:mod:`repro.query.executor`,
:mod:`repro.query.session`), the oracle (:mod:`repro.query.oracle`) and the
service all import it and it imports none of them.  Two functions turn scan
state into records, each the only place its decision is written down:

* :func:`query_result` builds a :class:`QueryExecutionResult` from a
  :class:`~repro.query.session.QueryState` — for the one-shot executor and
  for a live session's finalisation alike.  ``frames_scanned`` is the number
  of frames that *entered the accumulators*: a frame set aside with its
  quarantined chunk was never filtered or verified, so it is not counted
  (the quarantine record on ``stats.faults`` names it instead).
* :func:`window_result` counts one window's frames by bisection over sorted
  index lists — for :func:`partition_into_windows` (the executor's split of a
  finished scan) and for a live session's incremental emission.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

# Imported from the submodule (not the repro.aggregates package) so that the
# aggregates -> query.ast -> query.results import chain finds the window
# types already initialised.
from repro.aggregates.windows import WindowBounds
from repro.cost import CostBreakdown, SharedCostReport

if TYPE_CHECKING:  # annotations only: a runtime import would make this no leaf
    from repro.aggregates.monitor import MonitoringReport
    from repro.faults.injector import FaultReport
    from repro.query.parallel import ParallelStats
    from repro.query.session import QueryState
    from repro.query.temporal import TemporalStats


@dataclass(frozen=True)
class ExecutionStats:
    """Work and cost accounting for one query execution."""

    #: frames that entered the accumulators (quarantined frames excluded)
    frames_scanned: int
    frames_passed_filters: int
    detector_invocations: int
    filter_invocations: int
    simulated_cost: CostBreakdown
    wall_clock_seconds: float
    #: chunk size of the batched execution mode; ``None`` = sequential
    batch_size: int | None = None
    #: worker/prefetch telemetry of a parallel pipelined execution
    #: (``None`` when the scan ran without a ``ParallelConfig``)
    parallel: ParallelStats | None = None
    #: injected-fault and quarantine accounting of the scan (``None`` when no
    #: :class:`~repro.faults.FaultInjector` was installed and nothing was
    #: quarantined — i.e. every fault-free run)
    faults: FaultReport | None = None

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

    def speedup_against(self, reference: QueryExecutionResult) -> float:
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

    def __iter__(self) -> Iterator[QueryExecutionResult]:
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
    reports: tuple[MonitoringReport, ...]

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
    reports: tuple[MonitoringReport, ...]
    windows: tuple[WindowAggregateEstimate, ...] | None = None

    @property
    def all_reports(self) -> tuple[MonitoringReport, ...]:
        """Every report produced, whole-stream or per-window."""
        if self.windows is None:
            return self.reports
        return tuple(report for window in self.windows for report in window.reports)


# ----------------------------------------------------------------------
# Scan state -> records
# ----------------------------------------------------------------------
def window_result(
    bounds: WindowBounds,
    scanned: Sequence[int],
    passed: Sequence[int],
    matched: Sequence[int],
) -> WindowResult:
    """One window's matches and counts out of *ascending* index lists.

    The engine's one window counter.  Every frame was filtered/verified once;
    a frame covered by several overlapping windows simply appears in each of
    their results, and an index scanned twice counts twice.
    """
    lo, hi = bisect_left(matched, bounds.start), bisect_left(matched, bounds.stop)
    return WindowResult(
        bounds=bounds,
        matched_frames=tuple(matched[lo:hi]),
        stats=WindowStats(
            frames_scanned=bisect_left(scanned, bounds.stop) - bisect_left(scanned, bounds.start),
            frames_passed_filters=bisect_left(passed, bounds.stop)
            - bisect_left(passed, bounds.start),
        ),
    )


def partition_into_windows(
    window_bounds: Iterable[WindowBounds],
    scanned: Iterable[int],
    passed: Iterable[int],
    matched: Iterable[int],
) -> tuple[WindowResult, ...]:
    """Split one finished scan into per-window results.

    The accumulators arrive in scan order (any order, under
    ``frame_indices``); sorting them once makes the split
    O((W + N) log N) rather than W x N membership tests.
    """
    ascending = [sorted(indices) for indices in (scanned, passed, matched)]
    return tuple(window_result(bounds, *ascending) for bounds in window_bounds)


def query_result(
    state: QueryState,
    cost: CostBreakdown,
    windows: tuple[WindowResult, ...] | None,
    wall_clock_seconds: float,
    *,
    batch_size: int | None = None,
    temporal: TemporalStats | None = None,
    faults: FaultReport | None = None,
) -> QueryExecutionResult:
    """The result of ``state``'s query as accumulated so far.

    ``cost`` is what a standalone run of the query would have charged
    (attributed from the shared scan), so the per-query counters read the
    same way: every cascade survivor is one detector invocation.
    """
    return QueryExecutionResult(
        query_name=state.query.name,
        cascade_description=state.cascade.describe(),
        matched_frames=tuple(state.matched),
        stats=ExecutionStats(
            frames_scanned=len(state.scanned),
            frames_passed_filters=len(state.passed),
            detector_invocations=len(state.passed),
            filter_invocations=state.filter_invocations,
            simulated_cost=cost,
            wall_clock_seconds=wall_clock_seconds,
            batch_size=batch_size,
            faults=faults,
        ),
        windows=windows,
        temporal=temporal,
    )
