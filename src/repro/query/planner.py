"""Query planning: assembling a cascade of approximate filters.

The planner inspects the query's predicates and picks, for each predicate
group, a cheap filter check that can rule frames out *before* the expensive
detector runs:

* count predicates  -> a CCF (class count) or CF (total count) check,
* spatial predicates -> a CLF (class location) check on the thresholded grids,
* region predicates -> a CLF check restricted to the region's grid cells.

Each check is approximate, so it is applied with a *tolerance* (counts within
±1 / ±2, grids dilated by Manhattan distance 1 / 2) chosen by
:class:`PlannerConfig` — exactly the filter variants whose combinations the
paper reports in Table III.

The paper leaves cascade *ordering* optimisation to future work; by default
the planner applies count checks before location checks and otherwise
preserves predicate order (``cascade_ordering="static"``).  With
``cascade_ordering="selectivity"`` the planner additionally *measures* each
step on a sample prefix of the stream and orders steps by the classic
cost-per-rejection rule from the filter-ordering literature: a step with
per-frame cost ``c`` and measured pass rate ``p`` removes a frame from the
cascade for an expected ``c / (1 - p)``, so steps are sorted ascending by
that ratio (cheap, selective steps first; steps that reject nothing go
last).  Because all steps are conjunctive, reordering never changes which
frames survive — only how much filter work is spent rejecting the rest.
Cascades can also be constructed or reordered manually for ablation studies.

By default :meth:`QueryPlanner.plan` lints what it plans: the query through
:func:`repro.query.lint.lint_query` (``QA0xx``), the compiled cascade
through :func:`lint_plan` (``PL0xx``, plus the ``NN0xx`` network checks of
any neural filter), and :func:`optimize_cascade` drops the duplicate and
dead steps those checks find.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Sequence

from repro.filters.base import FilterPrediction, FrameFilter
from repro.filters.neural import NeuralBranchFilter
from repro.query.ast import (
    ComparisonOperator,
    CountPredicate,
    Predicate,
    Query,
    RegionPredicate,
    SpatialPredicate,
)
from repro.query.diagnostics import AnalysisReport, Diagnostic, diag
from repro.query.lint import AnalysisContext, lint_query
from repro.spatial.relations import grid_masks_satisfy_direction
from repro.video.stream import VideoStream


@dataclass(frozen=True)
class PlannerConfig:
    """Tolerances and preferences used when planning a cascade.

    ``count_tolerance`` of 1 corresponds to using the ``*-CCF-1`` filter
    variants, ``location_dilation`` of 1 to ``*-CLF-1``, and so on.  The
    ``family`` chooses between the OD filters (default — better localisation)
    and the IC filters.

    ``cascade_ordering`` selects how the planned steps are ordered:
    ``"static"`` (the paper's fixed counts-before-locations order) or
    ``"selectivity"`` (measure pass rates on a sample prefix of the stream
    passed to :meth:`QueryPlanner.plan` and order by cost per rejection);
    ``ordering_sample_size`` is how many prefix frames that measurement uses.
    """

    count_tolerance: int = 1
    location_dilation: int = 1
    family: str = "od"
    use_count_filter: bool = True
    use_location_filter: bool = True
    cascade_ordering: str = "static"
    ordering_sample_size: int = 32

    def __post_init__(self) -> None:
        if self.count_tolerance < 0 or self.location_dilation < 0:
            raise ValueError("tolerances must be non-negative")
        if self.family not in ("od", "ic"):
            raise ValueError(f"family must be 'od' or 'ic': {self.family!r}")
        if self.cascade_ordering not in ("static", "selectivity"):
            raise ValueError(
                f"cascade_ordering must be 'static' or 'selectivity': "
                f"{self.cascade_ordering!r}"
            )
        if self.ordering_sample_size < 1:
            raise ValueError(
                f"ordering_sample_size must be positive: {self.ordering_sample_size}"
            )


def cost_per_rejection(cost_ms: float | None, pass_rate: float | None) -> float:
    """Expected filter milliseconds spent per frame a step rejects.

    The ordering key of every cascade sort.  ``inf`` when the step is
    unmeasured or lets everything through, which sorts it to the back.
    """
    if cost_ms is None or pass_rate is None or pass_rate >= 1.0:
        return math.inf
    return cost_ms / (1.0 - pass_rate)


@dataclass(frozen=True)
class CascadeStep:
    """One approximate check in the cascade.

    ``check`` receives the filter's prediction for the frame and returns
    ``True`` when the frame *may* satisfy the query (so it should continue
    down the cascade) and ``False`` when it can be skipped.

    ``measured_pass_rate`` / ``measured_cost_ms`` are filled in by
    :func:`measure_cascade_selectivity` when selectivity-aware ordering runs;
    they stay ``None`` on statically ordered cascades.

    ``signature`` is a hashable description of *what the check decides* (the
    predicates and tolerance it was planned from).  Two steps with equal
    signatures over filters with equal
    :attr:`~repro.filters.base.FrameFilter.identity` are semantically the
    same check, so multi-query execution evaluates one of them per frame and
    shares the outcome (see :func:`merge_cascade_steps`).  Hand-built steps
    may leave it ``None``, which disables cross-cascade merging for them —
    a lambda's behaviour cannot be compared.
    """

    name: str
    frame_filter: FrameFilter
    check: Callable[[FilterPrediction], bool]
    measured_pass_rate: float | None = None
    measured_cost_ms: float | None = None
    signature: tuple | None = None

    def passes(self, prediction: FilterPrediction) -> bool:
        return bool(self.check(prediction))

    @property
    def cost_per_rejection(self) -> float:
        """:func:`cost_per_rejection` of the step's measured cost and pass rate."""
        return cost_per_rejection(self.measured_cost_ms, self.measured_pass_rate)


@dataclass
class FilterCascade:
    """An ordered list of cascade steps sharing filter predictions per frame.

    ``provably_empty`` is set by the planner when static analysis proved the
    query can match no frame whatsoever (e.g. contradictory count
    constraints); the executor short-circuits such cascades to an empty
    result without rendering a single frame.  ``diagnostics`` carries the
    static-analysis findings (``QA0xx`` / ``PL0xx``) attached at plan time —
    empty for hand-built cascades and for plans made with ``analyze=False``.
    """

    steps: list[CascadeStep] = field(default_factory=list)
    provably_empty: bool = False
    diagnostics: tuple[Diagnostic, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[CascadeStep]:
        return iter(self.steps)

    @property
    def filters(self) -> list[FrameFilter]:
        """Distinct filters used by the cascade, in first-use order."""
        seen: list[FrameFilter] = []
        for step in self.steps:
            if all(step.frame_filter is not existing for existing in seen):
                seen.append(step.frame_filter)
        return seen

    @property
    def primary_filter(self) -> FrameFilter | None:
        """The cascade's first *class-aware* filter (``None`` on an empty cascade).

        This is the filter the planner built the cascade around, and what
        :meth:`StreamingQueryExecutor.execute_aggregate` uses as the
        control-variate source for aggregate estimation.  Count-only filters
        (OD-COF) are skipped — their predictions carry no per-class output,
        so controls built on them would be degenerate constants — which keeps
        the choice stable when selectivity reordering moves a count-only step
        to the front.  A cascade with no class-aware filter at all falls back
        to its first filter.
        """
        filters = self.filters
        for frame_filter in filters:
            if frame_filter.class_aware:
                return frame_filter
        return filters[0] if filters else None

    def describe(self) -> str:
        if self.provably_empty:
            return "(provably empty)"
        return " -> ".join(step.name for step in self.steps) if self.steps else "(empty)"


# ----------------------------------------------------------------------
# Selectivity measurement and cost-based ordering
# ----------------------------------------------------------------------
def measure_cascade_selectivity(
    cascade: FilterCascade,
    stream: VideoStream,
    sample_size: int = 32,
    frame_indices: Sequence[int] | None = None,
) -> FilterCascade:
    """Measure each step's pass rate and cost on a sample prefix of ``stream``.

    Every distinct filter is evaluated once (with one vectorized
    ``predict_batch`` call) over the first ``sample_size`` frames — or over
    ``frame_indices`` when given — and each step's checks are applied to the
    resulting predictions.  Returns a new cascade whose steps carry
    ``measured_pass_rate`` (fraction of sample frames the step lets through)
    and ``measured_cost_ms`` (the filter's per-frame latency).  Filters
    charge nothing themselves and measurement charges no clock, so planning
    adds nothing to the simulated execution cost.
    """
    if frame_indices is None:
        frame_indices = range(min(sample_size, len(stream)))
    frames = [stream.frame(index) for index in frame_indices]
    if not frames or not cascade.steps:
        return FilterCascade(steps=list(cascade.steps))
    predictions = {
        frame_filter.identity: frame_filter.predict_batch(frames)
        for frame_filter in cascade.filters
    }
    measured = []
    for step in cascade.steps:
        step_predictions = predictions[step.frame_filter.identity]
        passed = sum(1 for prediction in step_predictions if step.passes(prediction))
        measured.append(
            replace(
                step,
                measured_pass_rate=passed / len(frames),
                measured_cost_ms=step.frame_filter.latency_ms,
            )
        )
    return FilterCascade(steps=measured)


def order_cascade_by_selectivity(
    cascade: FilterCascade,
    stream: VideoStream,
    sample_size: int = 32,
    frame_indices: Sequence[int] | None = None,
) -> FilterCascade:
    """Reorder ``cascade`` by measured cost per rejected frame, ascending.

    The classic greedy rule for ordering independent conjunctive filters:
    the step that rejects frames at the lowest expected filter cost runs
    first.  Ties (and unmeasured steps) keep their original relative order,
    so the result is deterministic.  Reordering cannot change which frames
    survive the cascade — the steps are conjunctive — only the amount of
    filter work spent on doomed frames.
    """
    measured = measure_cascade_selectivity(
        cascade, stream, sample_size=sample_size, frame_indices=frame_indices
    )
    return reorder_cascade(measured, [step.measured_pass_rate for step in measured.steps])


# ----------------------------------------------------------------------
# Ordering steps by pass rate
# ----------------------------------------------------------------------
def reorder_cascade(
    cascade: FilterCascade, pass_rates: Sequence[float | None]
) -> FilterCascade:
    """Reorder ``cascade`` by the cost per rejection its ``pass_rates`` imply.

    The ordering rule of :func:`order_cascade_by_selectivity`, which hands
    it the pass rates measured on a planning-time sample.  ``pass_rates[i]``
    is the fraction of sampled frames step ``i`` let through, or ``None``
    when the step has no measurement, in which case its
    :func:`cost_per_rejection` is ``inf`` and it sorts to the back.  The
    sort is stable, so ties keep their current relative order.  Steps are
    annotated with their rates; because cascade steps are conjunctive, the
    reordered cascade passes exactly the same frames.
    """
    if len(pass_rates) != len(cascade.steps):
        raise ValueError(
            f"cascade has {len(cascade.steps)} steps but {len(pass_rates)} rates given"
        )
    latencies_ms = [step.frame_filter.latency_ms for step in cascade.steps]
    order = sorted(
        range(len(latencies_ms)),
        key=lambda p: cost_per_rejection(latencies_ms[p], pass_rates[p]),
    )
    steps = []
    for position in order:
        step = cascade.steps[position]
        rate = pass_rates[position]
        if rate is not None:
            step = replace(
                step,
                measured_pass_rate=rate,
                measured_cost_ms=latencies_ms[position],
            )
        steps.append(step)
    return FilterCascade(steps=steps)


# ----------------------------------------------------------------------
# Cross-query cascade merging
# ----------------------------------------------------------------------
def _normalized(predicates: Sequence[Predicate]) -> tuple:
    """Predicates in a canonical order, so equivalent plans get equal signatures."""
    return tuple(sorted(predicates, key=lambda predicate: predicate.describe()))


def shared_step_key(step: CascadeStep) -> tuple | None:
    """The merge key under which ``step`` may share work with other cascades.

    ``None`` when the step carries no signature (hand-built check) — such
    steps only ever share with themselves (the same object reused in several
    cascades).
    """
    if step.signature is None:
        return None
    return (step.name, step.frame_filter.identity, step.signature)


def merge_cascade_steps(
    cascades: Sequence[FilterCascade],
) -> tuple[list[CascadeStep], list[list[int]]]:
    """Dedup semantically identical steps across several queries' cascades.

    Returns ``(unique_steps, assignments)`` where ``assignments[i][j]`` is the
    position in ``unique_steps`` of cascade ``i``'s ``j``-th step.  Two steps
    collapse onto one entry when they are the same object, or when they carry
    equal signatures over filters with equal identity (i.e. the planner built
    them from the same predicates and tolerance over the same filter) — in
    which case evaluating either decides both, which is what lets
    multi-query execution run a shared check once per frame no matter how
    many queries' cascades contain it.

    The merged list is sorted by ``(cost, signature)`` — the filter's
    per-frame latency, then the step's name and printed signature — rather
    than left in dict-insertion order.  Insertion order depends on which
    query happened to come first in the call, so two runs submitting the same
    queries in different order (or a hash-seed change affecting upstream set
    iteration) would previously produce differently-numbered plans;
    the sorted order is a pure function of the step set, making
    ``execute_many`` plans reproducible across Python runs.  Ties (including
    unsigned hand-built steps, which have no printable signature) keep their
    first-appearance order.
    """
    unique_steps: list[CascadeStep] = []
    index_of: dict[tuple, int] = {}
    assignments: list[list[int]] = []
    for cascade in cascades:
        positions: list[int] = []
        for step in cascade:
            key = shared_step_key(step) or ("unshared", id(step))
            if key not in index_of:
                index_of[key] = len(unique_steps)
                unique_steps.append(step)
            positions.append(index_of[key])
        assignments.append(positions)

    def sort_key(position: int) -> tuple:
        step = unique_steps[position]
        signature_text = repr(step.signature) if step.signature is not None else ""
        return (step.frame_filter.latency_ms, step.name, signature_text, position)

    order = sorted(range(len(unique_steps)), key=sort_key)
    remap = {old: new for new, old in enumerate(order)}
    unique_steps = [unique_steps[old] for old in order]
    assignments = [[remap[position] for position in row] for row in assignments]
    return unique_steps, assignments


# ----------------------------------------------------------------------
# Predicate checks over filter predictions
# ----------------------------------------------------------------------
def _count_possible(
    predicate: CountPredicate, prediction: FilterPrediction, tolerance: int
) -> bool:
    predicted = (
        prediction.total_count
        if predicate.class_name is None
        else prediction.count_of(predicate.class_name)
    )
    return _comparison_possible(predicate.operator, predicted, predicate.value, tolerance)


def _comparison_possible(
    operator: ComparisonOperator, predicted: int, value: int, tolerance: int
) -> bool:
    """Whether ``predicted <op> value`` may still hold within ``tolerance``.

    Strict comparisons widen by the same slack as their non-strict
    counterparts: ``> value`` may hold whenever ``>= value + 1`` may.
    """
    if operator is ComparisonOperator.EQUAL:
        return abs(predicted - value) <= tolerance
    if operator is ComparisonOperator.AT_LEAST:
        return predicted >= value - tolerance
    if operator is ComparisonOperator.AT_MOST:
        return predicted <= value + tolerance
    if operator is ComparisonOperator.GREATER:
        return predicted > value - tolerance
    if operator is ComparisonOperator.LESS:
        return predicted < value + tolerance
    raise ValueError(f"unknown operator {operator}")  # pragma: no cover


def _spatial_possible(
    predicate: SpatialPredicate, prediction: FilterPrediction, dilation: int
) -> bool:
    subject = prediction.location_mask(predicate.subject_class, dilation=dilation)
    reference = prediction.location_mask(predicate.reference_class, dilation=dilation)
    if not subject or not reference:
        return False
    return grid_masks_satisfy_direction(subject, reference, predicate.direction)


def _region_possible(
    predicate: RegionPredicate, prediction: FilterPrediction, dilation: int
) -> bool:
    mask = prediction.location_mask(predicate.class_name, dilation=dilation)
    region_mask = predicate.region.grid_mask(prediction.grid)
    selected = mask.intersection(region_mask) if predicate.inside else mask.difference(region_mask)
    # Approximate the number of objects in the region by the number of
    # connected blobs of the selected cells.
    tolerance = dilation  # reuse the dilation level as the count slack
    return _comparison_possible(
        predicate.operator, selected.blob_count(), predicate.value, tolerance
    )


#: the operators a count of 0 is the hardest case for
_LOWER_BOUNDS = (ComparisonOperator.AT_LEAST, ComparisonOperator.GREATER)


@dataclass(frozen=True)
class CountCheck:
    """Planned count check: every count predicate may hold within the tolerance.

    A frozen dataclass rather than a closure (lint INV001/INV002): every
    filter worker thread runs a deep copy of the cascade and deduped steps
    share one outcome, so a check must hold its values, not capture
    planner locals.
    """

    predicates: tuple[CountPredicate, ...]
    tolerance: int

    def __call__(self, prediction: FilterPrediction) -> bool:
        return all(
            _count_possible(predicate, prediction, self.tolerance)
            for predicate in self.predicates
        )

    @property
    def can_reject(self) -> bool:
        """Whether some prediction fails the check (PL002 flags one that cannot).

        Predictions are non-negative, so a count of 0 is the hardest case
        for a lower-bound operator: a check whose ``>=`` / ``>`` predicates
        all may hold at 0 within the tolerance passes every prediction.  An
        upper-bound or equality operator rejects a large enough count.
        """
        return not all(
            predicate.operator in _LOWER_BOUNDS
            and _comparison_possible(predicate.operator, 0, predicate.value, self.tolerance)
            for predicate in self.predicates
        )


@dataclass(frozen=True)
class LocationCheck:
    """Planned location check over spatial and region predicates (a frozen value, see :class:`CountCheck`)."""

    spatial: tuple[SpatialPredicate, ...]
    regions: tuple[RegionPredicate, ...]
    dilation: int

    def __call__(self, prediction: FilterPrediction) -> bool:
        return all(
            _spatial_possible(predicate, prediction, self.dilation)
            for predicate in self.spatial
        ) and all(
            _region_possible(predicate, prediction, self.dilation)
            for predicate in self.regions
        )


# ----------------------------------------------------------------------
# Plan checks (PL0xx) and step elimination
# ----------------------------------------------------------------------
def _step_is_dead(step: CascadeStep) -> bool:
    """Whether the step's check passes every possible prediction.

    Only a count check can be dead: a location check rejects a frame whose
    masks come back empty.
    """
    return isinstance(step.check, CountCheck) and not step.check.can_reject


def lint_plan(cascade: FilterCascade, *, strict: bool = False) -> AnalysisReport:
    """Report duplicate (PL001), dead (PL002) and malformed-network (NN0xx) steps.

    Two steps with one :func:`shared_step_key` decide the same thing, so
    the second adds a check per surviving frame for no information; a dead
    count check evaluates its filter for nothing.  Each neural filter's
    network is checked by :meth:`NeuralBranchFilter.network_report`, the
    check its constructor runs, so a network swapped in after construction
    is rejected at ``plan()`` time rather than mid-scan.
    """
    diagnostics: list[Diagnostic] = []
    seen: set[tuple] = set()
    for position, step in enumerate(cascade.steps):
        key = shared_step_key(step)
        if key is not None and key in seen:
            diagnostics.append(
                diag(
                    "PL001",
                    f"step {position} ({step.name}) duplicates an earlier step "
                    "with the same filter and signature",
                )
            )
        elif key is not None:
            seen.add(key)
        if _step_is_dead(step):
            diagnostics.append(
                diag(
                    "PL002",
                    f"step {position} ({step.name}) is trivially true: its "
                    "count demands are within the tolerance, so it can never "
                    "reject a frame",
                )
            )
    networks: set[int] = set()
    for frame_filter in cascade.filters:
        if not isinstance(frame_filter, NeuralBranchFilter):
            continue
        if id(frame_filter.network) in networks:
            continue
        networks.add(id(frame_filter.network))
        for finding in frame_filter.network_report():
            diagnostics.append(
                replace(finding, message=f"filter {frame_filter.name!r}: {finding.message}")
            )
    report = AnalysisReport(diagnostics=tuple(diagnostics))
    if strict:
        report.raise_for_errors(context="plan analysis")
    return report


def optimize_cascade(cascade: FilterCascade) -> tuple[FilterCascade, AnalysisReport]:
    """Drop duplicate and dead steps; returns ``(new_cascade, report)``.

    The input cascade is not modified.  Because the steps are conjunctive
    and a removed step either repeats a kept one or passes everything, the
    result passes exactly the same frames.  Hand-built steps (no
    ``signature``) are never deduplicated.  At least one step survives a
    cascade that had any, so its ``primary_filter`` stays defined for
    aggregate estimation.
    """
    report = lint_plan(cascade)
    if not report.diagnostics:
        return cascade, report
    kept: list[CascadeStep] = []
    seen: set[tuple] = set()
    for step in cascade.steps:
        key = shared_step_key(step)
        if key is not None and key in seen:
            continue
        if key is not None:
            seen.add(key)
        kept.append(step)
    live = [step for step in kept if not _step_is_dead(step)]
    if not live and kept:
        live = kept[:1]  # keep one anchor step rather than empty the cascade
    return replace(cascade, steps=live), report


def short_circuit_diagnostic(query_name: str) -> Diagnostic:
    """The PL003 record the planner attaches when a query is provably empty."""
    return diag(
        "PL003",
        f"query {query_name!r} is provably empty; the plan short-circuits to "
        "an empty scan (no frames rendered or filtered)",
    )


class QueryPlanner:
    """Plans a :class:`FilterCascade` for a query from the available filters."""

    def __init__(
        self,
        filters: Mapping[str, FrameFilter],
        config: PlannerConfig | None = None,
    ) -> None:
        """``filters`` maps family names (``"od"``, ``"ic"``, ``"od_cof"``) to trained filters."""
        if not filters:
            raise ValueError("the planner needs at least one trained filter")
        self.filters = dict(filters)
        self.config = config or PlannerConfig()

    def _primary_filter(self) -> FrameFilter:
        preferred = self.config.family
        if preferred in self.filters:
            return self.filters[preferred]
        # Fall back to any filter with per-class output.
        for name in ("od", "ic"):
            if name in self.filters:
                return self.filters[name]
        raise KeyError(
            f"no class-aware filter available among {sorted(self.filters)}"
        )

    def plan(
        self,
        query: Query,
        sample_stream: VideoStream | None = None,
        *,
        analyze: bool = True,
        strict: bool = False,
        context: AnalysisContext | None = None,
    ) -> FilterCascade:
        """Build the filter cascade for ``query``, linted.

        With ``cascade_ordering="selectivity"`` in the config, a
        ``sample_stream`` must be provided: the planner measures each step's
        pass rate on its first ``ordering_sample_size`` frames and orders the
        steps by cost per rejection (see
        :func:`order_cascade_by_selectivity`).

        This is where a query is linted before it runs.  With the default
        ``analyze=True``, :func:`~repro.query.lint.lint_query` checks the
        query and :func:`lint_plan` the compiled cascade:

        * a query proved unable to match any frame yields an *empty* cascade
          with ``provably_empty=True`` — the executor turns that into an
          empty result without rendering a single frame;
        * duplicate steps (PL001) and trivially-true steps (PL002 — e.g. a
          ``COUNT >= 1`` check at tolerance 1, which can never reject) are
          eliminated by :func:`optimize_cascade`.

        Every finding is attached as ``cascade.diagnostics``.  ``strict=True``
        additionally raises :class:`~repro.query.diagnostics.AnalysisError`
        (a ``ValueError``) on error-severity findings; ``context`` supplies
        the class vocabulary / frame geometry for the deeper semantic checks
        (built with :meth:`~repro.query.lint.AnalysisContext.for_stream`).
        ``analyze=False`` reproduces the raw, unoptimized plan.
        """
        if not (analyze or strict):
            return self._plan_raw(query, sample_stream)
        query_report = lint_query(query, context, strict=strict)
        if query_report.provably_empty:
            return FilterCascade(
                steps=[],
                provably_empty=True,
                diagnostics=query_report.diagnostics
                + (short_circuit_diagnostic(query.name),),
            )
        cascade = self._plan_raw(query, sample_stream)
        if strict:
            lint_plan(cascade, strict=True)
        optimized, plan_report = optimize_cascade(cascade)
        optimized.provably_empty = False
        optimized.diagnostics = query_report.diagnostics + plan_report.diagnostics
        return optimized

    def _plan_raw(self, query: Query, sample_stream: VideoStream | None) -> FilterCascade:
        config = self.config
        cascade = FilterCascade()
        primary = self._primary_filter()
        family_label = primary.family.upper()

        if config.use_count_filter and query.count_predicates:
            count_predicates = list(query.count_predicates)
            tolerance = config.count_tolerance
            suffix = f"-{tolerance}" if tolerance else ""
            per_class = [p for p in count_predicates if p.class_name is not None]
            total_only = [p for p in count_predicates if p.class_name is None]
            if per_class:
                per_class_preds = _normalized(per_class)
                cascade.steps.append(
                    CascadeStep(
                        name=f"{family_label}-CCF{suffix}",
                        frame_filter=primary,
                        check=CountCheck(predicates=per_class_preds, tolerance=tolerance),
                        signature=("count", tolerance, per_class_preds),
                    )
                )
            if total_only:
                count_filter = self.filters.get("od_cof", primary)
                label = "OD-COF" if "od_cof" in self.filters else f"{family_label}-CF"
                total_preds = _normalized(total_only)
                cascade.steps.append(
                    CascadeStep(
                        name=f"{label}{suffix}",
                        frame_filter=count_filter,
                        check=CountCheck(predicates=total_preds, tolerance=tolerance),
                        signature=("count", tolerance, total_preds),
                    )
                )

        if config.use_location_filter and (query.spatial_predicates or query.region_predicates):
            dilation = config.location_dilation
            suffix = f"-{dilation}" if dilation else ""
            spatial = _normalized(query.spatial_predicates)
            regions = _normalized(query.region_predicates)
            cascade.steps.append(
                CascadeStep(
                    name=f"{family_label}-CLF{suffix}",
                    frame_filter=primary,
                    check=LocationCheck(spatial=spatial, regions=regions, dilation=dilation),
                    signature=("location", dilation, spatial, regions),
                )
            )

        if config.cascade_ordering == "selectivity":
            if sample_stream is None:
                raise ValueError(
                    "cascade_ordering='selectivity' needs a sample_stream to "
                    "measure step pass rates on"
                )
            return order_cascade_by_selectivity(
                cascade, sample_stream, sample_size=config.ordering_sample_size
            )
        return cascade
