"""The query linter: semantic checks on a query AST (the ``QA0xx`` diagnostics).

``lint_query`` runs every AST-level check and returns an
:class:`~repro.query.diagnostics.AnalysisReport`.  The checks only use
facts available *before* any frame is decoded: the predicates themselves,
optionally the stream's class vocabulary, frame geometry and length, and the
query's window clause.  The headline result is ``provably_empty`` — set only
from sound logical contradictions (interval emptiness, impossible region
demands, zero-forced classes), never from vocabulary mismatches, so a stale
class list can produce an error diagnostic but never silently discard
frames.

The count checks are interval analysis.  A conjunction of count predicates
on the same target (one class, or the total) constrains the true count to
an integer interval: ``COUNT(car) >= 2`` means ``[2, inf)``,
``COUNT(car) < 5`` means ``[0, 4]``, and their conjunction ``[2, 4]``.  Three
findings read straight off the per-target intersection: emptiness (QA001,
``COUNT(car) > 5 AND COUNT(car) < 3``), subsumption (QA002, a predicate
whose removal leaves the interval unchanged) and zero-forcing (QA009, an
upper bound of 0 contradicts any predicate that needs such an object).  A
cross-target check ties the per-class intervals to the total: every frame
has ``total >= sum(per-class counts)``, so per-class lower bounds that add
up past the total's upper bound are a QA001 too (``COUNT(car) >= 3 AND
COUNT(*) <= 2``).  Counts are non-negative, so every interval lives in
``[0, inf)``; ``hi`` of ``None`` is the unbounded upper end.

Context arguments are all optional: with none given, only the pure
predicate-logic checks run; passing ``class_names`` enables QA003,
``frame_width``/``frame_height`` enable QA007, ``num_frames`` enables the
window checks QA005/QA006.  :class:`AnalysisContext` bundles them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.query.ast import (
    ColorPredicate,
    ComparisonOperator,
    CountPredicate,
    Predicate,
    Query,
    RegionPredicate,
    SpatialPredicate,
    WindowSpec,
)
from repro.query.diagnostics import AnalysisReport, Diagnostic, Span, diag
from repro.spatial.geometry import Box
from repro.video.objects import NAMED_COLORS


@dataclass(frozen=True)
class Interval:
    """An integer interval ``[lo, hi]``; ``hi=None`` means unbounded above."""

    lo: int = 0
    hi: int | None = None

    @property
    def is_empty(self) -> bool:
        return self.hi is not None and self.lo > self.hi

    def intersect(self, other: Interval) -> Interval:
        lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        return Interval(lo=lo, hi=hi)

    def describe(self) -> str:
        upper = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {upper}]"


def interval_of(operator: ComparisonOperator, value: int) -> Interval:
    """The counts ``<operator> value`` admits (a count or a region predicate's).

    Counts are ``>= 0``, so upper-bound operators start at zero and ``lo``
    is the fewest objects the predicate demands; the strict operators take
    the integer neighbour.
    """
    if operator is ComparisonOperator.EQUAL:
        return Interval(lo=value, hi=value)
    if operator is ComparisonOperator.AT_LEAST:
        return Interval(lo=value, hi=None)
    if operator is ComparisonOperator.AT_MOST:
        return Interval(lo=0, hi=value)
    if operator is ComparisonOperator.GREATER:
        return Interval(lo=value + 1, hi=None)
    if operator is ComparisonOperator.LESS:
        return Interval(lo=0, hi=value - 1)
    raise ValueError(f"unknown operator {operator}")  # pragma: no cover


def combined_interval(predicates: list[CountPredicate]) -> Interval:
    """Intersection of every predicate's interval (full ``[0, inf)`` if none)."""
    result = Interval()
    for predicate in predicates:
        result = result.intersect(interval_of(predicate.operator, predicate.value))
    return result


@dataclass(frozen=True)
class CountAnalysis:
    """Per-target count intervals of a query's count-predicate conjunction.

    ``by_target`` maps the count target (a class name, or ``None`` for the
    total) to the intersected interval of every count predicate on it.
    ``cross_empty`` flags the sum-of-lower-bounds-vs-total contradiction,
    which no single target's interval shows.
    """

    by_target: dict[str | None, Interval]
    cross_empty: bool

    def interval_for(self, target: str | None) -> Interval:
        """The target's interval; unconstrained targets get full ``[0, inf)``."""
        return self.by_target.get(target, Interval())

    @property
    def empty_targets(self) -> list[str | None]:
        return [t for t, interval in self.by_target.items() if interval.is_empty]

    @property
    def is_empty(self) -> bool:
        """Whether the count conjunction alone proves the query matches nothing."""
        return self.cross_empty or bool(self.empty_targets)


def analyze_counts(predicates: list[CountPredicate]) -> CountAnalysis:
    """Intersect the predicates' intervals per target and run the cross check."""
    by_target: dict[str | None, Interval] = {}
    for predicate in predicates:
        current = by_target.get(predicate.class_name, Interval())
        by_target[predicate.class_name] = current.intersect(
            interval_of(predicate.operator, predicate.value)
        )

    total = by_target.get(None, Interval())
    class_lo_sum = sum(
        interval.lo for target, interval in by_target.items() if target is not None
    )
    cross_empty = total.hi is not None and class_lo_sum > total.hi
    return CountAnalysis(by_target=by_target, cross_empty=cross_empty)


def subsumed_predicates(predicates: list[CountPredicate]) -> list[CountPredicate]:
    """Count predicates whose removal leaves every target's interval unchanged.

    Checked one at a time against the rest (not jointly): of two mutually
    redundant predicates (``COUNT(car) >= 2`` twice), each is individually
    subsumed by the other, and the caller reports both — dropping *all*
    reported predicates at once is not sound, dropping any one of them is.
    """
    redundant: list[CountPredicate] = []
    for index, predicate in enumerate(predicates):
        peers = [p for i, p in enumerate(predicates) if i != index and p.class_name == predicate.class_name]
        with_p = combined_interval(peers + [predicate])
        without_p = combined_interval(peers)
        if with_p == without_p and not with_p.is_empty:
            redundant.append(predicate)
    return redundant


@dataclass(frozen=True)
class AnalysisContext:
    """Stream facts the semantic checks may use (all optional).

    ``class_names`` is the detector vocabulary (enables unknown-class
    checks); ``frame_width``/``frame_height`` the frame geometry (region
    containment); ``num_frames`` the stream length (window sanity).
    """

    class_names: tuple[str, ...] | None = None
    frame_width: float | None = None
    frame_height: float | None = None
    num_frames: int | None = None

    @classmethod
    def for_stream(cls, stream: Any) -> AnalysisContext:
        """Context extracted from a video stream (duck-typed, best effort)."""
        scene = getattr(stream, "scene", None)
        config = getattr(scene, "config", None)
        class_names = getattr(stream, "class_names", None)
        if not class_names:
            # VideoStream carries no vocabulary of its own; the scene's class
            # mix lists every class that can ever appear in its frames.
            mix = getattr(config, "class_mix", None) or ()
            class_names = [
                entry.class_name for entry in mix if getattr(entry, "class_name", None)
            ]
        return cls(
            class_names=tuple(class_names) if class_names else None,
            frame_width=getattr(config, "frame_width", None),
            frame_height=getattr(config, "frame_height", None),
            num_frames=len(stream) if hasattr(stream, "__len__") else None,
        )


def _span(node: object) -> Span | None:
    return getattr(node, "span", None)


def _check_counts(query: Query, diagnostics: list[Diagnostic]) -> bool:
    """QA001 (contradiction) and QA002 (subsumption); returns emptiness."""
    counts = query.count_predicates
    analysis = analyze_counts(counts)
    for target in analysis.empty_targets:
        label = target or "objects"
        interval = analysis.by_target[target]
        offenders = [p for p in counts if p.class_name == target]
        diagnostics.append(
            diag(
                "QA001",
                f"count constraints on {label!r} are contradictory "
                f"(empty interval {interval.describe()}): "
                + " AND ".join(p.describe() for p in offenders),
                span=_span(offenders[0]) if offenders else None,
            )
        )
    if analysis.cross_empty:
        total_hi = analysis.interval_for(None).hi
        lower_sum = sum(
            interval.lo
            for target, interval in analysis.by_target.items()
            if target is not None
        )
        diagnostics.append(
            diag(
                "QA001",
                f"per-class lower bounds sum to {lower_sum} but the total "
                f"count is capped at {total_hi}",
                span=_span(next((p for p in counts if p.class_name is None), None)),
            )
        )
    if not analysis.is_empty:
        for predicate in subsumed_predicates(counts):
            diagnostics.append(
                diag(
                    "QA002",
                    f"{predicate.describe()} is implied by the other count "
                    "constraints and can be dropped",
                    span=_span(predicate),
                )
            )
    return analysis.is_empty


def _check_vocabulary(
    query: Query, context: AnalysisContext, diagnostics: list[Diagnostic]
) -> None:
    """QA003 (unknown class) and QA004 (unknown color)."""
    if context.class_names is not None:
        known = set(context.class_names)
        for class_name in query.referenced_classes:
            if class_name not in known:
                offender = next(
                    (
                        p
                        for p in query.predicates
                        if class_name in _predicate_classes(p)
                    ),
                    None,
                )
                diagnostics.append(
                    diag(
                        "QA003",
                        f"class {class_name!r} is not in the stream vocabulary "
                        f"{sorted(known)}",
                        span=_span(offender),
                    )
                )
    for predicate in query.color_predicates:
        if predicate.color not in NAMED_COLORS:
            diagnostics.append(
                diag(
                    "QA004",
                    f"color {predicate.color!r} is not a known color name "
                    f"(known: {sorted(NAMED_COLORS)})",
                    span=_span(predicate),
                )
            )


def _predicate_classes(predicate: Predicate) -> tuple[str, ...]:
    if isinstance(predicate, CountPredicate):
        return (predicate.class_name,) if predicate.class_name else ()
    if isinstance(predicate, SpatialPredicate):
        return (predicate.subject_class, predicate.reference_class)
    if isinstance(predicate, (RegionPredicate, ColorPredicate)):
        return (predicate.class_name,)
    return ()


def window_diagnostics(
    window: WindowSpec | None, num_frames: int | None
) -> list[Diagnostic]:
    """QA005 / QA006 for a window clause (also used by the window machinery).

    QA006 fires in two situations: the hop leaves an inter-window gap
    (``advance > size``, detectable with no stream length at all), or the
    stream length is known and the final full window stops short of the last
    frame.  A frame query scans that tail remainder as one shorter last
    window; an aggregate, which estimates full windows only, drops it.
    """
    if window is None:
        return []
    diagnostics: list[Diagnostic] = []
    if num_frames is not None and window.size > num_frames:
        diagnostics.append(
            diag(
                "QA005",
                f"window size {window.size} exceeds the stream length "
                f"{num_frames}; no full window ever completes",
            )
        )
    if window.advance > window.size:
        diagnostics.append(
            diag(
                "QA006",
                f"advance {window.advance} > size {window.size} leaves "
                f"{window.advance - window.size} frames between consecutive "
                "windows unobserved",
            )
        )
    elif num_frames is not None and window.size <= num_frames:
        num_full = (num_frames - window.size) // window.advance + 1
        covered_end = (num_full - 1) * window.advance + window.size
        if covered_end < num_frames:
            diagnostics.append(
                diag(
                    "QA006",
                    f"the final {num_frames - covered_end} frames never fill a "
                    f"window of size {window.size} advancing by {window.advance}: "
                    "a frame query scans them as a shorter last window, an "
                    "aggregate drops them",
                )
            )
    return diagnostics


def _check_regions(
    query: Query, context: AnalysisContext, diagnostics: list[Diagnostic]
) -> bool:
    """QA007 (region outside frame) and QA008 (demand exceeds count cap)."""
    empty = False
    analysis = analyze_counts(query.count_predicates)
    for predicate in query.region_predicates:
        required = interval_of(predicate.operator, predicate.value).lo
        if (
            context.frame_width is not None
            and context.frame_height is not None
        ):
            frame_box = Box(0, 0, context.frame_width, context.frame_height)
            if frame_box.intersection(predicate.region.box) is None:
                diagnostics.append(
                    diag(
                        "QA007",
                        f"region {predicate.region.name!r} "
                        f"{predicate.region.box} lies entirely outside the "
                        f"{context.frame_width}x{context.frame_height} frame",
                        span=_span(predicate),
                    )
                )
                if predicate.inside and required > 0:
                    empty = True
                continue
        class_hi = analysis.interval_for(predicate.class_name).hi
        total_hi = analysis.interval_for(None).hi
        cap = class_hi if class_hi is not None else total_hi
        if predicate.inside and cap is not None and required > cap:
            diagnostics.append(
                diag(
                    "QA008",
                    f"{predicate.describe()} needs at least {required} "
                    f"{predicate.class_name}(s) but the count constraints cap "
                    f"them at {cap}",
                    span=_span(predicate),
                )
            )
            empty = True
    return empty


def _check_zero_forced(query: Query, diagnostics: list[Diagnostic]) -> bool:
    """QA009: a predicate needs an object of a class the counts force to zero."""
    analysis = analyze_counts(query.count_predicates)
    if analysis.is_empty:
        return False  # QA001 already covers it; avoid cascading noise
    zero_forced = {
        target
        for target, interval in analysis.by_target.items()
        if target is not None and interval.hi == 0
    }
    if analysis.interval_for(None).hi == 0:
        zero_forced.add(None)
    if not zero_forced:
        return False
    empty = False
    for predicate in query.predicates:
        if isinstance(predicate, CountPredicate):
            continue
        needy: tuple[str, ...]
        if isinstance(predicate, SpatialPredicate):
            needy = (predicate.subject_class, predicate.reference_class)
        elif isinstance(predicate, RegionPredicate):
            required = interval_of(predicate.operator, predicate.value).lo
            needy = (predicate.class_name,) if predicate.inside and required > 0 else ()
        elif isinstance(predicate, ColorPredicate):
            needy = (predicate.class_name,)
        else:  # pragma: no cover - unknown predicate kinds are skipped
            needy = ()
        hit = [c for c in needy if c in zero_forced or None in zero_forced]
        if hit:
            blocked = hit[0] if hit[0] in zero_forced else "any object"
            diagnostics.append(
                diag(
                    "QA009",
                    f"{predicate.describe()} needs a {hit[0]} but the count "
                    f"constraints force {blocked!r} to zero",
                    span=_span(predicate),
                )
            )
            empty = True
    return empty


def _check_duplicates(query: Query, diagnostics: list[Diagnostic]) -> None:
    """QA010: literally identical predicates repeated in the conjunction."""
    seen: set[Predicate] = set()
    for predicate in query.predicates:
        if predicate in seen:
            diagnostics.append(
                diag(
                    "QA010",
                    f"predicate {predicate.describe()} appears more than once",
                    span=_span(predicate),
                )
            )
        else:
            seen.add(predicate)


def lint_query(
    query: Query,
    context: AnalysisContext | None = None,
    *,
    strict: bool = False,
) -> AnalysisReport:
    """Run every semantic check on ``query`` and return the report.

    With ``strict=True``, error-severity findings raise
    :class:`~repro.query.diagnostics.AnalysisError` (warnings never
    raise).  ``context`` supplies optional stream facts; omit it to run only
    the pure predicate-logic checks.
    """
    context = context or AnalysisContext()
    diagnostics: list[Diagnostic] = []
    empty = _check_counts(query, diagnostics)
    _check_vocabulary(query, context, diagnostics)
    empty |= _check_regions(query, context, diagnostics)
    empty |= _check_zero_forced(query, diagnostics)
    _check_duplicates(query, diagnostics)
    diagnostics.extend(window_diagnostics(query.window, context.num_frames))
    report = AnalysisReport(
        diagnostics=tuple(diagnostics),
        source=query.source,
        provably_empty=empty,
    )
    if strict:
        report.raise_for_errors(context=f"query {query.name!r}")
    return report


__all__ = [
    "AnalysisContext",
    "CountAnalysis",
    "Interval",
    "analyze_counts",
    "combined_interval",
    "interval_of",
    "lint_query",
    "subsumed_predicates",
    "window_diagnostics",
]
