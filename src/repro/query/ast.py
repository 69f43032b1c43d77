"""Query data model (abstract syntax).

A video monitoring query is a conjunction of predicates over the objects
detected in a frame, optionally evaluated over a window for aggregate
monitoring.  The predicate vocabulary covers what the paper's queries use:

* :class:`CountPredicate` — "exactly two people", "at least one car";
* :class:`SpatialPredicate` — "a car left of a bus" (the ``ORDER`` constraint);
* :class:`RegionPredicate` — "two people in the lower-left quadrant",
  "a bicycle not in the bike lane";
* :class:`ColorPredicate` — "the car is red" (an object-attribute predicate
  evaluated only by the full detector, never by the approximate filters).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.spatial.regions import Region
from repro.spatial.relations import Direction


class ComparisonOperator(enum.Enum):
    """Comparison operators allowed in count predicates."""

    EQUAL = "="
    AT_LEAST = ">="
    AT_MOST = "<="
    GREATER = ">"
    LESS = "<"

    def compare(self, left: int, right: int) -> bool:
        if self is ComparisonOperator.EQUAL:
            return left == right
        if self is ComparisonOperator.AT_LEAST:
            return left >= right
        if self is ComparisonOperator.AT_MOST:
            return left <= right
        if self is ComparisonOperator.GREATER:
            return left > right
        if self is ComparisonOperator.LESS:
            return left < right
        raise ValueError(f"unknown operator {self}")  # pragma: no cover


@dataclass(frozen=True)
class Span:
    """A half-open character range ``[start, end)`` into the query source text.

    Attached by the parser so diagnostics can point at the offending clause;
    offsets refer to the *normalized* text the parser works on (whitespace
    collapsed to single spaces), which :attr:`Query.source` preserves.
    Excluded from dataclass comparison wherever it is embedded, so two
    predicates parsed from different positions still compare (and hash, and
    merge across cascades) as equal.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span: [{self.start}, {self.end})")

    def excerpt(self, source: str) -> str:
        """The text the span covers (clamped to the source)."""
        return source[self.start : min(self.end, len(source))]


class Predicate:
    """Base class for all frame predicates."""

    def describe(self) -> str:
        """The predicate in the query language's syntax."""
        raise NotImplementedError


@dataclass(frozen=True)
class CountPredicate(Predicate):
    """Constrain the number of objects (of one class, or in total)."""

    class_name: str | None  # None means "all objects"
    operator: ComparisonOperator
    value: int
    span: Span | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"count predicates need non-negative values: {self.value}")

    def describe(self) -> str:
        target = self.class_name or "objects"
        return f"count({target}) {self.operator.value} {self.value}"


@dataclass(frozen=True)
class SpatialPredicate(Predicate):
    """Some object of ``subject_class`` bears ``direction`` to some object of ``reference_class``."""

    subject_class: str
    reference_class: str
    direction: Direction
    span: Span | None = field(default=None, compare=False)

    def describe(self) -> str:
        return f"{self.subject_class} {self.direction.value} {self.reference_class}"


@dataclass(frozen=True)
class RegionPredicate(Predicate):
    """At least / exactly ``value`` objects of ``class_name`` inside (or outside) ``region``."""

    class_name: str
    region: Region
    operator: ComparisonOperator = ComparisonOperator.AT_LEAST
    value: int = 1
    inside: bool = True
    span: Span | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"region predicates need non-negative values: {self.value}")

    def describe(self) -> str:
        where = "in" if self.inside else "not in"
        return (
            f"count({self.class_name} {where} {self.region.name}) "
            f"{self.operator.value} {self.value}"
        )


@dataclass(frozen=True)
class ColorPredicate(Predicate):
    """At least one object of ``class_name`` has the given color attribute."""

    class_name: str
    color: str
    span: Span | None = field(default=None, compare=False)

    def describe(self) -> str:
        return f"some {self.class_name} is {self.color}"


@dataclass(frozen=True)
class WindowSpec:
    """A hopping window over the stream, in frames (``WINDOW HOPPING`` clause).

    The executor materialises this as a
    :class:`~repro.aggregates.windows.HoppingWindow` and segments the stream
    into ``[start, start + size)`` ranges advancing by ``advance`` frames;
    overlapping instances (``advance < size``) share per-frame filter and
    detector work.
    """

    size: int
    advance: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.advance <= 0:
            raise ValueError(
                f"window size and advance must be positive: {self.size}, {self.advance}"
            )

    @property
    def is_tumbling(self) -> bool:
        """Whether consecutive windows abut without overlap (``advance == size``)."""
        return self.advance == self.size

    def describe(self) -> str:
        if self.is_tumbling:
            return f"TUMBLING (SIZE {self.size})"
        return f"HOPPING (SIZE {self.size}, ADVANCE BY {self.advance})"


@dataclass(frozen=True)
class Query:
    """A video monitoring query: a conjunction of predicates, optionally windowed.

    ``name`` is a label used in reports (e.g. ``"q5"``); ``aliases`` records
    the variable-to-class bindings declared in the SELECT clause when the
    query came from the parser (useful for round-tripping and debugging).
    ``source`` is the normalized query text the predicate spans index into
    (``None`` for programmatically built queries).
    """

    predicates: tuple[Predicate, ...]
    name: str = "query"
    window: WindowSpec | None = None
    aliases: dict[str, str] = field(default_factory=dict, compare=False, hash=False)
    source: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("a query needs at least one predicate")

    # ------------------------------------------------------------------
    # Introspection used by the planner
    # ------------------------------------------------------------------
    @property
    def count_predicates(self) -> list[CountPredicate]:
        return [p for p in self.predicates if isinstance(p, CountPredicate)]

    @property
    def spatial_predicates(self) -> list[SpatialPredicate]:
        return [p for p in self.predicates if isinstance(p, SpatialPredicate)]

    @property
    def region_predicates(self) -> list[RegionPredicate]:
        return [p for p in self.predicates if isinstance(p, RegionPredicate)]

    @property
    def color_predicates(self) -> list[ColorPredicate]:
        return [p for p in self.predicates if isinstance(p, ColorPredicate)]

    @property
    def referenced_classes(self) -> tuple[str, ...]:
        classes: list[str] = []
        for predicate in self.predicates:
            if isinstance(predicate, CountPredicate) and predicate.class_name:
                classes.append(predicate.class_name)
            elif isinstance(predicate, SpatialPredicate):
                classes.extend([predicate.subject_class, predicate.reference_class])
            elif isinstance(predicate, (RegionPredicate, ColorPredicate)):
                classes.append(predicate.class_name)
        seen: dict[str, None] = {}
        for name in classes:
            seen.setdefault(name, None)
        return tuple(seen)

    @property
    def has_spatial_constraints(self) -> bool:
        return bool(self.spatial_predicates or self.region_predicates)

    def describe(self) -> str:
        parts = " AND ".join(p.describe() for p in self.predicates)
        window = f" WINDOW {self.window.describe()}" if self.window else ""
        return f"{self.name}: {parts}{window}"
