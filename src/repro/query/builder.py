"""Fluent query builder.

Programmatic alternative to the SQL-like parser; the evaluation queries of
Section IV are one-liners with it, e.g. the paper's q5 ("exactly one car and
exactly one person and the car left of the person" on Jackson):

.. code-block:: python

    query = (
        QueryBuilder("q5")
        .count("car").equals(1)
        .count("person").equals(1)
        .spatial("car").left_of("person")
        .build()
    )
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.spatial.regions import Quadrant, Region, quadrant_region
from repro.spatial.relations import Direction


@dataclass
class _CountClause:
    builder: "QueryBuilder"
    class_name: str | None

    def equals(self, value: int) -> "QueryBuilder":
        return self.builder._add(
            CountPredicate(self.class_name, ComparisonOperator.EQUAL, value)
        )

    def at_least(self, value: int) -> "QueryBuilder":
        return self.builder._add(
            CountPredicate(self.class_name, ComparisonOperator.AT_LEAST, value)
        )

    def at_most(self, value: int) -> "QueryBuilder":
        return self.builder._add(
            CountPredicate(self.class_name, ComparisonOperator.AT_MOST, value)
        )

    def greater_than(self, value: int) -> "QueryBuilder":
        return self.builder._add(
            CountPredicate(self.class_name, ComparisonOperator.GREATER, value)
        )

    def less_than(self, value: int) -> "QueryBuilder":
        return self.builder._add(
            CountPredicate(self.class_name, ComparisonOperator.LESS, value)
        )


@dataclass
class _SpatialClause:
    builder: "QueryBuilder"
    subject_class: str

    def _add(self, reference_class: str, direction: Direction) -> "QueryBuilder":
        return self.builder._add(
            SpatialPredicate(self.subject_class, reference_class, direction)
        )

    def left_of(self, reference_class: str) -> "QueryBuilder":
        return self._add(reference_class, Direction.LEFT_OF)

    def right_of(self, reference_class: str) -> "QueryBuilder":
        return self._add(reference_class, Direction.RIGHT_OF)

    def above(self, reference_class: str) -> "QueryBuilder":
        return self._add(reference_class, Direction.ABOVE)

    def below(self, reference_class: str) -> "QueryBuilder":
        return self._add(reference_class, Direction.BELOW)


@dataclass
class _RegionClause:
    builder: "QueryBuilder"
    class_name: str
    region: Region

    def at_least(self, value: int) -> "QueryBuilder":
        return self.builder._add(
            RegionPredicate(
                self.class_name, self.region, ComparisonOperator.AT_LEAST, value
            )
        )

    def exactly(self, value: int) -> "QueryBuilder":
        return self.builder._add(
            RegionPredicate(
                self.class_name, self.region, ComparisonOperator.EQUAL, value
            )
        )


class QueryBuilder:
    """Builds :class:`~repro.query.ast.Query` objects with a fluent interface."""

    def __init__(self, name: str = "query") -> None:
        self._name = name
        self._predicates: list[Predicate] = []
        self._window: WindowSpec | None = None

    # ------------------------------------------------------------------
    # Clause entry points
    # ------------------------------------------------------------------
    def count(self, class_name: str | None = None) -> _CountClause:
        """Start a count predicate (``class_name=None`` counts all objects)."""
        return _CountClause(self, class_name)

    def total_count(self) -> _CountClause:
        """Alias of ``count(None)``."""
        return _CountClause(self, None)

    def spatial(self, subject_class: str) -> _SpatialClause:
        """Start a spatial predicate with ``subject_class`` as the subject."""
        return _SpatialClause(self, subject_class)

    def in_region(self, class_name: str, region: Region) -> _RegionClause:
        """Start a region predicate: objects of ``class_name`` inside ``region``."""
        return _RegionClause(self, class_name, region)

    def in_quadrant(
        self, class_name: str, quadrant: Quadrant, frame_width: int, frame_height: int
    ) -> _RegionClause:
        """Region predicate for one of the four screen quadrants."""
        region = quadrant_region(quadrant, frame_width, frame_height)
        return _RegionClause(self, class_name, region)

    def color(self, class_name: str, color: str) -> "QueryBuilder":
        """Require at least one object of ``class_name`` with the given color."""
        return self._add(ColorPredicate(class_name, color))

    def window(self, size: int, advance: int | None = None) -> "QueryBuilder":
        """Attach a hopping window (``advance`` defaults to ``size``)."""
        self._window = WindowSpec(size=size, advance=advance if advance is not None else size)
        return self

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _add(self, predicate: Predicate) -> "QueryBuilder":
        self._predicates.append(predicate)
        return self

    def build(self) -> Query:
        """Assemble the query.

        Planning lints it (:meth:`~repro.query.planner.QueryPlanner.plan`),
        as does a direct :func:`~repro.query.lint.lint_query` call.
        """
        return Query(
            predicates=tuple(self._predicates), name=self._name, window=self._window
        )
