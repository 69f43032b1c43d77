"""Parser for the paper's SQL-like video query syntax.

The paper (adopting the syntax of Lu et al.) writes monitoring queries like::

    SELECT cameraID, frameID,
           C1(F1(vehBox1)) AS vehType1,
           C1(F1(vehBox2)) AS vehType2,
           C2(F2(vehBox1)) AS vehColor
    FROM (PROCESS inputVideo PRODUCE cameraID, frameID, vehBox1, vehBox2
          USING VehDetector)
    WHERE vehType1 = car AND vehColor = red AND vehType2 = truck
      AND ORDER(vehType1, vehType2) = RIGHT

The parser turns such text into a :class:`~repro.query.ast.Query`:

* classifier aliases (``C1(F1(vehBox1)) AS vehType1``) bind a variable to an
  object box; an equality on a *type* alias (``vehType1 = car``) declares the
  box's class, and an equality on a *color* alias (``vehColor = red``)
  becomes a :class:`ColorPredicate` on that class;
* each class mentioned this way contributes a ``count >= number of boxes of
  that class`` predicate (the boxes must exist in the frame);
* ``ORDER(a, b) = RIGHT`` becomes a :class:`SpatialPredicate` (a left-of b);
* the shorthand forms ``COUNT(car) = 2``, ``COUNT(*) >= 3`` and
  ``INSIDE(person, LOWER_LEFT) >= 2`` are also accepted, since the evaluation
  queries q1–q7 / a1–a5 are most naturally written that way;
* ``WINDOW HOPPING (SIZE n, ADVANCE BY m)`` attaches a hopping window.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.query.ast import (
    ColorPredicate,
    ComparisonOperator,
    CountPredicate,
    Predicate,
    Query,
    RegionPredicate,
    Span,
    SpatialPredicate,
    WindowSpec,
)
from repro.spatial.regions import Quadrant, Region, quadrant_region
from repro.spatial.relations import Direction
from repro.video.objects import NAMED_COLORS


class ParseError(ValueError):
    """Raised when query text cannot be parsed."""


_ALIAS_RE = re.compile(
    r"(?P<expr>\w+\s*\(\s*\w+\s*\(\s*(?P<box>\w+)\s*\)\s*\))\s+AS\s+(?P<alias>\w+)",
    re.IGNORECASE,
)
_WINDOW_RE = re.compile(
    r"WINDOW\s+HOP\w*\s*\(\s*SIZE\s+(?P<size>\d+)\s*,\s*ADVANCE\s+BY\s+(?P<advance>\d+)\s*\)",
    re.IGNORECASE,
)
_ORDER_RE = re.compile(
    r"\(?\s*ORDER\s*\(\s*(?P<a>\w+)\s*,\s*(?P<b>\w+)\s*\)\s*=\s*(?P<dir>\w+)\s*\)?",
    re.IGNORECASE,
)
# Two-character operators must come first in the alternation, or ">=" would
# match as ">" followed by an unparseable "=".
_COMPARISON_OPS = r">=|<=|=|>|<"
_COUNT_RE = re.compile(
    r"COUNT\s*\(\s*(?P<target>[\w*]+)\s*\)\s*(?P<op>" + _COMPARISON_OPS + r")\s*(?P<value>\d+)",
    re.IGNORECASE,
)
_INSIDE_RE = re.compile(
    r"(?P<neg>NOT\s+)?INSIDE\s*\(\s*(?P<cls>\w+)\s*,\s*(?P<region>\w+)\s*\)\s*"
    r"(?P<op>" + _COMPARISON_OPS + r")\s*(?P<value>\d+)",
    re.IGNORECASE,
)
_EQUALITY_RE = re.compile(r"^(?P<alias>\w+)\s*=\s*(?P<value>[\w-]+)$")

_OPERATORS = {
    "=": ComparisonOperator.EQUAL,
    ">=": ComparisonOperator.AT_LEAST,
    "<=": ComparisonOperator.AT_MOST,
    ">": ComparisonOperator.GREATER,
    "<": ComparisonOperator.LESS,
}

_QUADRANT_NAMES = {q.value.upper(): q for q in Quadrant}


@dataclass
class _ParserState:
    """Intermediate information gathered while walking the WHERE clause."""

    alias_to_box: dict[str, str] = field(default_factory=dict)
    box_class: dict[str, str] = field(default_factory=dict)
    box_color: dict[str, str] = field(default_factory=dict)
    box_class_span: dict[str, Span | None] = field(default_factory=dict)
    box_color_span: dict[str, Span | None] = field(default_factory=dict)
    alias_class: dict[str, str] = field(default_factory=dict)
    predicates: list[Predicate] = field(default_factory=list)
    spatial_alias_pairs: list[tuple[str, str, Direction, Span | None]] = field(
        default_factory=list
    )


def _split_conditions(where_clause: str) -> list[str]:
    """Split a WHERE clause on top-level ANDs (parenthesis-aware)."""
    conditions: list[str] = []
    depth = 0
    current: list[str] = []
    tokens = re.split(r"(\(|\)|\bAND\b)", where_clause, flags=re.IGNORECASE)
    for token in tokens:
        if token is None:
            continue
        stripped = token.strip()
        if not stripped:
            continue
        if stripped == "(":
            depth += 1
            current.append(token)
        elif stripped == ")":
            depth -= 1
            current.append(token)
        elif stripped.upper() == "AND" and depth == 0:
            if current:
                conditions.append("".join(current).strip())
                current = []
        else:
            current.append(token)
    if current:
        conditions.append("".join(current).strip())
    return [c for c in conditions if c]


def _region_from_name(name: str, frame_width: int, frame_height: int) -> Region:
    upper = name.upper()
    if upper in _QUADRANT_NAMES:
        return quadrant_region(_QUADRANT_NAMES[upper], frame_width, frame_height)
    raise ParseError(
        f"unknown region {name!r}; expected one of {sorted(_QUADRANT_NAMES)}"
    )


def _is_color_alias(alias: str) -> bool:
    return "color" in alias.lower()


def _reject_leftover(condition: str, match: re.Match, kind: str) -> None:
    """Reject trailing (or leading) garbage around a recognised condition.

    The condition grammar has no infix operators besides the top-level ANDs
    already split away, so anything outside the matched region — bar
    grouping parentheses, whitespace and a trailing semicolon — is a typo
    the old ``.search()``-based parser would have silently dropped.
    """
    leftover = (condition[: match.start()] + condition[match.end() :]).strip(" ();")
    if leftover:
        raise ParseError(
            f"unexpected text {leftover!r} next to {kind} condition {condition!r}"
        )


def _parse_condition(
    condition: str,
    state: _ParserState,
    frame_width: int,
    frame_height: int,
    span: Span | None = None,
) -> None:
    condition = condition.strip().strip(";")
    if not condition:
        return

    order_match = _ORDER_RE.search(condition)
    if order_match:
        _reject_leftover(condition, order_match, "ORDER")
        direction = Direction.from_keyword(order_match.group("dir"))
        state.spatial_alias_pairs.append(
            (order_match.group("a"), order_match.group("b"), direction, span)
        )
        return

    count_match = _COUNT_RE.search(condition)
    if count_match:
        _reject_leftover(condition, count_match, "COUNT")
        target = count_match.group("target")
        class_name = None if target in ("*", "frameID") else target
        state.predicates.append(
            CountPredicate(
                class_name=class_name,
                operator=_OPERATORS[count_match.group("op")],
                value=int(count_match.group("value")),
                span=span,
            )
        )
        return

    inside_match = _INSIDE_RE.search(condition)
    if inside_match:
        _reject_leftover(condition, inside_match, "INSIDE")
        region = _region_from_name(inside_match.group("region"), frame_width, frame_height)
        state.predicates.append(
            RegionPredicate(
                class_name=inside_match.group("cls"),
                region=region,
                operator=_OPERATORS[inside_match.group("op")],
                value=int(inside_match.group("value")),
                inside=not inside_match.group("neg"),
                span=span,
            )
        )
        return

    equality_match = _EQUALITY_RE.match(condition.strip("() "))
    if equality_match:
        alias = equality_match.group("alias")
        value = equality_match.group("value").lower()
        box = state.alias_to_box.get(alias)
        if _is_color_alias(alias):
            if value not in NAMED_COLORS:
                raise ParseError(f"unknown color {value!r} in condition {condition!r}")
            if box is not None:
                state.box_color[box] = value
                state.box_color_span[box] = span
            else:
                raise ParseError(
                    f"color alias {alias!r} was not declared in the SELECT clause"
                )
        else:
            state.alias_class[alias] = value
            if box is not None:
                state.box_class[box] = value
                state.box_class_span[box] = span
            else:
                # An undeclared type alias is treated as "there is at least one
                # object of this class" (lenient mode for hand-written queries).
                state.predicates.append(
                    CountPredicate(value, ComparisonOperator.AT_LEAST, 1, span=span)
                )
        return

    raise ParseError(f"could not parse condition: {condition!r}")


def parse_query(
    text: str,
    name: str = "query",
    frame_width: int = 448,
    frame_height: int = 448,
) -> Query:
    """Parse SQL-like query text into a :class:`~repro.query.ast.Query`.

    ``frame_width`` / ``frame_height`` are needed to materialise screen-region
    predicates (quadrants are defined relative to the frame).

    Every predicate carries a :class:`~repro.query.ast.Span` into the
    normalized query text (preserved as ``Query.source``), so the linter's
    diagnostics (:meth:`QueryPlanner.plan <repro.query.planner.QueryPlanner.plan>`,
    :func:`~repro.query.lint.lint_query`) can quote the offending clause.
    """
    if not text or not text.strip():
        raise ParseError("empty query text")
    normalized = " ".join(text.split())
    upper = normalized.upper()
    if not upper.startswith("SELECT"):
        raise ParseError("query must start with SELECT")

    state = _ParserState()

    # Aliases declared in the SELECT clause.
    for match in _ALIAS_RE.finditer(normalized):
        state.alias_to_box[match.group("alias")] = match.group("box")

    # Window clause.  The clause may appear before or after WHERE, so it is
    # stripped first and the WHERE split is computed on the post-removal text
    # (locating the split in the pre-removal string would garble the slice
    # whenever WINDOW precedes WHERE).  Predicate spans likewise index into
    # the post-removal text, which is what ``Query.source`` preserves.
    window = None
    window_match = _WINDOW_RE.search(normalized)
    if window_match:
        window = WindowSpec(
            size=int(window_match.group("size")),
            advance=int(window_match.group("advance")),
        )
        normalized = " ".join(
            (normalized[: window_match.start()] + normalized[window_match.end() :]).split()
        )
        upper = normalized.upper()
        if _WINDOW_RE.search(normalized):
            raise ParseError(
                "duplicate WINDOW clause; a query may declare at most one window"
            )

    # WHERE clause.
    where_index = upper.find(" WHERE ")
    if where_index < 0:
        raise ParseError("query must contain a WHERE clause")
    where_offset = where_index + len(" WHERE ")
    where_clause = normalized[where_offset:]
    search_pos = 0
    for condition in _split_conditions(where_clause):
        # Conditions are contiguous substrings of the WHERE clause (the AND
        # split preserves every other token), so their spans can be recovered
        # by searching forward from the previous condition's end.
        relative = where_clause.find(condition, search_pos)
        span = None
        if relative >= 0:
            span = Span(
                start=where_offset + relative,
                end=where_offset + relative + len(condition),
            )
            search_pos = relative + len(condition)
        _parse_condition(condition, state, frame_width, frame_height, span)

    # Each box bound to a class implies that an object of that class exists.
    class_box_counts: dict[str, int] = {}
    class_spans: dict[str, Span | None] = {}
    for box, class_name in state.box_class.items():
        class_box_counts[class_name] = class_box_counts.get(class_name, 0) + 1
        class_spans.setdefault(class_name, state.box_class_span.get(box))
    for class_name, box_count in class_box_counts.items():
        state.predicates.append(
            CountPredicate(
                class_name,
                ComparisonOperator.AT_LEAST,
                box_count,
                span=class_spans.get(class_name),
            )
        )

    # Color constraints on boxes become color predicates on the box's class.
    for box, color in state.box_color.items():
        class_name = state.box_class.get(box)
        if class_name is None:
            raise ParseError(
                f"box {box!r} has a color constraint but no class constraint"
            )
        state.predicates.append(
            ColorPredicate(class_name, color, span=state.box_color_span.get(box))
        )

    # ORDER constraints: resolve aliases to classes.
    for alias_a, alias_b, direction, span in state.spatial_alias_pairs:
        class_a = state.alias_class.get(alias_a, alias_a.lower())
        class_b = state.alias_class.get(alias_b, alias_b.lower())
        state.predicates.append(SpatialPredicate(class_a, class_b, direction, span=span))

    if not state.predicates:
        raise ParseError("query has no recognisable predicates")

    aliases = {
        alias: state.alias_class.get(alias, "")
        for alias in state.alias_to_box
    }
    return Query(
        predicates=tuple(state.predicates),
        name=name,
        window=window,
        aliases=aliases,
        source=normalized,
    )
