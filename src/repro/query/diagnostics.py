"""Diagnostic model of the query linter.

Every static check (:mod:`repro.query.lint`, the plan checks in
:mod:`repro.query.planner`, the network checks in :mod:`repro.nn.shapes`)
reports its findings as :class:`Diagnostic` records with a *stable* code, so
tests, tooling and callers can match on behaviour rather than message text.
Codes are grouped by layer:

* ``QA0xx`` — query-level (AST) semantic findings,
* ``PL0xx`` — plan-level (cascade) findings,
* ``NN0xx`` — network shape/dtype abstract-interpretation findings.

A :class:`Span` ties a diagnostic back to the offending clause of the query
text the parser saw (character offsets into the normalized source), so
rendered diagnostics can quote the clause instead of pointing at a Python
stack frame.  Diagnostics are collected into an :class:`AnalysisReport`,
whose ``strict`` consumers call :meth:`AnalysisReport.raise_for_errors` to
turn error-severity findings into an :class:`AnalysisError`.

This module imports only :mod:`repro.query.ast` (for :class:`Span`, which
the parser attaches to AST nodes), so the planner, the window machinery and
the network interpreter can all import it at module level.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.query.ast import Span


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make execution wrong, impossible, or provably useless
    (a contradictory query, a region outside the frame); ``WARNING`` findings waste work or drop data silently (a
    subsumed predicate, a tail-dropping window); ``INFO`` records decisions
    the analyzer took on the caller's behalf (a plan short-circuited to an
    empty scan).
    """

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


#: Registry of every stable diagnostic code: code -> (default severity, title).
#: The table in README.md is generated from this mapping — keep them in sync.
DIAGNOSTIC_CODES: dict[str, tuple[Severity, str]] = {
    "QA001": (Severity.ERROR, "contradictory count constraints (provably empty)"),
    "QA002": (Severity.WARNING, "count predicate subsumed by the other constraints"),
    "QA003": (Severity.ERROR, "unknown object class"),
    "QA004": (Severity.ERROR, "unknown color name"),
    "QA005": (Severity.WARNING, "window larger than the stream"),
    "QA006": (Severity.WARNING, "hopping window drops frames (tail remainder or inter-window gap)"),
    "QA007": (Severity.ERROR, "region predicate over a region outside the frame"),
    "QA008": (Severity.ERROR, "region predicate demands more objects than the counts allow"),
    "QA009": (Severity.ERROR, "predicate needs objects a count constraint rules out"),
    "QA010": (Severity.WARNING, "duplicate predicate"),
    "PL001": (Severity.WARNING, "duplicate cascade step"),
    "PL002": (Severity.WARNING, "trivially-true (dead) cascade step"),
    "PL003": (Severity.INFO, "plan short-circuited: query is provably empty"),
    "NN001": (Severity.ERROR, "inter-layer shape mismatch"),
    "NN002": (Severity.ERROR, "layer geometry invalid (non-positive or indivisible spatial dims)"),
    "NN003": (Severity.ERROR, "eval-dtype drift (breaks the float32 inference fast path)"),
    "NN004": (Severity.WARNING, "dead or unreachable layer"),
    "NN005": (Severity.INFO, "opaque layer: shape and dtype assumed preserved"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    code: str
    severity: Severity
    message: str
    span: Span | None = None

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code: {self.code!r}")

    @property
    def title(self) -> str:
        """The code's registry title (stable across message wording changes)."""
        return DIAGNOSTIC_CODES[self.code][1]

    def render(self, source: str | None = None) -> str:
        """One- or two-line human-readable form, quoting the clause if known."""
        line = f"{self.code} {self.severity.value}: {self.message}"
        if self.span is not None and source:
            line += (
                f"\n  at [{self.span.start}:{self.span.end}]: "
                f"{self.span.excerpt(source)!r}"
            )
        return line


class AnalysisError(ValueError):
    """Raised by ``strict=True`` linting when error-severity findings exist.

    Subclasses :class:`ValueError` so existing callers that guard planner
    misuse with ``except ValueError`` keep working.  ``diagnostics``
    carries every finding of the failed analysis (not only the errors), so
    the caller can render the full report.
    """

    def __init__(self, message: str, diagnostics: tuple[Diagnostic, ...] = ()) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class AnalysisReport:
    """The outcome of one analysis pass: diagnostics plus derived verdicts.

    ``provably_empty`` is set by the semantic analyzer when the query cannot
    match any frame (the planner turns that into an empty-scan short
    circuit); ``source`` is the query text spans refer to, carried along so
    :meth:`render` can quote clauses.
    """

    diagnostics: tuple[Diagnostic, ...] = ()
    source: str | None = None
    provably_empty: bool = False

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(d.code for d in self.diagnostics)

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings and infos are allowed)."""
        return not self.errors

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def merged_with(self, other: "AnalysisReport") -> "AnalysisReport":
        """Both reports' diagnostics; emptiness if either proved it."""
        return AnalysisReport(
            diagnostics=self.diagnostics + other.diagnostics,
            source=self.source or other.source,
            provably_empty=self.provably_empty or other.provably_empty,
        )

    def render(self) -> str:
        """The full report, one finding per paragraph (deterministic)."""
        if not self.diagnostics:
            return "no findings"
        return "\n".join(d.render(self.source) for d in self.diagnostics)

    def raise_for_errors(self, context: str = "static analysis") -> None:
        """Raise :class:`AnalysisError` when any error-severity finding exists."""
        errors = self.errors
        if not errors:
            return
        headline = "; ".join(f"{d.code}: {d.message}" for d in errors)
        raise AnalysisError(
            f"{context} found {len(errors)} error(s): {headline}",
            diagnostics=self.diagnostics,
        )


def diag(code: str, message: str, span: Span | None = None) -> Diagnostic:
    """A diagnostic with the code's registry severity (the common case)."""
    severity, _title = DIAGNOSTIC_CODES[code]
    return Diagnostic(code=code, severity=severity, message=message, span=span)


class WindowTailDropWarning(UserWarning):
    """Runtime counterpart of QA006, emitted by ``HoppingWindow.windows_over``.

    Raised as a :mod:`warnings` category (not a diagnostic) because the drop
    happens inside an iterator deep in the execution path, where no report
    object exists to attach to; the static analyzer emits the equivalent
    QA006 diagnostic ahead of time when the stream length is known.
    """

    code = "QA006"


__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "Severity",
    "Span",
    "WindowTailDropWarning",
    "diag",
]
