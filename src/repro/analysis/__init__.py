"""Static analysis of queries, plans and cascades (runs before any frame).

The layers and their diagnostic families:

* :func:`lint_query` — semantic checks on the AST (``QA0xx``): count
  interval contradictions and subsumption, vocabulary and region sanity,
  window configuration;
* :func:`lint_plan` / :func:`optimize_cascade` — checks on the compiled
  cascade (``PL0xx``): duplicate and dead steps, provably-empty short
  circuit;
* :func:`lint_network` — shape/dtype abstract interpretation over a neural
  filter's layer stack (``NN0xx``), run at filter construction and again by
  :func:`lint_plan`.

All entry points return an :class:`AnalysisReport` of structured
:class:`Diagnostic` records with stable codes, and accept ``strict=True`` to
raise :class:`AnalysisError` (a ``ValueError``) on error-severity findings.
"""

from repro.analysis.diagnostics import (
    DIAGNOSTIC_CODES,
    AnalysisError,
    AnalysisReport,
    AnalysisWarning,
    Diagnostic,
    Severity,
    Span,
    WindowTailDropWarning,
    diag,
)
from repro.analysis.intervals import (
    CountAnalysis,
    Interval,
    analyze_counts,
    combined_interval,
    interval_of,
    subsumed_predicates,
)
from repro.analysis.plan import lint_plan, optimize_cascade, short_circuit_diagnostic
from repro.analysis.semantic import AnalysisContext, lint_query, window_diagnostics
from repro.analysis.shapes import TensorSpec, describe_layer, input_spec, lint_network

__all__ = [
    "AnalysisContext",
    "AnalysisError",
    "AnalysisReport",
    "AnalysisWarning",
    "CountAnalysis",
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "Interval",
    "Severity",
    "Span",
    "TensorSpec",
    "WindowTailDropWarning",
    "analyze_counts",
    "combined_interval",
    "describe_layer",
    "diag",
    "input_spec",
    "interval_of",
    "lint_network",
    "lint_plan",
    "lint_query",
    "optimize_cascade",
    "short_circuit_diagnostic",
    "subsumed_predicates",
    "window_diagnostics",
]
