"""Declarative query processing over video streams.

This package implements the query side of the paper: a declarative query
model for video monitoring queries (object counts, per-class counts, spatial
relationships between objects and between objects and screen regions), a
parser for the paper's SQL-like syntax, a planner that assembles a cascade of
cheap approximate filters, and a streaming executor that only invokes the
expensive reference detector on frames that survive the cascade.

The planner also lints each query before any frame is rendered
(:mod:`repro.query.lint` for the query, :func:`repro.query.planner.lint_plan`
for the compiled cascade, :mod:`repro.query.diagnostics` for the findings):
a provably empty query plans to an empty scan, and dead or duplicate steps
are dropped.

The executor accounts costs with the simulated clock (filter branches at
1.5–1.9 ms/frame, Mask R-CNN at 200 ms/frame), which is what reproduces the
orders-of-magnitude speedups of Table III.
"""

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
from repro.query.builder import QueryBuilder
from repro.query.parser import ParseError, parse_query
from repro.query.evaluation import evaluate_predicates_on_detections
from repro.query.planner import (
    CascadeStep,
    CountCheck,
    FilterCascade,
    LocationCheck,
    PlannerConfig,
    QueryPlanner,
    measure_cascade_selectivity,
    merge_cascade_steps,
    order_cascade_by_selectivity,
    reorder_cascade,
    shared_step_key,
)
from repro.query.parallel import ParallelConfig, ParallelStats
from repro.query.results import (
    AggregateExecutionResult,
    ExecutionStats,
    MultiQueryExecutionResult,
    QueryExecutionResult,
    SharedExecutionStats,
    WindowAggregateEstimate,
    WindowResult,
    WindowStats,
)
from repro.query.executor import StreamingQueryExecutor
from repro.query.oracle import brute_force_execute
from repro.query.session import ChunkProgress, QueryState, ScanSession
from repro.query.temporal import (
    DeltaGate,
    TemporalConfig,
    TemporalStats,
    delta_score,
    frame_signature,
)

__all__ = [
    "Query",
    "Predicate",
    "CountPredicate",
    "SpatialPredicate",
    "RegionPredicate",
    "ColorPredicate",
    "ComparisonOperator",
    "WindowSpec",
    "QueryBuilder",
    "parse_query",
    "ParseError",
    "evaluate_predicates_on_detections",
    "QueryPlanner",
    "PlannerConfig",
    "FilterCascade",
    "CascadeStep",
    "measure_cascade_selectivity",
    "merge_cascade_steps",
    "order_cascade_by_selectivity",
    "reorder_cascade",
    "shared_step_key",
    "CountCheck",
    "LocationCheck",
    "ParallelConfig",
    "ParallelStats",
    "StreamingQueryExecutor",
    "QueryExecutionResult",
    "MultiQueryExecutionResult",
    "SharedExecutionStats",
    "ExecutionStats",
    "WindowResult",
    "WindowStats",
    "WindowAggregateEstimate",
    "AggregateExecutionResult",
    "brute_force_execute",
    "ScanSession",
    "QueryState",
    "ChunkProgress",
    "TemporalConfig",
    "TemporalStats",
    "DeltaGate",
    "delta_score",
    "frame_signature",
]
