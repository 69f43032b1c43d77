"""Table III — query execution times and filter combinations for q1–q7.

The paper evaluates seven queries (two on Coral, three on Jackson, two on
Detrac), reporting for each the most selective filter combination that keeps
accuracy at 100 % (93 % for q7) and the resulting execution time, against a
brute-force run that annotates every frame with Mask R-CNN.

This runner builds the same queries, plans the same filter combinations
(count tolerance / grid dilation per the paper's table), executes both the
filtered and the brute-force variant on the test split in one shared scan per
dataset, and reports simulated execution times (paper latency model),
accuracy, and speedup.

A row that cannot fail is flagged ``vacuous``: fewer than
:data:`MIN_TRUE_MATCHES` true matches, or the same true match set as another
row on its dataset (the test split cannot tell the two queries apart).  It
is still scored; an empty truth set scores accuracy 1.0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.experiments.context import ExperimentConfig, get_context
from repro.query import PlannerConfig, QueryBuilder, QueryPlanner, StreamingQueryExecutor
from repro.query.ast import Query
from repro.query.lint import AnalysisContext
from repro.spatial.regions import Quadrant, quadrant_region

#: true matches below which a Table III row is vacuous
MIN_TRUE_MATCHES = 10


@dataclass(frozen=True)
class QuerySpec:
    """One evaluation query: its definition plus the paper's filter combination."""

    name: str
    dataset: str
    build: "object"
    count_tolerance: int
    location_dilation: int
    paper_filter_combo: str
    paper_time_seconds: float | None
    paper_accuracy: float


def _quadrant(dataset_context, quadrant: Quadrant):
    profile = dataset_context.dataset.profile
    return quadrant_region(quadrant, profile.frame_width, profile.frame_height)


def build_query_specs() -> list[QuerySpec]:
    """The seven evaluation queries of Section IV-B."""

    def q1(context) -> Query:
        return QueryBuilder("q1").count("person").equals(2).build()

    def q2(context) -> Query:
        region = _quadrant(context, Quadrant.LOWER_LEFT)
        return (
            QueryBuilder("q2").in_region("person", region).exactly(2).build()
        )

    def q3(context) -> Query:
        return (
            QueryBuilder("q3").count("car").equals(1).count("person").equals(1).build()
        )

    def q4(context) -> Query:
        return (
            QueryBuilder("q4").count("car").at_least(1).count("person").at_least(1).build()
        )

    def q5(context) -> Query:
        return (
            QueryBuilder("q5")
            .count("car").equals(1)
            .count("person").equals(1)
            .spatial("car").left_of("person")
            .build()
        )

    def q6(context) -> Query:
        return (
            QueryBuilder("q6").count("car").equals(1).count("bus").equals(1).build()
        )

    def q7(context) -> Query:
        return (
            QueryBuilder("q7")
            .count("car").equals(1)
            .count("bus").equals(1)
            .spatial("car").left_of("bus")
            .build()
        )

    return [
        QuerySpec("q1", "coral", q1, 1, 0, "OD-CCF-1", 909.4, 1.0),
        QuerySpec("q2", "coral", q2, 1, 1, "OD-CCF-1/OD-CLF", 427.0, 1.0),
        QuerySpec("q3", "jackson", q3, 0, 0, "OD-CCF", 87.4, 1.0),
        QuerySpec("q4", "jackson", q4, 0, 0, "OD-CCF", 122.6, 1.0),
        QuerySpec("q5", "jackson", q5, 0, 1, "OD-CCF/OD-CLF-1", 67.6, 1.0),
        QuerySpec("q6", "detrac", q6, 1, 0, "OD-CCF-1", 367.6, 1.0),
        QuerySpec("q7", "detrac", q7, 1, 2, "OD-CCF-1/OD-CLF-2", 293.4, 0.93),
    ]


def _plan(context, spec: QuerySpec, query: Query):
    # The evaluation queries are fixed and hand-checked, so plan them
    # strictly: a typo'd class name or contradictory constraint in a spec is
    # a bug in this file, and should fail the run up front with a QA0xx
    # diagnostic rather than silently score an empty match set.
    planner = QueryPlanner(
        context.filters,
        PlannerConfig(
            count_tolerance=spec.count_tolerance,
            location_dilation=spec.location_dilation,
        ),
    )
    return planner.plan(
        query,
        strict=True,
        context=AnalysisContext.for_stream(context.dataset.test),
    )


def _make_row(spec: QuerySpec, filtered, brute) -> dict[str, object]:
    accuracy = filtered.accuracy_against(brute.matched_frames)
    return {
        "query": spec.name,
        "dataset": spec.dataset,
        "cascade": filtered.cascade_description,
        "paper_filter_combo": spec.paper_filter_combo,
        "matches": filtered.num_matches,
        "true_matches": brute.num_matches,
        "accuracy": round(accuracy["accuracy"], 3),
        "f1": round(accuracy["f1"], 3),
        "paper_accuracy": spec.paper_accuracy,
        "filtered_time_s": round(filtered.stats.simulated_seconds, 2),
        "brute_force_time_s": round(brute.stats.simulated_seconds, 2),
        "speedup": round(filtered.speedup_against(brute), 1),
        "filter_selectivity": round(filtered.stats.filter_selectivity, 4),
        "frames": filtered.stats.frames_scanned,
        "paper_time_s": spec.paper_time_seconds,
    }


def _mark_vacuous(rows: list[dict[str, object]], truths: list[frozenset[int]]) -> None:
    """Set each row's ``vacuous`` flag from its true match set."""
    rows_per_truth = Counter(zip((row["dataset"] for row in rows), truths))
    for row, truth in zip(rows, truths):
        row["vacuous"] = (
            row["true_matches"] < MIN_TRUE_MATCHES or rows_per_truth[row["dataset"], truth] > 1
        )


def run(
    config: ExperimentConfig | None = None,
    query_names: tuple[str, ...] | None = None,
) -> list[dict[str, object]]:
    """Execute q1–q7 (or a subset) and report one Table III row per query.

    Each dataset's queries run in one shared scan
    (:meth:`~repro.query.executor.StreamingQueryExecutor.execute_many`): the
    filtered queries plus a brute-force copy of each (no cascade, so the
    detector verifies every frame).  Each frame renders once and the detector
    runs on it at most once; every result carries the cost attributed to its
    query, i.e. what it would pay scanned alone, so a row's filtered and
    brute-force times are those of independent runs.

    Every row carries ``true_matches`` and the ``vacuous`` flag (see the
    module docstring).
    """
    by_dataset: dict[str, list[QuerySpec]] = {}
    for spec in build_query_specs():
        if query_names is None or spec.name in query_names:
            by_dataset.setdefault(spec.dataset, []).append(spec)
    rows: list[dict[str, object]] = []
    truths: list[frozenset[int]] = []
    for dataset, group in by_dataset.items():
        context = get_context(dataset, config)
        queries = [spec.build(context) for spec in group]
        cascades = [_plan(context, spec, query) for spec, query in zip(group, queries)]
        executor = StreamingQueryExecutor(context.reference_detector(seed_offset=300))
        multi = executor.execute_many(
            queries + queries, context.dataset.test, cascades + [None] * len(group)
        )
        for spec, filtered, brute in zip(group, multi, multi.results[len(group):]):
            rows.append(_make_row(spec, filtered, brute))
            truths.append(frozenset(brute.matched_frames))
    _mark_vacuous(rows, truths)
    return rows


def format_rows(rows: list[dict[str, object]]) -> str:
    lines = [
        f"{'query':<6}{'dataset':<9}{'cascade':<22}{'acc':>6}{'true':>6}{'time(s)':>9}"
        f"{'brute(s)':>10}{'speedup':>9}{'selectivity':>12}  vacuous"
    ]
    for row in rows:
        lines.append(
            f"{row['query']:<6}{row['dataset']:<9}{row['cascade']:<22}{row['accuracy']:>6}"
            f"{row['true_matches']:>6}{row['filtered_time_s']:>9}{row['brute_force_time_s']:>10}"
            f"{row['speedup']:>9}{row['filter_selectivity']:>12}  {row['vacuous']}"
        )
    return "\n".join(lines)
