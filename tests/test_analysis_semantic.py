"""Semantic analyzer tests: interval analysis and the QA0xx diagnostics.

Each QA code gets one golden test asserting it fires (by code, not message
text) on a minimal query that exhibits exactly that defect, plus the
surrounding report machinery (severities, strict raising, rendering).
"""

from __future__ import annotations

import pytest

from repro.query import QueryBuilder
from repro.query.ast import ComparisonOperator, CountPredicate
from repro.query.diagnostics import AnalysisError, Severity
from repro.query.lint import (
    AnalysisContext,
    Interval,
    analyze_counts,
    combined_interval,
    interval_of,
    lint_query,
    subsumed_predicates,
)
from repro.spatial.geometry import Box
from repro.spatial.regions import Region


# ---------------------------------------------------------------------------
# Interval analysis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "operator, value, expected",
    [
        (ComparisonOperator.EQUAL, 2, Interval(2, 2)),
        (ComparisonOperator.AT_LEAST, 2, Interval(2, None)),
        (ComparisonOperator.AT_MOST, 2, Interval(0, 2)),
        (ComparisonOperator.GREATER, 2, Interval(3, None)),
        (ComparisonOperator.LESS, 2, Interval(0, 1)),
    ],
)
def test_interval_of_each_operator(operator, value, expected):
    assert interval_of(operator, value) == expected


def test_interval_intersection_and_emptiness():
    assert Interval(2, None).intersect(Interval(0, 4)) == Interval(2, 4)
    assert not Interval(2, 4).is_empty
    assert Interval(5, 4).is_empty
    assert not Interval(5, None).is_empty  # unbounded above is never empty


def test_combined_interval_of_conjunction():
    predicates = [
        CountPredicate("car", ComparisonOperator.AT_LEAST, 2),
        CountPredicate("car", ComparisonOperator.LESS, 5),
    ]
    assert combined_interval(predicates) == Interval(2, 4)


def test_cross_target_contradiction_detected():
    analysis = analyze_counts(
        [
            CountPredicate("car", ComparisonOperator.AT_LEAST, 3),
            CountPredicate(None, ComparisonOperator.AT_MOST, 2),
        ]
    )
    assert analysis.cross_empty
    assert analysis.is_empty
    assert not analysis.empty_targets  # each individual interval is fine


def test_subsumed_predicate_found():
    weak = CountPredicate("car", ComparisonOperator.AT_LEAST, 1)
    strong = CountPredicate("car", ComparisonOperator.AT_LEAST, 3)
    assert subsumed_predicates([weak, strong]) == [weak]
    # Predicates on different targets never subsume each other.
    other = CountPredicate("person", ComparisonOperator.AT_LEAST, 1)
    assert subsumed_predicates([weak, other]) == []


# ---------------------------------------------------------------------------
# Golden tests: one per QA code
# ---------------------------------------------------------------------------


def test_qa001_contradictory_counts():
    query = (
        QueryBuilder("impossible")
        .count("car").at_least(3)
        .count("car").at_most(1)
        .build()
    )
    report = lint_query(query)
    assert "QA001" in report.codes
    assert report.provably_empty
    assert not report.ok


def test_qa001_cross_target_contradiction():
    query = (
        QueryBuilder("over_capacity")
        .count("car").at_least(3)
        .total_count().at_most(2)
        .build()
    )
    report = lint_query(query)
    assert "QA001" in report.codes
    assert report.provably_empty


def test_qa002_subsumed_count_predicate():
    query = (
        QueryBuilder("redundant")
        .count("car").at_least(1)
        .count("car").at_least(3)
        .build()
    )
    report = lint_query(query)
    assert "QA002" in report.codes
    assert not report.provably_empty
    assert report.ok  # subsumption is a warning, not an error


def test_qa003_unknown_class_needs_vocabulary():
    query = QueryBuilder("typo").count("cra").at_least(1).build()
    context = AnalysisContext(class_names=("car", "person"))
    assert "QA003" in lint_query(query, context).codes
    # Without a vocabulary the check cannot run.
    assert "QA003" not in lint_query(query).codes


def test_qa004_unknown_color():
    query = QueryBuilder("paint").color("car", "chartreuse").build()
    report = lint_query(query)
    assert "QA004" in report.codes
    # A known color passes.
    ok = QueryBuilder("paint").color("car", "red").build()
    assert "QA004" not in lint_query(ok).codes


def test_qa005_window_larger_than_stream():
    query = QueryBuilder("wide").count("car").at_least(1).window(100).build()
    report = lint_query(query, AnalysisContext(num_frames=50))
    assert "QA005" in report.codes


def test_qa006_hopping_gap_without_stream_length():
    query = QueryBuilder("gappy").count("car").at_least(1).window(10, 25).build()
    report = lint_query(query)  # advance > size needs no stream facts
    assert "QA006" in report.codes


def test_qa006_tail_remainder_with_stream_length():
    query = QueryBuilder("tail").count("car").at_least(1).window(20, 20).build()
    report = lint_query(query, AnalysisContext(num_frames=50))
    assert "QA006" in report.codes
    # A stream the windows tile exactly is clean.
    exact = lint_query(query, AnalysisContext(num_frames=60))
    assert "QA006" not in exact.codes


def test_qa007_region_outside_frame():
    offscreen = Region(name="offscreen", box=Box(500.0, 500.0, 600.0, 600.0))
    query = QueryBuilder("nowhere").in_region("car", offscreen).at_least(1).build()
    report = lint_query(query, AnalysisContext(frame_width=448.0, frame_height=448.0))
    assert "QA007" in report.codes
    assert report.provably_empty


def test_qa008_region_demand_exceeds_count_cap():
    lot = Region(name="lot", box=Box(0.0, 0.0, 100.0, 100.0))
    query = (
        QueryBuilder("overfull")
        .in_region("car", lot).at_least(3)
        .count("car").at_most(1)
        .build()
    )
    report = lint_query(query)
    assert "QA008" in report.codes
    assert report.provably_empty


def test_qa009_predicate_needs_zero_forced_class():
    query = (
        QueryBuilder("ghost")
        .count("person").equals(0)
        .spatial("person").left_of("car")
        .build()
    )
    report = lint_query(query)
    assert "QA009" in report.codes
    assert report.provably_empty


def test_qa010_duplicate_predicate():
    query = (
        QueryBuilder("twice")
        .count("car").at_least(1)
        .count("car").at_least(1)
        .build()
    )
    report = lint_query(query)
    assert "QA010" in report.codes
    # The pair is also mutually subsumed.
    assert "QA002" in report.codes


# ---------------------------------------------------------------------------
# Report machinery
# ---------------------------------------------------------------------------


def test_severities_follow_the_registry():
    query = (
        QueryBuilder("mixed")
        .count("car").at_least(3)
        .count("car").at_most(1)
        .build()
    )
    report = lint_query(query)
    assert all(d.severity is Severity.ERROR for d in report.errors)
    assert {d.code for d in report.errors} == {"QA001"}


def test_strict_raises_analysis_error_with_diagnostics():
    query = (
        QueryBuilder("impossible")
        .count("car").at_least(3)
        .count("car").at_most(1)
        .build()
    )
    with pytest.raises(AnalysisError) as excinfo:
        lint_query(query, strict=True)
    assert isinstance(excinfo.value, ValueError)
    assert "QA001" in str(excinfo.value)
    assert any(d.code == "QA001" for d in excinfo.value.diagnostics)


def test_strict_does_not_raise_on_warnings_only():
    query = (
        QueryBuilder("redundant")
        .count("car").at_least(1)
        .count("car").at_least(3)
        .build()
    )
    report = lint_query(query, strict=True)  # QA002 is warning-severity
    assert "QA002" in report.codes


def test_clean_query_reports_nothing():
    query = (
        QueryBuilder("clean")
        .count("car").at_least(1)
        .total_count().at_most(4)
        .build()
    )
    context = AnalysisContext(
        class_names=("car", "person"), frame_width=448.0, frame_height=448.0, num_frames=50
    )
    report = lint_query(query, context, strict=True)
    assert report.codes == ()
    assert report.ok
    assert not report.provably_empty
    assert report.render() == "no findings"


def test_report_render():
    empty = lint_query(
        QueryBuilder("a").count("car").at_least(3).count("car").at_most(1).build()
    )
    assert empty.provably_empty and empty.codes == ("QA001",)
    rendered = empty.render()
    assert "QA001" in rendered and "error" in rendered


def test_context_for_stream_extracts_facts(tiny_jackson):
    context = AnalysisContext.for_stream(tiny_jackson.test)
    assert context.num_frames == len(tiny_jackson.test)
    assert context.class_names is not None
    assert "car" in context.class_names
    assert context.frame_width and context.frame_height
