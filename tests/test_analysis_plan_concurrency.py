"""Plan-level (PL0xx) analyzer tests, and planned checks under worker cloning.

The PL tests drive the real planner over trained filters so the dead/dup
detection is exercised against genuine ``CountCheck`` steps.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest

from repro.analysis import (
    AnalysisError,
    Severity,
    lint_plan,
    optimize_cascade,
    short_circuit_diagnostic,
)
from repro.query import (
    CascadeStep,
    FilterCascade,
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
)


@pytest.fixture(scope="module")
def filters(trained_od_filter, trained_od_cof):
    return {"od": trained_od_filter, "od_cof": trained_od_cof}


@pytest.fixture(scope="module")
def planner(filters):
    return QueryPlanner(filters, PlannerConfig(count_tolerance=1, location_dilation=1))


# ---------------------------------------------------------------------------
# PL001 / PL002 / PL003 golden tests
# ---------------------------------------------------------------------------


def test_pl001_duplicate_step(planner):
    query = QueryBuilder("dup").total_count().at_most(4).build()
    cascade = planner.plan(query, analyze=False)
    doubled = replace(cascade, steps=cascade.steps + cascade.steps)
    report = lint_plan(doubled)
    assert "PL001" in report.codes
    optimized, _ = optimize_cascade(doubled)
    assert len(optimized) == len(cascade)


def test_pl002_dead_step_at_tolerance(planner):
    # COUNT(car) >= 1 at tolerance 1 widens to predicted >= 0: always true.
    query = QueryBuilder("dead").count("car").at_least(1).build()
    cascade = planner.plan(query, analyze=False)
    report = lint_plan(cascade)
    assert "PL002" in report.codes
    assert all(d.severity is Severity.WARNING for d in report.diagnostics)


def test_pl002_not_flagged_at_zero_tolerance(filters):
    planner = QueryPlanner(filters, PlannerConfig(count_tolerance=0))
    query = QueryBuilder("live").count("car").at_least(1).build()
    cascade = planner.plan(query, analyze=False)
    assert "PL002" not in lint_plan(cascade).codes


def test_optimize_drops_dead_step_but_keeps_live_one(planner):
    query = (
        QueryBuilder("mixed")
        .count("car").at_least(1)   # dead at tolerance 1
        .total_count().at_most(4)   # AT_MOST can always reject
        .build()
    )
    raw = planner.plan(query, analyze=False)
    assert len(raw) == 2
    optimized, report = optimize_cascade(raw)
    assert "PL002" in report.codes
    assert len(optimized) == 1
    assert "COF" in optimized.steps[0].name  # the live total-count step


def test_optimize_never_empties_a_cascade(planner):
    # Every step is dead; the anchor rail keeps one so primary_filter works.
    query = QueryBuilder("all_dead").count("car").at_least(1).build()
    raw = planner.plan(query, analyze=False)
    optimized, report = optimize_cascade(raw)
    assert "PL002" in report.codes
    assert len(optimized) == 1
    assert optimized.primary_filter is not None


def test_hand_built_steps_are_never_touched(trained_od_filter):
    # No signature -> opaque: the analyzer must not reason about the lambda.
    cascade = FilterCascade(
        steps=[
            CascadeStep(
                name="opaque",
                frame_filter=trained_od_filter,
                check=lambda prediction: True,
            )
        ]
        * 2
    )
    report = lint_plan(cascade)
    assert report.codes == ()
    optimized, _ = optimize_cascade(cascade)
    assert len(optimized) == 2


def test_pl003_short_circuit_plan(planner):
    query = (
        QueryBuilder("impossible")
        .count("car").at_least(3)
        .count("car").at_most(1)
        .build()
    )
    cascade = planner.plan(query)
    assert cascade.provably_empty
    assert len(cascade) == 0
    assert cascade.describe() == "(provably empty)"
    codes = [d.code for d in cascade.diagnostics]
    assert "QA001" in codes and "PL003" in codes


def test_short_circuit_diagnostic_record():
    record = short_circuit_diagnostic("impossible")
    assert record.code == "PL003"
    assert record.severity is Severity.INFO
    assert "impossible" in record.message


def test_plan_strict_raises_on_contradiction(planner):
    query = (
        QueryBuilder("impossible")
        .count("car").at_least(3)
        .count("car").at_most(1)
        .build()
    )
    with pytest.raises(AnalysisError, match="QA001"):
        planner.plan(query, strict=True)


def test_plan_attaches_diagnostics_on_live_queries(planner):
    query = (
        QueryBuilder("mixed")
        .count("car").at_least(1)
        .total_count().at_most(4)
        .build()
    )
    cascade = planner.plan(query)
    assert not cascade.provably_empty
    assert "PL002" in [d.code for d in cascade.diagnostics]


# ---------------------------------------------------------------------------
# Planned checks under worker cloning
# ---------------------------------------------------------------------------


def test_planner_built_cascade_is_worker_safe(planner):
    """Every filter worker thread runs a deep copy of the cascade; planned
    checks are frozen values, so each copy decides exactly as the original."""
    query = (
        QueryBuilder("mixed")
        .count("car").at_least(1)
        .total_count().at_most(4)
        .spatial("car").left_of("person")
        .build()
    )
    cascade = planner.plan(query)
    clone = copy.deepcopy(cascade)
    assert len(cascade.steps) >= 2
    for original, copied in zip(cascade.steps, clone.steps):
        assert copied.check is not original.check
        assert copied.check == original.check
        assert copied.signature == original.signature
