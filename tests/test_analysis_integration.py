"""End-to-end analyzer integration: parser spans, plan-time linting, the
provably-empty zero-frame short circuit and elimination parity.

The headline guarantees under test:

* a provably-contradictory query executes with ZERO frames rendered (counted
  by wrapping ``stream.frame``), alone and inside ``execute_many``;
* analyzer-driven step elimination is invisible in the results — the
  optimized plan matches the raw ``analyze=False`` plan frame for frame.
"""

from __future__ import annotations

import warnings

import pytest

from repro.aggregates.windows import HoppingWindow
from repro.detection import ReferenceDetector
from repro.query import (
    ParseError,
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    parse_query,
)
from repro.query.diagnostics import AnalysisError, WindowTailDropWarning


@pytest.fixture(scope="module")
def planner(trained_od_filter, trained_od_cof):
    filters = {"od": trained_od_filter, "od_cof": trained_od_cof}
    return QueryPlanner(filters, PlannerConfig(count_tolerance=1, location_dilation=1))


@pytest.fixture(scope="module")
def executor(tiny_jackson):
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=77)
    return StreamingQueryExecutor(detector)


def impossible_query(name="impossible"):
    return (
        QueryBuilder(name)
        .count("car").at_least(3)
        .count("car").at_most(1)
        .build()
    )


def live_query(name="live"):
    return (
        QueryBuilder(name)
        .count("car").at_least(1)
        .total_count().at_most(4)
        .build()
    )


@pytest.fixture
def render_counter(tiny_jackson, monkeypatch):
    """Counts every ``stream.frame`` call on the shared test stream."""
    stream = tiny_jackson.test
    rendered = []
    original = stream.frame

    def counting_frame(index):
        rendered.append(index)
        return original(index)

    monkeypatch.setattr(stream, "frame", counting_frame)
    return rendered


# ---------------------------------------------------------------------------
# Parser spans and syntax strictness
# ---------------------------------------------------------------------------


def test_parsed_predicates_carry_spans():
    query = parse_query(
        """
        SELECT cameraID, frameID
        FROM (PROCESS inputVideo PRODUCE cameraID, frameID, vehBox1 USING VehDetector)
        WHERE COUNT(car) >= 2 AND COUNT(*) <= 4
        """
    )
    assert query.source is not None
    assert len(query.predicates) == 2
    for predicate in query.predicates:
        assert predicate.span is not None
        excerpt = predicate.span.excerpt(query.source)
        assert "COUNT" in excerpt.upper()


def test_parser_rejects_trailing_garbage():
    with pytest.raises(ParseError, match="unexpected text"):
        parse_query(
            "SELECT cameraID, frameID "
            "FROM (PROCESS inputVideo PRODUCE cameraID, frameID, vehBox1 USING VehDetector) "
            "WHERE COUNT(car) >= 1 banana"
        )


def test_parser_rejects_duplicate_window_clause():
    with pytest.raises(ParseError, match="duplicate WINDOW"):
        parse_query(
            "SELECT cameraID, frameID "
            "FROM (PROCESS inputVideo PRODUCE cameraID, frameID, vehBox1 USING VehDetector) "
            "WINDOW HOPPING (SIZE 10, ADVANCE BY 10) "
            "WINDOW HOPPING (SIZE 20, ADVANCE BY 20) "
            "WHERE COUNT(car) >= 1"
        )


# ---------------------------------------------------------------------------
# Window tail-drop runtime warning (QA006's runtime counterpart)
# ---------------------------------------------------------------------------


def test_hopping_window_warns_on_tail_drop():
    window = HoppingWindow(size=20, advance=20)
    with pytest.warns(WindowTailDropWarning, match=r"trailing 10 frame"):
        bounds = list(window.windows_over(50))
    assert [(b.start, b.stop) for b in bounds] == [(0, 20), (20, 40)]


def test_hopping_window_silent_when_partial_included():
    window = HoppingWindow(size=20, advance=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", WindowTailDropWarning)
        full = list(window.windows_over(50, include_partial=True))
        exact = list(window.windows_over(40))
    assert len(full) == 3  # the trailing [40, 50) partial window is kept
    assert len(exact) == 2


# ---------------------------------------------------------------------------
# Provably-empty short circuit: zero frames rendered
# ---------------------------------------------------------------------------


def test_provably_empty_query_renders_zero_frames(
    planner, executor, tiny_jackson, render_counter
):
    query = impossible_query()
    cascade = planner.plan(query)
    assert cascade.provably_empty

    result = executor.execute(query, tiny_jackson.test, cascade)

    assert render_counter == []
    assert result.matched_frames == ()
    assert result.stats.frames_scanned == 0
    assert result.stats.detector_invocations == 0
    assert result.stats.filter_invocations == 0


def test_provably_empty_windowed_query_reports_empty_windows(
    planner, executor, tiny_jackson, render_counter
):
    query = (
        QueryBuilder("impossible_windowed")
        .count("car").at_least(3)
        .count("car").at_most(1)
        .window(10)
        .build()
    )
    cascade = planner.plan(query)
    result = executor.execute(query, tiny_jackson.test, cascade)

    assert render_counter == []
    assert result.windows is not None
    assert len(result.windows) == 5  # 50 frames / size 10
    assert all(window.num_matches == 0 for window in result.windows)


def test_execute_many_skips_only_the_empty_query(
    planner, executor, tiny_jackson, render_counter
):
    empty, live = impossible_query(), live_query()
    cascades = [planner.plan(q) for q in (empty, live)]

    solo = executor.execute(live, tiny_jackson.test, cascades[1])
    render_counter.clear()
    multi = executor.execute_many([empty, live], tiny_jackson.test, cascades)

    empty_result = next(r for r in multi if r.query_name == "impossible")
    live_result = next(r for r in multi if r.query_name == "live")
    assert empty_result.matched_frames == ()
    assert empty_result.stats.frames_scanned == 0
    assert live_result.matched_frames == solo.matched_frames
    # The shared scan decodes each frame for the live query only, once.
    assert len(render_counter) == len(tiny_jackson.test)


def test_execute_strict_raises_before_rendering(
    planner, executor, tiny_jackson, render_counter
):
    """A strict plan is the scan's lint: it raises before anything renders."""
    query = impossible_query()
    with pytest.raises(AnalysisError, match="QA001"):
        executor.execute(query, tiny_jackson.test, planner.plan(query, strict=True))
    assert render_counter == []


# ---------------------------------------------------------------------------
# Elimination parity: the optimized plan is invisible in the results
# ---------------------------------------------------------------------------


def test_eliminated_plan_matches_raw_plan(planner, executor, tiny_jackson):
    query = live_query("parity")
    raw = planner.plan(query, analyze=False)
    optimized = planner.plan(query)
    assert len(optimized) < len(raw)  # the dead CCF-1 step is gone

    raw_result = executor.execute(query, tiny_jackson.test, raw)
    opt_result = executor.execute(query, tiny_jackson.test, optimized)

    assert opt_result.matched_frames == raw_result.matched_frames
    assert opt_result.stats.frames_scanned == raw_result.stats.frames_scanned
    assert opt_result.stats.detector_invocations == raw_result.stats.detector_invocations
    assert opt_result.stats.filter_invocations < raw_result.stats.filter_invocations


def test_eliminated_windowed_plan_matches_raw_plan(planner, executor, tiny_jackson):
    query = (
        QueryBuilder("parity_windowed")
        .count("car").at_least(1)
        .total_count().at_most(4)
        .window(10)
        .build()
    )
    raw_result = executor.execute(
        query, tiny_jackson.test, planner.plan(query, analyze=False)
    )
    opt_result = executor.execute(query, tiny_jackson.test, planner.plan(query))

    assert opt_result.matched_frames == raw_result.matched_frames
    assert [w.bounds for w in opt_result.windows] == [w.bounds for w in raw_result.windows]
    assert [w.num_matches for w in opt_result.windows] == [
        w.num_matches for w in raw_result.windows
    ]
