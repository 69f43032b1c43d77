"""Tests for the latency model and simulated clock."""

from __future__ import annotations

import pytest

from repro.cost import (
    IC_BRANCH_MS,
    MASK_RCNN_MS,
    OD_BRANCH_MS,
    YOLO_FULL_MS,
    CostBreakdown,
    SharedCostReport,
    SimulatedClock,
)


def test_paper_latency_constants_ordering():
    # The whole point of the filters: branches are orders of magnitude cheaper
    # than the detectors they guard.
    assert IC_BRANCH_MS < OD_BRANCH_MS < YOLO_FULL_MS < MASK_RCNN_MS
    assert MASK_RCNN_MS / OD_BRANCH_MS > 100


def test_clock_accumulates_by_component():
    clock = SimulatedClock()
    clock.charge("filter", 1.5)
    clock.charge("filter", 1.5)
    clock.charge("detector", 200.0)
    assert clock.elapsed_ms == pytest.approx(203.0)
    assert clock.elapsed_seconds == pytest.approx(0.203)
    assert clock.breakdown.per_component_calls == {"filter": 2, "detector": 1}
    clock.reset()
    assert clock.elapsed_ms == 0.0


def test_clock_rejects_negative_charges():
    clock = SimulatedClock()
    clock.charge("x", 2.0)
    before = clock.snapshot()
    with pytest.raises(ValueError):
        clock.charge("x", -1.0)
    with pytest.raises(ValueError):
        clock.charge("x", 1.0, calls=-1)
    assert clock.snapshot() == before


def test_clock_rejects_non_finite_charges():
    # Non-finite time is refused at the clock, naming the component, not
    # found later in a total.
    clock = SimulatedClock()
    clock.charge("detector", 2.0)
    before = clock.snapshot()
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=r"non-finite time to 'detector': -?(nan|inf)"):
            clock.charge("detector", bad)
    assert clock.snapshot() == before


def test_cost_breakdown_merge():
    a = CostBreakdown(per_component_ms={"f": 10.0}, per_component_calls={"f": 2})
    b = CostBreakdown(per_component_ms={"f": 5.0, "d": 200.0}, per_component_calls={"f": 1, "d": 1})
    merged = a.merged_with(b)
    assert merged.per_component_ms == {"f": 15.0, "d": 200.0}
    assert merged.per_component_calls == {"f": 3, "d": 1}
    assert merged.total_ms == pytest.approx(215.0)
    # merge does not mutate the originals
    assert a.per_component_ms == {"f": 10.0}


def test_clock_snapshot_delta_accounting():
    clock = SimulatedClock()
    clock.charge("filter", 1.5)
    snapshot = clock.snapshot()
    clock.charge("filter", 1.5)
    clock.charge("detector", 200.0)
    delta = clock.delta_since(snapshot)
    assert delta.per_component_ms == {"filter": 1.5, "detector": 200.0}
    assert delta.per_component_calls == {"filter": 1, "detector": 1}
    # The snapshot is frozen: later charges do not leak into it.
    assert snapshot.per_component_calls == {"filter": 1}
    # A snapshot equal to the current state yields an empty delta.
    assert clock.delta_since(clock.snapshot()).total_ms == 0.0
    # Components untouched since the snapshot are absent from the delta.
    later = clock.snapshot()
    clock.charge("filter", 1.5)
    assert "detector" not in clock.delta_since(later).per_component_ms


def test_breakdown_minus_rejects_non_prefix_snapshots():
    clock = SimulatedClock()
    clock.charge("filter", 1.5)
    snapshot = clock.snapshot()
    clock.reset()
    with pytest.raises(ValueError):
        clock.delta_since(snapshot)
    clock.charge("filter", 0.5)
    with pytest.raises(ValueError):
        clock.delta_since(snapshot)


def test_breakdown_copy_is_independent():
    original = CostBreakdown(per_component_ms={"f": 1.0}, per_component_calls={"f": 1})
    copy = original.copy()
    copy.per_component_ms["f"] = 99.0
    copy.per_component_calls["g"] = 7
    assert original.per_component_ms == {"f": 1.0}
    assert original.per_component_calls == {"f": 1}


def test_shared_cost_report_ratios():
    shared = CostBreakdown(per_component_ms={"od_branch": 100.0}, per_component_calls={"od_branch": 50})
    attributed = {
        "q1": CostBreakdown(per_component_ms={"od_branch": 100.0}, per_component_calls={"od_branch": 50}),
        "q2": CostBreakdown(per_component_ms={"od_branch": 100.0}, per_component_calls={"od_branch": 50}),
        "q3": CostBreakdown(per_component_ms={"od_branch": 100.0}, per_component_calls={"od_branch": 50}),
    }
    report = SharedCostReport(shared=shared, attributed=attributed)
    assert report.shared_ms == pytest.approx(100.0)
    assert report.standalone_ms == pytest.approx(300.0)
    assert report.savings_ratio == pytest.approx(3.0)
    # Degenerate cases keep the ratio total.
    empty = SharedCostReport(shared=CostBreakdown())
    assert empty.savings_ratio == 1.0
    free_shared = SharedCostReport(shared=CostBreakdown(), attributed=attributed)
    assert free_shared.savings_ratio == float("inf")
