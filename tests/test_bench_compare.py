"""The parent-vs-change comparison table and its verdicts, on canned runs."""

from __future__ import annotations

import importlib.util
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"

SPEC = {
    "end_to_end": [
        {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(frames, setup, failed=0, attempted=10):
    return [
        {
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "frames_per_s": {"value": f, "unit": "1/s"},
                "setup_s": {"value": s, "unit": "s"},
            },
        }
        for f, s in zip(frames, setup)
    ]


PARENT = [0.394, 0.398, 0.396, 0.401, 0.392, 0.399, 0.395, 0.397, 0.393, 0.400]
CHANGE = [0.267, 0.260, 0.279, 0.262, 0.271, 0.265, 0.268, 0.263, 0.270, 0.266]


def test_a_gain_over_ten_pairs_beyond_the_parents_iqr_reads_better(tool):
    row = tool.compare_metric("setup_s", "lower", 0.25, PARENT, CHANGE)
    first, _, third = statistics.quantiles(PARENT, n=4)
    assert row.spread == pytest.approx((third - first) / statistics.median(PARENT))
    assert row.worse == pytest.approx(
        (statistics.median(CHANGE) - statistics.median(PARENT)) / statistics.median(PARENT)
    )
    assert (row.wins, row.verdict) == (10, "better")


def test_a_gain_needs_ten_pairs_and_nine_tenths_of_them(tool):
    # The same clear gain over three pairs cannot resolve.
    row = tool.compare_metric("setup_s", "lower", 0.25, PARENT[:3], CHANGE[:3])
    assert (row.wins, row.verdict) == (3, "unresolved")
    # Ten pairs, but the change wins only eight of them.
    change = CHANGE[:8] + [0.45, 0.46]
    row = tool.compare_metric("setup_s", "lower", 0.25, PARENT, change)
    assert (row.wins, row.verdict) == (8, "unresolved")
    # Nine wins of ten resolve.
    change = CHANGE[:9] + [0.45]
    assert tool.compare_metric("setup_s", "lower", 0.25, PARENT, change).verdict == "better"


def test_direction_follows_the_metric(tool):
    # frames/s is higher-is-better: a higher change median is a gain.
    parent = [600 + 5 * i for i in range(10)]
    row = tool.compare_metric("frames_per_s", "higher", 0.25, parent, [p + 100 for p in parent])
    assert row.worse == pytest.approx(-100 / statistics.median(parent))
    assert (row.wins, row.verdict) == (10, "better")
    row = tool.compare_metric("frames_per_s", "higher", 0.25, parent, [p - 40 for p in parent])
    assert row.worse == pytest.approx(40 / statistics.median(parent))
    assert (row.wins, row.verdict) == (0, "worse")


def test_a_difference_inside_the_iqr_is_unresolved(tool):
    parent = [0.30, 0.40, 0.50] * 3 + [0.40]
    change = [0.42, 0.38, 0.41] * 3 + [0.41]
    row = tool.compare_metric("setup_s", "lower", 0.25, parent, change)
    first, _, third = statistics.quantiles(parent, n=4)
    assert row.spread == pytest.approx((third - first) / 0.4)
    assert (row.wins, row.verdict) == (6, "unresolved")


def test_worse_past_the_bound_fails_the_comparison(tool):
    runs = {
        "w": {
            "parent": _runs([600, 610, 620], [0.40, 0.40, 0.41]),
            "change": _runs([600, 612, 618], [0.55, 0.52, 0.53]),
        }
    }
    lines, ok = tool.compare(SPEC, runs)
    assert not ok
    assert lines == [
        "`w` (3 pairs): frames_per_s parent 600 610 620 (median 610) vs change 600 612 618 "
        "(median 612), worse by -0.003 against parent spread 0.033, "
        "change wins 1/3: unresolved; setup_s parent 0.40 0.40 0.41 (median 0.40) vs change "
        "0.55 0.52 0.53 (median 0.53), worse by +0.325 against parent spread 0.025, "
        "change wins 0/3: WORSE past bound"
    ]


def test_flat_runs_pass_and_rising_failures_or_nulls_fail(tool):
    parent = _runs([600, 610], [0.40, 0.41])
    flat = _runs([605, 608], [0.40, 0.41])
    lines, ok = tool.compare(SPEC, {"w": {"parent": parent, "change": flat}})
    assert ok and "unresolved" in lines[0]

    failing = _runs([605, 608], [0.40, 0.41], failed=1)
    lines, ok = tool.compare(SPEC, {"w": {"parent": parent, "change": failing}})
    assert not ok and "failed operations rose from 0.000 to 0.100" in lines[0]

    nulled = _runs([605, 608], [0.40, 0.41])
    nulled[1]["metrics"]["setup_s"]["value"] = None
    lines, ok = tool.compare(SPEC, {"w": {"parent": parent, "change": nulled}})
    assert not ok and "setup_s null in the change" in lines[0]


def test_repeated_workload_flags_accumulate_once_each_in_order(tool):
    names = ["a", "b", "c"]
    args = tool.parse_args(["--parent", "HEAD", "--workload", "b", "--workload", "a", "b"], names)
    assert (args.parent, args.pairs, args.workload) == ("HEAD", tool.MIN_PAIRS, ["b", "a"])
    assert tool.parse_args(["--parent", "HEAD"], names).workload == names
    with pytest.raises(SystemExit):
        tool.parse_args(["--parent", "HEAD", "--workload", "d"], names)
    with pytest.raises(SystemExit):
        tool.parse_args(["--parent", "HEAD", "--pairs", "1"], names)
