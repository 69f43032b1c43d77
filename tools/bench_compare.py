"""Compare a parent revision with the working tree on the perf ledger.

    python tools/bench_compare.py --parent <rev> [--pairs K] [--workload NAME ...]

The committed tree of ``<rev>`` is exported into a temporary directory with
``git archive`` (the files a benchmark of that commit would see), and
``benchmarks/ledger/run.py --trace 0`` runs in it and in this working tree in
alternating pairs, each run a fresh process of ``BENCHMARK.json``'s
``run_seconds``: pair ``i`` runs seed ``1 + i`` on both sides, and which side
goes first alternates from pair to pair.

For each workload and end-to-end metric of ``BENCHMARK.json`` the output
lists every run in run order, the two medians, ``worse by`` (the relative
change of the median, positive = worse), the parent's spread (its IQR over
its median, as ``benchmarks/ledger/repeat.py`` computes it), how many pairs
the change wins, and a verdict, by the benchmark's rule for a gain:

* ``better`` / ``worse``: at least 10 pairs, the change wins (or loses) at
  least nine tenths of them, and the medians differ by more than the
  parent's spread;
* ``unresolved``: anything short of that, so the runs cannot tell;
* ``WORSE past bound``: worse by more than the metric's bound, at any count.

Each workload prints as one line, the form CHANGES.md records.  The exit
status is 1 when a metric is worse past its bound, when the change reports
null for a metric the parent measured, or when the change fails a larger
share of its operations than the parent; 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path("benchmarks") / "ledger" / "run.py"
# The ledger directory is not a package; its IQR-over-median rule is reused.
sys.path.insert(0, str(ROOT / LEDGER.parent))
spread = importlib.import_module("repeat").spread

# A gain reads ``better`` from 10 pairs on, won in at least nine tenths.
MIN_PAIRS = 10


class Row(NamedTuple):
    """One workload x metric comparison over paired runs."""

    metric: str
    parent: list[float]
    change: list[float]
    worse: float
    spread: float
    wins: int
    verdict: str


def compare_metric(
    metric: str, better: str, bound: float, parent: list[float], change: list[float]
) -> Row:
    """The verdict on one metric from paired runs (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "lower" else -1.0
    parent_median = statistics.median(parent)
    worse = sign * (statistics.median(change) - parent_median) / parent_median
    iqr = spread(parent)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    resolved = len(parent) >= MIN_PAIRS and abs(worse) > iqr
    if worse > bound:
        verdict = "WORSE past bound"
    elif resolved and worse < 0 and 10 * wins >= 9 * len(parent):
        verdict = "better"
    elif resolved and worse > 0 and 10 * losses >= 9 * len(parent):
        verdict = "worse"
    else:
        verdict = "unresolved"
    return Row(metric, list(parent), list(change), worse, iqr, wins, verdict)


def _shown(value: float) -> str:
    digits = 0 if abs(value) >= 100 else 1 if abs(value) >= 10 else 2
    return f"{value:.{digits}f}"


def format_workload(workload: str, pairs: int, rows: list[Row], notes: list[str]) -> str:
    """One workload's comparison as a single line."""
    parts = []
    for row in rows:
        parent = " ".join(_shown(value) for value in row.parent)
        change = " ".join(_shown(value) for value in row.change)
        parts.append(
            f"{row.metric} parent {parent} (median {_shown(statistics.median(row.parent))}) "
            f"vs change {change} (median {_shown(statistics.median(row.change))}), "
            f"worse by {row.worse:+.3f} against parent spread {row.spread:.3f}, "
            f"change wins {row.wins}/{len(row.parent)}: {row.verdict}"
        )
    parts.extend(notes)
    return f"`{workload}` ({pairs} pairs): " + "; ".join(parts)


def compare(spec: dict, runs: dict[str, dict[str, list[dict]]]) -> tuple[list[str], bool]:
    """The printed lines and the pass/fail decision for a set of paired runs.

    ``runs`` maps a workload to ``{"parent": [...], "change": [...]}``, each
    a list of the final JSON objects ``run.py`` prints, pair by pair.
    """
    lines = []
    ok = True
    for workload, sides in runs.items():
        rows, notes = [], []
        for entry in spec["end_to_end"]:
            name = entry["name"]
            parent = [run["metrics"][name]["value"] for run in sides["parent"]]
            change = [run["metrics"][name]["value"] for run in sides["change"]]
            if None in parent:
                notes.append(f"{name} null in the parent")
                continue
            if None in change:
                notes.append(f"{name} null in the change")
                ok = False
                continue
            row = compare_metric(name, entry["better"], entry["bound"], parent, change)
            ok = ok and row.verdict != "WORSE past bound"
            rows.append(row)
        shares = {
            side: sum(run["failed"] for run in sides[side])
            / max(sum(run["attempted"] for run in sides[side]), 1)
            for side in ("parent", "change")
        }
        if shares["change"] > shares["parent"]:
            notes.append(
                f"failed operations rose from {shares['parent']:.3f} to {shares['change']:.3f}"
            )
            ok = False
        lines.append(format_workload(workload, len(sides["parent"]), rows, notes))
    return lines, ok


def _run_ledger(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(LEDGER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _export(rev: str, into: Path) -> str:
    """Write the committed tree of ``rev`` under ``into``; return its short hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return commit


def parse_args(argv: list[str] | None, names: list[str]) -> argparse.Namespace:
    """The command line; repeated ``--workload`` flags accumulate, in order,
    each workload once (every workload when none is named)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--workload", nargs="+", action="extend", choices=names)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: a spread needs two runs")
    args.workload = list(dict.fromkeys(args.workload or names))
    return args


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    args = parse_args(argv, [entry["name"] for entry in spec["workloads"]])
    seconds = float(spec["run_seconds"])

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as scratch:
        parent_tree = Path(scratch)
        commit = _export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        runs = {name: {"parent": [], "change": []} for name in args.workload}
        for pair in range(args.pairs):
            seed = 1 + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in args.workload:
                for side in order:
                    result = _run_ledger(trees[side], workload, seed, seconds)
                    runs[workload][side].append(result)
                    print(
                        f"pair {pair} seed {seed} {workload} {side}: "
                        f"{result['failed']} of {result['attempted']} operations failed",
                        file=sys.stderr, flush=True,
                    )

    lines, ok = compare(spec, runs)
    print(f"parent {commit} vs working tree, {args.pairs} alternating pairs, seeds "
          f"1-{args.pairs}, --trace 0:")
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
