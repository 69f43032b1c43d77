"""Run the ledger's full workload set K times in fresh processes.

    python3 benchmarks/ledger/repeat.py --sets K [--seed N] [--same-seed]
        [--seconds S] [--workload NAME ...]

Prints, per workload and end-to-end metric, min / median / max over the K
runs and the spread (distance between the first and third quartile as a
share of the median, ``statistics.quantiles(values, n=4)``) against the
metric's bound in ``BENCHMARK.json``.  By default set ``i`` runs with seed
``N + i``, as the acceptance procedure does; ``--same-seed`` repeats one seed
to separate run-to-run noise from input variation.  A spread within a third
of the bound reads ``steady``, within the bound ``ok``, beyond it ``WIDE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    """One fresh-process untraced run: its final JSON object and wall seconds."""
    started = time.perf_counter()
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    elapsed = time.perf_counter() - started
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, required=True, help="runs per workload (>= 2)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)
    if args.sets < 2:
        parser.error("--sets must be at least 2: a spread needs two runs")

    values: dict[tuple[str, str], list[float]] = {}
    run_seconds: list[float] = []
    failed = 0
    for index in range(args.sets):
        seed = args.seed if args.same_seed else args.seed + index
        for workload in args.workload:
            result, elapsed = run_once(workload, seed, args.seconds)
            run_seconds.append(elapsed)
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
            print(
                f"set {index} seed {seed} {workload}: {elapsed:.1f} s, "
                f"{result['failed']} of {result['attempted']} operations failed",
                flush=True,
            )

    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    print(f"\n{'workload':<20}{'metric':<20}{'min':>11}{'median':>11}{'max':>11}"
          f"{'spread':>9}{'bound':>7}")
    for (workload, metric), series in values.items():
        share = spread(series)
        bound = bounds[metric]
        verdict = "steady" if share <= bound / 3 else "ok" if share <= bound else "WIDE"
        print(
            f"{workload:<20}{metric:<20}{min(series):>11.4g}{statistics.median(series):>11.4g}"
            f"{max(series):>11.4g}{share:>9.3f}{bound:>7.2f}  {verdict}"
        )
        print(f"{'':<40}{' '.join(f'{value:.4g}' for value in series)}")
    print(
        f"\n{len(run_seconds)} runs, {sum(run_seconds):.0f} s in all, "
        f"longest {max(run_seconds):.1f} s, {failed} failed operations"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
