"""Sanitizer overhead benchmark: instrumented vs clean parallel wall-clock.

The sanitizers' design promise is *zero overhead when off* (every site reads the
``hooks.sanitizer`` slot behind an ``is not None`` guard — INV007) and
tolerable overhead when on (lockset bookkeeping per critical section, a
finiteness scan per layer output).  This benchmark measures both sides on
the same 2-worker thread-pool workload as the parallel pipeline
benchmark: a clean run (``sanitize=None``), a fully instrumented run
(``sanitize="race,numeric"``), and their ratio — asserting output parity
across all runs on every round.

The headline JSON (``BENCH_sanitizer_overhead.json``) reports the
instrumented wall-clock; ``params.overhead_ratio`` carries instrumented /
clean.  The ratio is *informational* on shared CI runners (wall-clock noise
at sub-second scales dwarfs the hook cost); the hard gates are the parity
asserts and the bound that instrumented runs finish at all without findings.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import print_rows, write_bench_json
from repro.query import (
    ParallelConfig,
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
)

CHUNK = 16
ROUNDS = 3
SANITIZE = "race,numeric"


def _best_of(rounds, fn):
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def run(config, num_workers: int) -> dict[str, object]:
    from repro.experiments.context import get_context

    context = get_context("jackson", config)
    stream = context.dataset.test
    planner = QueryPlanner(
        context.filters, PlannerConfig(count_tolerance=1, location_dilation=1)
    )
    query = (
        QueryBuilder("sanitizer_overhead")
        .count("car").at_least(1)
        .count().at_most(4)
        .build()
    )
    cascade = planner.plan(query)
    executor = StreamingQueryExecutor(context.reference_detector(seed_offset=900))

    def parallel_config(sanitize):
        return ParallelConfig(num_workers=num_workers, sanitize=sanitize)

    clean_s, clean = _best_of(
        ROUNDS,
        lambda: executor.execute(
            query, stream, cascade, batch_size=CHUNK, parallel=parallel_config(None)
        ),
    )
    instrumented_s, instrumented = _best_of(
        ROUNDS,
        lambda: executor.execute(
            query, stream, cascade, batch_size=CHUNK, parallel=parallel_config(SANITIZE)
        ),
    )
    report = instrumented.stats.sanitizer_report
    return {
        "frames": len(stream),
        "chunk": CHUNK,
        "workers": num_workers,
        "sanitize": SANITIZE,
        "clean_s": round(clean_s, 3),
        "instrumented_s": round(instrumented_s, 3),
        "overhead_ratio": round(instrumented_s / clean_s, 2) if clean_s > 0 else None,
        "parity": instrumented.matched_frames == clean.matched_frames,
        "calls_equal": (
            instrumented.stats.simulated_cost.per_component_calls
            == clean.stats.simulated_cost.per_component_calls
        ),
        "findings": list(report.codes) if report is not None else None,
        "clean_report_absent": clean.stats.sanitizer_report is None,
    }


def format_rows(result: dict[str, object]) -> str:
    return "\n".join(
        [
            f"{result['frames']} frames, chunk {result['chunk']}, "
            f"{result['workers']} workers, sanitize={result['sanitize']}",
            f"clean:        {result['clean_s']}s wall",
            f"instrumented: {result['instrumented_s']}s wall "
            f"({result['overhead_ratio']}x)",
            f"parity={result['parity']}, calls_equal={result['calls_equal']}, "
            f"findings={result['findings']}",
        ]
    )


def test_sanitizer_overhead(benchmark, bench_config, pytestconfig):
    num_workers = int(os.environ.get("PARALLEL_BENCH_WORKERS", "2"))
    result = benchmark.pedantic(
        run, args=(bench_config, num_workers), rounds=1, iterations=1
    )
    print_rows("Sanitizer overhead", format_rows(result))
    write_bench_json(
        pytestconfig,
        "sanitizer_overhead",
        params={
            "frames": result["frames"],
            "chunk": result["chunk"],
            "workers": result["workers"],
            "sanitize": result["sanitize"],
            "clean_wall_seconds": result["clean_s"],
            "overhead_ratio": result["overhead_ratio"],
        },
        wall_seconds=result["instrumented_s"],
        simulated_seconds=None,
        speedup=None,
    )
    # Hard gates: the instrumented scan finds nothing on the honest engine,
    # produces bit-identical output, and sanitize=None attaches no report.
    assert result["parity"] and result["calls_equal"]
    assert result["findings"] == []
    assert result["clean_report_absent"]
