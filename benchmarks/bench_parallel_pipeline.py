"""Parallel pipelined execution benchmark: the PR's wall-clock win.

One linear-filter workload (planned OD-CCF + OD-COF cascade over a
Jackson-profile stream) runs two ways: the sequential batched path (the
baseline) and the parallel pipelined engine on its thread worker pool.
Output parity is asserted bit for bit on every run; the headline number is
the wall-clock speedup of the pool over the sequential batched path.

The speedup bar (>= 2.5x at 4 workers) is asserted only when the machine
actually has >= 4 usable cores *and* the run uses >= 4 workers: parallel
wall-clock on a single-core container measures scheduler overhead, not the
engine (CI's benchmark job runs on 4-core runners, so the bar is enforced
there; the 2-worker CI smoke only checks parity and emits the JSON).
``PARALLEL_BENCH_WORKERS`` overrides the worker count.

The measurement is persisted to ``BENCH_parallel_pipeline.json`` when
``--json`` is given (schema: ``{name, params, wall_seconds,
simulated_seconds, speedup}``).
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
SPEEDUP_BAR = 2.5


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


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
        QueryBuilder("pipeline")
        .count("car").at_least(1)
        .count().at_most(4)
        .build()
    )
    cascade = planner.plan(query)
    executor = StreamingQueryExecutor(context.reference_detector(seed_offset=800))

    baseline_s, baseline = _best_of(
        ROUNDS, lambda: executor.execute(query, stream, cascade, batch_size=CHUNK)
    )

    parallel = ParallelConfig(num_workers=num_workers)
    wall_s, result = _best_of(
        ROUNDS,
        lambda: executor.execute(query, stream, cascade, batch_size=CHUNK, parallel=parallel),
    )
    return {
        "frames": len(stream),
        "chunk": CHUNK,
        "workers": num_workers,
        "cores": _usable_cores(),
        "cascade": cascade.describe(),
        "baseline_s": round(baseline_s, 3),
        "simulated_s": round(baseline.stats.simulated_seconds, 2),
        "wall_s": round(wall_s, 3),
        "speedup": round(baseline_s / wall_s, 2),
        "parity": result.matched_frames == baseline.matched_frames,
        "calls_equal": (
            result.stats.simulated_cost.per_component_calls
            == baseline.stats.simulated_cost.per_component_calls
        ),
        "workers_used": result.stats.parallel.cost.num_workers,
        "balance": round(result.stats.parallel.cost.balance, 2),
    }


def format_rows(result: dict[str, object]) -> str:
    lines = [
        f"{result['frames']} frames, chunk {result['chunk']}, "
        f"{result['workers']} workers on {result['cores']} cores "
        f"(cascade {result['cascade']})",
        f"sequential batched baseline: {result['baseline_s']}s wall "
        f"({result['simulated_s']}s simulated)",
        f"parallel: {result['wall_s']}s wall ({result['speedup']}x), "
        f"parity={result['parity']}, calls_equal={result['calls_equal']}, "
        f"{result['workers_used']} workers, balance {result['balance']}",
    ]
    return "\n".join(lines)


def test_parallel_pipeline(benchmark, bench_config, pytestconfig):
    num_workers = int(os.environ.get("PARALLEL_BENCH_WORKERS", "4"))
    result = benchmark.pedantic(
        run, args=(bench_config, num_workers), rounds=1, iterations=1
    )
    print_rows("Parallel pipelined execution", format_rows(result))
    write_bench_json(
        pytestconfig,
        "parallel_pipeline",
        params={
            "frames": result["frames"],
            "chunk": result["chunk"],
            "workers": result["workers"],
            "cores": result["cores"],
            "baseline_wall_seconds": result["baseline_s"],
        },
        wall_seconds=result["wall_s"],
        simulated_seconds=result["simulated_s"],
        speedup=result["speedup"],
    )
    # Output is bit-identical to the sequential batched path regardless of
    # the machine.
    assert result["parity"], result
    assert result["calls_equal"], result
    # The wall-clock bar only means something with real cores behind the
    # workers (see module docstring).
    if result["cores"] >= 4 and result["workers"] >= 4:
        assert result["speedup"] >= SPEEDUP_BAR, result
