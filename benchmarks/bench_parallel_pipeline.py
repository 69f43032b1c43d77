"""Parallel pipelined execution benchmark: the PR's wall-clock win.

One linear-filter workload (planned OD-CCF + OD-COF cascade over a
Jackson-profile stream) runs three ways: the sequential batched path (the
PR-1 engine, the baseline), and the parallel pipelined engine on the thread
and process backends.  Output parity is asserted bit for bit on every run;
the headline number is the wall-clock speedup of the best backend over the
sequential batched path.

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

    backends = {}
    for backend in ("thread", "process"):
        parallel = ParallelConfig(
            num_workers=num_workers,
            backend=backend,
            chunk_size=CHUNK,
        )
        wall_s, result = _best_of(
            ROUNDS,
            lambda p=parallel: executor.execute(query, stream, cascade, parallel=p),
        )
        backends[backend] = {
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

    best_backend = max(backends, key=lambda name: backends[name]["speedup"])
    return {
        "frames": len(stream),
        "chunk": CHUNK,
        "workers": num_workers,
        "cores": _usable_cores(),
        "cascade": cascade.describe(),
        "baseline_s": round(baseline_s, 3),
        "simulated_s": round(baseline.stats.simulated_seconds, 2),
        "backends": backends,
        "best_backend": best_backend,
        "best_speedup": backends[best_backend]["speedup"],
        "best_wall_s": backends[best_backend]["wall_s"],
    }


def format_rows(result: dict[str, object]) -> str:
    lines = [
        f"{result['frames']} frames, chunk {result['chunk']}, "
        f"{result['workers']} workers on {result['cores']} cores "
        f"(cascade {result['cascade']})",
        f"sequential batched baseline: {result['baseline_s']}s wall "
        f"({result['simulated_s']}s simulated)",
    ]
    for backend, row in result["backends"].items():
        lines.append(
            f"{backend:>8}: {row['wall_s']}s wall ({row['speedup']}x), "
            f"parity={row['parity']}, calls_equal={row['calls_equal']}, "
            f"{row['workers_used']} workers, balance {row['balance']}"
        )
    lines.append(
        f"best: {result['best_backend']} at {result['best_speedup']}x"
    )
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
            "backend": result["best_backend"],
            "baseline_wall_seconds": result["baseline_s"],
        },
        wall_seconds=result["best_wall_s"],
        simulated_seconds=result["simulated_s"],
        speedup=result["best_speedup"],
    )
    # Output is bit-identical to the sequential batched path on both backends,
    # regardless of the machine.
    for backend, row in result["backends"].items():
        assert row["parity"], (backend, row)
        assert row["calls_equal"], (backend, row)
    # The wall-clock bar only means something with real cores behind the
    # workers (see module docstring).
    if result["cores"] >= 4 and result["workers"] >= 4:
        assert result["best_speedup"] >= SPEEDUP_BAR, result
