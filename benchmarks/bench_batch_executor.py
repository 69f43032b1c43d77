"""Batched vs per-frame execution benchmark.

Measures, on pre-rendered frames (so rendering cost cancels out of the
comparison):

* filter throughput — ``predict_batch`` in 16-frame chunks vs the per-frame
  ``predict`` loop for the linear branch filters.  Both run the one tiled
  backbone kernel, so the ratio (per-call overhead amortised over a chunk)
  is reported but not gated;
* executor parity — ``StreamingQueryExecutor`` at chunk size 16 vs chunk
  size 1 (``batch_size=None``) on a planned cascade: identical matched
  frames and identical simulated cost accounting.  Both run the one scan
  loop on ``predict_batch``, so their wall-clock ratio is reported but not
  gated here either.

The per-frame vs batched end-to-end comparison is the perf ledger's
``table3_perframe`` / ``table3_batched`` workload pair.
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_rows, write_bench_json
from repro.experiments.context import get_context
from repro.query import PlannerConfig, QueryBuilder, QueryPlanner, StreamingQueryExecutor

# The executor's usual chunk size; the backbone tiles a chunk internally, so
# cache locality no longer depends on it.
BATCH_SIZE = 16
NUM_FRAMES = 160
ROUNDS = 3


class _CachedStream:
    """Pre-rendered stream stand-in: executor timing without rendering cost."""

    def __init__(self, stream, num_frames: int) -> None:
        count = min(num_frames, len(stream))
        self._frames = [stream.frame(index) for index in range(count)]

    def __len__(self) -> int:
        return len(self._frames)

    def frame(self, index: int):
        return self._frames[index]


def _best_of(rounds, fn):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _predict_chunked(frame_filter, frames):
    for start in range(0, len(frames), BATCH_SIZE):
        frame_filter.predict_batch(frames[start : start + BATCH_SIZE])


def _filter_rows(context, frames):
    rows = []
    for key in ("od", "ic", "od_cof"):
        frame_filter = context.filters[key]
        frame_filter.predict(frames[0])  # warm-up
        _predict_chunked(frame_filter, frames)
        per_frame_s = _best_of(
            ROUNDS, lambda f=frame_filter: [f.predict(frame) for frame in frames]
        )
        batched_s = _best_of(ROUNDS, lambda f=frame_filter: _predict_chunked(f, frames))
        rows.append(
            {
                "filter": frame_filter.name,
                "frames": len(frames),
                "per_frame_fps": round(len(frames) / per_frame_s, 1),
                "batched_fps": round(len(frames) / batched_s, 1),
                "speedup": round(per_frame_s / batched_s, 2),
            }
        )
    return rows


def run(config) -> dict[str, object]:
    context = get_context("jackson", config)
    stream = _CachedStream(context.dataset.test, NUM_FRAMES)
    frames = [stream.frame(index) for index in range(len(stream))]
    filter_rows = _filter_rows(context, frames)

    query = (
        QueryBuilder("bench")
        .count("car").equals(1)
        .count().at_least(1)
        .spatial("car").left_of("person")
        .build()
    )
    planner = QueryPlanner(context.filters, PlannerConfig(count_tolerance=1, location_dilation=1))
    cascade = planner.plan(query)
    executor = StreamingQueryExecutor(context.reference_detector(seed_offset=500))

    sequential = executor.execute(query, stream, cascade)
    sequential_s = _best_of(
        ROUNDS, lambda: executor.execute(query, stream, cascade)
    )
    batched = executor.execute(query, stream, cascade, batch_size=BATCH_SIZE)
    batched_s = _best_of(
        ROUNDS, lambda: executor.execute(query, stream, cascade, batch_size=BATCH_SIZE)
    )
    return {
        "filters": filter_rows,
        "executor": {
            "frames": len(stream),
            "batch_size": BATCH_SIZE,
            "sequential_s": round(sequential_s, 3),
            "batched_s": round(batched_s, 3),
            "speedup": round(sequential_s / batched_s, 2),
            "matches_equal": batched.matched_frames == sequential.matched_frames,
            "calls_equal": (
                batched.stats.simulated_cost.per_component_calls
                == sequential.stats.simulated_cost.per_component_calls
            ),
        },
    }


def format_rows(result: dict[str, object]) -> str:
    lines = [f"{'filter':<22}{'per-frame fps':>14}{'batched fps':>13}{'speedup':>9}"]
    for row in result["filters"]:
        lines.append(
            f"{row['filter']:<22}{row['per_frame_fps']:>14}{row['batched_fps']:>13}"
            f"{row['speedup']:>9}"
        )
    executor = result["executor"]
    lines.append(
        f"executor ({executor['frames']} frames, chunk {executor['batch_size']}): "
        f"sequential {executor['sequential_s']}s -> batched {executor['batched_s']}s "
        f"({executor['speedup']}x), matches_equal={executor['matches_equal']}"
    )
    return "\n".join(lines)


def test_batch_executor_throughput(benchmark, bench_config, pytestconfig):
    result = benchmark.pedantic(run, args=(bench_config,), rounds=1, iterations=1)
    print_rows("Batched filter-cascade execution", format_rows(result))
    write_bench_json(
        pytestconfig,
        "batch_executor",
        params={
            "frames": result["executor"]["frames"],
            "batch_size": result["executor"]["batch_size"],
        },
        wall_seconds=result["executor"]["batched_s"],
        speedup=result["executor"]["speedup"],
    )
    # No speed-up bar on either table: ``predict`` and ``predict_batch`` share
    # one backbone kernel, and chunk size 1 and chunk size 16 are the same scan
    # loop.  The end-to-end per-frame vs batched numbers are tracked by the perf
    # ledger (``table3_perframe`` / ``table3_batched``); this file only pins
    # that the results agree.
    executor = result["executor"]
    assert executor["matches_equal"] and executor["calls_equal"]
