"""Windowed + aggregate execution benchmark (the unified execution path).

Demonstrates the two halves of the windowed/aggregate engine end to end:

* a ``WINDOW HOPPING`` query — written with the clause on *either* side of
  ``WHERE`` — parses, plans and executes through
  ``StreamingQueryExecutor``, producing per-window match sets whose union
  equals the un-windowed answer on the same frames, with every frame
  filtered once despite the 2x window overlap;
* ``execute_aggregate`` reproduces the single-batch sampler oracle's
  control-variate numbers exactly on the same sample (same seed, same
  estimates) while the sample runs through the scan: vectorized
  ``predict_batch`` calls over chunks of sampled frames instead of
  per-frame ``predict`` calls.
"""

from __future__ import annotations

import math
from dataclasses import replace

from benchmarks.conftest import bench_wall_seconds, print_rows, write_bench_json
import numpy as np

from repro.aggregates import AggregateQuerySpec, query_indicator_control, sample_frame_indices
from repro.experiments.context import get_context
from repro.query import (
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    parse_query,
)
from repro.query.parallel import DEFAULT_CHUNK_SIZE
from tests.conftest import reference_estimate

BATCH_SIZE = 16
WINDOW_CLAUSE = "WINDOW HOPPING (SIZE 40, ADVANCE BY 20)"
WHERE_CLAUSE = "WHERE COUNT(car) >= 1 AND COUNT(*) >= 1"
FROM_CLAUSE = (
    "SELECT cameraID, frameID "
    "FROM (PROCESS inputVideo PRODUCE cameraID, frameID, vehBox1 USING VehDetector)"
)


class _CachedStream:
    """Pre-rendered stream stand-in: executor timing without rendering cost."""

    def __init__(self, stream, num_frames: int) -> None:
        count = min(num_frames, len(stream))
        self._frames = [stream.frame(index) for index in range(count)]

    def __len__(self) -> int:
        return len(self._frames)

    def frame(self, index: int):
        return self._frames[index]


def _count_filter_calls(frame_filter, counts):
    """Instrument one filter instance; returns a restore callback."""
    original_predict = frame_filter.predict
    original_batch = frame_filter.predict_batch

    def counting_predict(frame):
        counts["predict"] += 1
        return original_predict(frame)

    def counting_batch(frames):
        counts["predict_batch"] += 1
        counts["batched_frames"] += len(frames)
        return original_batch(frames)

    frame_filter.predict = counting_predict
    frame_filter.predict_batch = counting_batch

    def restore():
        del frame_filter.predict
        del frame_filter.predict_batch

    return restore


def run(config) -> dict[str, object]:
    context = get_context("jackson", config)
    stream = _CachedStream(context.dataset.test, len(context.dataset.test))

    # Parse the windowed query with the WINDOW clause in both positions.
    window_first = parse_query(f"{FROM_CLAUSE} {WINDOW_CLAUSE} {WHERE_CLAUSE}", name="windowed")
    where_first = parse_query(f"{FROM_CLAUSE} {WHERE_CLAUSE} {WINDOW_CLAUSE}", name="windowed")
    query = window_first
    cascade = QueryPlanner(context.filters, PlannerConfig(count_tolerance=1)).plan(query)
    executor = StreamingQueryExecutor(context.reference_detector(seed_offset=500))

    windowed = executor.execute(query, stream, cascade, batch_size=BATCH_SIZE)
    flat = executor.execute(
        replace(query, window=None), stream, cascade, batch_size=BATCH_SIZE
    )
    union = set()
    for window in windowed.windows:
        union.update(window.matched_frames)

    window_rows = [
        {
            "window": f"[{w.bounds.start}, {w.bounds.stop})",
            "scanned": w.stats.frames_scanned,
            "passed": w.stats.frames_passed_filters,
            "matches": w.num_matches,
        }
        for w in windowed.windows
    ]

    # Aggregate estimation through the unified path, with instrumented
    # filter calls to show the batched fast path.
    agg_query = QueryBuilder("cars_present").count("car").at_least(1).build()
    spec = AggregateQuerySpec.from_query(agg_query, [query_indicator_control(agg_query)])
    agg_cascade = QueryPlanner({"od": context.od_filter}).plan(agg_query)
    counts = {"predict": 0, "predict_batch": 0, "batched_frames": 0}
    restore = _count_filter_calls(context.od_filter, counts)
    try:
        agg_result = StreamingQueryExecutor(
            context.reference_detector(seed_offset=900)
        ).execute_aggregate(
            spec, context.dataset.test, agg_cascade, sample_size=50, seed=11
        )
    finally:
        restore()
    # The oracle on the sample the seed draws.
    sample = sample_frame_indices(len(context.dataset.test), 50, np.random.default_rng(11))
    reference_plain, reference_cv, _ = reference_estimate(
        context.reference_detector(seed_offset=900),
        context.od_filter,
        spec,
        context.dataset.test,
        sample.tolist(),
    )
    executed = agg_result.reports[0]

    return {
        "windows": window_rows,
        "execution": {
            "num_windows": windowed.num_windows,
            "frames_scanned": windowed.stats.frames_scanned,
            "filter_invocations": windowed.stats.filter_invocations,
            "flat_filter_invocations": flat.stats.filter_invocations,
            "union_equals_flat": union == set(flat.matched_frames),
            "parse_positions_agree": (
                window_first.window == where_first.window
                and window_first.predicates == where_first.predicates
            ),
            "wall_clock_s": round(windowed.stats.wall_clock_seconds, 3),
        },
        "aggregate": {
            "cascade": agg_result.cascade_description,
            "cv_mean": executed.control_variate.mean,
            "reference_cv_mean": reference_cv.mean,
            "plain_mean": executed.plain.mean,
            "reference_plain_mean": reference_plain.mean,
            # An indicator control can explain everything on a small sample;
            # cap like table4 so the printed factor stays readable.
            "variance_reduction": round(min(executed.variance_reduction, 1000.0), 1),
            "filter_calls": dict(counts),
        },
    }


def format_rows(result: dict[str, object]) -> str:
    lines = [f"{'window':<12}{'scanned':>9}{'passed':>8}{'matches':>9}"]
    for row in result["windows"]:
        lines.append(
            f"{row['window']:<12}{row['scanned']:>9}{row['passed']:>8}{row['matches']:>9}"
        )
    execution = result["execution"]
    lines.append(
        f"{execution['num_windows']} windows over {execution['frames_scanned']} frames, "
        f"{execution['filter_invocations']} filter invocations "
        f"(= {execution['flat_filter_invocations']} un-windowed, despite 2x overlap), "
        f"union_equals_flat={execution['union_equals_flat']}"
    )
    aggregate = result["aggregate"]
    lines.append(
        f"aggregate via {aggregate['cascade']}: cv_mean {aggregate['cv_mean']:.4f} "
        f"(oracle: {aggregate['reference_cv_mean']:.4f}), "
        f"var.red. {aggregate['variance_reduction']}x, filter calls {aggregate['filter_calls']}"
    )
    return "\n".join(lines)


def test_windowed_and_aggregate_execution(benchmark, bench_config, pytestconfig):
    result = benchmark.pedantic(run, args=(bench_config,), rounds=1, iterations=1)
    print_rows("Windowed + aggregate execution", format_rows(result))
    write_bench_json(
        pytestconfig,
        "windowed_execution",
        params={
            "num_windows": result["execution"]["num_windows"],
            "frames_scanned": result["execution"]["frames_scanned"],
            "variance_reduction": result["aggregate"]["variance_reduction"],
        },
        wall_seconds=bench_wall_seconds(benchmark),
    )
    execution = result["execution"]
    # WINDOW before or after WHERE parses to the same query.
    assert execution["parse_positions_agree"]
    # Per-window match sets partition the flat answer; overlapping windows
    # share the per-frame filter work (no extra invocations over a flat run).
    assert execution["union_equals_flat"]
    assert execution["filter_invocations"] == execution["flat_filter_invocations"]
    assert execution["num_windows"] >= 2
    aggregate = result["aggregate"]
    # Same seed -> exactly the same control-variate estimates as the oracle.
    assert aggregate["cv_mean"] == aggregate["reference_cv_mean"]
    assert aggregate["plain_mean"] == aggregate["reference_plain_mean"]
    # The 50-frame sample ran as the scan's chunks, zero per-frame calls.
    assert aggregate["filter_calls"]["predict"] == 0
    assert aggregate["filter_calls"]["predict_batch"] == math.ceil(50 / DEFAULT_CHUNK_SIZE)
    assert aggregate["filter_calls"]["batched_frames"] == 50
