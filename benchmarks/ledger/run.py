"""Perf ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py --workload <name|all> --seed <n>
        [--seconds <s>] [--trace <0|1>] [--out DIR] [--scale smoke]

For each workload the harness sets up (several times, for a median set-up
time), computes reference answers, warms up, runs untraced timed repetitions
for ``--seconds`` seconds (end-to-end metrics), runs traced repetitions
(per-layer metrics), checks outputs as counted operations, and prints every
metric with its unit.  ``--trace 0`` stops after the untraced repetitions,
``--trace 1`` reports only the per-layer metrics; without ``--trace`` both
are measured and printed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The metric names, units and directions live in ``BENCHMARK.json`` at the
repository root; this file computes values and looks the units up there.
Nothing under ``src/`` is touched: layers are timed by wrapping public entry
points for the traced repetitions only (``ledger_trace.py``).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: set-ups per run when the set-up time is reported (its median is the metric)
SETUPS = 3
MAX_SETUPS = 9
#: share of ``--seconds`` spent on traced repetitions; a ``--trace 1`` run
#: spends the rest on the untraced baseline the overhead is measured against
TRACED_SHARE = 0.6


def pin_process() -> None:
    """Fix two process-wide settings that otherwise make timings bimodal.

    Call before numpy is imported.  One BLAS thread: worker threads on two
    shared cores only add noise.  One malloc arena: a shard worker thread
    otherwise lands in a glibc arena of its own, where the 5 MB batch
    temporaries are sometimes recycled and sometimes page-faulted in afresh,
    and closed-loop service throughput flips between ~700 and ~1000 frames/s
    from pass to pass.  With a single arena every thread allocates the way
    the one-shot scans on the main thread always do.
    """
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    try:
        ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX; glibc only
    except (OSError, AttributeError):
        pass


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _ratio(numerator, denominator) -> float | None:
    """``numerator / denominator``; 0 for an empty denominator, None if unknown."""
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def _median_rep(reps):
    """The repetition with the (lower) median time."""
    return sorted(reps, key=lambda rep: rep.ref_s)[(len(reps) - 1) // 2]


def end_to_end_metrics(workload, reps, setup_seconds: list[float]) -> dict[str, float]:
    """Timings are at reference host speed (``ledger_workloads.HostClock``)."""
    return {
        "setup_s": statistics.median(setup_seconds),
        "frames_per_s": statistics.median(rep.frames / rep.ref_s for rep in reps),
        "result_latency_ms": workload.latency_ms(reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(workload, untraced, rep, r, extras: dict) -> dict:
    """Per-layer numbers of ``rep``, the traced repetition with the median time.

    ``r`` is that repetition's span recorder, ``untraced`` the baseline.

    ``*_busy_s`` / ``*.self_s`` are self times (span minus child spans), in
    wall seconds as traced, and ``*_share`` is self time over the wall time
    of the traced engine calls.  A metric whose span could not be wrapped
    reads ``None``.
    """
    from ledger_trace import LAYER, PARENT, START, END

    wall = rep.wall_s
    out = rep.out
    untraced_ref = statistics.median(x.ref_s for x in untraced)
    quality = workload.quality(rep)
    temporal = out.get("temporal_stats")
    scanned = out.get("scanned", 0)
    detector_ms = rep.sim_components.get("mask_rcnn", 0.0)

    frame_calls, render_calls = r.calls("video.frame"), r.calls("video.render")
    dequeue_s = r.total_seconds("service.get")

    def share(seconds):
        return _ratio(seconds, wall)

    scan_roots = [
        span for span in r.spans
        if span[LAYER] == "query" and (span[PARENT] is None or span[PARENT][LAYER] != "query")
    ]
    metrics = {
        "video.frame_calls": frame_calls,
        "video.render_calls": render_calls,
        "video.render_busy_s": r.self_seconds("video.render"),
        "video.cache_hit_ratio": (
            None if frame_calls is None or render_calls is None
            else 1.0 - render_calls / frame_calls if frame_calls else 0.0
        ),
        "video.share": share(r.layer_self_seconds("video")),
        "detection.backbone_calls": r.calls("detection.backbone"),
        "detection.backbone_frames": r.units("detection.backbone"),
        "detection.backbone_busy_s": r.self_seconds("detection.backbone"),
        "detection.backbone_share": share(r.self_seconds("detection.backbone")),
        "detection.detect_calls": r.calls("detection.detect"),
        "detection.detect_busy_s": r.self_seconds("detection.detect"),
        "detection.detect_share": share(r.self_seconds("detection.detect")),
        "filters.predict_calls": r.calls("filters.predict"),
        "filters.predict_frames": r.units("filters.predict"),
        "filters.self_s": r.layer_self_seconds("filters"),
        "filters.share": share(r.layer_self_seconds("filters")),
        "filters.pass_ratio": _ratio(out.get("passed", 0), scanned),
        "nn.forward_calls": r.calls("nn.forward"),
        "nn.forward_busy_s": r.self_seconds("nn.forward"),
        "nn.share": share(r.layer_self_seconds("nn")),
        "query.plan_s": workload.plan_s,
        "query.scan_s": (
            None if {"query.execute", "query.push_chunk"} & r.missing
            else sum(span[END] - span[START] for span in scan_roots)
        ),
        "query.self_s": r.layer_self_seconds("query"),
        "query.share": share(r.layer_self_seconds("query")),
        "query.detector_frame_ratio": _ratio(out.get("detector_frames", 0), scanned),
        "query.temporal_reuse_ratio": temporal.reuse_rate if temporal else 0.0,
        "query.frames_skipped": temporal.frames_skipped if temporal else 0,
        "query.recall": quality.get("recall", 0.0),
        "query.precision": quality.get("precision", 0.0),
        "aggregates.estimate_calls": r.calls("aggregates.estimate"),
        "aggregates.samples": r.units("aggregates.estimate"),
        "aggregates.self_s": r.layer_self_seconds("aggregates"),
        "aggregates.share": share(r.layer_self_seconds("aggregates")),
        "aggregates.variance_reduction": quality.get("variance_reduction", 0.0),
        "aggregates.abs_error": quality.get("abs_error", 0.0),
        "service.feed_block_s": r.self_seconds("service.put"),
        "service.queue_wait_p50_ms": (
            None if {"service.put", "service.get"} & r.missing
            else statistics.median(r.queue_waits) * 1000.0 if r.queue_waits else 0.0
        ),
        "service.queue_high_water": out.get("high_water", 0),
        "service.push_chunk_busy_s": r.self_seconds("query.push_chunk"),
        # Busy is whatever the shard worker did not spend waiting to dequeue.
        "service.worker_busy_share": (
            None if dequeue_s is None else 1.0 - dequeue_s / wall if dequeue_s else 0.0
        ),
        "service.emit_calls": r.calls("service.emit"),
        "service.emit_busy_s": r.self_seconds("service.emit"),
        "service.shared_step_ratio": _ratio(out.get("unique_steps", 0), out.get("total_steps", 0)),
        "service.emit_p95_ms": 0.0,
        "service.emit_samples": 0,
        "service.emit_beyond_p95": 0,
        "service.emit_p50_ms_600": 0.0,
        "service.late_max_ms_300": 0.0,
        "service.late_max_ms_600": 0.0,
        "service.dropped_chunks": out.get("dropped", 0),
        "service.emitter_errors": out.get("emitter_errors", 0),
        "cost.sim_ms_per_frame": _ratio(rep.sim_ms, rep.frames),
        "cost.sim_filter_ms_per_frame": _ratio(rep.sim_ms - detector_ms, rep.frames),
        "cost.sim_detector_ms_per_frame": _ratio(detector_ms, rep.frames),
        "cost.sim_over_wall": _ratio(rep.sim_ms / 1000.0, untraced_ref),
        "setup.train_s": workload.train_s,
        "host.slowdown": statistics.median(x.wall_s / x.ref_s for x in untraced),
        "trace.overhead_ratio": _ratio(rep.ref_s, untraced_ref),
        "trace.coverage": share(r.busiest_thread_root_seconds()),
    }
    metrics.update(extras)
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: int | None = None,
    smoke: bool = False,
    out_dir: Path | None = None,
) -> dict:
    """Run one workload; returns ``correct``/``attempted``/``failed``/``metrics``.

    ``metrics`` maps every wanted ``BENCHMARK.json`` metric name to
    ``{"value", "unit"}``; ``digest`` is the match digest of the last untraced
    repetition (equal for equal seeds, traced or not).
    """
    from ledger_trace import SpanRecorder, installed
    from ledger_workloads import WORKLOADS, Ops

    spec = _load_spec()
    want_e2e = trace in (None, 0)
    want_layers = trace in (None, 1)
    ops = Ops()

    setup_seconds: list[float] = []
    setup_wall = 0.0
    workload = None
    # A set-up of a fraction of a second is repeated further (up to
    # MAX_SETUPS times, a second in all): its median is otherwise mostly noise.
    while not setup_seconds or (
        want_e2e and not smoke
        and (len(setup_seconds) < SETUPS or (setup_wall < 1.0 and len(setup_seconds) < MAX_SETUPS))
    ):
        # Drop the previous set-up first, so peak memory is one set-up's.
        del workload
        gc.collect()
        workload = WORKLOADS[name](seed, smoke=smoke)
        _, wall, ref = ops.clock.time(workload.setup)
        setup_wall += wall
        setup_seconds.append(ref)
    workload.oracle()
    if not smoke:
        workload.repetition(Ops())  # warm-up: caches fill, buffers allocate

    min_reps = 1 if smoke else 3
    reps = workload.measure(
        seconds if want_e2e else seconds * (1.0 - TRACED_SHARE), ops, min_reps
    )
    for rep in reps:
        ops.check("repetitions agree", rep.digest == reps[0].digest, rep.digest)
    workload.check(reps[-1], ops)

    values: dict = {}
    if want_e2e:
        values.update(end_to_end_metrics(workload, reps, setup_seconds))
    if want_layers:
        traced: list = []
        deadline = time.perf_counter() + seconds * TRACED_SHARE
        while not traced or (not smoke and time.perf_counter() < deadline):
            with installed(SpanRecorder()) as recorder:
                traced.append((workload.repetition(ops), recorder))
        for rep, _ in traced:
            ops.check("traced repetition agrees", rep.digest == reps[0].digest, rep.digest)
        # Every wrapper is gone again: the engine runs untraced and agrees.
        ops.check(
            "untraced repetition after tracing agrees",
            workload.repetition(ops).digest == reps[0].digest,
        )
        rep = _median_rep([rep for rep, _ in traced])
        recorder = next(r for x, r in traced if x is rep)
        workload.check(rep, ops)
        values.update(
            per_layer_metrics(workload, reps, rep, recorder, workload.trace_extras(ops))
        )
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            recorder.write_ndjson(out_dir / f"trace_{name}_seed{seed}.ndjson")

    wanted = (spec["end_to_end"] if want_e2e else []) + (spec["per_layer"] if want_layers else [])
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            warnings.warn(f"metric {entry['name']} was not computed", RuntimeWarning)
        metrics[entry["name"]] = {"value": values.get(entry["name"]), "unit": entry["unit"]}
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
        "digest": reps[-1].digest,
        "failures": ops.failures,
    }


def _print_result(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} operations, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"   {metric:<34}{shown:>14} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"ledger: no repro sources under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    pin_process()
    spec = _load_spec()
    names = [entry["name"] for entry in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, default=None, help="write the NDJSON traces here")
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: tiny sizes, one repetition, one set-up (what the tier-1 test runs)",
    )
    args = parser.parse_args(argv)

    out_dir = args.out
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    for name in selected:
        results[name] = run_workload(
            name, args.seed, args.seconds, args.trace, args.scale == "smoke", out_dir
        )
        _print_result(name, results[name])
    if out_dir is not None:
        print(f"traces written under {out_dir}")

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    else:
        result = results[args.workload]
        final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
