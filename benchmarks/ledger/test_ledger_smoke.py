"""Tier-1 smoke test of the perf ledger.

Runs every workload at the ``smoke`` scale (tiny train/test sizes, one
repetition) and pins the harness contract: every metric named in
``BENCHMARK.json`` is emitted, a wrap target that a refactor removed yields
``null`` metrics plus a warning instead of a crash, and the class-level
wrappers are gone after a traced run.

The seven workloads run in a process of their own, the way the driver runs
them: the trained filters, rendered frames and shard threads of a benchmark
run have no business in the test session's process.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import ledger_trace  # noqa: E402

_spec = importlib.util.spec_from_file_location("ledger_run", HERE / "run.py")
ledger_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_run)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _wrapped_targets() -> list[str]:
    """Targets whose class attribute is currently a ledger wrapper."""
    found = []
    for target in ledger_trace.TARGETS:
        resolved = ledger_trace._resolve(target)
        if resolved is not None and hasattr(resolved[1], "__wrapped__"):
            found.append(target.label)
    return found


def test_every_workload_emits_every_metric():
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "all",
            "--seed", "5", "--seconds", "0", "--scale", "smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # Every target wrapped, every metric computed: neither warning fired.
    assert "ledger trace target" not in done.stderr
    assert "was not computed" not in done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # ``failed == 0`` includes the harness's own check that an untraced
    # repetition after the traced ones reads the same match digest, i.e.
    # that every wrapper was removed again.
    assert result["failed"] == 0 and result["correct"], done.stdout
    assert result["attempted"] >= len(SPEC["workloads"])
    expected = {
        f"{workload['name']}/{metric['name']}"
        for workload in SPEC["workloads"]
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]
    }
    assert set(result["metrics"]) == expected
    missing = [name for name, entry in result["metrics"].items() if entry["value"] is None]
    assert not missing


def test_missing_wrap_target_reads_null_with_a_warning(monkeypatch):
    gone = ledger_trace.Target(
        "repro.video.stream", "VideoStream", "frame_removed_by_refactor", "video.frame"
    )
    monkeypatch.setattr(ledger_trace, "TARGETS", (*ledger_trace.TARGETS, gone))
    with pytest.warns(RuntimeWarning, match="frame_removed_by_refactor"):
        result = ledger_run.run_workload(
            "bruteforce_dense", seed=5, seconds=0.0, trace=1, smoke=True
        )
    metrics = result["metrics"]
    assert result["failed"] == 0, result["failures"]
    for metric in ("video.frame_calls", "video.cache_hit_ratio", "video.share"):
        assert metrics[metric]["value"] is None
    # Spans of intact targets still read.
    assert metrics["video.render_calls"]["value"] > 0
    assert metrics["detection.detect_calls"]["value"] > 0
    assert _wrapped_targets() == []
