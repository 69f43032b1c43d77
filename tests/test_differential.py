"""The differential matrix: R2 and R4 of ``tests/differential.py``.

R2 holds every exact config to the inline chunk-size-1 ``execute_many`` run
of the same queries, cascades and coverage, a worker config also to its
worker-free twin field for field, a cascade-free config to
``brute_force_execute`` (R1), and the reference itself to an independent
per-frame cascade walk.  R4 runs a worker, started-service or approximate
config twice and holds a fault schedule to its fault-free twin.  DESIGN.md "Differential
harness" has the relations and the dropped fields; worker configs carry the
``parallel`` mark and fault schedules the ``chaos`` mark.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.detection import ReferenceDetector
from tests.conftest import reference_cascade_walk
from tests.differential import (
    CLASS_NAMES, CONFIGS, DETECTOR_SEED, SCENARIOS, EngineConfig, first_difference,
    normalize, reference_of, without_faults,
)

#: the configs R2 crosses with every scenario; the rest run on the first
ON_EVERY_SCENARIO = (
    "batch7", "thread2", "temporal-exact-stride8", "unordered-batch7", "no-cascades-batch7",
    "service-7-by-13",
)


def _param(config, *scenario):
    marks = [pytest.mark.parallel] if config.parallel is not None or config.started else []
    marks += [pytest.mark.chaos] if config.faults else []
    label = "-".join([config.id, *(each.name for each in scenario)])
    return pytest.param(config, *scenario, marks=marks, id=label)


def _assert_equal(got, want, what):
    path = first_difference(got, want)
    assert path is None, f"{what} differs at {path}"


def _strip(dump, *names):
    if isinstance(dump, dict):
        return {key: _strip(value, *names) for key, value in dump.items() if key not in names}
    return [_strip(item, *names) for item in dump] if isinstance(dump, list) else dump


def _assert_cost(got, want, what):
    assert got["per_component_calls"] == want["per_component_calls"], what
    assert got["per_component_ms"] == pytest.approx(want["per_component_ms"], rel=1e-9), what


def _answers(record):
    """Name, cascade, matches, windows, scanned, passed, detector calls."""
    stats = record["stats"]
    return [record["query_name"], record["cascade_description"], record["matched_frames"],
            record["windows"], stats["frames_scanned"], stats["frames_passed_filters"],
            stats["detector_invocations"]]


# ----------------------------------------------------------------------
# R2, and R1 for the cascade-free configs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config, scenario", [
    _param(config, scenario)
    for config in CONFIGS
    if config.exactness != "approximate"
    for scenario in (SCENARIOS if config.id in ON_EVERY_SCENARIO else SCENARIOS[:1])
])
def test_config_equals_the_reference(harness, config, scenario):
    dump = normalize(harness.dump(config, scenario))
    reference = normalize(harness.dump(reference_of(config), scenario))
    if config.entry == "aggregate":
        _assert_aggregates(config, dump, reference)
        return
    assert len(dump["queries"]) == len(reference["queries"])
    for got, want in zip(dump["queries"], reference["queries"]):
        what = f"{config.id}: {want['query_name']}"
        _assert_equal(_answers(got), _answers(want), what)
        if config.entry != "service":
            assert got["stats"]["batch_size"] == config.batch_size, what
        assert got["stats"]["filter_invocations"] == want["stats"]["filter_invocations"], what
        _assert_cost(got["stats"]["simulated_cost"], want["stats"]["simulated_cost"], what)
        if config.entry == "service" and config.temporal is not None and config.temporal.exact:
            # The live session gates as the one-shot scan does, cut or not.
            gated = normalize(harness.dump(EngineConfig("", temporal=config.temporal), scenario))
            assert got["temporal"] == gated["shared"]["temporal"], what
    if config.entry == "many":
        _assert_shared(harness, config, scenario, dump, reference)
    if config.include_partial_windows:
        _assert_oracle(harness, config, scenario, dump)


def _assert_aggregates(config, dump, reference):
    for run, want_run in zip(dump["aggregates"], reference["aggregates"]):
        windows = [run["windows"] or (), want_run["windows"] or ()]
        reports = [run["reports"] + [r for w in windows[0] for r in w["reports"]],
                   want_run["reports"] + [r for w in windows[1] for r in w["reports"]]]
        for report, want in zip(*reports):
            for key in ("plain", "control_variate", "num_samples"):
                assert report[key] == want[key], (config.id, key)
            if config.temporal is not None:
                assert report["temporal"]["frames_reused"] > 0
                assert report["per_frame_cost_ms"] < want["per_frame_cost_ms"]


def _assert_shared(harness, config, scenario, dump, reference):
    shared, want = dump["shared"], reference["shared"]
    assert shared["batch_size"] == config.batch_size
    for field in ("frames_scanned", "unique_steps", "total_steps"):
        assert shared[field] == want[field], field
    if config.cascades == "none":  # every covered frame goes to the detector
        assert shared["detector_invocations"] == shared["frames_scanned"]
    if config.temporal is None:
        assert shared["detector_invocations"] == want["detector_invocations"]
        assert shared["filter_computations"] == want["filter_computations"]
        _assert_cost(shared["cost"]["shared"], want["cost"]["shared"], config.id)
    else:  # the gate accounts for every frame and its reuse really saves work
        gated, cost = shared["temporal"], shared["cost"]["shared"]
        inherited = gated["frames_reused"] + gated["frames_skipped"]
        assert gated["frames_computed"] + inherited == gated["frames_total"]
        assert gated["frames_total"] == want["frames_scanned"]
        reused = gated["filter_reuses"] + gated["detector_reuses"]
        assert 0 < sum(cost["per_component_reused"].values()) == reused
        assert gated["frames_reused"] > 0 and gated["verified_frames"] == inherited
        assert (gated["max_stride_used"] > 1) == (config.temporal.max_stride > 1)
        assert shared["filter_computations"] < want["filter_computations"]
        full_ms = want["cost"]["shared"]["per_component_ms"].values()
        assert sum(cost["per_component_ms"].values()) < sum(full_ms)
    if config.parallel is not None:
        _assert_workers(harness, config, scenario, dump, want)


def _assert_workers(harness, config, scenario, dump, want):
    telemetry = harness.dump(config, scenario)["shared"]["parallel"]
    chunk = config.batch_size
    assert (telemetry["num_workers"], telemetry["chunk_size"]) == (config.parallel.num_workers, chunk)
    assert telemetry["num_chunks"] == math.ceil(want["frames_scanned"] / chunk)
    # The pool is invisible, field for field.
    twin = without_faults(config)._replace(parallel=None)
    twin_dump = normalize(harness.dump(twin, scenario))
    _assert_equal(_strip(dump, "parallel"), _strip(twin_dump, "parallel"), f"{config.id} twin")


def _assert_oracle(harness, config, scenario, dump):
    """R1: a cascade-free query is the oracle; a filtered one covers the
    same frames and windows and matches a subset."""
    for position, record in enumerate(dump["queries"]):
        want = _answers(normalize(harness.oracle(scenario, position, config.frame_indices)))
        got, what = _answers(record), (config.id, record["query_name"])
        if config.cascades == "none":  # matched, windows, scanned, detector calls
            assert [got[k] for k in (2, 3, 4, 6)] == [want[k] for k in (2, 3, 4, 6)], what
        elif record["cascade_description"] != "(provably empty)":
            assert got[4] == want[4] and set(got[2]) <= set(want[2]), what
            bounds = [[window["bounds"] for window in answer[3] or ()] for answer in (got, want)]
            assert bounds[0] == bounds[1], what


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda scenario: scenario.name)
def test_the_reference_is_an_independent_cascade_walk(harness, scenario):
    """The reference every config is held to, against ``tests/conftest.py``'s
    per-frame walk, which shares no code with the scan session."""
    stream = harness.rendered(scenario)
    reference = harness.dump(reference_of(CONFIGS[0]), scenario)
    queries = zip(harness.queries, harness.cascades("planned"), reference["queries"])
    walked = [(query, cascade, record) for query, cascade, record in queries
              if not cascade.provably_empty]
    assert len(walked) == len(harness.queries) - 1
    for query, cascade, record in walked:
        covered = range(len(stream))
        if query.window is not None:  # the window bounds themselves are R1's
            bounds = [window["bounds"] for window in record["windows"]]
            covered = sorted({i for b in bounds for i in range(b["start"], b["stop"])})
        detector = ReferenceDetector(CLASS_NAMES, seed=DETECTOR_SEED)
        matched, passed, calls = reference_cascade_walk(query, cascade, stream, covered, detector)
        stats = record["stats"]
        assert list(record["matched_frames"]) == matched
        assert (stats["frames_passed_filters"], stats["filter_invocations"]) == (len(passed), calls)


# ----------------------------------------------------------------------
# R4
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", [
    _param(config)
    for config in CONFIGS
    if config.faults or config.parallel is not None or config.exactness == "approximate"
    or config.started
])
def test_a_repeat_and_a_recovered_run_dump_equal(harness, config):
    first = harness.dump(config)
    if not config.faults:
        _assert_equal(normalize(harness.run(config)), normalize(first), f"{config.id} again")
        return
    # The fault-free twin is itself run twice when it is a repeat config.
    clean = normalize(harness.dump(without_faults(config)))
    _assert_equal(normalize(first), clean, f"{config.id} against its fault-free twin")
    # The recovery is accounted: every scheduled fault fired and was absorbed.
    report = first["queries"][0]["stats"]["faults"]
    site, _, count = config.faults
    assert Counter(fault["site"] for fault in report["injected"]) == {site: count}
    assert (report["exhausted"], report["quarantined"]) == (0, ())
    if site == "worker_crash":  # the pool itself is intact
        assert report["redispatches"] >= 1 and report["respawns"] == 0
    elif site == "worker_stall":  # the wedged pool is replaced
        assert report["redispatches"] >= 1 and report["respawns"] >= 1
    elif site != "shard_crash":  # a shard re-runs its chunk, no retry loop
        assert (report["retries"], report["recovered"]) == (count, 1)
