"""Smoke tests for the experiment harness at a very small scale.

These verify that every table/figure runner produces rows of the documented
shape; the benchmark harness runs them at the larger (paper-shaped) scale.
They also pin the unrounded values behind the filter-accuracy rows (Figures
7, 11 and 15, the ablations, the constraint check), the Table III rows and
the prediction and detection passes those runners make.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import pytest

from repro.detection import ReferenceDetector
from repro.experiments import (
    ablation,
    constraint_check,
    context as context_module,
    fig7,
    fig11,
    fig15,
    table2,
    table3,
    table4,
)
from repro.experiments.context import ExperimentConfig, get_context
from repro.filters import evaluate_count_filter, evaluate_localization
from repro.query import StreamingQueryExecutor

TINY = ExperimentConfig(
    train_size=80,
    val_size=20,
    test_size=60,
    max_train_frames=70,
    test_stride=4,
    seed=5,
)


@pytest.fixture(scope="module")
def jackson_context():
    return get_context("jackson", TINY)


def test_context_caches_by_config(jackson_context):
    assert get_context("jackson", TINY) is jackson_context
    assert jackson_context.dataset.name == "jackson"
    assert set(jackson_context.filters) == {"ic", "od", "od_cof"}
    with pytest.raises(KeyError):
        get_context("not-a-dataset", TINY)


def test_table2_rows():
    rows = table2.run(TINY)
    assert {row["dataset"] for row in rows} == {"coral", "jackson", "detrac"}
    assert "paper_obj_per_frame_mean" in rows[0]
    assert table2.format_rows(rows)


def test_fig7_and_fig11_rows_single_dataset():
    rows7 = fig7.run(TINY, dataset_names=("jackson",))
    assert len(rows7) == 3
    assert all(0 <= row["exact"] <= 1 for row in rows7)
    rows11 = fig11.run(TINY, dataset_names=("jackson",))
    assert len(rows11) == 4  # 2 filters x 2 classes
    assert fig7.format_rows(rows7) and fig11.format_rows(rows11)


def test_fig15_rows_single_dataset():
    rows = fig15.run(TINY, dataset_names=("jackson",))
    assert len(rows) == 4
    for row in rows:
        assert row["f1"] <= row["f1_manhattan_2"] + 1e-9
    assert fig15.format_rows(rows)


def test_table3_subset():
    rows = table3.run(TINY, query_names=("q3", "q4"))
    assert [row["query"] for row in rows] == ["q3", "q4"]
    for row in rows:
        assert row["filtered_time_s"] <= row["brute_force_time_s"] + 1e-9
        assert 0 <= row["accuracy"] <= 1
    assert table3.format_rows(rows)


def test_table3_flags_rows_that_cannot_fail(monkeypatch):
    rows = table3.run(TINY, query_names=("q3", "q4"))
    # TINY's test split holds no true match for either query.
    assert [(row["true_matches"], row["vacuous"]) for row in rows] == [(0, True), (0, True)]
    assert [row["accuracy"] for row in rows] == [1.0, 1.0]  # the empty-truth default
    header, *lines = table3.format_rows(rows).splitlines()
    assert header.split()[4] == "true" and header.endswith("vacuous")
    assert all(line.split()[4] == "0" and line.endswith("True") for line in lines)

    monkeypatch.setattr(table3, "MIN_TRUE_MATCHES", 0)
    # Equal (empty) truth sets on one dataset stay vacuous.
    assert [row["vacuous"] for row in table3.run(TINY, query_names=("q3", "q4"))] == [True] * 2
    # A row with no twin and enough true matches is not.
    assert [row["vacuous"] for row in table3.run(TINY, query_names=("q3",))] == [False]


def test_execute_and_execute_many_attribute_equal_calls_and_cost(jackson_context):
    """``execute`` reports the clock's summed per-chunk charges and
    ``execute_many`` each query's latency x calls: the call counts are equal
    and the cost equal up to float rounding.  On TINY, q3's OD-CCF cost is
    113.99999999999999 ms through ``execute`` and 114.0 ms through
    ``execute_many``."""
    spec = next(spec for spec in table3.build_query_specs() if spec.name == "q3")
    query = spec.build(jackson_context)
    cascade = table3._plan(jackson_context, spec, query)
    stream = jackson_context.dataset.test

    def executor():
        return StreamingQueryExecutor(jackson_context.reference_detector(seed_offset=300))

    alone = executor().execute(query, stream, cascade).stats
    shared = executor().execute_many([query], stream, [cascade]).results[0].stats
    assert alone.filter_invocations == shared.filter_invocations
    assert alone.detector_invocations == shared.detector_invocations
    summed, attributed = alone.simulated_cost, shared.simulated_cost
    assert summed.per_component_calls == attributed.per_component_calls
    assert summed.per_component_ms.keys() == attributed.per_component_ms.keys()
    for component, ms in summed.per_component_ms.items():
        assert math.isclose(ms, attributed.per_component_ms[component], rel_tol=1e-12)
    assert math.isclose(summed.total_ms, attributed.total_ms, rel_tol=1e-12)


def test_table4_subset():
    rows = table4.run(TINY, sample_size=20, repetitions=3, query_names=("a1",))
    assert rows[0]["query"] == "a1"
    assert rows[0]["per_frame_ms"] > 200
    assert table4.format_rows(rows)


def test_constraint_check_runs():
    result = constraint_check.run(TINY, dataset_name="jackson", subject_class="car", reference_class="person")
    assert 0.0 <= result["accuracy"] <= 1.0
    assert result["frames"] > 0


#: sha256 of ``repr`` of each runner's rows at ``TINY`` with rounding switched
#: off, i.e. of the unrounded values behind every row.  Taken when every figure
#: still re-predicted each frame through ``FrameFilter.predict`` (seven
#: per-frame passes per dataset, and one per threshold in the sweep): scoring
#: batched passes changed no value.  Table III and cascade tolerance report
#: each filtered query's cost as attributed by ``execute_many`` (latency x
#: calls, e.g. 114.0 ms); ``execute`` alone reports the clock's summed
#: charges, which can differ in the last bit (113.99999999999999 ms).  Table
#: IV's rows are ``table4.run(TINY, sample_size=20, repetitions=3)``.
PINNED_ROW_DIGESTS = {
    "fig7": "cbcf07e30ab3053092b5b5ee7475536baa1406dd23388bd0645e4e5c0150710b",
    "fig11": "4438e5a0ee1526323aad3f4f5365538ae49e9315af4440cd92d5003b73bd5627",
    "fig15": "e93f0c1b90db8b759801050c122c90ec588b3ba48976bdf8c7f01d3b7cbed695",
    "branch_depth": "615952444088436b382e7b9a33f469e38caf49cf54137fc8164c3f7b12f72221",
    "threshold_sweep": "5d9a2758b9608f41e9dd172efe8635280fa83b13b9866e82434b3c2e85da677d",
    "constraint": "9f2228ff5c7d367780da43bd8118000f95336da4b509370057143b0fabbb8ad5",
    "table3": "27045b2976f870d4ffd00198539081c2ab0ce42510c21f8267b3aec87298c62f",
    "cascade_tolerance": "4ba325418f6829073f49dcb591015268708df10c39114e10bb10186ae0adafcd",
    "table4": "4773ee2e2057ab17faa32912374a60d3dbecdcd613be426a4fb4768ec9755eb6",
}


def test_experiment_rows_keep_their_pinned_unrounded_values(monkeypatch):
    for module in (fig7, fig11, fig15, ablation, constraint_check, table3, table4):
        monkeypatch.setattr(module, "round", lambda value, digits=None: value, raising=False)
    rows = {
        "fig7": fig7.run(TINY),
        "fig11": fig11.run(TINY),
        "fig15": fig15.run(TINY),
        "branch_depth": ablation.run_branch_depth(TINY),
        "threshold_sweep": ablation.run_threshold_sweep(TINY),
        "constraint": constraint_check.run(TINY),
        "table3": table3.run(TINY),
        "cascade_tolerance": ablation.run_cascade_tolerance(TINY),
        "table4": table4.run(TINY, sample_size=20, repetitions=3),
    }
    digests = {key: hashlib.sha256(repr(value).encode()).hexdigest() for key, value in rows.items()}
    assert digests == PINNED_ROW_DIGESTS


def test_table3_and_cascade_tolerance_detect_each_test_frame_once(jackson_context, monkeypatch):
    """Each runner's brute-force baseline shares the filtered scan, so the
    seed-300 detector sees each jackson test frame exactly once per run."""
    seen: Counter = Counter()
    detect = ReferenceDetector.detect

    def counting(detector, frame):
        if detector._seed == TINY.seed + 300:
            seen[frame.index] += 1
        return detect(detector, frame)

    monkeypatch.setattr(ReferenceDetector, "detect", counting)
    test_indices = range(len(jackson_context.dataset.test))
    for run in (
        lambda: table3.run(TINY, query_names=("q3", "q4")),
        lambda: ablation.run_cascade_tolerance(TINY),
    ):
        seen.clear()
        run()
        assert seen == {index: 1 for index in test_indices}


def _count_predicted_frames(monkeypatch, frame_filter, seen: Counter, key: str) -> None:
    """Record every frame ``frame_filter`` predicts, under ``key`` (``predict`` is a
    batch of one, so per-frame calls are counted too)."""
    predict_batch = frame_filter.predict_batch

    def counting(frames):
        seen.update((key, frame.index) for frame in frames)
        return predict_batch(frames)

    monkeypatch.setattr(frame_filter, "predict_batch", counting)


def test_figures_and_threshold_sweep_predict_each_test_frame_once(jackson_context, monkeypatch):
    """Fig 7 + 11 + 15 over one dataset make one pass per filter (Fig 11 and 15
    read Fig 7's reports), and the threshold sweep one pass whatever the number
    of thresholds."""
    monkeypatch.setattr(jackson_context, "_reports", {})
    seen: Counter = Counter()
    for key, frame_filter in jackson_context.filters.items():
        _count_predicted_frames(monkeypatch, frame_filter, seen, key)
    for figure in (fig7, fig11, fig15):
        figure.run(TINY, dataset_names=("jackson",))
    expected = {(key, index): 1 for key in ("ic", "od", "od_cof") for index in TINY.test_indices}
    assert seen == expected
    seen.clear()
    ablation.run_threshold_sweep(TINY, thresholds=(0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5))
    assert seen == {("od", index): 1 for index in TINY.test_indices}


def test_multi_chunk_pass_scores_as_one_prediction_per_frame(jackson_context, monkeypatch):
    """A pass of several chunks, rendered ahead on the decode-ahead thread,
    scores exactly as predicting each frame on its own."""
    monkeypatch.setattr(context_module, "DEFAULT_CHUNK_SIZE", 4)
    stream = jackson_context.dataset.test
    annotations = jackson_context.test_annotations
    for frame_filter in (jackson_context.filters["ic"], jackson_context.od_filter):
        alone = [frame_filter.predict(stream.frame(index)) for index in TINY.test_indices]
        assert evaluate_count_filter(
            jackson_context.test_predictions(frame_filter), annotations
        ) == evaluate_count_filter(alone, annotations)
        assert evaluate_localization(
            jackson_context.test_predictions(frame_filter), annotations
        ) == evaluate_localization(alone, annotations)
    chunks = list(jackson_context.predicted_chunks(jackson_context.od_filter))
    assert [len(frames) for frames, _ in chunks] == [4, 4, 4, 3]
