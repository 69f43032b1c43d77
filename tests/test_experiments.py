"""Smoke tests for the experiment harness at a very small scale.

These verify that every table/figure runner produces rows of the documented
shape; the benchmark harness runs them at the larger (paper-shaped) scale.
"""

from __future__ import annotations

import pytest

from repro.experiments import constraint_check, fig7, fig11, fig15, table2, table3, table4
from repro.experiments.context import ExperimentConfig, get_context

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
    # Equal (empty) truth sets on one dataset stay vacuous, shared scan or not.
    assert [row["vacuous"] for row in table3.run(TINY, query_names=("q3", "q4"))] == [True] * 2
    shared = table3.run(TINY, query_names=("q3", "q4"), shared=True)
    assert [row["vacuous"] for row in shared] == [True] * 2
    # A row with no twin and enough true matches is not.
    assert [row["vacuous"] for row in table3.run(TINY, query_names=("q3",))] == [False]


def test_table4_subset():
    rows = table4.run(TINY, sample_size=20, repetitions=3, query_names=("a1",))
    assert rows[0]["query"] == "a1"
    assert rows[0]["per_frame_ms"] > 200
    assert table4.format_rows(rows)


def test_constraint_check_runs():
    result = constraint_check.run(TINY, dataset_name="jackson", subject_class="car", reference_class="person")
    assert 0.0 <= result["accuracy"] <= 1.0
    assert result["frames"] > 0
