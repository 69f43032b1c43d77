"""Tests for the estimation heads (ridge accumulator, grid scorer, count calibration)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.filters.heads import (
    COUNT_FEATURE_NAMES,
    CountCalibration,
    GridScoringHead,
    PooledCountHead,
    RidgeAccumulator,
    batch_count_features,
)
from tests.conftest import reference_count_features, reference_suppress_cross_class


def test_ridge_accumulator_recovers_linear_model(rng):
    true_weights = np.array([[2.0], [-1.0], [0.5]])
    x = rng.normal(size=(200, 3))
    y = x @ true_weights + 3.0
    accumulator = RidgeAccumulator(num_features=3, num_outputs=1, alpha=1e-8)
    for start in range(0, 200, 50):
        accumulator.add_batch(x[start : start + 50], y[start : start + 50])
    weights, bias = accumulator.solve()
    np.testing.assert_allclose(weights, true_weights, atol=1e-6)
    assert bias[0] == pytest.approx(3.0, abs=1e-6)
    assert accumulator.num_samples == 200


def test_ridge_accumulator_sample_weights(rng):
    # Heavily weighting a subset makes the fit follow that subset.
    x = np.concatenate([np.full((50, 1), 1.0), np.full((50, 1), 2.0)])
    y = np.concatenate([np.full(50, 10.0), np.full(50, 0.0)])
    unweighted = RidgeAccumulator(num_features=1, alpha=1e-9)
    unweighted.add_batch(x, y)
    weighted = RidgeAccumulator(num_features=1, alpha=1e-9)
    weights = np.concatenate([np.full(50, 100.0), np.full(50, 1.0)])
    weighted.add_batch(x, y, weights)
    _, bias_unweighted = unweighted.solve()
    w_weighted, bias_weighted = weighted.solve()
    pred_at_1_unweighted = 1.0 * unweighted.solve()[0][0, 0] + bias_unweighted[0]
    pred_at_1_weighted = 1.0 * w_weighted[0, 0] + bias_weighted[0]
    assert abs(pred_at_1_weighted - 10.0) < abs(pred_at_1_unweighted - 10.0)
    with pytest.raises(ValueError):
        weighted.add_batch(x, y, np.full(10, 1.0))
    with pytest.raises(ValueError):
        weighted.add_batch(x, y, -weights)


def test_ridge_accumulator_validation():
    accumulator = RidgeAccumulator(num_features=2)
    with pytest.raises(RuntimeError):
        accumulator.solve()
    with pytest.raises(ValueError):
        accumulator.add_batch(np.zeros((3, 5)), np.zeros(3))
    with pytest.raises(ValueError):
        RidgeAccumulator(num_features=0)


def test_grid_scoring_head_shapes_and_clipping():
    head = GridScoringHead(
        class_names=("car", "bus"),
        weights=np.array([[10.0, 0.0], [0.0, -10.0]]),
        bias=np.array([0.0, 0.5]),
    )
    features = np.zeros((4, 4, 2))
    features[0, 0, 0] = 1.0  # strong car feature
    features[1, 1, 1] = 1.0  # strong anti-bus feature
    scores = head.score(features)
    assert set(scores) == {"car", "bus"}
    assert scores["car"].shape == (4, 4)
    assert scores["car"][0, 0] == 1.0  # clipped to [0, 1]
    assert scores["bus"][1, 1] == 0.0
    with pytest.raises(ValueError):
        head.score(np.zeros((4, 4, 3)))
    with pytest.raises(ValueError):
        GridScoringHead(class_names=("car",), weights=np.zeros((2, 3)), bias=np.zeros(2))


def _unbiased_head(num_classes: int) -> GridScoringHead:
    """A head whose ``class_planes`` only clips and suppresses."""
    return GridScoringHead(
        class_names=tuple(f"class{index}" for index in range(num_classes)),
        weights=np.zeros((num_classes, 1)),
        bias=np.zeros(num_classes),
    )


def test_thresholded_sum_and_count_features():
    scores = np.zeros((8, 8))
    scores[0, 0] = 0.9
    scores[0, 1] = 0.8
    scores[5, 5] = 0.7
    scores[7, 7] = 0.1  # below threshold
    features = batch_count_features(scores[None, None], 0.2)
    assert features.shape == (1, 1, len(COUNT_FEATURE_NAMES))
    assert features[0, 0, 0] == pytest.approx(2.4)  # score mass: the thresholded sum
    assert features[0, 0, 1] == 3  # occupied cells
    assert features[0, 0, 2] == 2  # two connected blobs
    assert np.all(batch_count_features(np.zeros((1, 1, 4, 4)), 0.2) == 0)


def test_suppress_cross_class():
    car = np.array([[0.9, 0.1], [0.3, 0.0]])
    bus = np.array([[0.4, 0.3], [0.6, 0.0]])
    raw = np.stack([car, bus], axis=-1)[None]  # (N, g, g, C)
    suppressed = _unbiased_head(2).class_planes(raw, threshold=0.2)[:, 0]
    # Cell (0,0): car wins, bus zeroed; cell (1,0): bus wins, car zeroed.
    assert suppressed[0, 0, 0] == pytest.approx(0.9)
    assert suppressed[1, 0, 0] == 0.0
    assert suppressed[0, 1, 0] == 0.0
    assert suppressed[1, 1, 0] == pytest.approx(0.6)
    # Cell (0,1): max (bus, 0.3) is above threshold, so car (0.1) is zeroed.
    assert suppressed[0, 0, 1] == 0.0


# Cell values around the 0.2 threshold, with repeats so classes tie often.
_CELL_VALUES = st.sampled_from([-0.3, 0.0, 0.1, 0.2, 0.2, 0.5, 0.5, 1.0, 1.3])


@st.composite
def _raw_score_stacks(draw):
    """Raw ``(N, g, g, C)`` head outputs whose planes are random, all empty
    or all occupied."""
    classes = draw(st.integers(1, 3))
    frames = draw(st.integers(1, 4))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    raw = np.empty((frames, rows, cols, classes))
    for frame in range(frames):
        for index in range(classes):
            kind = draw(st.sampled_from(["random", "random", "empty", "full"]))
            if kind == "random":
                cells = draw(st.lists(_CELL_VALUES, min_size=rows * cols, max_size=rows * cols))
                raw[frame, :, :, index] = np.reshape(cells, (rows, cols))
            else:
                raw[frame, :, :, index] = 0.0 if kind == "empty" else 0.7
    return raw


def _edge_blobs() -> np.ndarray:
    """Blobs on the bottom edge of each plane and the top edge of the next,
    and a fully occupied plane beside a fully occupied plane: stacked planes
    whose blobs must not merge."""
    raw = np.zeros((3, 4, 5, 2))
    raw[0, -1, :, 0] = 0.9
    raw[1, 0, :, 0] = 0.9
    raw[1, :, -1, 1] = 0.8
    raw[2, :, :, :] = 0.6
    return raw


@settings(max_examples=60, deadline=None)
@given(_raw_score_stacks())
@example(_edge_blobs())
def test_batched_count_features_equal_the_per_frame_head(raw):
    """``class_planes`` + ``batch_count_features`` over a whole stack equal
    suppression and ``count_features`` run plane by plane, bit for bit."""
    threshold = 0.2
    frames, _, _, classes = raw.shape
    head = _unbiased_head(classes)
    planes = head.class_planes(raw, threshold)
    features = batch_count_features(planes, threshold)
    assert features.shape == (frames, classes, len(COUNT_FEATURE_NAMES))
    clipped = np.clip(raw, 0.0, 1.0)
    for frame in range(frames):
        suppressed = reference_suppress_cross_class(
            {name: clipped[frame, :, :, index] for index, name in enumerate(head.class_names)},
            threshold,
        )
        for index, name in enumerate(head.class_names):
            assert np.array_equal(planes[index, frame], suppressed[name])
            expected = reference_count_features(suppressed[name], threshold)
            assert np.array_equal(features[frame, index], expected)


def test_count_calibration_fit_and_estimate():
    class_names = ("car", "bus")
    rng = np.random.default_rng(0)
    features = rng.uniform(0, 10, size=(100, 2, len(COUNT_FEATURE_NAMES)))
    true_counts = features[:, :, 2] * 1.0 + 0.5  # counts follow blob count
    calibration = CountCalibration.fit(class_names, features, true_counts)
    raw, rounded = calibration.estimate(
        {"car": features[0, 0], "bus": features[0, 1]}
    )
    assert raw["car"] == pytest.approx(true_counts[0, 0], abs=0.2)
    assert rounded["car"] == round(raw["car"])
    # A degenerate class (never appears) falls back to its mean.
    features[:, 1, :] = 0.0
    zero_counts = true_counts.copy()
    zero_counts[:, 1] = 0.0
    calibration = CountCalibration.fit(class_names, features, zero_counts)
    raw, rounded = calibration.estimate({"car": features[0, 0], "bus": np.zeros(3)})
    assert rounded["bus"] == 0
    with pytest.raises(ValueError):
        CountCalibration.fit(class_names, features[:, :1, :], true_counts)


def test_pooled_count_head():
    head = PooledCountHead(weights=np.array([2.0, 0.0]), bias=1.0)
    assert head.estimate(np.array([3.0, 100.0])) == pytest.approx(7.0)
    assert head.estimate(np.array([-10.0, 0.0])) == 0.0  # clamped at zero
    with pytest.raises(ValueError):
        head.estimate(np.zeros(3))


@settings(max_examples=25)
@given(
    st.lists(st.floats(0, 1), min_size=16, max_size=16),
    st.floats(0.05, 0.9),
)
def test_count_features_invariants(values, threshold):
    scores = np.array(values).reshape(4, 4)
    mass, cells, blobs = batch_count_features(scores[None, None], threshold)[0, 0]
    assert 0 <= blobs <= cells <= 16
    assert mass <= scores.sum() + 1e-9
    assert mass >= threshold * cells - 1e-9 or cells == 0
