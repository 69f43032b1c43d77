"""Tests for the eval-mode inference fast path of the nn framework.

``set_training(False)`` must (a) allocate no backward caches in any layer,
(b) make ``backward`` fail with a clear eval-mode error, (c) preserve a
float32 input dtype end to end, and (d) produce outputs that agree with the
float64 training-mode forward to float32 precision.  ``Conv2D`` must
additionally reuse its preallocated im2col scratch across eval calls, and
leave it out of pickles and deep copies.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.filters.neural import NeuralBranchFilter, build_branch_network
from repro.nn.layers import (
    Conv2D,
    Dense,
    GlobalAveragePooling2D,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Sigmoid,
)
from repro.nn.network import MultiHeadNetwork, Sequential


def _all_layers() -> list:
    return [
        ReLU(),
        LeakyReLU(0.1),
        Sigmoid(),
        Dense(12, 5, seed=0),
        Conv2D(3, 4, kernel_size=3, padding=1, seed=0),
        MaxPool2D(2),
        GlobalAveragePooling2D(),
    ]


def _input_for(layer, rng) -> np.ndarray:
    if isinstance(layer, Dense):
        return rng.normal(size=(2, 12))
    return rng.normal(size=(2, 3, 8, 8))


_CACHE_ATTRS = {
    ReLU: ("_mask",),
    LeakyReLU: ("_mask",),
    Sigmoid: ("_output",),
    Dense: ("_inputs",),
    Conv2D: ("_cols", "_input_shape", "_out_hw"),
    MaxPool2D: ("_argmax", "_inputs_shape"),
    GlobalAveragePooling2D: ("_input_shape",),
}


def test_eval_mode_layers_allocate_no_caches(rng):
    for layer in _all_layers():
        layer.training = False
        layer.forward(_input_for(layer, rng))
        for attr in _CACHE_ATTRS[type(layer)]:
            assert getattr(layer, attr) is None, f"{type(layer).__name__}.{attr}"


def test_eval_mode_backward_raises_clear_error(rng):
    for layer in _all_layers():
        layer.training = False
        output = layer.forward(_input_for(layer, rng))
        with pytest.raises(RuntimeError, match="eval mode"):
            layer.backward(np.zeros_like(np.asarray(output)))


def test_training_mode_still_caches_and_backprops(rng):
    layer = ReLU()
    inputs = rng.normal(size=(2, 5))
    layer.forward(inputs)
    assert layer._mask is not None
    grads = layer.backward(np.ones((2, 5)))
    assert grads.shape == (2, 5)


def test_eval_forward_matches_training_forward(rng):
    for layer in _all_layers():
        inputs = _input_for(layer, rng)
        layer.training = True
        expected = layer.forward(inputs)
        layer.training = False
        observed = layer.forward(inputs)
        assert np.allclose(np.asarray(expected), np.asarray(observed))


def test_sigmoid_preserves_float32():
    layer = Sigmoid()
    out32 = layer.forward(np.array([[-3.0, 0.0, 3.0]], dtype=np.float32))
    assert out32.dtype == np.float32
    out64 = layer.forward(np.array([[-3.0, 0.0, 3.0]], dtype=np.float64))
    assert out64.dtype == np.float64
    # Integer inputs keep promoting to float64 as before.
    assert layer.forward(np.array([[0, 1]], dtype=np.int64)).dtype == np.float64
    # The stable branches agree with the naive formula.
    x = np.linspace(-30, 30, 61)
    assert np.allclose(layer.forward(x), 1.0 / (1.0 + np.exp(-x)))


def test_eval_mode_preserves_float32_end_to_end(rng):
    network = Sequential(
        [
            Conv2D(3, 4, kernel_size=3, padding=1, seed=1),
            LeakyReLU(0.1),
            MaxPool2D(2),
            GlobalAveragePooling2D(),
            Dense(4, 2, seed=2),
            Sigmoid(),
        ]
    )
    network.set_training(False)
    inputs = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    output = network.forward(inputs)
    assert output.dtype == np.float32
    network.set_training(True)
    reference = network.forward(inputs.astype(np.float64))
    assert np.allclose(reference, output.astype(np.float64), atol=1e-5)


def test_eval_mode_integer_inputs_promote_instead_of_truncating(rng):
    """Integer activations must not drag float weights down to int dtypes."""
    dense = Dense(3, 2, seed=0)
    inputs = np.array([[1, 2, 3]], dtype=np.int64)
    dense.training = True
    expected = dense.forward(inputs.astype(np.float64))
    dense.training = False
    observed = dense.forward(inputs)
    assert np.issubdtype(observed.dtype, np.floating)
    assert np.allclose(expected, observed)

    conv = Conv2D(3, 4, kernel_size=3, padding=1, seed=0)
    images = rng.integers(0, 255, size=(1, 3, 8, 8)).astype(np.uint8)
    conv.training = True
    expected = conv.forward(images.astype(np.float64))
    conv.training = False
    observed = conv.forward(images)
    assert np.issubdtype(observed.dtype, np.floating)
    assert np.allclose(expected, observed)


def test_conv2d_reuses_im2col_buffer_across_eval_calls(rng):
    conv = Conv2D(3, 4, kernel_size=3, padding=1, seed=0)
    conv.training = False
    inputs = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    first = conv.forward(inputs)
    gather = conv._infer_buffers["gather"]
    flat = conv._infer_buffers["flat"]
    padded = conv._infer_buffers["padded"]
    assert padded.shape == (2, 3, 10, 10) and padded.dtype == np.float32
    assert np.array_equal(conv.forward(inputs), first)
    assert conv._infer_buffers["gather"] is gather
    assert conv._infer_buffers["flat"] is flat
    assert conv._infer_buffers["padded"] is padded
    # Only the interior is ever written: the border is still the zeros it
    # was created with, and the interior is the (all non-zero) input.
    assert np.array_equal(padded[:, :, 1:-1, 1:-1], inputs)
    border = padded.copy()
    border[:, :, 1:-1, 1:-1] = 0
    assert not border.any()
    # A different geometry reallocates instead of corrupting the result.
    bigger = rng.normal(size=(1, 3, 16, 16)).astype(np.float32)
    out = conv.forward(bigger)
    assert out.shape == (1, 4, 16, 16)
    assert conv._infer_buffers["flat"] is not flat
    assert conv._infer_buffers["padded"] is not padded
    assert conv._infer_buffers["padded"].shape == (1, 3, 18, 18)
    # So does a different dtype at the same geometry.
    padded = conv._infer_buffers["padded"]
    assert conv.forward(bigger.astype(np.float64)).dtype == np.float64
    assert conv._infer_buffers["padded"] is not padded
    assert conv._infer_buffers["padded"].dtype == np.float64
    # No padding, no padded scratch: the gather reads the input directly.
    pointwise = Conv2D(3, 4, kernel_size=1, seed=0)
    pointwise.training = False
    pointwise.forward(inputs)
    assert sorted(pointwise._infer_buffers) == ["flat", "gather"]


def test_conv2d_scratch_stays_out_of_pickles_and_deep_copies(rng):
    """Each filter worker thread deep-copies the cascade; neither that copy
    nor a pickle should carry megabytes of im2col scratch."""
    conv = Conv2D(3, 8, kernel_size=3, padding=1, seed=0)
    conv.training = False
    fresh = len(pickle.dumps(conv))
    inputs = rng.normal(size=(16, 3, 56, 56)).astype(np.float32)
    expected = conv.forward(inputs)
    assert sum(buffer.nbytes for buffer in conv._infer_buffers.values()) > 100 * fresh
    assert len(pickle.dumps(conv)) <= 2 * fresh
    for clone in (pickle.loads(pickle.dumps(conv)), copy.deepcopy(conv)):
        assert clone._infer_buffers == {}
        assert clone.training is False
        assert np.array_equal(clone.forward(inputs), expected)
        assert clone._infer_buffers["flat"] is not conv._infer_buffers["flat"]
    # The original keeps its scratch.
    assert set(conv._infer_buffers) == {"padded", "gather", "flat"}


def test_multi_head_network_eval_mode(rng):
    network = build_branch_network(num_classes=2, image_size=8, grid_size=4, seed=3)
    inputs = rng.normal(size=(2, 3, 8, 8))
    network.set_training(True)
    trained = network.forward(inputs)
    network.set_training(False)
    evaled = network.forward(inputs)
    assert network._trunk_output is None
    for name in trained:
        assert np.allclose(trained[name], evaled[name], atol=1e-6)
    with pytest.raises(RuntimeError, match="eval mode"):
        network.backward({"counts": np.zeros_like(evaled["counts"])})


def test_neural_filter_inference_parity(tiny_jackson):
    network = build_branch_network(num_classes=2, image_size=56, grid_size=14, seed=4)
    frame_filter = NeuralBranchFilter(
        network,
        tiny_jackson.class_names,
        image_size=56,
        grid_size=14,
        frame_width=tiny_jackson.profile.frame_width,
        frame_height=tiny_jackson.profile.frame_height,
    )
    frames = [tiny_jackson.test.frame(index) for index in range(6)]
    network.set_training(True)
    trained = frame_filter.predict_batch(frames)
    network.set_training(False)
    assert frame_filter._activation_dtype == np.float32
    inferred = frame_filter.predict_batch(frames)
    for a, b in zip(trained, inferred):
        assert a.class_counts == b.class_counts
        for name in a.class_scores:
            assert a.class_scores[name] == pytest.approx(b.class_scores[name], abs=1e-4)
        for name in a.location_scores:
            assert np.allclose(
                np.asarray(a.location_scores[name], dtype=np.float64),
                np.asarray(b.location_scores[name], dtype=np.float64),
                atol=1e-4,
            )
