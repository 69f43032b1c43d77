"""Bit-for-bit parity of the eval-mode ``nn`` forward and the batched input prep.

The eval forwards of ``LeakyReLU``, ``MaxPool2D`` and ``Conv2D`` and the
per-chunk input preparation of ``NeuralBranchFilter`` were rewritten for
speed under a no-bit-moves contract (DESIGN.md "NN inference fast path").
The expressions they replaced live on in ``tests/conftest.py`` as
``reference_*`` oracles; everything here is ``np.array_equal``, never
``allclose``.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import (
    reference_conv2d,
    reference_leaky_relu,
    reference_max_pool,
    reference_prepare_input,
)
from repro.analysis.sanitizers import sanitized_scan
from repro.filters.neural import NeuralBranchFilter, build_branch_network
from repro.nn.layers import Conv2D, GlobalAveragePooling2D, LeakyReLU, MaxPool2D
from repro.video.stream import Frame

_DTYPES = st.sampled_from([np.float32, np.float64])


def _eval(layer):
    layer.training = False
    return layer


@st.composite
def _activations(draw, non_finite: bool):
    """``(inputs, pool_size)``: NCHW, C-contiguous or an NCHW view of NHWC memory."""
    pool = draw(st.integers(1, 4))
    n, channels = draw(st.integers(1, 17)), draw(st.integers(1, 16))
    height, width = pool * draw(st.integers(1, 4)), pool * draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(_DTYPES)
    if draw(st.booleans()):
        inputs = rng.normal(size=(n, channels, height, width)).astype(dtype)
    else:  # what Conv2D returns
        inputs = rng.normal(size=(n, height, width, channels)).astype(dtype).transpose(0, 3, 1, 2)
    inputs[rng.random(inputs.shape) < 0.1] = 0.0
    if non_finite:
        special = rng.choice([np.inf, -np.inf, np.nan, -0.0], size=inputs.shape)
        where = rng.random(inputs.shape) < 0.05
        inputs[where] = special[where]
    return inputs, pool


@settings(max_examples=150, deadline=None)
@given(_activations(non_finite=False), st.sampled_from([0.0, 0.1, 1.0, 2.5]))
def test_leaky_relu_matches_the_reference_select(case, slope):
    inputs, _ = case
    observed = _eval(LeakyReLU(slope)).forward(inputs)
    expected = reference_leaky_relu(inputs, slope)
    assert observed.dtype == expected.dtype
    assert np.array_equal(observed, expected)
    assert np.array_equal(np.signbit(observed), np.signbit(expected))
    # Same memory order too: GAP reads the activation directly when the
    # trunk has no pool, and sums in that order.
    gap = _eval(GlobalAveragePooling2D())
    assert np.array_equal(gap.forward(observed), gap.forward(expected))


@settings(max_examples=100, deadline=None)
@given(_activations(non_finite=True), st.sampled_from([0.0, 0.1, 1.0, 2.5]))
def test_leaky_relu_keeps_non_finite_values_in_place(case, slope):
    inputs, _ = case
    with np.errstate(invalid="ignore"):
        observed = _eval(LeakyReLU(slope)).forward(inputs)
        expected = reference_leaky_relu(inputs, slope)
    if slope > 0:
        assert np.array_equal(observed, expected, equal_nan=True)
        return
    # 0 * inf is NaN, so at slope 0 an +inf input comes out NaN instead of
    # +inf; it is non-finite either way, which is all NU001/NU002 look at.
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(observed), finite)
    assert np.array_equal(observed[finite], expected[finite])


@settings(max_examples=150, deadline=None)
@given(_activations(non_finite=True))
def test_max_pool_matches_the_reference_reduction(case):
    inputs, pool = case
    observed = _eval(MaxPool2D(pool)).forward(inputs)
    expected = reference_max_pool(inputs, pool)
    assert observed.dtype == expected.dtype
    assert np.array_equal(observed, expected, equal_nan=True)
    assert not np.shares_memory(observed, inputs)


@settings(max_examples=100, deadline=None)
@given(_activations(non_finite=False))
def test_max_pool_keeps_the_memory_order_the_count_head_sums_in(case):
    """GAP sums in memory order, so the pool must not change its output's."""
    inputs, pool = case
    gap = _eval(GlobalAveragePooling2D())
    observed = gap.forward(_eval(MaxPool2D(pool)).forward(inputs))
    assert np.array_equal(observed, gap.forward(reference_max_pool(inputs, pool)))


@st.composite
def _conv_cases(draw):
    kernel, stride, padding = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    n, in_channels, out_channels = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    height, width = draw(st.integers(kernel, 9)), draw(st.integers(kernel, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = rng.normal(size=(n, in_channels, height, width)).astype(draw(_DTYPES))
    conv = Conv2D(in_channels, out_channels, kernel, stride=stride, padding=padding, seed=1)
    conv.bias[...] = rng.normal(size=out_channels)
    return _eval(conv), inputs


@settings(max_examples=100, deadline=None)
@given(_conv_cases())
def test_conv2d_matches_the_reference_unfold(case):
    conv, inputs = case
    expected = reference_conv2d(inputs, conv.weight, conv.bias, conv.stride, conv.padding)
    first = conv.forward(inputs)
    assert first.dtype == expected.dtype
    assert np.array_equal(first, expected)
    # Again through the now-warm scratch: the zero border must have survived.
    assert np.array_equal(conv.forward(inputs), expected)


# ----------------------------------------------------------------------
# Input preparation
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _filter(image_size: int, grid_size: int | None = None) -> NeuralBranchFilter:
    grid_size = grid_size or image_size
    network = build_branch_network(2, image_size=image_size, grid_size=grid_size, base_channels=2)
    network.set_training(False)
    return NeuralBranchFilter(
        network, ("car", "person"), image_size=image_size, grid_size=grid_size,
        frame_width=image_size, frame_height=image_size,
    )


def _images(rng, count, height, width):
    return [rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8) for _ in range(count)]


def _reference_batch(images, size, dtype):
    return np.concatenate([reference_prepare_input(image, size, dtype) for image in images])


@settings(max_examples=150, deadline=None)
@given(
    size=st.integers(1, 8),
    row_block=st.integers(1, 8),
    col_block=st.integers(1, 8),
    count=st.integers(1, 17),
    dtype=_DTYPES,
    seed=st.integers(0, 2**32 - 1),
)
def test_prepare_batch_matches_the_per_frame_block_mean(
    size, row_block, col_block, count, dtype, seed
):
    images = _images(np.random.default_rng(seed), count, size * row_block, size * col_block)
    observed = _filter(size)._prepare_batch(images, np.dtype(dtype))
    expected = _reference_batch(images, size, dtype)
    assert observed.dtype == expected.dtype and observed.shape == expected.shape
    assert np.array_equal(observed, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "height,width,size",
    [(112, 112, 56), (224, 224, 56), (168, 112, 56), (224, 112, 56), (448, 448, 56),
     (56, 56, 56), (112, 112, 32), (48, 36, 32)],
)
def test_prepare_batch_matches_the_reference_at_frame_sizes(height, width, size, dtype):
    """The last three skip the block mean: already square, and non-divisible."""
    images = _images(np.random.default_rng(height + width), 5, height, width)
    neural = _filter(size)
    observed = neural._prepare_batch(images, np.dtype(dtype))
    assert np.array_equal(observed, _reference_batch(images, size, dtype))
    for position, image in enumerate(images):
        single = neural._prepare_input(image, np.dtype(dtype))
        assert np.array_equal(single, reference_prepare_input(image, size, dtype))
        assert np.array_equal(single[0], observed[position])


def test_mixed_shape_batch_falls_back_to_per_frame_preparation():
    neural = _filter(32, 8)
    rng = np.random.default_rng(5)
    images = _images(rng, 2, 64, 64) + _images(rng, 1, 32, 64) + _images(rng, 1, 48, 36)
    observed = neural._prepare_batch(images)
    assert observed.dtype == np.float32
    assert np.array_equal(observed, _reference_batch(images, 32, np.float32))
    frames = [Frame(index, image, None) for index, image in enumerate(images)]
    batch = neural.predict_batch(frames)
    assert batch.frame_indices == (0, 1, 2, 3)
    assert all(prediction.grid.shape == (8, 8) for prediction in batch)


def test_predict_is_predict_batch_of_one_bit_for_bit():
    neural = _filter(32, 8)
    frame = Frame(3, _images(np.random.default_rng(9), 1, 64, 64)[0], None)
    single, batched = neural.predict(frame), neural.predict_batch([frame])[0]
    assert single.class_counts == batched.class_counts
    assert single.class_scores == batched.class_scores
    for name in single.location_scores:
        assert np.array_equal(single.location_scores[name], batched.location_scores[name])


# ----------------------------------------------------------------------
# One real chunk, end to end
# ----------------------------------------------------------------------
def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(str((array.dtype, array.shape)).encode())
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


@pytest.fixture()
def jackson_chunk(tiny_jackson):
    network = build_branch_network(num_classes=2, image_size=56, grid_size=14, seed=4)
    network.set_training(False)
    neural = NeuralBranchFilter(
        network, tiny_jackson.class_names, image_size=56, grid_size=14,
        frame_width=tiny_jackson.profile.frame_width,
        frame_height=tiny_jackson.profile.frame_height,
    )
    return neural, [tiny_jackson.test.frame(index) for index in range(16)]


def test_jackson_chunk_reproduces_the_digests_pinned_before_the_rewrite(jackson_chunk):
    """Both digests were computed at the commit before the fast path landed.

    The first covers the prepared inputs (elementwise arithmetic only); the
    second the two heads, and so every layer and the BLAS kernel under them.
    """
    neural, frames = jackson_chunk
    inputs = neural._prepare_batch([frame.image for frame in frames])
    assert _digest(inputs) == "9c3faa63769afda39407be289ed0e7dbbc5cb0bf7b3dc94078248e33b4c7036c"
    outputs = neural.network.forward(inputs)
    assert _digest(outputs["counts"], outputs["grid"]) == (
        "d93ec98e7436d844930d79636bef32553b5f40ddf59c9d56239c4337840e8710"
    )
    for position, prediction in enumerate(neural.predict_batch(frames)):
        scores = np.stack([prediction.location_scores[name] for name in neural.class_names])
        assert np.array_equal(scores, outputs["grid"][position])


def test_per_layer_sanitizer_hook_sees_every_rewritten_layer(jackson_chunk, monkeypatch):
    neural, frames = jackson_chunk
    plain = neural.predict_batch(frames)
    with sanitized_scan("numeric", strict=True) as session:
        seen = []
        check = session.check_layer_output

        def recording(network, position, layer, output):
            seen.append((position, type(layer).__name__, output.dtype))
            check(network, position, layer, output)

        monkeypatch.setattr(session, "check_layer_output", recording)
        checked = neural.predict_batch(frames)
    trunk = [(position, type(layer).__name__, np.float32)
             for position, layer in enumerate(neural.network.trunk.layers)]
    assert seen[: len(trunk)] == trunk
    assert [name for _, name, _ in trunk] == ["Conv2D", "LeakyReLU", "MaxPool2D"] * 2
    assert session.report().ok
    for a, b in zip(plain, checked):
        assert a.class_scores == b.class_scores
        for name in a.location_scores:
            assert np.array_equal(a.location_scores[name], b.location_scores[name])
