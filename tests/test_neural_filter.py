"""Tests for the CNN branch-network filter (the repro.nn-based implementation)."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from repro.detection import ReferenceDetector, annotate_stream
from repro.detection.annotation import AnnotatedFrame, AnnotationSet
from repro.filters import NeuralTrainingConfig, build_branch_network, train_neural_filter
from repro.filters.neural import NeuralBranchFilter
from repro.filters.training import _training_tensors
from repro.nn.layers import Conv2D, Dense, Layer, MaxPool2D
from repro.spatial.grid import Grid
from repro.video.stream import Frame


def _neural_filter(image_size=32, grid_size=8, frame_width=64, frame_height=32):
    network = build_branch_network(
        num_classes=2, image_size=image_size, grid_size=grid_size, base_channels=4
    )
    return NeuralBranchFilter(
        network=network,
        class_names=("car", "person"),
        image_size=image_size,
        grid_size=grid_size,
        frame_width=frame_width,
        frame_height=frame_height,
    )


def _frame(index: int, height: int, width: int, seed: int = 0) -> Frame:
    rng = np.random.default_rng((seed, index))
    image = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    return Frame(index=index, image=image, ground_truth=None)


def test_prepare_input_handles_rectangular_frames():
    """Regression: width used to be indexed with height-derived indices, so
    any ``width != height`` frame either raised or sampled wrong columns."""
    neural = _neural_filter(image_size=32)
    # Both axes divisible: 32x64 -> per-axis block means.
    image = np.zeros((32, 64, 3), dtype=np.uint8)
    image[:, 32:, :] = 255  # right half white
    prepared = neural._prepare_input(image)
    assert prepared.shape == (1, 3, 32, 32)
    np.testing.assert_allclose(prepared[0, :, :, :16], 0.0)
    np.testing.assert_allclose(prepared[0, :, :, 16:], 1.0)
    # Non-divisible axes fall back to per-axis nearest-neighbour sampling.
    ragged = neural._prepare_input(np.zeros((48, 36, 3), dtype=np.uint8))
    assert ragged.shape == (1, 3, 32, 32)
    # End-to-end predict on a rectangular frame.
    prediction = neural.predict(_frame(0, height=32, width=64))
    assert set(prediction.class_counts) == {"car", "person"}


def test_neural_predict_batch_matches_predict():
    neural = _neural_filter(image_size=32, frame_width=32, frame_height=32)
    frames = [_frame(index, height=32, width=32) for index in range(5)]
    sequential = [neural.predict(frame) for frame in frames]
    batched = neural.predict_batch(frames)
    assert len(batched) == len(frames)
    assert batched.frame_indices == tuple(range(5))
    for seq, bat in zip(sequential, batched):
        assert seq.class_counts == bat.class_counts
        for name in seq.class_scores:
            assert bat.class_scores[name] == pytest.approx(seq.class_scores[name], abs=1e-9)
        for name in seq.location_scores:
            np.testing.assert_allclose(
                bat.location_scores[name], seq.location_scores[name], atol=1e-9
            )


def test_branch_network_output_shapes():
    network = build_branch_network(num_classes=2, image_size=32, grid_size=8, base_channels=4)
    x = np.random.default_rng(0).normal(size=(3, 3, 32, 32))
    outputs = network.forward(x)
    assert outputs["counts"].shape == (3, 2)
    assert outputs["grid"].shape == (3, 2, 8, 8)
    assert np.all(outputs["counts"] >= 0)  # ReLU count head
    assert np.all((outputs["grid"] >= 0) & (outputs["grid"] <= 1))  # sigmoid grid head
    with pytest.raises(ValueError):
        build_branch_network(num_classes=2, image_size=30, grid_size=8)


def test_non_finite_weights_are_refused_at_construction():
    network = build_branch_network(num_classes=1, image_size=8, grid_size=4)
    network.trunk.layers[0].weight[0, 0, 0, 0] = float("nan")
    with pytest.raises(ValueError, match="non-finite") as excinfo:
        NeuralBranchFilter(
            network, class_names=("car",), image_size=8, grid_size=4,
            frame_width=16, frame_height=16,
        )
    assert "trunk layer 0 Conv2D" in str(excinfo.value)


class _Widen(Layer):
    """Casts its input to float64, drifting an eval pass off float32."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return inputs.astype(np.float64)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


def _miswire_count_head(network):
    network.heads["counts"].layers[1] = Dense(16, 2, seed=0)  # the trunk gives 8


def _miswire_grid_head(network):
    network.heads["grid"].layers[0] = Conv2D(16, 2, kernel_size=1, seed=0)  # the trunk gives 8


def _widen_grid_head(network):
    network.heads["grid"].layers[0] = Conv2D(8, 3, kernel_size=1, seed=0)  # three classes


def _collapse_convolution(network):
    network.trunk.layers[0] = Conv2D(3, 8, kernel_size=9, seed=0)  # 8x8 input


def _indivisible_pool(network):
    network.trunk.layers[2] = MaxPool2D(3)  # 8x8 input


def _drift_dtype(network):
    network.trunk.layers.insert(0, _Widen())


@pytest.mark.parametrize(
    "break_network, class_names, named",
    [
        pytest.param(
            _miswire_count_head, ("car", "person"), "head.counts[1] Dense",
            id="channel-miswiring",
        ),
        pytest.param(
            _miswire_grid_head, ("car", "person"), "head.grid[0] Conv2D",
            id="grid-head-miswiring",
        ),
        # Three classes demanded of a two-class network.
        pytest.param(
            None, ("car", "person", "bus"), "head 'counts' gives (1, 2) float32",
            id="head-mismatch",
        ),
        pytest.param(
            _widen_grid_head, ("car", "person"), "head 'grid' gives (1, 3, 4, 4) float32",
            id="grid-head-mismatch",
        ),
        pytest.param(
            _collapse_convolution, ("car", "person"), "trunk[0] Conv2D", id="collapsed-conv"
        ),
        pytest.param(
            _indivisible_pool, ("car", "person"), "trunk[2] MaxPool2D", id="indivisible-pool"
        ),
        pytest.param(
            _drift_dtype, ("car", "person"), "head 'counts' gives (1, 2) float64",
            id="dtype-drift",
        ),
    ],
)
def test_construction_refuses_a_malformed_network(break_network, class_names, named):
    """One forward pass at construction refuses the network, naming the
    layer that raised (its own error chained) or the head that misshapes."""
    network = build_branch_network(num_classes=2, image_size=8, grid_size=4)
    if break_network is not None:
        break_network(network)
    with pytest.raises(ValueError, match=re.escape(named)) as excinfo:
        NeuralBranchFilter(
            network, class_names=class_names, image_size=8, grid_size=4,
            frame_width=64, frame_height=64,
        )
    if "[" in named:
        assert excinfo.value.__cause__ is not None
    assert network.training


def test_trunk_failure_stops_before_the_heads():
    """A trunk that raises is named; the heads, miswired too, never run."""
    network = build_branch_network(num_classes=2, image_size=8, grid_size=4)
    network.trunk.layers[2] = MaxPool2D(5)
    _miswire_count_head(network)
    with pytest.raises(ValueError, match=re.escape("trunk[2] MaxPool2D")) as excinfo:
        NeuralBranchFilter(
            network, class_names=("car", "person"), image_size=8, grid_size=4,
            frame_width=64, frame_height=64,
        )
    assert "head" not in str(excinfo.value)


def test_branch_network_heads_keep_the_batch_dimension():
    """In eval mode each head keeps the batch size and float32 of its input."""
    network = build_branch_network(2, image_size=56, grid_size=14)
    network.set_training(False)
    for batch in (1, 4):
        outputs = network.forward(np.zeros((batch, 3, 56, 56), np.float32))
        assert outputs["counts"].shape == (batch, 2)
        assert outputs["grid"].shape == (batch, 2, 14, 14)
        assert all(output.dtype == np.float32 for output in outputs.values())


def test_neural_branch_filter_construction_is_clean_by_default():
    """The defaults build an OD filter that predicts every class it names."""
    network = build_branch_network(2, image_size=8, grid_size=4)
    built = NeuralBranchFilter(
        network, class_names=("car", "person"), image_size=8, grid_size=4,
        frame_width=64, frame_height=64,
    )
    assert built.name == "od_neural_branch"
    assert built.threshold == 0.5
    prediction = built.predict(_frame(0, height=64, width=64))
    assert set(prediction.class_counts) == {"car", "person"}


@pytest.mark.parametrize(
    "num_classes, image_size, grid_size",
    [(2, 56, 14), (3, 56, 14), (2, 8, 4), (2, 28, 7), (1, 16, 4)],
)
def test_build_branch_network_configs_construct_clean(num_classes, image_size, grid_size):
    """Every network the repo builds passes, and keeps its training mode."""
    class_names = tuple(f"class{index}" for index in range(num_classes))
    for training in (True, False):
        network = build_branch_network(
            num_classes, image_size=image_size, grid_size=grid_size
        )
        network.set_training(training)
        built = NeuralBranchFilter(
            network, class_names=class_names, image_size=image_size,
            grid_size=grid_size, frame_width=64, frame_height=64,
        )
        assert built.name == "od_neural_branch"
        assert network.training is training
        assert all(
            layer.training is training
            for stack in (network.trunk, *network.heads.values())
            for layer in stack.layers
        )


def test_neural_training_config_validation():
    with pytest.raises(ValueError):
        NeuralTrainingConfig(image_size=50, grid_size=8)
    with pytest.raises(ValueError):
        NeuralTrainingConfig(epochs=0)


@pytest.mark.slow
def test_neural_filter_end_to_end(tiny_jackson):
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=0)
    grid = tiny_jackson.grid(56)
    annotations = annotate_stream(
        tiny_jackson.train,
        detector,
        tiny_jackson.class_names,
        grid,
        frame_indices=range(0, 60, 2),
    )
    config = NeuralTrainingConfig(
        image_size=32, grid_size=8, epochs=3, warmup_epochs=1, batch_size=8, base_channels=4
    )
    neural = train_neural_filter(
        tiny_jackson.train, annotations, tiny_jackson.class_names, config=config
    )
    prediction = neural.predict(tiny_jackson.test.frame(0))
    assert prediction.grid.shape == (8, 8)
    assert set(prediction.class_counts) == set(tiny_jackson.class_names)
    # The trained network should at least track the total count loosely on
    # the frames it was trained on (sanity that learning happened at all).
    errors = []
    for annotated in list(annotations)[:10]:
        frame = tiny_jackson.train.frame(annotated.frame_index)
        errors.append(abs(neural.predict(frame).total_count - annotated.total_count))
    assert np.mean(errors) < 2.5


class _RectangularStream:
    """What ``train_neural_filter`` uses of a stream: ``frame(index)``."""

    def __init__(self, height: int, width: int) -> None:
        self.height, self.width = height, width

    def frame(self, index: int) -> Frame:
        return _frame(index, self.height, self.width, seed=7)


@pytest.mark.parametrize("height,width", [(32, 64), (64, 128), (48, 36)])
def test_train_neural_filter_on_rectangular_frames(height, width):
    """Regression: the trainer had its own square-only resize, which left a
    32x64 frame unresized, died in a reshape on 64x128 and indexed 48x36 out
    of range; it now shares the filter's per-axis input preparation."""
    class_names = ("car", "person")
    rng = np.random.default_rng(1)
    annotations = AnnotationSet(
        stream_name="rectangular",
        class_names=class_names,
        grid=Grid(rows=16, cols=16, frame_width=width, frame_height=height),
        frames=[
            AnnotatedFrame(
                frame_index=index,
                counts={"car": index % 3, "person": index % 2},
                location_grids={name: rng.random((16, 16)) < 0.1 for name in class_names},
            )
            for index in range(6)
        ],
    )
    stream = _RectangularStream(height, width)
    config = NeuralTrainingConfig(
        image_size=32, grid_size=8, epochs=1, warmup_epochs=0, batch_size=4, base_channels=2
    )
    neural = train_neural_filter(stream, annotations, class_names, config=config)
    seen = []
    forward = neural.network.forward
    neural.network.forward = lambda inputs: seen.append(inputs.shape) or forward(inputs)
    batch = neural.predict_batch([stream.frame(index) for index in range(3)])
    assert seen == [(3, 3, 32, 32)]
    assert all(prediction.grid.shape == (8, 8) for prediction in batch)
    assert (neural.grid.frame_width, neural.grid.frame_height) == (width, height)
    # Training consumed the same preparation, in the training dtype.
    images, counts, grids = _training_tensors(stream, annotations, neural, config.batch_size)
    assert images.shape == (6, 3, 32, 32) and images.dtype == np.float64
    assert counts.shape == (6, 2) and grids.shape == (6, 2, 8, 8)
    for position in range(6):
        expected = neural._prepare_input(stream.frame(position).image, np.dtype(np.float64))
        assert np.array_equal(images[position], expected[0])


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(str((array.dtype, array.shape)).encode())
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def test_one_training_epoch_and_one_chunk_are_pinned(tiny_jackson):
    """Both digests were computed before construction ran a forward pass.

    So that pass moves no bit of training (the first digest covers every
    trained parameter) or of inference (the second, one eval-mode chunk's
    count scores and occupancy grids).
    """
    class_names = tiny_jackson.class_names
    annotations = annotate_stream(
        tiny_jackson.train,
        ReferenceDetector(class_names=class_names, seed=0),
        class_names,
        tiny_jackson.grid(56),
        frame_indices=range(0, 48, 2),
    )
    config = NeuralTrainingConfig(
        image_size=32, grid_size=8, epochs=1, warmup_epochs=0, batch_size=8,
        base_channels=4, seed=2,
    )
    neural = train_neural_filter(tiny_jackson.train, annotations, class_names, config=config)
    parameters = [
        param for params, _ in neural.network.parameter_groups() for param in params.values()
    ]
    assert _digest(*parameters) == (
        "2e8f0ac13446735cc59ca59fbaaa07da206b413ca201f985e01a74ee0d53051a"
    )
    neural.network.set_training(False)
    batch = neural.predict_batch([tiny_jackson.test.frame(index) for index in range(16)])
    counts = np.array([[p.class_scores[name] for name in class_names] for p in batch])
    grids = np.stack(
        [np.stack([p.location_scores[name] for name in class_names]) for p in batch]
    )
    assert _digest(counts, grids) == (
        "a4adefb087fb34130e3dbfa276b151332a5b341d05a12f7b277d3a9ff3f68a09"
    )
