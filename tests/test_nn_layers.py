"""Gradient checks and shape tests for the numpy neural-network layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Dense,
    GlobalAveragePooling2D,
    LeakyReLU,
    MaxPool2D,
    MSELoss,
    ReLU,
    Sequential,
    Sigmoid,
    gradient_check,
)


def _input_gradient_error(layer, shape, seed=0):
    """Finite-difference check of dL/d(input) through a single layer."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    target_shape = layer.forward(x.copy()).shape
    target = rng.normal(size=target_shape)
    loss = MSELoss()

    def forward(inputs):
        return loss.forward(layer.forward(inputs), target)

    def grad(inputs):
        loss.forward(layer.forward(inputs), target)
        layer.zero_grad()
        return layer.backward(loss.backward())

    return gradient_check(forward, grad, x, num_checks=12, seed=seed)


@pytest.mark.parametrize(
    "layer, shape",
    [
        (ReLU(), (2, 3, 4, 4)),
        (LeakyReLU(0.1), (2, 3, 4, 4)),
        (Sigmoid(), (2, 5)),
        (MaxPool2D(3), (2, 2, 6, 6)),
        (Dense(12, 7, seed=1), (3, 12)),
        (Conv2D(3, 5, kernel_size=3, padding=1, seed=2), (2, 3, 6, 6)),
        (Conv2D(2, 4, kernel_size=3, stride=2, padding=1, seed=3), (2, 2, 8, 8)),
        (Conv2D(2, 3, kernel_size=1, seed=4), (2, 2, 5, 5)),
        (MaxPool2D(2), (2, 3, 8, 8)),
        (GlobalAveragePooling2D(), (2, 4, 6, 6)),
    ],
)
def test_layer_input_gradients(layer, shape):
    assert _input_gradient_error(layer, shape) < 1e-5


def test_conv_parameter_gradients():
    rng = np.random.default_rng(0)
    layer = Conv2D(2, 3, kernel_size=3, padding=1, seed=5)
    x = rng.normal(size=(2, 2, 5, 5))
    target = rng.normal(size=(2, 3, 5, 5))
    loss = MSELoss()

    def forward(weights):
        layer.weight[...] = weights
        return loss.forward(layer.forward(x), target)

    def grad(weights):
        layer.weight[...] = weights
        loss.forward(layer.forward(x), target)
        layer.zero_grad()
        layer.backward(loss.backward())
        return layer.grad_weight

    error = gradient_check(forward, grad, layer.weight.copy(), num_checks=15, seed=1)
    assert error < 1e-5


def test_dense_shapes_and_validation():
    dense = Dense(4, 2, seed=0)
    out = dense.forward(np.zeros((3, 4)))
    assert out.shape == (3, 2)
    with pytest.raises(ValueError):
        dense.forward(np.zeros((3, 4, 1)))
    with pytest.raises(ValueError):
        Dense(0, 2)


def test_conv_output_shapes():
    conv = Conv2D(3, 8, kernel_size=3, stride=1, padding=1)
    assert conv.forward(np.zeros((1, 3, 16, 16))).shape == (1, 8, 16, 16)
    strided = Conv2D(3, 8, kernel_size=3, stride=2, padding=1)
    assert strided.forward(np.zeros((1, 3, 16, 16))).shape == (1, 8, 8, 8)
    with pytest.raises(ValueError):
        conv.forward(np.zeros((1, 4, 16, 16)))
    with pytest.raises(ValueError):
        Conv2D(3, 8, kernel_size=3, padding=-1)


def test_maxpool_requires_divisible_input():
    pool = MaxPool2D(3)
    with pytest.raises(ValueError):
        pool.forward(np.zeros((1, 1, 8, 8)))
    out = pool.forward(np.arange(81, dtype=float).reshape(1, 1, 9, 9))
    assert out.shape == (1, 1, 3, 3)
    assert out[0, 0, 0, 0] == 20  # max of the first 3x3 block


def test_backward_before_forward_raises():
    for layer in (ReLU(), Sigmoid(), MaxPool2D(2), GlobalAveragePooling2D()):
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1)))


def test_sequential_composition_gradients():
    network = Sequential(
        [
            Conv2D(1, 4, kernel_size=3, padding=1, seed=0),
            ReLU(),
            MaxPool2D(2),
            GlobalAveragePooling2D(),
            Dense(4, 2, seed=1),
        ]
    )
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 1, 6, 6))
    target = rng.normal(size=(2, 2))
    loss = MSELoss()

    def forward(inputs):
        return loss.forward(network.forward(inputs), target)

    def grad(inputs):
        loss.forward(network.forward(inputs), target)
        network.zero_grad()
        return network.backward(loss.backward())

    assert gradient_check(forward, grad, x, num_checks=10) < 1e-5
    assert network.num_parameters() > 0
