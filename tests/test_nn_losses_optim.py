"""Tests for the losses, the Adam optimiser and the multi-head container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dense,
    GlobalAveragePooling2D,
    MSELoss,
    MultiHeadNetwork,
    ReLU,
    Sequential,
    SmoothL1Loss,
    Conv2D,
)


def test_mse_loss_value_and_gradient():
    loss = MSELoss()
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[1.0, 0.0], [3.0, 8.0]])
    value = loss.forward(pred, target)
    assert value == pytest.approx((0 + 4 + 0 + 16) / 4)
    grad = loss.backward()
    assert grad.shape == pred.shape
    assert grad[0, 1] == pytest.approx(2 * 2 / 4)
    with pytest.raises(ValueError):
        loss.forward(pred, target[:1])


def test_smooth_l1_is_quadratic_then_linear():
    loss = SmoothL1Loss(beta=1.0)
    small = loss.forward(np.array([0.5]), np.array([0.0]))
    assert small == pytest.approx(0.125)
    large = loss.forward(np.array([3.0]), np.array([0.0]))
    assert large == pytest.approx(2.5)
    grad = loss.backward()
    assert grad[0] == pytest.approx(1.0)  # sign(diff) / n
    with pytest.raises(ValueError):
        SmoothL1Loss(beta=0.0)


def test_adam_reduces_loss_on_regression():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 5))
    true_w = rng.normal(size=(5, 1))
    y = x @ true_w

    optimizer = Adam(learning_rate=0.05)
    layer = Dense(5, 1, seed=1)
    loss = MSELoss()
    first = None
    for _ in range(200):
        pred = layer.forward(x)
        value = loss.forward(pred, y)
        if first is None:
            first = value
        layer.zero_grad()
        layer.backward(loss.backward())
        optimizer.step([(layer.params(), layer.grads())])
    assert value < first * 0.05


def test_learning_rate_decay():
    optimizer = Adam(learning_rate=1e-2, lr_decay=0.1)
    assert optimizer.learning_rate == pytest.approx(1e-2)
    optimizer.step([])
    optimizer.step([])
    assert optimizer.learning_rate < 1e-2
    with pytest.raises(ValueError):
        Adam(learning_rate=-1)
    with pytest.raises(ValueError):
        Adam(lr_decay=-0.1)
    with pytest.raises(ValueError):
        Adam(beta1=1.5)


def test_multihead_network_forward_backward_and_frozen_trunk():
    trunk = Sequential([Conv2D(1, 2, kernel_size=3, padding=1, seed=0), ReLU()])
    heads = {
        "counts": Sequential([GlobalAveragePooling2D(), Dense(2, 3, seed=1)]),
        "grid": Sequential([Conv2D(2, 1, kernel_size=1, seed=2)]),
    }
    network = MultiHeadNetwork(trunk=trunk, heads=heads)
    x = np.random.default_rng(1).normal(size=(2, 1, 4, 4))
    outputs = network.forward(x)
    assert outputs["counts"].shape == (2, 3)
    assert outputs["grid"].shape == (2, 1, 4, 4)
    grad = network.backward({"counts": np.ones((2, 3)), "grid": np.ones((2, 1, 4, 4))})
    assert grad.shape == x.shape
    with pytest.raises(KeyError):
        network.backward({"unknown": np.ones((2, 3))})

    # Freezing the trunk excludes its parameters from the optimiser groups.
    assert len(network.parameter_groups(include_trunk=False)) < len(network.parameter_groups())

