"""The Adam optimiser.

The paper trains its IC filters with Adam (learning rate 1e-4, exponential
decay 5e-4).  :class:`Adam` updates the parameter arrays of a network in
place given the accumulated gradients.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np


ParameterGroup = Sequence[tuple[Mapping[str, np.ndarray], Mapping[str, np.ndarray]]]


class Adam:
    """Adam optimiser (Kingma & Ba) over ``(params, grads)`` pairs, one per layer."""

    def __init__(
        self,
        learning_rate: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
        lr_decay: float = 0.0,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive: {learning_rate}")
        if lr_decay < 0:
            raise ValueError(f"lr_decay must be non-negative: {lr_decay}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1): {beta1}, {beta2}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive: {epsilon}")
        self.initial_learning_rate = learning_rate
        self.lr_decay = lr_decay
        self.step_count = 0
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._first_moment: dict[str, np.ndarray] = {}
        self._second_moment: dict[str, np.ndarray] = {}

    @property
    def learning_rate(self) -> float:
        """Exponentially decayed learning rate at the current step."""
        return self.initial_learning_rate * np.exp(-self.lr_decay * self.step_count)

    def step(self, groups: ParameterGroup) -> None:
        """Apply one update to every parameter in every group."""
        self.step_count += 1
        for layer_index, (params, grads) in enumerate(groups):
            for name, param in params.items():
                self._update(f"{layer_index}.{name}", param, grads[name])

    def _update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        effective_grad = grad
        if self.weight_decay > 0:
            effective_grad = grad + self.weight_decay * param
        m = self._first_moment.get(key)
        v = self._second_moment.get(key)
        if m is None:
            m = np.zeros_like(param)
        if v is None:
            v = np.zeros_like(param)
        m = self.beta1 * m + (1.0 - self.beta1) * effective_grad
        v = self.beta2 * v + (1.0 - self.beta2) * effective_grad**2
        self._first_moment[key] = m
        self._second_moment[key] = v
        m_hat = m / (1.0 - self.beta1**self.step_count)
        v_hat = v / (1.0 - self.beta2**self.step_count)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
