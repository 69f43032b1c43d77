"""Network containers: Sequential trunks and multi-head branch networks.

The paper's filters are *branch networks*: a shared convolutional trunk (the
first few layers of a classification or detection backbone) feeding several
output heads (a per-class count vector and a per-class location grid).
:class:`MultiHeadNetwork` models exactly that; :class:`Sequential` is the
building block for trunks and heads.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.nn.layers import Layer


class Sequential:
    """A simple chain of layers with a combined forward / backward pass."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers = list(layers)
        #: mirrors the layers' mode; toggle via :meth:`set_training`
        self.training = True

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for layer in self.layers:
            output = layer.forward(output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------
    def parameter_groups(self) -> list[tuple[dict[str, np.ndarray], dict[str, np.ndarray]]]:
        """``(params, grads)`` pairs for the optimiser, one per parametric layer."""
        return [
            (layer.params(), layer.grads())
            for layer in self.layers
            if layer.params()
        ]

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def set_training(self, training: bool) -> None:
        """Switch every layer between training and eval mode.

        Eval mode (``False``) is the inference fast path: layers keep no
        backward caches, honor the input dtype (float32 stays float32), and
        ``backward`` raises until training mode is restored.
        """
        self.training = training
        for layer in self.layers:
            layer.training = training

    def num_parameters(self) -> int:
        return sum(
            param.size for layer in self.layers for param in layer.params().values()
        )


class MultiHeadNetwork:
    """A shared trunk feeding multiple named heads.

    ``forward`` returns a dict of head outputs; ``backward`` takes a dict of
    gradients (one per head, missing heads contribute zero) and propagates the
    sum through the trunk — exactly the structure needed for the paper's
    multi-task count + location training.
    """

    def __init__(self, trunk: Sequential, heads: Mapping[str, Sequential]) -> None:
        if not heads:
            raise ValueError("a multi-head network needs at least one head")
        self.trunk = trunk
        self.heads = dict(heads)
        self.training = True
        self._trunk_output: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> dict[str, np.ndarray]:
        trunk_output = self.trunk.forward(inputs)
        self._trunk_output = trunk_output if self.training else None
        return {name: head.forward(trunk_output) for name, head in self.heads.items()}

    def backward(self, head_grads: Mapping[str, np.ndarray]) -> np.ndarray:
        if not self.training:
            raise RuntimeError(
                "MultiHeadNetwork.backward called in eval mode: forward passes "
                "with set_training(False) keep no caches; call "
                "set_training(True) and re-run forward before backward"
            )
        if self._trunk_output is None:
            raise RuntimeError("backward called before forward")
        unknown = set(head_grads) - set(self.heads)
        if unknown:
            raise KeyError(f"gradients provided for unknown heads: {sorted(unknown)}")
        trunk_grad = np.zeros_like(self._trunk_output)
        for name, grad in head_grads.items():
            trunk_grad = trunk_grad + self.heads[name].backward(grad)
        return self.trunk.backward(trunk_grad)

    def __call__(self, inputs: np.ndarray) -> dict[str, np.ndarray]:
        return self.forward(inputs)

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------
    def parameter_groups(
        self, include_trunk: bool = True
    ) -> list[tuple[dict[str, np.ndarray], dict[str, np.ndarray]]]:
        """Optimiser groups; ``include_trunk=False`` freezes the shared trunk.

        Freezing the trunk mirrors the paper's IC training schedule, where the
        fully-connected weights are fixed while localisation error is
        back-propagated only into the feature layers (and vice versa).
        """
        groups: list[tuple[dict[str, np.ndarray], dict[str, np.ndarray]]] = []
        if include_trunk:
            groups.extend(self.trunk.parameter_groups())
        for head in self.heads.values():
            groups.extend(head.parameter_groups())
        return groups

    def zero_grad(self) -> None:
        self.trunk.zero_grad()
        for head in self.heads.values():
            head.zero_grad()

    def set_training(self, training: bool) -> None:
        """Switch the trunk and every head between training and eval mode."""
        self.training = training
        self.trunk.set_training(training)
        for head in self.heads.values():
            head.set_training(training)

    def num_parameters(self) -> int:
        return self.trunk.num_parameters() + sum(
            head.num_parameters() for head in self.heads.values()
        )


def gradient_check(
    forward_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    inputs: np.ndarray,
    epsilon: float = 1e-5,
    num_checks: int = 20,
    seed: int = 0,
) -> float:
    """Finite-difference gradient check.

    Compares the analytic gradient ``grad_fn(inputs)`` against central finite
    differences of ``forward_fn`` at ``num_checks`` random positions, and
    returns the maximum relative error.  Used by the test suite to verify
    every layer's backward pass.
    """
    rng = np.random.default_rng(seed)
    analytic = grad_fn(inputs)
    if analytic.shape != inputs.shape:
        raise ValueError(
            f"analytic gradient shape {analytic.shape} != inputs shape {inputs.shape}"
        )
    max_rel_error = 0.0
    flat_size = inputs.size
    positions = rng.choice(flat_size, size=min(num_checks, flat_size), replace=False)
    for position in positions:
        index = np.unravel_index(position, inputs.shape)
        original = inputs[index]
        inputs[index] = original + epsilon
        loss_plus = forward_fn(inputs)
        inputs[index] = original - epsilon
        loss_minus = forward_fn(inputs)
        inputs[index] = original
        numeric = (loss_plus - loss_minus) / (2 * epsilon)
        denominator = max(abs(numeric) + abs(analytic[index]), 1e-8)
        rel_error = abs(numeric - analytic[index]) / denominator
        max_rel_error = max(max_rel_error, rel_error)
    return max_rel_error
