"""Loss functions.

The paper trains its filters with a weighted multi-task loss (equation 2 for
IC filters, equation 3 for the OD branch): a ``SmoothL1`` term on per-class
counts plus an ``MSE`` (IC) or masked squared-error (OD) term on the class
location grid.  The losses here return ``(value, gradient)`` pairs so they
plug directly into the layer backward chain.
"""

from __future__ import annotations

import abc

import numpy as np


class Loss(abc.ABC):
    """Base class: ``forward`` returns the scalar loss, ``backward`` its gradient."""

    @abc.abstractmethod
    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Scalar loss value (averaged over the batch)."""

    @abc.abstractmethod
    def backward(self) -> np.ndarray:
        """Gradient of the loss with respect to the predictions."""

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


class MSELoss(Loss):
    """Mean squared error, averaged over all elements."""

    def __init__(self) -> None:
        self._diff: np.ndarray | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        if predictions.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
            )
        self._diff = predictions - targets
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._diff / self._diff.size


class SmoothL1Loss(Loss):
    """Huber / SmoothL1 loss as used for count regression in the paper.

    ``loss = 0.5 x^2 / beta`` for ``|x| < beta`` else ``|x| - 0.5 beta``.
    """

    def __init__(self, beta: float = 1.0) -> None:
        if beta <= 0:
            raise ValueError(f"beta must be positive: {beta}")
        self.beta = beta
        self._diff: np.ndarray | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        if predictions.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
            )
        diff = predictions - targets
        self._diff = diff
        abs_diff = np.abs(diff)
        quadratic = 0.5 * diff**2 / self.beta
        linear = abs_diff - 0.5 * self.beta
        return float(np.mean(np.where(abs_diff < self.beta, quadratic, linear)))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        diff = self._diff
        grad = np.where(np.abs(diff) < self.beta, diff / self.beta, np.sign(diff))
        return grad / diff.size

