"""Neural-network layers with explicit forward / backward passes.

All layers operate on NCHW arrays (or ``(N, features)`` for dense layers).
Each layer stores whatever it needs from the forward pass to compute
gradients in the backward pass; parameters and their gradients are exposed
through ``params()`` / ``grads()`` so optimisers can update them in place.

Every layer honors its ``training`` flag: in training mode (the default)
``forward`` caches the state ``backward`` needs; in eval mode
(``training=False``, set via ``Sequential.set_training``) no backward caches
are allocated at all — no ReLU masks, no stored sigmoid outputs, no max-pool
argmax, no retained im2col columns — and ``backward`` raises immediately.
Eval mode also honors the input dtype end to end: float32 inputs stay
float32 through every layer (parameters are cast on the fly, a negligible
cost next to the matmuls they feed), which roughly halves the memory
traffic of an inference pass.  ``Conv2D`` additionally reuses its
preallocated scratch (zero-bordered input, im2col gather, column matrix)
across eval-mode calls instead of reallocating it every forward.

The eval forwards are written for numpy's cost model — elementwise ufuncs
over large strided operands, no boolean masks, no reductions over tiny inner
axes — and are bit-identical to the textbook expressions they replaced,
which ``tests/conftest.py`` keeps as ``reference_*`` oracles (DESIGN.md "NN
inference fast path" states the float contract).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.nn.initializers import he_normal, xavier_uniform, zeros_init


class Layer(abc.ABC):
    """Base class for all layers."""

    #: whether the layer is in training mode; eval mode (``False``) skips all
    #: backward caches and forbids :meth:`backward`
    training: bool = True

    @abc.abstractmethod
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the layer output; in training mode, cache what backward needs."""

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate ``dL/d(output)`` to ``dL/d(input)``, accumulating parameter grads."""

    def _require_training(self) -> None:
        """Raise a clear error when backward is attempted in eval mode."""
        if not self.training:
            raise RuntimeError(
                f"{type(self).__name__}.backward called in eval mode: forward "
                "passes with training=False keep no caches; call "
                "set_training(True) and re-run forward before backward"
            )

    def params(self) -> dict[str, np.ndarray]:
        """Trainable parameters keyed by name (empty for stateless layers)."""
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        """Gradients matching :meth:`params` keys."""
        return {}

    def zero_grad(self) -> None:
        for grad in self.grads().values():
            grad.fill(0.0)

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not self.training:
            self._mask = None
            return np.maximum(inputs, 0)
        self._mask = inputs > 0
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_training()
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class LeakyReLU(Layer):
    """Leaky ReLU (the activation used by the OD branch network, Table I)."""

    def __init__(self, negative_slope: float = 0.1) -> None:
        if negative_slope < 0:
            raise ValueError(f"negative_slope must be non-negative: {negative_slope}")
        self.negative_slope = negative_slope
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not self.training:
            self._mask = None
            # x and slope * x are ordered by the sign of x, so the selection
            # ``where(x > 0, x, slope * x)`` is their maximum for slope <= 1
            # and their minimum above it: two ufunc passes, no boolean mask.
            scaled: np.ndarray = inputs.dtype.type(self.negative_slope) * inputs
            if self.negative_slope <= 1:
                np.maximum(inputs, scaled, out=scaled)
            else:
                np.minimum(inputs, scaled, out=scaled)
            return scaled
        self._mask = inputs > 0
        return np.where(self._mask, inputs, self.negative_slope * inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_training()
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_output, self.negative_slope * grad_output)


class Sigmoid(Layer):
    """Logistic sigmoid (used for grid-occupancy outputs)."""

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        # Numerically stable sigmoid, preserving a floating input dtype so a
        # float32 inference pass stays float32 (integer inputs promote to
        # float64 as before).
        dtype = inputs.dtype if np.issubdtype(inputs.dtype, np.floating) else np.float64
        out = np.empty(inputs.shape, dtype=dtype)
        positive = inputs >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-inputs[positive]))
        exp_x = np.exp(inputs[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        self._output = out if self.training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_training()
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._output * (1.0 - self._output)


# ----------------------------------------------------------------------
# Dense
# ----------------------------------------------------------------------
class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, seed: int = 0) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"feature dimensions must be positive: {in_features}, {out_features}"
            )
        rng = np.random.default_rng(seed)
        self.weight = xavier_uniform((in_features, out_features), in_features, out_features, rng)
        self.bias = zeros_init((out_features,))
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._inputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 2:
            raise ValueError(f"Dense expects (N, features), got shape {inputs.shape}")
        if not self.training:
            self._inputs = None
            # Cast the (small) parameters to the activation dtype instead of
            # letting the matmul promote the (large) activations to float64.
            # Only floating activations qualify — casting float weights to an
            # integer dtype would truncate them to garbage.
            dtype = (
                inputs.dtype
                if np.issubdtype(inputs.dtype, np.floating)
                else self.weight.dtype
            )
            weight = self.weight.astype(dtype, copy=False)
            bias = self.bias.astype(dtype, copy=False)
            return inputs @ weight + bias
        self._inputs = inputs
        return inputs @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_training()
        if self._inputs is None:
            raise RuntimeError("backward called before forward")
        self.grad_weight += self._inputs.T @ grad_output
        self.grad_bias += grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def grads(self) -> dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}


# ----------------------------------------------------------------------
# Convolution via im2col
# ----------------------------------------------------------------------
def _im2col(
    inputs: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    buffers: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, int, int]:
    """Unfold ``(N, C, H, W)`` into ``(N * out_h * out_w, C * kernel * kernel)``.

    ``buffers`` (owned by the calling layer) lets repeated calls with the
    same geometry and dtype reuse the three large intermediates — the
    zero-bordered input, the strided gather array and the flattened column
    matrix — instead of reallocating them every forward; inference over a
    stream hits the same shape on every call, so after the first frame the
    unfold allocates nothing.  The border of ``padded`` is zeroed when the
    buffer is created and only its interior is ever written.
    """
    n, channels, height, width = inputs.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty for input {inputs.shape}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )

    def _buffer(key: str, shape: tuple[int, ...], zeroed: bool = False) -> np.ndarray:
        existing = None if buffers is None else buffers.get(key)
        if existing is None or existing.shape != shape or existing.dtype != inputs.dtype:
            existing = (
                np.zeros(shape, dtype=inputs.dtype)
                if zeroed
                else np.empty(shape, dtype=inputs.dtype)
            )
            if buffers is not None:
                buffers[key] = existing
        return existing

    padded = inputs
    if padding:
        padded = _buffer(
            "padded", (n, channels, height + 2 * padding, width + 2 * padding), zeroed=True
        )
        padded[:, :, padding:-padding, padding:-padding] = inputs
    cols = _buffer("gather", (n, channels, kernel, kernel, out_h, out_w))
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = padded[:, :, ky:y_max:stride, kx:x_max:stride]
    transposed = cols.transpose(0, 4, 5, 1, 2, 3)
    flat = _buffer("flat", (n * out_h * out_w, channels * kernel * kernel))
    np.copyto(flat.reshape(n, out_h, out_w, channels, kernel, kernel), transposed)
    return flat, out_h, out_w


def _col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Inverse of :func:`_im2col` (accumulating overlapping regions)."""
    n, channels, height, width = input_shape
    cols = cols.reshape(n, out_h, out_w, channels, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


class Conv2D(Layer):
    """2-D convolution with square kernels, implemented with im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        seed: int = 0,
    ) -> None:
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("conv parameters must be positive")
        if padding < 0:
            raise ValueError(f"padding must be non-negative: {padding}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = np.random.default_rng(seed)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = he_normal((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng)
        self.bias = zeros_init((out_channels,))
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cols: np.ndarray | None = None
        self._input_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None
        # Eval-mode im2col scratch, reused across calls (see _im2col).
        self._infer_buffers: dict[str, np.ndarray] = {}

    def __getstate__(self) -> dict[str, object]:
        """Pickles and deep copies carry parameters, not the eval scratch.

        The scratch is megabytes per layer once a batch has run; every
        worker copy of a filter grows its own on its first forward.
        """
        state = self.__dict__.copy()
        state["_infer_buffers"] = {}
        return state

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects (N, {self.in_channels}, H, W), got {inputs.shape}"
            )
        n = inputs.shape[0]
        if not self.training:
            self._cols = None
            self._input_shape = None
            self._out_hw = None
            # See Dense.forward: keep float weights out of integer dtypes.
            dtype = (
                inputs.dtype
                if np.issubdtype(inputs.dtype, np.floating)
                else self.weight.dtype
            )
            cols, out_h, out_w = _im2col(
                inputs.astype(dtype, copy=False),
                self.kernel_size,
                self.stride,
                self.padding,
                buffers=self._infer_buffers,
            )
            weight_matrix = self.weight.reshape(self.out_channels, -1).astype(
                dtype, copy=False
            )
            output = cols @ weight_matrix.T
            output += self.bias.astype(dtype, copy=False)
            return output.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        cols, out_h, out_w = _im2col(inputs, self.kernel_size, self.stride, self.padding)
        weight_matrix = self.weight.reshape(self.out_channels, -1)
        output = cols @ weight_matrix.T + self.bias
        output = output.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        self._cols = cols
        self._input_shape = inputs.shape  # type: ignore[assignment]
        self._out_hw = (out_h, out_w)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_training()
        if self._cols is None or self._input_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward")
        out_h, out_w = self._out_hw
        n = grad_output.shape[0]
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        weight_matrix = self.weight.reshape(self.out_channels, -1)
        self.grad_weight += (grad_flat.T @ self._cols).reshape(self.weight.shape)
        self.grad_bias += grad_flat.sum(axis=0)
        grad_cols = grad_flat @ weight_matrix
        return _col2im(
            grad_cols,
            self._input_shape,
            self.kernel_size,
            self.stride,
            self.padding,
            out_h,
            out_w,
        )

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def grads(self) -> dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
class MaxPool2D(Layer):
    """Max pooling with square windows (window == stride)."""

    def __init__(self, pool_size: int = 2) -> None:
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive: {pool_size}")
        self.pool_size = pool_size
        self._inputs_shape: tuple[int, ...] | None = None
        self._argmax: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4:
            raise ValueError(f"MaxPool2D expects NCHW input, got {inputs.shape}")
        n, channels, height, width = inputs.shape
        p = self.pool_size
        if height % p != 0 or width % p != 0:
            raise ValueError(
                f"input spatial dims {height}x{width} not divisible by pool size {p}"
            )
        out_h, out_w = height // p, width // p
        if not self.training:
            # Eval skips the argmax entirely — it is only needed to route
            # gradients, and costs as much as the max itself.  The window
            # maximum is p*p - 1 elementwise maxima over the strided window
            # positions: whole-array ufunc passes instead of a reduction over
            # two tiny axes.  Like that reduction, the result keeps the
            # input's memory order (the convolution's NCHW view of NHWC
            # memory stays one), so a following GAP sums in the same order.
            self._argmax = None
            self._inputs_shape = None
            if p == 1:
                return inputs.copy(order="K")
            taps = [inputs[:, :, dy::p, dx::p] for dy in range(p) for dx in range(p)]
            output: np.ndarray = np.maximum(taps[0], taps[1])
            for tap in taps[2:]:
                np.maximum(output, tap, out=output)
            return output
        reshaped = inputs.reshape(n, channels, out_h, p, out_w, p)
        windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(n, channels, out_h, out_w, p * p)
        self._argmax = windows.argmax(axis=-1)
        self._inputs_shape = inputs.shape
        return windows.max(axis=-1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_training()
        if self._argmax is None or self._inputs_shape is None:
            raise RuntimeError("backward called before forward")
        n, channels, height, width = self._inputs_shape
        p = self.pool_size
        out_h, out_w = height // p, width // p
        grad_windows = np.zeros((n, channels, out_h, out_w, p * p), dtype=grad_output.dtype)
        flat_index = self._argmax.reshape(-1)
        grad_windows.reshape(-1, p * p)[np.arange(flat_index.size), flat_index] = grad_output.reshape(-1)
        grad_input = (
            grad_windows.reshape(n, channels, out_h, out_w, p, p)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, channels, height, width)
        )
        return grad_input


class GlobalAveragePooling2D(Layer):
    """Average each feature map to a single value: ``(N, C, H, W) -> (N, C)``."""

    def __init__(self) -> None:
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4:
            raise ValueError(f"GAP expects NCHW input, got {inputs.shape}")
        self._input_shape = inputs.shape if self.training else None
        return inputs.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_training()
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        n, channels, height, width = self._input_shape
        scale = 1.0 / (height * width)
        return (
            np.repeat(grad_output[:, :, None, None], height, axis=2).repeat(width, axis=3) * scale
        )
