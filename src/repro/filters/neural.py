"""CNN branch-network filters on the from-scratch :mod:`repro.nn` framework.

This is the faithful re-implementation of the paper's branch architecture
(Figures 2 and 4): a small convolutional trunk standing in for the frozen
early backbone layers, a global-average-pooling + dense head producing the
per-class count vector, and a 1x1-convolution + sigmoid head producing the
per-class occupancy grid (the analogue of the class-activation map).  It is
trained end to end with the multi-task loss in
:func:`repro.filters.training.train_neural_filter`.

Numpy convolutions are orders of magnitude slower than the closed-form
linear-branch filters, so the neural filters are exercised by the test suite
and the ``train_branch_network`` example on small frame budgets, while the
large experiment sweeps use the linear branches (see DESIGN.md).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cost import OD_BRANCH_MS
from repro.filters.base import BatchPrediction, FilterPrediction, FrameFilter
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
from repro.spatial.grid import Grid
from repro.video.stream import Frame


def build_branch_network(
    num_classes: int,
    image_size: int = 56,
    grid_size: int = 14,
    base_channels: int = 8,
    seed: int = 0,
) -> MultiHeadNetwork:
    """Build the branch network: shared conv trunk + count head + grid head.

    The trunk downsamples the ``image_size`` input to ``grid_size`` with
    stride-2 pooling; the count head is GAP + dense (Figure 2 / Figure 5);
    the grid head is a 1x1 convolution producing one occupancy channel per
    class followed by a sigmoid (the regularised activation map of Figure 4).
    """
    if image_size % grid_size != 0:
        raise ValueError(
            f"image_size {image_size} must be divisible by grid_size {grid_size}"
        )
    downsample_factor = image_size // grid_size
    num_pools = int(np.log2(downsample_factor))
    if 2**num_pools != downsample_factor:
        raise ValueError(
            f"image_size / grid_size must be a power of two, got {downsample_factor}"
        )
    layers: list = []
    in_channels = 3
    out_channels = base_channels
    for index in range(max(num_pools, 1)):
        layers.append(
            Conv2D(in_channels, out_channels, kernel_size=3, padding=1, seed=seed + index)
        )
        layers.append(LeakyReLU(0.1))
        if index < num_pools:
            layers.append(MaxPool2D(2))
        in_channels = out_channels
        out_channels = min(out_channels * 2, 32)
    trunk = Sequential(layers)

    count_head = Sequential(
        [
            GlobalAveragePooling2D(),
            Dense(in_channels, num_classes, seed=seed + 100),
            ReLU(),
        ]
    )
    grid_head = Sequential(
        [
            Conv2D(in_channels, num_classes, kernel_size=1, seed=seed + 200),
            Sigmoid(),
        ]
    )
    return MultiHeadNetwork(trunk=trunk, heads={"counts": count_head, "grid": grid_head})


def _block_mean(pixels: np.ndarray, row_block: int, col_block: int) -> np.ndarray:
    """Mean of each ``row_block x col_block`` block of ``(N, H, W, 3)`` pixels.

    Bit-identical to ``reshape(N, H/rb, rb, W/cb, cb, 3).mean(axis=(2, 4))``:
    numpy adds the block positions in row-major order and divides once, and
    so does this, but as whole-chunk strided-slice adds (elementwise passes
    over large operands) instead of a reduction over two tiny axes.  At least
    one block side must exceed 1.
    """
    blocks = [
        pixels[:, row::row_block, col::col_block]
        for row in range(row_block)
        for col in range(col_block)
    ]
    pooled = blocks[0] + blocks[1]
    for block in blocks[2:]:
        pooled += block
    pooled /= pixels.dtype.type(row_block * col_block)
    return pooled


def _run_stack(where: str, stack: Sequential, inputs: np.ndarray) -> np.ndarray:
    """``stack.forward(inputs)``, naming the layer that raises as ``where[i]``."""
    output = inputs
    for position, layer in enumerate(stack.layers):
        try:
            output = layer.forward(output)
        except Exception as error:
            raise ValueError(
                f"{where}[{position}] {type(layer).__name__} refuses "
                f"{output.shape} {output.dtype}: {error}"
            ) from error
    return output


class NeuralBranchFilter(FrameFilter):
    """A trained branch network exposed through the standard filter interface."""

    #: activation dtype used when the network is in eval mode; training
    #: always runs float64 (gradient checks need the precision)
    inference_dtype = np.dtype(np.float32)

    def __init__(
        self,
        network: MultiHeadNetwork,
        class_names: Sequence[str],
        image_size: int,
        grid_size: int,
        frame_width: int,
        frame_height: int,
        family: str = "OD",
        latency_ms: float = OD_BRANCH_MS,
        threshold: float = 0.5,
    ) -> None:
        self.network = network
        self.class_names = tuple(class_names)
        self.image_size = image_size
        self.grid = Grid(
            rows=grid_size,
            cols=grid_size,
            frame_width=frame_width,
            frame_height=frame_height,
        )
        self.family = family
        self.name = f"{family.lower()}_neural_branch"
        self.latency_ms = latency_ms
        self.threshold = threshold
        # A NaN or infinite weight raises nothing in a forward pass; it only
        # poisons every prediction, so it is refused here.
        stacks = {"trunk": network.trunk, **{f"head.{k}": v for k, v in network.heads.items()}}
        for where, stack in stacks.items():
            for position, layer in enumerate(stack.layers):
                if not all(np.isfinite(value).all() for value in layer.params().values()):
                    raise ValueError(
                        f"{self.name}: non-finite parameter in {where} layer "
                        f"{position} {type(layer).__name__}"
                    )
        self._check_network()

    def _check_network(self) -> None:
        """Run the network once on a zero batch of the one input shape it sees.

        :meth:`_prepare_batch` always produces ``(N, 3, image_size,
        image_size)``, so one eval-mode pass at ``inference_dtype`` settles
        every shape and dtype :meth:`predict_batch` relies on: a malformed
        network is refused here, naming the layer or head, not mid-scan.
        """
        classes = len(self.class_names)
        expected = {
            "counts": (1, classes),
            "grid": (1, classes, self.grid.rows, self.grid.cols),
        }
        network = self.network
        was_training = network.training
        network.set_training(False)
        try:
            zeros = np.zeros((1, 3, self.image_size, self.image_size), self.inference_dtype)
            trunk_output = _run_stack(f"{self.name}: trunk", network.trunk, zeros)
            outputs = {
                name: _run_stack(f"{self.name}: head.{name}", head, trunk_output)
                for name, head in network.heads.items()
            }
        finally:
            network.set_training(was_training)
        for name, shape in expected.items():
            output = outputs.get(name)
            if output is None or output.shape != shape or output.dtype != self.inference_dtype:
                found = "is missing" if output is None else f"gives {output.shape} {output.dtype}"
                raise ValueError(
                    f"{self.name}: head {name!r} {found}; predict_batch needs "
                    f"{shape} {self.inference_dtype}"
                )

    @property
    def _activation_dtype(self) -> np.dtype:
        """float64 while the network trains, ``inference_dtype`` in eval mode.

        In eval mode the layers preserve the input dtype end to end (see
        :mod:`repro.nn.layers`), so feeding float32 halves the memory
        traffic of every convolution without touching the stored float64
        weights.
        """
        if getattr(self.network, "training", True):
            return np.dtype(np.float64)
        return self.inference_dtype

    def _prepare_input(self, image: np.ndarray, dtype: np.dtype | None = None) -> np.ndarray:
        """Downsample ``(H, W, 3)`` pixels to the network's ``(1, 3, size, size)`` input."""
        return self._prepare_batch([image], dtype)

    def _prepare_batch(
        self, images: Sequence[np.ndarray], dtype: np.dtype | None = None
    ) -> np.ndarray:
        """Downsample a chunk of ``(H, W, 3)`` frames to ``(N, 3, size, size)``.

        Height and width are reduced independently, so rectangular frames are
        handled correctly: block-mean pooling when both axes divide evenly by
        ``image_size``, nearest-neighbour sampling with per-axis indices
        otherwise.  Same-shape frames (every chunk of one stream) are
        converted and reduced together; a mixed chunk goes frame by frame.
        """
        shape = images[0].shape
        if any(image.shape != shape for image in images):
            return np.concatenate(
                [self._prepare_batch([image], dtype) for image in images], axis=0
            )
        height, width = shape[0], shape[1]
        size = self.image_size
        if dtype is None:
            dtype = self._activation_dtype
        pixels = np.stack(images).astype(dtype)
        pixels /= dtype.type(255.0)
        if (height, width) != (size, size):
            if height % size == 0 and width % size == 0:
                pixels = _block_mean(pixels, height // size, width // size)
            else:
                rows = np.clip(
                    (np.arange(size) * height / size).astype(int), 0, height - 1
                )
                cols = np.clip(
                    (np.arange(size) * width / size).astype(int), 0, width - 1
                )
                pixels = pixels[:, rows][:, :, cols]
        return pixels.transpose(0, 3, 1, 2)

    def _prediction_for(
        self, frame: Frame, counts: np.ndarray, grid_scores: np.ndarray
    ) -> FilterPrediction:
        class_counts = {
            name: int(round(max(float(counts[index]), 0.0)))
            for index, name in enumerate(self.class_names)
        }
        class_scores = {
            name: float(max(counts[index], 0.0))
            for index, name in enumerate(self.class_names)
        }
        location_scores = {
            name: grid_scores[index] for index, name in enumerate(self.class_names)
        }
        return FilterPrediction(
            frame_index=frame.index,
            filter_name=self.name,
            grid=self.grid,
            class_counts=class_counts,
            class_scores=class_scores,
            location_scores=location_scores,
            threshold=self.threshold,
            latency_ms=self.latency_ms,
        )

    def predict(self, frame: Frame) -> FilterPrediction:
        return self.predict_batch([frame])[0]

    def predict_batch(self, frames: Sequence[Frame]) -> BatchPrediction:
        """One stacked ``(N, C, H, W)`` forward pass for the whole batch."""
        if not frames:
            return BatchPrediction(filter_name=self.name, predictions=())
        inputs = self._prepare_batch([frame.image for frame in frames])
        outputs = self.network.forward(inputs)
        counts = outputs["counts"]
        grid_scores = outputs["grid"]
        return BatchPrediction(
            filter_name=self.name,
            predictions=tuple(
                self._prediction_for(frame, counts[position], grid_scores[position])
                for position, frame in enumerate(frames)
            ),
        )
