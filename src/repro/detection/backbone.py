"""Frozen convolutional feature backbones.

The paper never trains its backbones from scratch: the IC filters reuse the
first five convolution layers of VGG19 pre-trained on ImageNet, and the OD
filters reuse the first eight layers of Darknet-19 pre-trained on MS-COCO;
only the small branch heads are trained on the annotated video.  Pre-trained
weights are unavailable here, so the backbones are replaced by *fixed*
(untrained) convolutional feature extractors that play the same role: map a
rendered frame to a ``g x g x F`` grid of per-cell features from which the
trained branch heads estimate counts and locations.

Two backbone flavours mirror the paper's two filter families:

* :func:`detection_backbone` — features are pooled at the full ``g x g``
  resolution, preserving precise spatial detail (the Darknet features the OD
  branch taps are spatially sharp because the network is trained to localise);
* :func:`classification_backbone` — features are pooled at a 4x coarser
  resolution and up-sampled back to ``g x g``, reflecting that classification
  networks retain much weaker spatial information (their class-activation
  maps are blurry), which is exactly why the paper finds IC filters weaker at
  localisation yet competitive at counting.

Backbones also support fitting a static background model (per-pixel median
over training frames).  A fixed camera is a stated assumption of the paper,
and background-differencing is the classical analogue of the "objectness"
signal a pretrained detection backbone provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.video.stream import Frame


# Base feature channels produced per grid cell, in order.  When the backbone
# is configured with ``include_context=True`` a second copy of these channels,
# averaged over a 3x3 cell neighbourhood, is appended (giving the heads a
# notion of object extent, the way deeper conv layers grow receptive fields).
FEATURE_NAMES = (
    "red",
    "green",
    "blue",
    "intensity_std",
    "edge_energy",
    "background_diff_luma",
    "background_diff_color",
)


@dataclass(frozen=True)
class BackboneConfig:
    """Configuration of a feature backbone."""

    grid_size: int = 56
    pool_factor: int = 1
    use_background_model: bool = True
    include_context: bool = True
    name: str = "backbone"

    def __post_init__(self) -> None:
        if self.grid_size <= 0:
            raise ValueError(f"grid_size must be positive: {self.grid_size}")
        if self.pool_factor <= 0:
            raise ValueError(f"pool_factor must be positive: {self.pool_factor}")
        if self.grid_size % self.pool_factor != 0:
            raise ValueError(
                f"grid_size {self.grid_size} must be divisible by pool_factor {self.pool_factor}"
            )


# The kernel runs over tiles of the batch sized so that a tile's
# full-resolution temporaries (~40 live bytes per pixel: planar int16 rgb, the
# padded gray plane and its Sobel planes, two int32 squares, the float64 Sobel
# magnitude) stay resident in a 2-4 MB L2 and are recycled by the allocator
# from tile to tile instead of being mapped, and page-faulted, afresh per batch.
_TILE_BYTES = 2 * 1024 * 1024
_LIVE_BYTES_PER_PIXEL = 40


def _tile_length(height: int, width: int) -> int:
    """Frames per tile for ``height x width`` frames (at least one)."""
    return max(_TILE_BYTES // (_LIVE_BYTES_PER_PIXEL * height * width), 1)


def _fold(array: np.ndarray, block: int, dtype: type | None = None) -> np.ndarray:
    """Sum each run of ``block`` entries along the last axis, in index order.

    Strided slice adds instead of a reshape + ``sum``: each add streams
    through memory, and the left-to-right order is part of the float
    contract (see :func:`_block_mean`).
    """
    total = np.add(array[..., 0::block], array[..., 1::block], dtype=dtype)
    for offset in range(2, block):
        total += array[..., offset::block]
    return total


def _block_sum(array: np.ndarray, block: int, bound: int) -> np.ndarray:
    """Exact per-block sums over the trailing two axes of an integer array.

    ``bound`` is the largest magnitude an entry can take; the accumulator is
    the narrowest integer type that holds ``bound * block**2`` (the
    gray-squared caller reaches ``765**2`` per pixel, which overflows int32
    from 61x61 blocks on).  Integer sums are exact in any order, so rows are
    folded first: those adds run over contiguous memory.
    """
    if block == 1:
        return array
    limit = bound * block * block
    dtype = next(
        candidate
        for candidate in (np.int16, np.int32, np.int64)
        if limit <= np.iinfo(candidate).max
    )
    rows = _fold(array.swapaxes(-1, -2), block, dtype).swapaxes(-1, -2)
    return _fold(rows, block, dtype)


def _block_mean(array: np.ndarray, out_size: int) -> np.ndarray:
    """Float block mean over the trailing two axes, pooled to ``out_size``.

    Columns are summed first, then rows, each left to right: that order is
    what keeps results bit-stable across kernel rewrites.  An axis that
    ``out_size`` does not divide is first resized by nearest neighbour.
    """
    cells = 1
    for axis in (-1, -2):
        array = array.swapaxes(axis, -1)
        length = array.shape[-1]
        if length % out_size != 0:
            target = out_size * max(int(np.ceil(length / out_size)), 1)
            indices = np.clip(
                (np.arange(target) * length / target).astype(int), 0, length - 1
            )
            array = array[..., indices]
            length = target
        block = length // out_size
        if block > 1:
            array = _fold(array, block)
            cells *= block
        array = array.swapaxes(axis, -1)
    return array / cells


def _replicate_border(padded: np.ndarray) -> None:
    """Fill the one-entry border of ``(..., h + 2, w + 2)`` arrays from their
    interior: ``np.pad(mode="edge")`` without the copy."""
    padded[..., 0, 1:-1] = padded[..., 1, 1:-1]
    padded[..., -1, 1:-1] = padded[..., -2, 1:-1]
    padded[..., 0] = padded[..., 1]
    padded[..., -1] = padded[..., -2]


def _box_sum_3x3(planes: np.ndarray) -> np.ndarray:
    """Sum over each cell's 3x3 neighbourhood (edge-replicated) of
    ``(..., p, p)`` planes, as a separable box filter: rows, then columns,
    each left to right (the order is part of the float contract)."""
    *lead, rows, cols = planes.shape
    padded = np.empty((*lead, rows + 2, cols + 2))
    padded[..., 1:-1, 1:-1] = planes
    _replicate_border(padded)
    total = padded[..., :-2, :] + padded[..., 1:-1, :]
    total += padded[..., 2:, :]
    # On the flattened rows a column shift is a shift by one entry, so each
    # add is one long run per plane instead of ``p``-entry runs.  The two
    # entries per row that wrap into the next row fall in the padding
    # columns, which the final slice drops.
    flat = total.reshape(*lead, rows * (cols + 2))
    box = np.empty_like(flat)
    np.add(flat[..., :-2], flat[..., 1:-1], out=box[..., :-2])
    box[..., :-2] += flat[..., 2:]
    return box.reshape(total.shape)[..., :cols]


def _uint8_median(stack: np.ndarray) -> np.ndarray:
    """``np.median(stack, axis=0).astype(np.float32)`` of a uint8 stack, bit for
    bit: the middle value of an odd count, the float64 mean of the two middle
    values of an even one.  Sorts ``stack`` in place along axis 0 with one
    stable (radix) sort, so no second copy of the stack is made."""
    stack.sort(axis=0, kind="stable")
    middle = len(stack) // 2
    if len(stack) % 2:
        return stack[middle].astype(np.float32)
    return ((stack[middle - 1].astype(np.float64) + stack[middle]) / 2).astype(np.float32)


class FeatureBackbone:
    """Maps rendered frames to ``(grid, grid, F)`` per-cell feature arrays."""

    def __init__(self, config: BackboneConfig | None = None) -> None:
        self._config = config or BackboneConfig()
        # Planar ``(3, H, W)``: the float median, and twice it as int16 when
        # that is integral (always, for uint8 frames).
        self._background: np.ndarray | None = None
        self._background_doubled: np.ndarray | None = None

    @property
    def config(self) -> BackboneConfig:
        return self._config

    @property
    def name(self) -> str:
        return self._config.name

    @property
    def num_features(self) -> int:
        base = len(FEATURE_NAMES)
        return base * 2 if self._config.include_context else base

    @property
    def grid_size(self) -> int:
        return self._config.grid_size

    # ------------------------------------------------------------------
    # Background model
    # ------------------------------------------------------------------
    def fit_background(self, frames: Iterable[Frame], max_frames: int = 60) -> None:
        """Estimate the static background as the per-pixel median of sample frames.

        uint8 frames are stacked as they are and only the median is cast to
        float32: it is an exact half-integer, so the result equals the
        median of float32 copies with a quarter of the stack's memory.
        """
        images = []
        for index, frame in enumerate(frames):
            if index >= max_frames:
                break
            images.append(frame.image)
        if not images:
            raise ValueError("fit_background needs at least one frame")
        if any(image.dtype != np.uint8 for image in images):
            stack = np.stack([image.astype(np.float32) for image in images], axis=0)
            median = np.median(stack, axis=0).astype(np.float32)
        else:
            median = _uint8_median(np.stack(images, axis=0))
        self._background = np.ascontiguousarray(np.moveaxis(median, -1, 0))
        # A median of uint8 frames is always an exact half-integer, which is
        # what lets the kernel run the background difference in exact int16
        # arithmetic.
        doubled = 2.0 * self._background.astype(np.float64)
        rounded = np.rint(doubled)
        self._background_doubled = (
            rounded.astype(np.int16) if np.array_equal(doubled, rounded) else None
        )

    # ------------------------------------------------------------------
    # Feature extraction
    # ------------------------------------------------------------------
    def extract(self, image: np.ndarray) -> np.ndarray:
        """Per-cell features of one rendered frame.

        ``image`` is an ``(H, W, 3)`` uint8 array; the result has shape
        ``(grid_size, grid_size, num_features)`` and dtype float64, and is
        bit-identical to ``extract_batch(image[None])[0]`` (same kernel).
        """
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) image, got {image.shape}")
        return self._features(image[None])[0]

    def extract_batch(self, images: np.ndarray) -> np.ndarray:
        """Per-cell features for a batch of frames.

        ``images`` is an ``(N, H, W, 3)`` uint8 array; the result has shape
        ``(N, grid_size, grid_size, num_features)`` and dtype float64.  A
        frame's features do not depend on the batch it arrives in: slice
        ``k`` is bit-identical to ``extract(images[k])``, whatever ``N`` and
        ``k`` are.
        """
        if images.ndim != 4 or images.shape[3] != 3:
            raise ValueError(f"expected (N, H, W, 3) images, got {images.shape}")
        return self._features(images)

    def extract_tiled(self, images: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Per-cell features of ``(H, W, 3)`` images, one ``(t, g, g, F)``
        tile at a time, in order.

        One ``extract_batch`` per tile, sized by the tile's first image, so
        frame ``k`` of a tile equals ``extract`` of its image and only one
        tile of images and features is live at a time: a consumer that reads
        each tile before asking for the next reads it while it is in cache.
        """
        chunk: list[np.ndarray] = []
        tile = 1
        for image in images:
            if not chunk:
                tile = _tile_length(*image.shape[:2])
            chunk.append(image)
            if len(chunk) == tile:
                yield self.extract_batch(np.stack(chunk))
                chunk = []
        if chunk:
            yield self.extract_batch(np.stack(chunk))

    def _features(self, images: np.ndarray) -> np.ndarray:
        """The one feature kernel, run over cache-sized tiles of the batch.

        Per tile the seven base planes come from the exact-integer kernel
        (square uint8 frames the pooled grid divides) or from the float
        fallback (anything else), and base and 3x3-context planes are
        written straight into the preallocated result, up-sampled by
        ``pool_factor``.  No temporary scales with ``N``.
        """
        config = self._config
        factor = config.pool_factor
        pooled = config.grid_size // factor
        base = len(FEATURE_NAMES)
        n, height, width = images.shape[:3]
        use_background = config.use_background_model and self._background is not None
        exact = (
            images.dtype == np.uint8
            and height == width
            and height % pooled == 0
            and (not use_background or self._background_doubled is not None)
        )
        planes_of = self._base_planes_uint8 if exact else self._base_planes_float
        result = np.empty((n, config.grid_size, config.grid_size, self.num_features))
        cells = result.reshape(n, pooled, factor, pooled, factor, self.num_features)
        tile = _tile_length(height, width)
        for start in range(0, n, tile):
            planes = planes_of(images[start : start + tile], pooled, use_background)
            out = cells[start : start + tile]
            out[..., :base] = np.moveaxis(planes, 0, -1)[:, :, None, :, None, :]
            if config.include_context:
                context = np.moveaxis(_box_sum_3x3(planes), 0, -1)
                np.divide(context[:, :, None, :, None, :], 9, out=out[..., base:])
        return result

    def _base_planes_float(
        self, images: np.ndarray, pooled: int, use_background: bool
    ) -> np.ndarray:
        """Float fallback: the seven ``(n, pooled, pooled)`` base planes of a
        tile the integer kernel cannot take (non-uint8, non-square or
        non-divisible frames).  Agrees with the integer kernel to rounding."""
        pixels = np.divide(np.moveaxis(images, -1, 0), 255.0, order="C")
        planes = np.zeros((len(FEATURE_NAMES), images.shape[0], pooled, pooled))
        planes[:3] = _block_mean(pixels, pooled)

        gray = (pixels[0] + pixels[1] + pixels[2]) / 3
        mean = _block_mean(gray, pooled)
        variance = np.clip(_block_mean(gray**2, pooled) - mean**2, 0.0, None)
        planes[3] = np.sqrt(variance)

        # Sobel magnitude, separable: smooth along one axis, difference
        # along the other.
        padded = np.pad(gray, ((0, 0), (1, 1), (1, 1)), mode="edge")
        smooth = padded[:, :-2, :] + 2.0 * padded[:, 1:-1, :] + padded[:, 2:, :]
        gx = smooth[:, :, 2:] - smooth[:, :, :-2]
        smooth = padded[:, :, :-2] + 2.0 * padded[:, :, 1:-1] + padded[:, :, 2:]
        gy = smooth[:, 2:, :] - smooth[:, :-2, :]
        planes[4] = _block_mean(np.sqrt(gx * gx + gy * gy), pooled)

        if use_background:
            diff = pixels - (self._background / 255.0)[:, None]
            planes[5] = _block_mean(np.abs(diff).sum(axis=0) / 3, pooled)
            centred = np.abs(diff - diff.sum(axis=0) / 3)
            planes[6] = _block_mean(centred.sum(axis=0) / 3, pooled)
        return planes

    def _base_planes_uint8(
        self, images: np.ndarray, pooled: int, use_background: bool
    ) -> np.ndarray:
        """Exact-integer kernel: the seven ``(n, pooled, pooled)`` base planes
        of a tile of square uint8 frames.

        Every base feature is a block mean of a linear or absolute-value
        function of the pixels (the Sobel magnitude excepted), so the
        full-resolution arithmetic runs on planar int16/int32 blocks and
        only exact block sums are divided into floats, at pooled resolution.
        The integer steps may be reordered freely; every float operation
        keeps its operands and their order, which is what makes the result
        reproducible to the bit.  Bounds on each intermediate are noted
        where it is formed.
        """
        n, height = images.shape[:2]
        block = height // pooled
        denominator = float(255 * block * block)
        planes = np.zeros((len(FEATURE_NAMES), n, pooled, pooled))
        planar = np.empty((3, n, height, height), dtype=np.int16)
        planar[...] = np.moveaxis(images, -1, 0)

        # rgb: exact block sums of the raw pixel values (<= 255 each).
        rgb_sums = _block_sum(planar, block, 255)
        np.divide(rgb_sums, denominator, out=planes[:3])

        # Grayscale moments: gray = (r + g + b) / 765, so the per-block mean
        # is the sum of the three rgb block sums and the mean square comes
        # from the exact block sum of G^2.  G is formed inside an
        # edge-replicated frame for the Sobel step below.
        padded = np.empty((n, height + 2, height + 2), dtype=np.int16)
        gray = padded[:, 1:-1, 1:-1]
        np.add(planar[0], planar[1], out=gray)
        gray += planar[2]  # <= 765
        _replicate_border(padded)
        mean = rgb_sums.sum(axis=0, dtype=np.int64) / (765.0 * block * block)
        mean_sq = _block_sum(
            np.multiply(gray, gray, dtype=np.int32), block, 765 * 765
        ) / (765.0 * 765.0 * block * block)
        planes[3] = np.sqrt(np.clip(mean_sq - mean**2, 0.0, None))

        # Sobel magnitude: the separable gradients are integer-linear in G
        # (smoothed <= 3060, differences <= 3060 in magnitude, squares summed
        # < 2**25); only the square root runs in float, before the block mean.
        smooth = padded[:, :-2, :] + padded[:, 2:, :]
        smooth += padded[:, 1:-1, :]
        smooth += padded[:, 1:-1, :]
        gx = smooth[:, :, 2:] - smooth[:, :, :-2]
        smooth = padded[:, :, :-2] + padded[:, :, 2:]
        smooth += padded[:, :, 1:-1]
        smooth += padded[:, :, 1:-1]
        gy = smooth[:, 2:, :] - smooth[:, :-2, :]
        energy = np.multiply(gx, gx, dtype=np.int32)
        energy += np.multiply(gy, gy, dtype=np.int32)
        planes[4] = _block_mean(np.sqrt(energy), pooled) / 765.0

        if use_background:
            # Signed doubled difference 2*pixel - 2*background, |.| <= 510,
            # formed in place: the raw planes (and ``rgb_sums``, which aliases
            # them when the block is one pixel) are no longer needed.
            signed = planar
            signed += signed
            signed -= self._background_doubled[:, None]
            magnitude = np.abs(signed)
            luma = magnitude[0] + magnitude[1]
            luma += magnitude[2]  # <= 1530
            planes[5] = _block_sum(luma, block, 1530) / (2.0 * 3.0 * denominator)
            # |d_c - mean(d)| = |3*sd_c - (sd_0+sd_1+sd_2)| / (3 * 2 * 255)
            channel_sum = signed[0] + signed[1]
            channel_sum += signed[2]  # <= 1530 in magnitude
            signed *= 3
            signed -= channel_sum
            np.abs(signed, out=signed)  # <= 2040
            color = signed[0] + signed[1]
            color += signed[2]  # <= 6120
            planes[6] = _block_sum(color, block, 6120) / (
                3.0 * 3.0 * 2.0 * denominator
            )
        return planes

    def extract_frame(self, frame: Frame) -> np.ndarray:
        """Convenience wrapper taking a :class:`~repro.video.stream.Frame`."""
        return self.extract(frame.image)


def classification_backbone(grid_size: int = 56, pool_factor: int = 2) -> FeatureBackbone:
    """The IC-family backbone: spatially coarser, classification-style features."""
    return FeatureBackbone(
        BackboneConfig(
            grid_size=grid_size,
            pool_factor=pool_factor,
            use_background_model=True,
            name="vgg19_conv5",
        )
    )


def detection_backbone(grid_size: int = 56) -> FeatureBackbone:
    """The OD-family backbone: spatially sharp, detection-style features."""
    return FeatureBackbone(
        BackboneConfig(
            grid_size=grid_size,
            pool_factor=1,
            use_background_model=True,
            name="darknet19_conv8",
        )
    )
