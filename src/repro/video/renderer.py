"""Frame rendering: turning ground truth into pixel arrays.

The approximate filters in this reproduction are trained on pixels, exactly
as in the paper — they never see the simulator's ground truth directly (the
ground truth is only used to produce training labels, the role Mask R-CNN
plays in the paper).  The renderer therefore needs to produce frames in which
object classes are visually distinguishable but noisy enough that estimation
is a non-trivial learning problem: objects are drawn with class-specific
shapes and per-instance colors over a textured static background, objects can
overlap (occlusion), and per-frame sensor noise is added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.video.objects import NAMED_COLORS
from repro.video.scene import FrameGroundTruth

# Body, border and windshield tones as multiples of the shaded base colour.
# They are computed in float32 (a float32 colour times a float32 shade), which
# pins every tone's rounding.  The canvas is float64 whenever
# ``background_texture > 0`` (the default), because ``base + texture``
# upcasts; a float32 tone widens into it exactly.
_TONE_FACTORS = np.array([[1.0], [0.55], [0.4]], dtype=np.float32)


@dataclass(frozen=True)
class RendererConfig:
    """Rendering parameters.

    ``output_size`` is the resolution (square) of the rendered array; it can
    be lower than the logical frame size — the filters operate on
    down-sampled input just like the paper resizes frames to the network
    input resolution (448x448 for YOLOv2).
    """

    output_size: int = 112
    background_color: tuple[int, int, int] = (90, 95, 100)
    background_texture: float = 6.0
    pixel_noise: float = 4.0
    draw_borders: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.output_size < 1:
            raise ValueError(f"output_size must be at least 1: {self.output_size}")
        if not self.pixel_noise >= 0:
            raise ValueError(f"pixel_noise must be non-negative: {self.pixel_noise}")
        if not self.background_texture >= 0:
            raise ValueError(
                f"background_texture must be non-negative: {self.background_texture}"
            )
        if len(self.background_color) != 3 or not all(
            0 <= channel <= 255 for channel in self.background_color
        ):
            raise ValueError(
                f"background_color must be three channels in 0..255: {self.background_color}"
            )


class FrameRenderer:
    """Renders :class:`FrameGroundTruth` into ``(H, W, 3)`` uint8 arrays.

    One renderer may be shared by any number of threads (the decode-ahead
    pool): its only mutable state is two caches of values that depend on the
    config and the key alone, so a lost race stores an equal value twice.
    """

    def __init__(self, config: RendererConfig | None = None) -> None:
        self._config = config or RendererConfig()
        self._static_background: np.ndarray | None = None
        self._ellipse_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def config(self) -> RendererConfig:
        return self._config

    # ------------------------------------------------------------------
    # Background
    # ------------------------------------------------------------------
    def _background(self) -> np.ndarray:
        """The static background of the (single, fixed) camera; do not mutate."""
        background = self._static_background
        if background is not None:
            return background
        config = self._config
        size = config.output_size
        rng = np.random.default_rng(config.seed)
        base = np.empty((size, size, 3), dtype=np.float32)
        base[...] = config.background_color
        if config.background_texture > 0:
            texture = rng.normal(0.0, config.background_texture, size=(size, size, 1))
            base = base + texture
        # A couple of static structures (road / horizon bands) so the
        # background is not uniform; they are part of the fixed camera view.
        band_top = int(size * 0.55)
        base[band_top:, :, :] *= 0.85
        lane_y = int(size * 0.75)
        base[lane_y : lane_y + max(size // 60, 1), :, :] += 35.0
        background = np.clip(base, 0, 255)
        self._static_background = background
        return background

    # ------------------------------------------------------------------
    # Object drawing
    # ------------------------------------------------------------------
    def _ellipse_masks(self, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        """``(filled, outline)`` boolean ``(h, w, 1)`` masks of the inscribed ellipse."""
        masks = self._ellipse_cache.get((h, w))
        if masks is None:
            yy, xx = np.mgrid[0:h, 0:w]
            cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
            ry, rx = max(h / 2.0, 1.0), max(w / 2.0, 1.0)
            filled = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
            outline = filled.copy()
            outline[1:-1, 1:-1] = False
            masks = self._ellipse_cache[(h, w)] = (filled[..., None], outline[..., None])
        return masks

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def render(self, ground_truth: FrameGroundTruth) -> np.ndarray:
        """Render a frame to an ``(output_size, output_size, 3)`` uint8 array."""
        config = self._config
        size = config.output_size
        scale_x = size / ground_truth.frame_width
        scale_y = size / ground_truth.frame_height
        canvas = self._background().copy()
        # Deterministic per-frame randomness: shading and sensor noise depend
        # only on (seed, frame_index), so renders are reproducible.
        rng = np.random.default_rng((config.seed, ground_truth.frame_index))
        # Draw in order of the object's vertical position so nearer (lower)
        # objects occlude farther ones, a crude but consistent depth ordering.
        visible = []
        for state in sorted(ground_truth.objects, key=lambda s: s.box.y_max):
            box = state.box
            left = max(box.x_min * scale_x, 0.0)
            top = max(box.y_min * scale_y, 0.0)
            right = min(box.x_max * scale_x, size)
            bottom = min(box.y_max * scale_y, size)
            if right <= left or bottom <= top:
                continue  # entirely outside the frame: no pixels, no shade draw
            # 0 <= left < right <= size, so floor(left) < ceil(right) <= size:
            # the pixel span is inside the canvas and never empty.
            visible.append(
                (state, math.floor(left), math.floor(top), math.ceil(right), math.ceil(bottom))
            )
        tones = ()
        if visible:
            # Slight per-instance shading so identically colored objects still
            # differ: one draw per visible object, in draw order.  Cast to
            # float32 first, as numpy casts a Python float scaling a float32
            # colour.  Factors below 1 cannot leave [0, 255], so only the
            # shaded body tone needs a bound.
            shades = rng.uniform(0.85, 1.1, size=len(visible)).astype(np.float32)
            bases = np.array(
                [NAMED_COLORS[entry[0].color_name] for entry in visible], dtype=np.float32
            )
            tones = np.minimum(bases * shades[:, None], 255.0)[:, None, :] * _TONE_FACTORS
        for (state, x_min, y_min, x_max, y_max), (body, border, windshield) in zip(
            visible, tones
        ):
            region = canvas[y_min:y_max, x_min:x_max]
            h, w = y_max - y_min, x_max - x_min
            bordered = config.draw_borders and h >= 4 and w >= 4
            if state.object_class.appearance.shape == "ellipse":
                filled, outline = self._ellipse_masks(h, w)
                np.copyto(region, body, where=filled)
                if bordered:
                    np.copyto(region, border, where=outline)
                continue
            if bordered:
                region[...] = border
                region[1:-1, 1:-1] = body
            else:
                region[...] = body
            # Class-specific detail: vehicles get a darker "windshield" patch
            # near the top, which helps distinguish rectangles of similar colors.
            if h >= 6 and w >= 6:
                ws_w = w // 2
                ws_x = (w - ws_w) // 2
                region[1 : 1 + h // 4, ws_x : ws_x + ws_w] = windshield
        if config.pixel_noise == 0:
            return canvas.astype(np.uint8)  # already inside [0, 255]
        # ``normal(0, s, n)`` is ``s * standard_normal(n)`` bit for bit, and the
        # float64 noise block is the only full-frame temporary.
        noise = rng.standard_normal(canvas.shape)
        noise *= config.pixel_noise
        noise += canvas
        np.clip(noise, 0, 255, out=noise)
        return noise.astype(np.uint8)
