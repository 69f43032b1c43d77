"""Shared fixtures for the test suite.

Fixtures that require simulation or filter training are session-scoped and
deliberately tiny (tens of frames), so the whole suite runs in well under a
minute while still exercising the real end-to-end code paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

from repro.aggregates import (
    AggregateMonitor,
    control_variate_estimate,
    multiple_control_variates_estimate,
    sample_mean_estimate,
)
from repro.detection import ReferenceDetector, annotate_stream
from repro.filters import FilterTrainer
from repro.filters.base import BatchPrediction, FilterPrediction
from repro.filters.branch import PooledCountFilter
from repro.filters.heads import COUNT_FEATURE_NAMES
from repro.query.evaluation import evaluate_predicates_on_detections
from repro.video import build_detrac, build_jackson
from repro.video.datasets import JACKSON_PROFILE
from repro.video.objects import NAMED_COLORS
from repro.video.renderer import FrameRenderer, RendererConfig
from repro.video.scene import SceneConfig, SceneSimulator
from repro.video.stream import VideoStream
from tests.differential import Harness


@pytest.fixture(scope="session")
def tiny_jackson():
    """A very small Jackson-profile dataset (fast to build, shared by many tests).

    A test that stands in for one of its streams' ``frame`` patches it with
    ``monkeypatch.setitem(vars(stream), "frame", ...)``: undoing
    ``monkeypatch.setattr(stream, "frame", ...)`` leaves the saved bound
    method behind as an instance attribute, and every later patch of
    ``VideoStream.frame`` on the class would do nothing on that stream.
    Teardown checks that no stream is left with one.
    """
    dataset = build_jackson(train_size=90, val_size=20, test_size=50, seed=3)
    yield dataset
    streams = {"train": dataset.train, "validation": dataset.validation, "test": dataset.test}
    patched = [name for name, stream in streams.items() if "frame" in vars(stream)]
    assert patched == [], f"tiny_jackson streams left with an instance frame: {patched}"


@pytest.fixture(scope="session")
def tiny_detrac():
    """A very small Detrac-profile dataset (three classes, dense frames)."""
    return build_detrac(train_size=70, val_size=20, test_size=40, seed=3)


@pytest.fixture(scope="session")
def jackson_trainer(tiny_jackson):
    return FilterTrainer(dataset=tiny_jackson, max_train_frames=80, background_frames=20)


@pytest.fixture(scope="session")
def trained_od_filter(jackson_trainer):
    return jackson_trainer.train_od_filter()


@pytest.fixture(scope="session")
def trained_ic_filter(jackson_trainer):
    return jackson_trainer.train_ic_filter()


@pytest.fixture(scope="session")
def trained_od_cof(jackson_trainer):
    return jackson_trainer.train_od_count_classifier()


@pytest.fixture(scope="session")
def harness(trained_od_filter, trained_od_cof):
    """The differential harness over the session filters (``tests/differential.py``)."""
    return Harness({"od": trained_od_filter, "od_cof": trained_od_cof})


@pytest.fixture(scope="session")
def jackson_test_annotations(tiny_jackson):
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=42)
    return annotate_stream(
        tiny_jackson.test,
        detector,
        tiny_jackson.class_names,
        tiny_jackson.grid(56),
        frame_indices=range(0, 50, 2),
    )


@pytest.fixture(scope="session")
def single_object_stream() -> VideoStream:
    """A stream with exactly one car per frame, for deterministic assertions."""
    config = SceneConfig(
        frame_width=448,
        frame_height=448,
        num_frames=40,
        mean_count=1.0,
        std_count=0.0,
        count_autocorrelation=0.9,
        class_mix=JACKSON_PROFILE.classes[:1],
        max_count=2,
        seed=11,
    )
    scene = SceneSimulator(config).simulate()
    renderer = FrameRenderer(RendererConfig(output_size=112, seed=11))
    return VideoStream(scene=scene, renderer=renderer, name="single-car")


def reference_cascade_walk(query, cascade, stream, indices, detector):
    """Independent per-frame walk: ``(matched, passed, filter_invocations)``."""
    matched, passed, invocations = [], [], 0
    for frame in map(stream.frame, indices):
        predictions = {}
        for step in cascade:
            key = step.frame_filter.identity
            if key not in predictions:
                predictions[key] = step.frame_filter.predict(frame)
                invocations += 1
            if not step.passes(predictions[key]):
                break
        else:
            passed.append(frame.index)
            if evaluate_predicates_on_detections(query, detector.detect(frame)):
                matched.append(frame.index)
    return matched, passed, invocations


def reference_backbone_features(image, config, background=None):
    """Naive per-frame float64 backbone features: the independent oracle.

    The textbook formulation (reshape + multi-axis ``mean`` block pooling, a
    twelve-term Sobel, a nine-term box filter), sharing no code with the
    tiled integer kernel in ``repro.detection.backbone``.  ``image`` is
    ``(H, W, 3)`` with ``H == W``; ``background`` is the ``(H, W, 3)`` float
    median image or ``None``.  The kernel agrees with it to ``atol=1e-6``.
    """

    def block_mean(array, out_size):
        height = array.shape[0]
        if height % out_size != 0:
            target = out_size * max(int(np.ceil(height / out_size)), 1)
            indices = np.clip(
                (np.arange(target) * height / target).astype(int), 0, height - 1
            )
            array = array[indices][:, indices]
            height = target
        block = height // out_size
        shape = (out_size, block, out_size, block) + array.shape[2:]
        return array.reshape(shape).mean(axis=(1, 3))

    pooled = config.grid_size // config.pool_factor
    pixels = image.astype(np.float64) / 255.0
    gray = pixels.mean(axis=2)
    variance = block_mean(gray**2, pooled) - block_mean(gray, pooled) ** 2
    padded = np.pad(gray, 1, mode="edge")
    gx = (
        padded[:-2, 2:] + 2 * padded[1:-1, 2:] + padded[2:, 2:]
        - padded[:-2, :-2] - 2 * padded[1:-1, :-2] - padded[2:, :-2]
    )
    gy = (
        padded[2:, :-2] + 2 * padded[2:, 1:-1] + padded[2:, 2:]
        - padded[:-2, :-2] - 2 * padded[:-2, 1:-1] - padded[:-2, 2:]
    )
    if config.use_background_model and background is not None:
        diff = pixels - background / 255.0
        diff_luma = block_mean(np.abs(diff).mean(axis=2), pooled)
        diff_color = block_mean(
            np.abs(diff - diff.mean(axis=2, keepdims=True)).mean(axis=2), pooled
        )
    else:
        diff_luma = diff_color = np.zeros((pooled, pooled))
    features = np.dstack(
        [
            block_mean(pixels, pooled),
            np.sqrt(np.clip(variance, 0.0, None)),
            block_mean(np.sqrt(gx**2 + gy**2), pooled),
            diff_luma,
            diff_color,
        ]
    )
    if config.include_context:
        around = np.pad(features, ((1, 1), (1, 1), (0, 0)), mode="edge")
        context = sum(
            around[dy : dy + pooled, dx : dx + pooled]
            for dy in range(3)
            for dx in range(3)
        )
        features = np.concatenate([features, context / 9.0], axis=-1)
    return features.repeat(config.pool_factor, axis=0).repeat(
        config.pool_factor, axis=1
    )


def reference_suppress_cross_class(
    location_scores: dict[str, np.ndarray], threshold: float
) -> dict[str, np.ndarray]:
    """Keep, per grid cell, only the highest-scoring class above the threshold.

    The per-class heads are trained independently (as the per-class activation
    maps in the paper are), so a strongly foreground cell can exceed the
    threshold for more than one class.  A convolutional branch learns to
    discriminate these cases; for the linear heads we resolve the competition
    explicitly: if another class scores strictly higher on a cell (and is
    above threshold), the losing class's score on that cell is zeroed.

    The computation is purely elementwise, so it accepts ``(g, g)`` maps or
    batched ``(N, g, g)`` stacks alike; each frame's result is bit-identical
    either way (the batched filter path relies on this).
    """
    if not location_scores:
        return {}
    names = list(location_scores)
    stacked = np.stack([np.asarray(location_scores[name], dtype=np.float64) for name in names])
    max_scores = stacked.max(axis=0)
    suppressed = {}
    for index, name in enumerate(names):
        scores = stacked[index].copy()
        losing = (scores < max_scores) & (max_scores >= threshold)
        scores[losing] = 0.0
        suppressed[name] = scores
    return suppressed


def reference_count_features(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Aggregate features of one class's score map used for count estimation.

    The count head regresses the per-class object count on three aggregates
    of the thresholded activation map: the summed score mass (density), the
    number of occupied cells (covered area) and the number of connected
    components (distinct blobs).  This mirrors how the paper's count output
    aggregates the regularised activation map through the fully connected
    layer, and is what lets exact counts stay accurate when object sizes vary.
    """
    scores = np.asarray(scores, dtype=np.float64)
    mask = scores >= threshold
    if not mask.any():
        return np.zeros(len(COUNT_FEATURE_NAMES))
    _, num_components = ndimage.label(mask)
    return np.array([float(scores[mask].sum()), float(mask.sum()), float(num_components)])


def reference_branch_predictions(self, frames):
    """``predict_batch`` of ``LinearBranchFilter`` and ``PooledCountFilter``
    as they stood before the per-tile heads: the branch-filter oracle.

    ``self`` is the filter.  The bodies are the parent's verbatim, with the
    then ``GridScoringHead.score_batch`` inlined and the per-plane head
    functions above: one ``extract_batch`` over the whole batch, one
    chunk-sized feature tensor, then suppression and count features class
    by class and frame by frame.  It charges nothing to the clock.
    """
    if not frames:
        return BatchPrediction(filter_name=self.name, predictions=())
    images = np.stack([frame.image for frame in frames])
    if isinstance(self, PooledCountFilter):
        pooled = self._pool(self.backbone.extract_batch(images))
        predictions = []
        for position, frame in enumerate(frames):
            raw_count = self.count_head.estimate(pooled[position])
            class_counts = {"object": int(round(raw_count))}
            class_scores = {"object": raw_count}
            predictions.append(
                FilterPrediction(
                    frame_index=frame.index,
                    filter_name=self.name,
                    grid=self.grid,
                    class_counts=class_counts,
                    class_scores=class_scores,
                    location_scores={},
                    threshold=1.0,
                    latency_ms=self.latency_ms,
                )
            )
        return BatchPrediction(filter_name=self.name, predictions=tuple(predictions))
    features = self.backbone.extract_batch(images)
    head = self.grid_head
    n, g_rows, g_cols, _ = features.shape
    flat = features.reshape(n, g_rows * g_cols, head.num_features)
    scores = flat @ head.weights.T + head.bias
    scores = np.clip(scores, 0.0, 1.0)
    scores = scores.reshape(n, g_rows, g_cols, len(head.class_names))
    stacked_scores = reference_suppress_cross_class(
        {name: scores[:, :, :, index] for index, name in enumerate(head.class_names)},
        self.threshold,
    )
    predictions = []
    for position, frame in enumerate(frames):
        location_scores = {
            name: scores[position] for name, scores in stacked_scores.items()
        }
        per_class_count_features = {
            name: reference_count_features(scores, self.threshold)
            for name, scores in location_scores.items()
        }
        raw_counts, class_counts = self.count_calibration.estimate(
            per_class_count_features
        )
        predictions.append(
            FilterPrediction(
                frame_index=frame.index,
                filter_name=self.name,
                grid=self.grid,
                class_counts=class_counts,
                class_scores=raw_counts,
                location_scores=location_scores,
                threshold=self.threshold,
                latency_ms=self.latency_ms,
            )
        )
    return BatchPrediction(filter_name=self.name, predictions=tuple(predictions))


def assert_same_predictions(actual, expected):
    """Field-for-field ``==`` of two prediction sequences, location scores
    by ``np.array_equal``."""
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.frame_index == want.frame_index
        assert got.filter_name == want.filter_name
        assert got.class_counts == want.class_counts
        assert got.class_scores == want.class_scores
        assert (got.threshold, got.latency_ms) == (want.threshold, want.latency_ms)
        assert list(got.location_scores) == list(want.location_scores)
        for name, scores in want.location_scores.items():
            assert got.location_scores[name].shape == scores.shape
            assert np.array_equal(got.location_scores[name], scores)


def reference_render(config, ground_truth):
    """The renderer as it stood before the slice-fill kernel: the pixel oracle.

    ``render`` / ``_draw_object`` / ``_scaled_box`` of the parent commit, moved
    here verbatim (``Box`` allocations, scalar shade draws, ``np.mgrid`` masks,
    boolean-index fills, ``rng.normal`` tail); it shares no code with
    ``FrameRenderer.render``, which must reproduce its uint8 pixels exactly.
    """

    def background(height, width):
        rng = np.random.default_rng(config.seed)
        base = np.empty((height, width, 3), dtype=np.float32)
        base[..., 0] = config.background_color[0]
        base[..., 1] = config.background_color[1]
        base[..., 2] = config.background_color[2]
        if config.background_texture > 0:
            texture = rng.normal(0.0, config.background_texture, size=(height, width, 1))
            base = base + texture
        band_top = int(height * 0.55)
        base[band_top:, :, :] *= 0.85
        lane_y = int(height * 0.75)
        base[lane_y : lane_y + max(height // 60, 1), :, :] += 35.0
        return np.clip(base, 0, 255)

    def scaled_box(state, scale_x, scale_y, width, height):
        box = state.box.scaled(scale_x, scale_y).clipped(width, height)
        if box is None:
            return None
        x_min = int(np.floor(box.x_min))
        y_min = int(np.floor(box.y_min))
        x_max = max(int(np.ceil(box.x_max)), x_min + 1)
        y_max = max(int(np.ceil(box.y_max)), y_min + 1)
        return x_min, y_min, min(x_max, width), min(y_max, height)

    def draw_object(canvas, state, scale_x, scale_y, rng):
        height, width = canvas.shape[:2]
        scaled = scaled_box(state, scale_x, scale_y, width, height)
        if scaled is None:
            return
        x_min, y_min, x_max, y_max = scaled
        color = np.array(NAMED_COLORS[state.color_name], dtype=np.float32)
        shade = float(rng.uniform(0.85, 1.1))
        color = np.clip(color * shade, 0, 255)

        region = canvas[y_min:y_max, x_min:x_max, :]
        h, w = region.shape[:2]
        if h == 0 or w == 0:
            return

        if state.object_class.appearance.shape == "ellipse":
            yy, xx = np.mgrid[0:h, 0:w]
            cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
            ry, rx = max(h / 2.0, 1.0), max(w / 2.0, 1.0)
            mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        else:
            mask = np.ones((h, w), dtype=bool)

        region[mask] = color
        if config.draw_borders and min(h, w) >= 4:
            border = np.clip(color * 0.55, 0, 255)
            region[0, :, :][mask[0, :]] = border
            region[-1, :, :][mask[-1, :]] = border
            region[:, 0, :][mask[:, 0]] = border
            region[:, -1, :][mask[:, -1]] = border
        if state.object_class.appearance.shape == "rectangle" and h >= 6 and w >= 6:
            ws_h = max(h // 4, 1)
            ws_w = max(w // 2, 1)
            ws_x = (w - ws_w) // 2
            region[1 : 1 + ws_h, ws_x : ws_x + ws_w, :] = np.clip(color * 0.4, 0, 255)

    size = config.output_size
    scale_x = size / ground_truth.frame_width
    scale_y = size / ground_truth.frame_height
    canvas = background(size, size).copy()
    rng = np.random.default_rng((config.seed, ground_truth.frame_index))
    ordered = sorted(ground_truth.objects, key=lambda s: s.box.y_max)
    for state in ordered:
        draw_object(canvas, state, scale_x, scale_y, rng)
    if config.pixel_noise > 0:
        canvas = canvas + rng.normal(0.0, config.pixel_noise, size=canvas.shape)
    return np.clip(canvas, 0, 255).astype(np.uint8)


def reference_evaluate_samples(monitor, spec, stream, indices):
    """The sampler oracle: ``(Y, controls)`` of the sample ``indices``, as
    ``AggregateMonitor`` evaluated them before they ran through the scan.

    Every sample rendered inline, one whole-sample ``predict_batch`` (one
    batched filter charge of ``len(indices)`` calls), then the detector
    frame by frame in sample order; ``Y`` is whether the detections satisfy
    ``spec.query``.
    """
    exact_values = np.zeros(len(indices))
    controls = np.zeros((len(indices), len(spec.control_values)))
    frames = [stream.frame(frame_index) for frame_index in indices]
    predictions = monitor.frame_filter.predict_batch(frames)
    monitor.clock.charge_calls(monitor.frame_filter, len(frames))
    for row, (frame, prediction) in enumerate(zip(frames, predictions)):
        detections = monitor.detector.detect(frame)
        monitor.clock.charge_calls(monitor.detector)
        exact_values[row] = 1.0 if evaluate_predicates_on_detections(spec.query, detections) else 0.0
        for col, control in enumerate(spec.control_values):
            controls[row, col] = control(prediction)
    return exact_values, controls


def reference_estimate(detector, frame_filter, spec, stream, indices):
    """What ``AggregateMonitor.estimate`` reports on the sample ``indices``:
    ``(plain, control_variate, per_frame_cost_ms)`` from
    :func:`reference_evaluate_samples` on a fresh clock."""
    monitor = AggregateMonitor(detector, frame_filter)
    exact_values, controls = reference_evaluate_samples(monitor, spec, stream, indices)
    if controls.shape[1] == 1:
        cv = control_variate_estimate(exact_values, controls[:, 0])
    else:
        cv = multiple_control_variates_estimate(exact_values, controls)
    per_frame_ms = monitor.clock.breakdown.total_ms / len(indices)
    return sample_mean_estimate(exact_values), cv, per_frame_ms


def reference_frame_signature(image, downsample):
    """``frame_signature`` as it stood before the integer block sums: one
    float32 ``mean`` over the block axes, then over the channels."""
    if image.ndim == 2:
        image = image[:, :, None]
    height, width = image.shape[0], image.shape[1]
    block = max(1, min(downsample, height, width))
    rows = (height // block) * block
    cols = (width // block) * block
    trimmed = image[:rows, :cols].astype(np.float32)
    pooled = trimmed.reshape(rows // block, block, cols // block, block, -1).mean(
        axis=(1, 3)
    )
    return pooled.mean(axis=-1)


def reference_leaky_relu(inputs, negative_slope):
    """Eval-mode ``LeakyReLU`` before the two-pass form: a mask and a select."""
    return np.where(inputs > 0, inputs, inputs.dtype.type(negative_slope) * inputs)


def reference_max_pool(inputs, pool_size):
    """Eval-mode ``MaxPool2D`` before the pairwise form: one 6-D reduction."""
    n, channels, height, width = inputs.shape
    p = pool_size
    return inputs.reshape(n, channels, height // p, p, width // p, p).max(axis=(3, 5))


def reference_conv2d(inputs, weight, bias, stride, padding):
    """Eval-mode ``Conv2D`` from ``np.pad`` and a sliding-window view.

    Shares no code with ``_im2col`` but builds the same ``(C, ky, kx)``
    column order and takes the same single matmul, which is what makes the
    comparison exact rather than approximate.
    """
    out_channels, _, kernel, _ = weight.shape
    padded = np.pad(inputs, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, out_h, out_w, ky, kx)
    n, _, out_h, out_w = windows.shape[:4]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * out_h * out_w, -1
    )
    dtype = inputs.dtype
    output = cols @ weight.reshape(out_channels, -1).astype(dtype).T + bias.astype(dtype)
    return output.reshape(n, out_h, out_w, out_channels).transpose(0, 3, 1, 2)


def reference_prepare_input(image, size, dtype):
    """One frame's network input before the batched preparation.

    ``NeuralBranchFilter._prepare_input`` of the parent commit: per-frame
    ``astype`` and divide, then the 5-D reshape ``mean`` when both axes
    divide by ``size``, nearest-neighbour sampling otherwise.
    """
    dtype = np.dtype(dtype)
    height, width = image.shape[0], image.shape[1]
    pixels = image.astype(dtype) / dtype.type(255.0)
    if (height, width) != (size, size):
        if height % size == 0 and width % size == 0:
            pixels = pixels.reshape(size, height // size, size, width // size, 3).mean(
                axis=(1, 3)
            )
        else:
            rows = np.clip((np.arange(size) * height / size).astype(int), 0, height - 1)
            cols = np.clip((np.arange(size) * width / size).astype(int), 0, width - 1)
            pixels = pixels[rows][:, cols]
    return pixels.transpose(2, 0, 1)[None, ...]


@pytest.fixture()
def counted_renders(monkeypatch) -> list[int]:
    """The frame index of every ``FrameRenderer.render`` call made during the test."""
    renders: list[int] = []
    render = FrameRenderer.render

    def counting_render(self, ground_truth):
        renders.append(ground_truth.frame_index)
        return render(self, ground_truth)

    monkeypatch.setattr(FrameRenderer, "render", counting_render)
    return renders


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
