"""Shared fixtures for the test suite.

Fixtures that require simulation or filter training are session-scoped and
deliberately tiny (tens of frames), so the whole suite runs in well under a
minute while still exercising the real end-to-end code paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection import ReferenceDetector, annotate_stream
from repro.filters import FilterTrainer
from repro.query.evaluation import evaluate_predicates_on_detections
from repro.video import build_detrac, build_jackson
from repro.video.datasets import JACKSON_PROFILE
from repro.video.renderer import FrameRenderer, RendererConfig
from repro.video.scene import SceneConfig, SceneSimulator
from repro.video.stream import VideoStream


@pytest.fixture(scope="session")
def tiny_jackson():
    """A very small Jackson-profile dataset (fast to build, shared by many tests)."""
    return build_jackson(train_size=90, val_size=20, test_size=50, seed=3)


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
