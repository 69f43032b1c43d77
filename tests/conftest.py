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


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
