"""Video streams and datasets.

A :class:`VideoStream` is the unit the query engine consumes: an ordered
sequence of frames from a single static camera at a fixed fps.  A
:class:`VideoDataset` bundles the train / validation / test streams of one
dataset profile (Coral, Jackson, Detrac), mirroring the splits described in
Section IV of the paper.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro import hooks
from repro.spatial.grid import Grid
from repro.video.renderer import FrameRenderer, RendererConfig
from repro.video.scene import FrameGroundTruth, Scene, SceneConfig, SceneSimulator
from repro.video.synthesis import DatasetProfile


@dataclass(frozen=True)
class Frame:
    """A single video frame: its index, pixels and (oracle-only) ground truth.

    Query processing code must treat ``ground_truth`` as the private property
    of the reference detector — filters only ever see ``image``.
    """

    index: int
    image: np.ndarray
    ground_truth: FrameGroundTruth
    camera_id: str = "camera-0"


class VideoStream:
    """A finite, replayable stream of frames from one static camera."""

    def __init__(
        self,
        scene: Scene,
        renderer: FrameRenderer,
        fps: int = 30,
        camera_id: str = "camera-0",
        name: str = "stream",
    ) -> None:
        if fps <= 0:
            raise ValueError(f"fps must be positive: {fps}")
        self._scene = scene
        self._renderer = renderer
        self._fps = fps
        self._camera_id = camera_id
        self._name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def fps(self) -> int:
        return self._fps

    @property
    def camera_id(self) -> str:
        return self._camera_id

    @property
    def scene(self) -> Scene:
        return self._scene

    @property
    def renderer(self) -> FrameRenderer:
        return self._renderer

    @property
    def frame_width(self) -> int:
        return self._scene.frame_width

    @property
    def frame_height(self) -> int:
        return self._scene.frame_height

    def __len__(self) -> int:
        return self._scene.num_frames

    @property
    def duration_seconds(self) -> float:
        return len(self) / self._fps

    # ------------------------------------------------------------------
    # Frame access
    # ------------------------------------------------------------------
    def frame(self, index: int) -> Frame:
        """Render frame ``index``, under the decode fault site when injecting.

        Rendering is deterministic per index and the stream holds nothing, so
        any number of threads (the decode-ahead pool) may call this at once
        and a repeated call returns an equal frame, not the same object.  A
        consumer that revisits frames holds them itself (``FilterTrainer``).

        A transient decode fault retries with backoff charged to the
        injector's own simulated clock (streams carry no clock of their
        own); exhaustion propagates as ``FaultExhausted`` for the caller
        to quarantine.
        """
        if hooks.injector is not None:
            return hooks.injector.with_retry(
                "decode", index, None, lambda: self._render_frame(index)
            )
        return self._render_frame(index)

    def _render_frame(self, index: int) -> Frame:
        ground_truth = self._scene.ground_truth(index)
        image = self._renderer.render(ground_truth)
        return Frame(
            index=index,
            image=image,
            ground_truth=ground_truth,
            camera_id=self._camera_id,
        )

    def ground_truth(self, index: int) -> FrameGroundTruth:
        """Ground truth without rendering (used for labels and evaluation)."""
        return self._scene.ground_truth(index)

    def __iter__(self) -> Iterator[Frame]:
        for index in range(len(self)):
            yield self.frame(index)

    def iter_range(self, start: int, stop: int, step: int = 1) -> Iterator[Frame]:
        """Iterate over a slice of the stream."""
        for index in range(start, min(stop, len(self)), step):
            yield self.frame(index)

    def count_series(self) -> np.ndarray:
        """Per-frame total object counts (from ground truth)."""
        return self._scene.count_series()


def checked_frame_indices(
    frame_indices: Iterable[int] | None, stream: VideoStream
) -> list[int]:
    """Caller-chosen ``frame_indices`` as ints, each a frame of ``stream``.

    The boundary check of every entry point that takes indices (``execute``,
    ``execute_many``, ``brute_force_execute``, ``AggregateMonitor.estimate``).
    It runs before anything is rendered, charged or started, so a bad entry
    cannot fail mid-scan with work already on the caller's clock.  Entries
    must be integral (``operator.index``: numpy integers pass, floats do
    not) and in ``[0, len(stream))``; order and duplicates are left alone.
    ``None`` means every frame of the stream.
    """
    num_frames = len(stream)
    if frame_indices is None:
        return list(range(num_frames))
    checked: list[int] = []
    for position, entry in enumerate(frame_indices):
        try:
            index = operator.index(entry)
        except TypeError:
            raise TypeError(
                f"frame_indices[{position}] = {entry!r} is not an integer "
                f"(the stream has {num_frames} frames)"
            ) from None
        if not 0 <= index < num_frames:
            raise IndexError(
                f"frame_indices[{position}] = {index} is out of range "
                f"[0, {num_frames}) of the stream"
            )
        checked.append(index)
    return checked


@dataclass(frozen=True)
class VideoDataset:
    """Train / validation / test streams of one dataset profile."""

    name: str
    profile: DatasetProfile
    train: VideoStream
    validation: VideoStream
    test: VideoStream

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.profile.class_names

    def grid(self, g: int = 56) -> Grid:
        """The ``g x g`` filter grid for this dataset's frame geometry."""
        return Grid(
            rows=g,
            cols=g,
            frame_width=self.profile.frame_width,
            frame_height=self.profile.frame_height,
        )

    def summary(self) -> dict[str, object]:
        """Dataset characteristics in the shape of the paper's Table II."""
        counts = self.train.count_series()
        return {
            "dataset": self.name,
            "train_size": len(self.train),
            "val_size": len(self.validation),
            "test_size": len(self.test),
            "objects_per_frame_mean": float(np.mean(counts)),
            "objects_per_frame_std": float(np.std(counts)),
            "classes": dict(self.profile.class_frequencies),
        }


def build_stream_from_profile(
    profile: DatasetProfile,
    num_frames: int,
    seed: int,
    name: str,
    output_size: int = 112,
    renderer_seed: int | None = None,
) -> VideoStream:
    """Simulate and wrap a stream for ``profile`` with ``num_frames`` frames.

    ``seed`` drives the scene content (which objects appear when); the
    renderer's static background is seeded separately with ``renderer_seed``
    so that the train / validation / test splits of one dataset share the
    same fixed-camera background, exactly as consecutive segments of one real
    surveillance video do.
    """
    scene_config = SceneConfig.from_profile(profile, num_frames=num_frames, seed=seed)
    scene = SceneSimulator(scene_config).simulate()
    renderer = FrameRenderer(
        RendererConfig(
            output_size=output_size,
            background_color=profile.background_color,
            background_texture=profile.background_texture,
            seed=seed if renderer_seed is None else renderer_seed,
        )
    )
    return VideoStream(
        scene=scene,
        renderer=renderer,
        fps=profile.fps,
        camera_id=f"{profile.name}-cam",
        name=name,
    )
