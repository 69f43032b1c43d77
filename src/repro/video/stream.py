"""Video streams and datasets.

A :class:`VideoStream` is the unit the query engine consumes: an ordered
sequence of frames from a single static camera at a fixed fps.  A
:class:`VideoDataset` bundles the train / validation / test streams of one
dataset profile (Coral, Jackson, Detrac), mirroring the splits described in
Section IV of the paper.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from contextlib import nullcontext

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

    @property
    def timestamp_seconds(self) -> float:
        """Placeholder timestamp assuming the stream's default 30 fps."""
        return self.index / 30.0


class VideoStream:
    """A finite, replayable stream of frames from one static camera."""

    def __init__(
        self,
        scene: Scene,
        renderer: FrameRenderer,
        fps: int = 30,
        camera_id: str = "camera-0",
        name: str = "stream",
        frame_cache_size: int = 32,
    ) -> None:
        if fps <= 0:
            raise ValueError(f"fps must be positive: {fps}")
        if frame_cache_size < 0:
            raise ValueError(f"frame_cache_size must be non-negative: {frame_cache_size}")
        self._scene = scene
        self._renderer = renderer
        self._fps = fps
        self._camera_id = camera_id
        self._name = name
        self._frame_cache_size = frame_cache_size
        self._frame_cache: OrderedDict[int, Frame] = OrderedDict()
        # The parallel execution engine renders ahead from prefetch threads,
        # so cache lookup / insert / evict must be atomic.  Rendering itself
        # happens outside the lock (it dominates the cost and is
        # deterministic per index, so a rare duplicate render is benign).
        self._frame_cache_lock = threading.Lock()

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

    @property
    def frame_cache_size(self) -> int:
        """Capacity of the LRU frame cache (``0`` disables caching)."""
        return self._frame_cache_size

    # ------------------------------------------------------------------
    # Frame access
    # ------------------------------------------------------------------
    def frame(self, index: int) -> Frame:
        """Materialise frame ``index``, rendering the pixels on a cache miss.

        Rendering is deterministic per index, so revisiting an index — as the
        windowed, multi-query and temporal execution paths routinely do —
        returns the cached :class:`Frame` instead of re-rendering.  The cache
        is a small LRU (``frame_cache_size`` entries, least recently
        *accessed* evicted first) and is thread-safe: lookup, insert and
        eviction happen under a lock, so the parallel engine's decode-ahead
        prefetcher may call :meth:`frame` from several threads.  Two threads
        racing on the same uncached index may both render it (rendering runs
        outside the lock); the frames are identical and one wins the cache
        slot.  ``frame_cache_size=0`` bypasses the cache and the lock
        entirely.  Returned frames are shared
        objects: callers must treat ``image`` as read-only, which every
        consumer in this codebase already does (filters copy via ``astype``).
        """
        if self._frame_cache_size == 0:
            return self._decode(index)
        with self._cache_section(), self._frame_cache_lock:
            cached = self._frame_cache.get(index)
            if cached is not None:
                self._frame_cache.move_to_end(index)
                return cached
        frame = self._decode(index)
        with self._cache_section(), self._frame_cache_lock:
            existing = self._frame_cache.get(index)
            if existing is not None:
                # Lost a render race: keep the first frame so repeated
                # lookups stay identity-stable.
                self._frame_cache.move_to_end(index)
                return existing
            self._frame_cache[index] = frame
            while len(self._frame_cache) > self._frame_cache_size:
                self._frame_cache.popitem(last=False)
        return frame

    def _cache_section(self):
        """Race-sanitizer window for one locked LRU section.

        The window declares the cache lock it runs under, so overlapping
        windows from concurrent prefetch threads intersect on the lock and
        stay silent; an access path that skipped the lock would declare an
        empty lockset and be reported as RC001.
        """
        if hooks.sanitizer is not None:
            return hooks.sanitizer.cache_access(
                self, frozenset((id(self._frame_cache_lock),))
            )
        return nullcontext()

    def _decode(self, index: int) -> Frame:
        """Render one frame, under the decode fault site when injecting.

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

    def sample_indices(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random sample of ``n`` frame indices without replacement."""
        n = min(n, len(self))
        return np.sort(rng.choice(len(self), size=n, replace=False))

    def count_series(self) -> np.ndarray:
        """Per-frame total object counts (from ground truth)."""
        return self._scene.count_series()


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
