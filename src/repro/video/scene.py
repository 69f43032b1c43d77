"""Scene simulation: turning a dataset profile into frame-by-frame ground truth.

The simulator controls the per-frame object count directly: it draws a
smooth, autocorrelated target-count series whose mean and standard deviation
match the dataset profile (Table II), then keeps exactly that many tracked
objects alive at every frame by spawning new objects and retiring the oldest
ones.  This gives precise control over the count distribution — the single
most important statistic for the count filters — while the motion models give
objects realistic trajectories for the location filters and spatial queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.spatial.geometry import Box, Point
from repro.spatial.grid import Grid, GridMask
from repro.video.motion import LinearMotion, MotionModel, ParkedMotion, WanderMotion
from repro.video.objects import (
    NAMED_COLORS,
    ObjectClass,
    ObjectState,
    TrackedObject,
    default_class_registry,
)
from repro.video.synthesis import ClassMixEntry, DatasetProfile


@dataclass(frozen=True)
class FrameGroundTruth:
    """Everything that is true about a single frame."""

    frame_index: int
    objects: tuple[ObjectState, ...]
    frame_width: int
    frame_height: int

    # ------------------------------------------------------------------
    # Counts
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total number of objects visible in the frame."""
        return len(self.objects)

    def count_of(self, class_name: str) -> int:
        """Number of objects of ``class_name`` in the frame."""
        return sum(1 for obj in self.objects if obj.class_name == class_name)

    def counts_by_class(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for obj in self.objects:
            counts[obj.class_name] = counts.get(obj.class_name, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Object access
    # ------------------------------------------------------------------
    def objects_of(self, class_name: str) -> list[ObjectState]:
        return [obj for obj in self.objects if obj.class_name == class_name]

    def boxes_of(self, class_name: str) -> list[Box]:
        return [obj.box for obj in self.objects_of(class_name)]

    def location_mask(self, grid: Grid, class_name: str) -> GridMask:
        """Ground-truth occupancy mask of ``class_name`` on ``grid``."""
        return grid.mask_from_boxes(self.boxes_of(class_name))

    def location_masks(self, grid: Grid, class_names: Sequence[str]) -> dict[str, GridMask]:
        return {name: self.location_mask(grid, name) for name in class_names}


@dataclass(frozen=True)
class SceneConfig:
    """Low-level scene parameters, usually derived from a :class:`DatasetProfile`."""

    frame_width: int
    frame_height: int
    num_frames: int
    mean_count: float
    std_count: float
    count_autocorrelation: float
    class_mix: tuple[ClassMixEntry, ...]
    max_count: int
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject a config that would fail inside numpy or simulate nonsense."""
        if self.frame_width <= 0 or self.frame_height <= 0:
            raise ValueError(
                "SceneConfig.frame_width and frame_height must be positive: "
                f"{self.frame_width} x {self.frame_height}"
            )
        if self.num_frames < 0:
            raise ValueError(f"SceneConfig.num_frames must be non-negative: {self.num_frames}")
        if not self.class_mix:
            raise ValueError("SceneConfig.class_mix must name at least one class")
        if self.max_count < 0:
            raise ValueError(f"SceneConfig.max_count must be non-negative: {self.max_count}")
        for name in ("mean_count", "std_count"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"SceneConfig.{name} must be finite and non-negative: {value}")
        if not -1.0 < self.count_autocorrelation < 1.0:
            raise ValueError(
                "SceneConfig.count_autocorrelation must lie in (-1, 1): "
                f"{self.count_autocorrelation}"
            )

    @classmethod
    def from_profile(
        cls, profile: DatasetProfile, num_frames: int, seed: int = 0
    ) -> "SceneConfig":
        return cls(
            frame_width=profile.frame_width,
            frame_height=profile.frame_height,
            num_frames=num_frames,
            mean_count=profile.mean_objects_per_frame,
            std_count=profile.std_objects_per_frame,
            count_autocorrelation=profile.count_autocorrelation,
            class_mix=profile.classes,
            max_count=profile.max_objects_per_frame,
            seed=seed,
        )


class Scene:
    """A fully-materialised scene: tracked objects plus per-frame ground truth."""

    def __init__(
        self,
        config: SceneConfig,
        tracks: Sequence[TrackedObject],
        active_tracks_per_frame: Sequence[Sequence[int]],
    ) -> None:
        self._config = config
        self._tracks = list(tracks)
        self._active = [list(ids) for ids in active_tracks_per_frame]
        if len(self._active) != config.num_frames:
            raise ValueError(
                "active-track table length does not match the number of frames"
            )
        self._track_by_id = {track.track_id: track for track in self._tracks}
        for track in self._tracks:
            if track.color_name not in NAMED_COLORS:
                raise ValueError(
                    f"track {track.track_id} has unknown color name: {track.color_name!r}"
                )

    @property
    def config(self) -> SceneConfig:
        return self._config

    @property
    def num_frames(self) -> int:
        return self._config.num_frames

    @property
    def frame_width(self) -> int:
        return self._config.frame_width

    @property
    def frame_height(self) -> int:
        return self._config.frame_height

    @property
    def tracks(self) -> list[TrackedObject]:
        return list(self._tracks)

    def ground_truth(self, frame_index: int) -> FrameGroundTruth:
        """The ground truth of frame ``frame_index``."""
        if not 0 <= frame_index < self.num_frames:
            raise IndexError(
                f"frame {frame_index} out of range [0, {self.num_frames})"
            )
        states = []
        for track_id in self._active[frame_index]:
            state = self._track_by_id[track_id].state_at(frame_index)
            if state is not None:
                states.append(state)
        return FrameGroundTruth(
            frame_index=frame_index,
            objects=tuple(states),
            frame_width=self.frame_width,
            frame_height=self.frame_height,
        )

    def count_series(self) -> np.ndarray:
        """Per-frame object counts (useful for validating dataset statistics)."""
        return np.array([len(self._active[i]) for i in range(self.num_frames)])


class SceneSimulator:
    """Generates a :class:`Scene` from a :class:`SceneConfig`.

    The simulation is deterministic given the seed, so datasets can be
    re-materialised identically across processes (training vs benchmarking).
    """

    def __init__(self, config: SceneConfig, class_registry: Mapping[str, ObjectClass] | None = None) -> None:
        self._config = config
        self._registry = dict(class_registry or default_class_registry())
        for entry in config.class_mix:
            if entry.class_name not in self._registry:
                raise KeyError(f"class {entry.class_name!r} missing from registry")
        weights = np.array([entry.frequency for entry in config.class_mix], dtype=float)
        self._class_weights = weights / weights.sum()
        #: ``(lane, horizontal)`` -> the lane's base speed, a constant of the seed
        self._lane_speeds: dict[tuple[int, bool], float] = {}

    # ------------------------------------------------------------------
    # Count process
    # ------------------------------------------------------------------
    def _target_counts(self, rng: np.random.Generator) -> np.ndarray:
        """A smooth integer count series with the configured mean and std."""
        config = self._config
        n = config.num_frames
        if n == 0:
            return np.zeros(0, dtype=int)
        rho = config.count_autocorrelation
        # AR(1) process with stationary variance 1.
        innovations = rng.normal(0.0, np.sqrt(max(1.0 - rho**2, 1e-9)), size=n)
        latent = np.empty(n)
        latent[0] = rng.normal(0.0, 1.0)
        for i in range(1, n):
            latent[i] = rho * latent[i - 1] + innovations[i]
        # Standardise the realised path so that even short streams hit the
        # profile's mean / std (an un-standardised AR(1) path with high
        # autocorrelation wanders far from its stationary mean over a few
        # hundred frames, which would break the Table II reproduction).
        latent = latent - latent.mean()
        latent_std = latent.std()
        if latent_std > 1e-9:
            latent = latent / latent_std
        counts = config.mean_count + config.std_count * latent
        counts = np.clip(np.rint(counts), 0, config.max_count)
        return counts.astype(int)

    # ------------------------------------------------------------------
    # Track construction
    # ------------------------------------------------------------------
    def _sample_class(self, rng: np.random.Generator) -> ClassMixEntry:
        entries = self._config.class_mix
        index = int(rng.choice(len(entries), p=self._class_weights))
        return entries[index]

    def _lane_speed(self, lane: int, horizontal: bool) -> float:
        """The base speed every vehicle in ``lane`` shares, drawn once per lane."""
        key = (lane, horizontal)
        speed = self._lane_speeds.get(key)
        if speed is None:
            lane_rng = np.random.default_rng((self._config.seed, lane, int(horizontal)))
            speed = self._lane_speeds[key] = float(lane_rng.uniform(1.5, 4.5))
        return speed

    def _make_motion(
        self,
        entry: ClassMixEntry,
        width: float,
        height: float,
        spawn_frame: int,
        rng: np.random.Generator,
    ) -> tuple[MotionModel, int]:
        """Build a motion model and a lifetime (in frames) for a new object."""
        config = self._config
        frame_w, frame_h = config.frame_width, config.frame_height
        style = entry.motion
        if style == "traffic" and rng.uniform() < entry.parked_probability:
            style = "parked"

        if style == "parked":
            position = Point(
                float(rng.uniform(width, frame_w - width)),
                float(rng.uniform(height, frame_h - height)),
            )
            lifetime = int(rng.integers(200, 2000))
            return ParkedMotion(position=position, jitter=0.3, seed=int(rng.integers(1 << 30))), lifetime

        if style == "wander":
            anchor = Point(
                float(rng.uniform(width, frame_w - width)),
                float(rng.uniform(height, frame_h - height)),
            )
            radius = float(rng.uniform(0.05, 0.2)) * min(frame_w, frame_h)
            lifetime = int(rng.integers(100, 800))
            return (
                WanderMotion(anchor=anchor, radius=radius, speed=1.0, seed=int(rng.integers(1 << 30))),
                lifetime,
            )

        if style == "walk":
            # Pedestrians cross the frame slowly along one of two sidewalk
            # bands (top and bottom of the visible area).
            speed = float(rng.uniform(0.4, 1.2))
            direction = 1 if rng.uniform() < 0.5 else -1
            band_low = rng.uniform() < 0.5
            y_fraction = rng.uniform(0.86, 0.95) if band_low else rng.uniform(0.08, 0.18)
            y = float(frame_h * y_fraction)
            start_x = -width if direction > 0 else frame_w + width
            start = Point(start_x, y)
            velocity = (direction * speed, float(rng.normal(0.0, 0.05)))
            travel = frame_w + 2 * width
            lifetime = max(int(travel / speed), 2)
            return LinearMotion(start=start, velocity=velocity), lifetime

        # Traffic: drive across the frame horizontally or vertically.  Vehicles
        # follow lanes, and every lane has a fixed direction and a shared base
        # speed (vehicles in the same lane move together, as real traffic
        # does), which keeps vehicles from driving through one another and
        # keeps occlusion at realistic levels even in dense scenes.
        horizontal = bool(rng.uniform() < 0.75)
        num_lanes = 7
        lane = int(rng.integers(num_lanes))
        direction = 1 if lane % 2 == 0 else -1
        speed = self._lane_speed(lane, horizontal) * float(rng.uniform(0.97, 1.03))
        if horizontal:
            lane_span = frame_h * (0.85 - 0.2)
            y = frame_h * 0.2 + (lane + 0.5) * lane_span / num_lanes
            y += float(rng.normal(0.0, lane_span / (10 * num_lanes)))
            start_x = -width if direction > 0 else frame_w + width
            start = Point(start_x, float(y))
            velocity = (direction * speed, 0.0)
            travel = frame_w + 2 * width
        else:
            lane_span = frame_w * (0.85 - 0.15)
            x = frame_w * 0.15 + (lane + 0.5) * lane_span / num_lanes
            x += float(rng.normal(0.0, lane_span / (10 * num_lanes)))
            start_y = -height if direction > 0 else frame_h + height
            start = Point(float(x), start_y)
            velocity = (0.0, direction * speed)
            travel = frame_h + 2 * height
        lifetime = max(int(travel / speed), 2)
        return LinearMotion(start=start, velocity=velocity), lifetime

    def _spawn_track(
        self, track_id: int, spawn_frame: int, rng: np.random.Generator
    ) -> TrackedObject:
        entry = self._sample_class(rng)
        object_class = self._registry[entry.class_name]
        width, height, color = object_class.appearance.sample(rng)
        motion, lifetime = self._make_motion(entry, width, height, spawn_frame, rng)
        return TrackedObject(
            track_id=track_id,
            object_class=object_class,
            width=width,
            height=height,
            color_name=color,
            spawn_frame=spawn_frame,
            despawn_frame=spawn_frame + lifetime,
            motion=motion,
        )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self) -> Scene:
        """Run the simulation and return the materialised scene."""
        config = self._config
        width, height = config.frame_width, config.frame_height
        rng = np.random.default_rng(config.seed)
        target_counts = self._target_counts(rng)

        tracks: list[TrackedObject] = []
        active_ids: list[int] = []
        active_per_frame: list[list[int]] = []

        for frame_index in range(config.num_frames):
            # Retire tracks that died or left the frame.
            active_ids = [
                track_id
                for track_id in active_ids
                if tracks[track_id].visible_at(frame_index, width, height)
            ]
            target = int(target_counts[frame_index])
            # Spawn to reach the target count.
            attempts = 0
            while len(active_ids) < target and attempts < 10 * config.max_count:
                attempts += 1
                track = self._spawn_track(len(tracks), frame_index, rng)
                tracks.append(track)
                if not track.visible_at(frame_index, width, height):
                    # Traffic objects spawn just outside the frame; pull their
                    # spawn time back so they are already visible now, and add
                    # a random extra head start so that simultaneously spawned
                    # objects appear spread across the frame instead of
                    # stacked on top of each other at the entry edge.
                    frames_to_enter = self._frames_to_enter(track)
                    lifetime = track.despawn_frame - track.spawn_frame
                    max_extra = max(lifetime - frames_to_enter - 2, 0)
                    extra = int(rng.integers(0, max_extra + 1)) if max_extra > 0 else 0
                    entry_frame = track.spawn_frame - frames_to_enter
                    track.spawn_frame = entry_frame - extra
                    if not track.visible_at(frame_index, width, height):
                        track.spawn_frame = entry_frame
                        if not track.visible_at(frame_index, width, height):
                            continue
                active_ids.append(track.track_id)
            # Retire the oldest tracks when above the target.
            if len(active_ids) > target:
                surplus = len(active_ids) - target
                active_ids = active_ids[surplus:]
            active_per_frame.append(active_ids)

        return Scene(config=config, tracks=tracks, active_tracks_per_frame=active_per_frame)

    def _frames_to_enter(self, track: TrackedObject) -> int:
        """How many frames until a freshly spawned off-screen object becomes visible."""
        config = self._config
        spawn = track.spawn_frame
        # Look at most 399 frames ahead, and only while the track is alive.
        for frame in range(spawn + 1, min(spawn + 400, track.despawn_frame)):
            if track.visible_at(frame, config.frame_width, config.frame_height):
                return frame - spawn
        return 0
