"""Reference detector simulator (the paper's Mask R-CNN).

In the paper Mask R-CNN plays two roles: it *defines* the ground truth (all
training labels and all query accuracy numbers are measured against its
output) and it is the expensive verification step in the query executor.  The
simulator mirrors that: it reads the scene ground truth and perturbs it with
a calibrated error model (missed detections for small or heavily occluded
objects, bounding-box jitter, occasional class confusion), and carries the
paper's 200 ms/frame latency for the scan to charge to its simulated clock.

With the default error model the simulator is *almost* perfect — as Mask
R-CNN effectively is, relative to the much weaker filters — but the error
model is explicit and configurable so experiments can study sensitivity to
annotation noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cost import MASK_RCNN_MS
from repro.detection.base import Detection, Detector, FrameDetections
from repro.spatial.geometry import Box
from repro.video.objects import ObjectState
from repro.video.stream import Frame


@dataclass(frozen=True)
class DetectorErrorModel:
    """Error characteristics of a simulated detector.

    * ``miss_rate`` — base probability of missing any object;
    * ``small_object_miss_rate`` — additional miss probability for objects
      smaller than ``small_object_area`` (in logical-frame pixels);
    * ``box_jitter`` — standard deviation of the relative perturbation applied
      to box centers and sizes;
    * ``confusion_rate`` — probability of reporting a wrong class;
    * ``false_positive_rate`` — expected number of spurious detections per
      frame.
    """

    miss_rate: float = 0.0
    small_object_miss_rate: float = 0.0
    small_object_area: float = 250.0
    box_jitter: float = 0.0
    confusion_rate: float = 0.0
    false_positive_rate: float = 0.0
    score_mean: float = 0.95
    score_std: float = 0.03

    def __post_init__(self) -> None:
        for name in ("miss_rate", "small_object_miss_rate", "confusion_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")
        if self.box_jitter < 0 or self.false_positive_rate < 0:
            raise ValueError("box_jitter and false_positive_rate must be non-negative")


class ReferenceDetector(Detector):
    """The 'Mask R-CNN' stand-in: near-perfect, slow, and the source of truth."""

    name = "mask_rcnn"

    def __init__(
        self,
        class_names: tuple[str, ...] | list[str] | None = None,
        error_model: DetectorErrorModel | None = None,
        latency_ms: float = MASK_RCNN_MS,
        seed: int = 0,
    ) -> None:
        self.class_names = tuple(class_names) if class_names else ()
        self.error_model = error_model or DetectorErrorModel(
            miss_rate=0.01,
            small_object_miss_rate=0.05,
            box_jitter=0.02,
            confusion_rate=0.0,
            false_positive_rate=0.0,
        )
        self.latency_ms = latency_ms
        self._seed = seed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rng_for_frame(self, frame_index: int) -> np.random.Generator:
        # Deterministic per-frame randomness: the same frame always yields the
        # same detections, as a real (deterministic) network would.
        return np.random.default_rng((self._seed, frame_index))

    def _perturbed_box(
        self, state: ObjectState, rng: np.random.Generator, frame_w: int, frame_h: int
    ) -> Box | None:
        jitter = self.error_model.box_jitter
        box = state.box
        if jitter > 0:
            width = box.width * float(1.0 + rng.normal(0.0, jitter))
            height = box.height * float(1.0 + rng.normal(0.0, jitter))
            cx = box.center.x + float(rng.normal(0.0, jitter * box.width))
            cy = box.center.y + float(rng.normal(0.0, jitter * box.height))
            width = max(width, 2.0)
            height = max(height, 2.0)
            box = Box.from_center(cx, cy, width, height)
        return box.clipped(frame_w, frame_h)

    def _detect_class(self, state: ObjectState, rng: np.random.Generator) -> str:
        if self.error_model.confusion_rate > 0 and self.class_names:
            if rng.uniform() < self.error_model.confusion_rate:
                others = [c for c in self.class_names if c != state.class_name]
                if others:
                    return str(rng.choice(others))
        return state.class_name

    def _score(self, rng: np.random.Generator) -> float:
        score = rng.normal(self.error_model.score_mean, self.error_model.score_std)
        return min(max(float(score), 0.05), 1.0)

    # ------------------------------------------------------------------
    # Detector interface
    # ------------------------------------------------------------------
    def detect(self, frame: Frame) -> FrameDetections:
        rng = self._rng_for_frame(frame.index)
        ground_truth = frame.ground_truth
        detections: list[Detection] = []
        for state in ground_truth.objects:
            miss_probability = self.error_model.miss_rate
            if state.box.area < self.error_model.small_object_area:
                miss_probability += self.error_model.small_object_miss_rate
            if rng.uniform() < miss_probability:
                continue
            box = self._perturbed_box(
                state, rng, ground_truth.frame_width, ground_truth.frame_height
            )
            if box is None:
                continue
            detections.append(
                Detection(
                    class_name=self._detect_class(state, rng),
                    box=box,
                    score=self._score(rng),
                    color_name=state.color_name,
                    track_id=state.track_id,
                )
            )
        # Spurious detections.
        expected_fp = self.error_model.false_positive_rate
        if expected_fp > 0:
            num_fp = int(rng.poisson(expected_fp))
            for _ in range(num_fp):
                if not self.class_names:
                    break
                width = float(rng.uniform(10, 60))
                height = float(rng.uniform(10, 60))
                cx = float(rng.uniform(width, ground_truth.frame_width - width))
                cy = float(rng.uniform(height, ground_truth.frame_height - height))
                detections.append(
                    Detection(
                        class_name=str(rng.choice(list(self.class_names))),
                        box=Box.from_center(cx, cy, width, height),
                        score=float(rng.uniform(0.3, 0.7)),
                    )
                )
        return FrameDetections(
            frame_index=frame.index,
            detections=tuple(detections),
            latency_ms=self.latency_ms,
            detector_name=self.name,
        )
