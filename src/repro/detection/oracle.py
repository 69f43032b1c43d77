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

    def _detect_class(self, state: ObjectState, rng: np.random.Generator) -> str:
        if self.error_model.confusion_rate > 0 and self.class_names:
            if rng.random() < self.error_model.confusion_rate:
                others = [c for c in self.class_names if c != state.class_name]
                if others:
                    return str(rng.choice(others))
        return state.class_name

    # ------------------------------------------------------------------
    # Detector interface
    # ------------------------------------------------------------------
    def detect(self, frame: Frame) -> FrameDetections:
        """Per kept object, in draw order: the miss test (``rng.random()``,
        ``uniform()``'s bits), the box jitter (one vector of four normals:
        width, height, center x, center y), the confusion draws, the score
        (``mean + std * standard_normal()``, ``normal(mean, std)`` bit for
        bit).  The detection digests in ``tests/test_detection.py`` pin the
        draws, their order and the box arithmetic."""
        rng = self._rng_for_frame(frame.index)
        ground_truth = frame.ground_truth
        frame_w = float(ground_truth.frame_width)
        frame_h = float(ground_truth.frame_height)
        model = self.error_model
        jitter = model.box_jitter
        detections: list[Detection] = []
        for state in ground_truth.objects:
            box = state.box
            x_min, y_min, x_max, y_max = box.x_min, box.y_min, box.x_max, box.y_max
            width, height = x_max - x_min, y_max - y_min
            miss_probability = model.miss_rate
            if width * height < model.small_object_area:
                miss_probability += model.small_object_miss_rate
            if rng.random() < miss_probability:
                continue
            if jitter > 0:
                d_width, d_height, d_x, d_y = rng.standard_normal(4).tolist()
                cx = (x_min + x_max) / 2.0 + jitter * width * d_x
                cy = (y_min + y_max) / 2.0 + jitter * height * d_y
                half_w = max(width * (1.0 + jitter * d_width), 2.0) / 2.0
                half_h = max(height * (1.0 + jitter * d_height), 2.0) / 2.0
                x_min, x_max = cx - half_w, cx + half_w
                y_min, y_max = cy - half_h, cy + half_h
            x_min, y_min = max(x_min, 0.0), max(y_min, 0.0)
            x_max, y_max = min(x_max, frame_w), min(y_max, frame_h)
            if x_max <= x_min or y_max <= y_min:
                continue  # jittered (or placed) entirely off the frame
            class_name = self._detect_class(state, rng)
            score = model.score_mean + model.score_std * rng.standard_normal()
            detections.append(
                Detection(
                    class_name=class_name,
                    box=Box(x_min, y_min, x_max, y_max),
                    score=min(max(score, 0.05), 1.0),
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
