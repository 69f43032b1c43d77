"""Fast detector simulator (the paper's YOLOv2).

The paper uses the full YOLOv2 network as a comparison point: ~15 ms/frame,
good localisation (3–5 % better than the OD-CLF filters) but no counting head
and noticeably worse recall on small objects than Mask R-CNN.  The simulator
reproduces that profile with a more aggressive error model and the 15 ms
latency figure.
"""

from __future__ import annotations

from repro.cost import YOLO_FULL_MS
from repro.detection.base import Detector, FrameDetections
from repro.detection.oracle import DetectorErrorModel, ReferenceDetector
from repro.video.stream import Frame


class FastDetector(Detector):
    """The 'full YOLOv2' stand-in: faster, noisier than the reference detector."""

    name = "yolo_v2"

    def __init__(
        self,
        class_names: tuple[str, ...] | list[str] | None = None,
        error_model: DetectorErrorModel | None = None,
        latency_ms: float = YOLO_FULL_MS,
        seed: int = 1,
    ) -> None:
        self.latency_ms = latency_ms
        # Delegate the detection mechanics to the reference implementation
        # with a weaker error model; only latency and identity differ.
        self._inner = ReferenceDetector(
            class_names=class_names,
            error_model=error_model
            or DetectorErrorModel(
                miss_rate=0.04,
                small_object_miss_rate=0.18,
                small_object_area=400.0,
                box_jitter=0.06,
                confusion_rate=0.01,
                false_positive_rate=0.05,
                score_mean=0.85,
                score_std=0.08,
            ),
            latency_ms=latency_ms,
            seed=seed,
        )

    def detect(self, frame: Frame) -> FrameDetections:
        inner = self._inner.detect(frame)
        return FrameDetections(
            frame_index=inner.frame_index,
            detections=inner.detections,
            latency_ms=self.latency_ms,
            detector_name=self.name,
        )
