"""Object-detection substrate.

The paper relies on two external detectors:

* **Mask R-CNN** — the accurate, slow (~200 ms/frame) detector that (a)
  produces the ground-truth annotations used to train the filters and (b)
  verifies candidate frames during query execution;
* **YOLOv2** — a faster (~15 ms/frame) full detector used as a comparison
  point and as the backbone whose early layers feed the OD filters.

Neither is available here.  This package simulates Mask R-CNN
(:class:`ReferenceDetector`, a calibrated error model at the paper's latency,
which the scans charge to a simulated clock) and provides the frozen
convolutional feature backbones whose outputs the filter branch heads
consume; YOLOv2 survives only as those backbones and its latency figure
(``repro.cost.YOLO_FULL_MS``), since no experiment runs it as a detector.
"""

from repro.detection.base import Detection, Detector, FrameDetections
from repro.detection.oracle import DetectorErrorModel, ReferenceDetector
from repro.detection.backbone import (
    BackboneConfig,
    FeatureBackbone,
    classification_backbone,
    detection_backbone,
)
from repro.detection.annotation import (
    AnnotatedFrame,
    AnnotationSet,
    annotate_frames,
    annotate_stream,
)

__all__ = [
    "Detection",
    "Detector",
    "FrameDetections",
    "DetectorErrorModel",
    "ReferenceDetector",
    "BackboneConfig",
    "FeatureBackbone",
    "classification_backbone",
    "detection_backbone",
    "AnnotatedFrame",
    "AnnotationSet",
    "annotate_frames",
    "annotate_stream",
]
