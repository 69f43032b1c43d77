"""Object-detection substrate.

The paper relies on two external detectors:

* **Mask R-CNN** — the accurate, slow (~200 ms/frame) detector that (a)
  produces the ground-truth annotations used to train the filters and (b)
  verifies candidate frames during query execution;
* **YOLOv2** — a faster (~15 ms/frame) full detector used as a comparison
  point and as the backbone whose early layers feed the OD filters.

Neither is available here, so this package provides simulators with the same
interface, calibrated error models and the paper's latency figures (which
the scans charge to a simulated clock), plus the frozen convolutional
feature backbones whose outputs the filter branch heads consume.
"""

from repro.detection.base import Detection, Detector, FrameDetections
from repro.detection.oracle import DetectorErrorModel, ReferenceDetector
from repro.detection.yolo import FastDetector
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
    "FastDetector",
    "BackboneConfig",
    "FeatureBackbone",
    "classification_backbone",
    "detection_backbone",
    "AnnotatedFrame",
    "AnnotationSet",
    "annotate_frames",
    "annotate_stream",
]
