"""Detection data model and detector interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.spatial.geometry import Box
from repro.spatial.grid import Grid, GridMask
from repro.video.stream import Frame


@dataclass(frozen=True)
class Detection:
    """A single detected object in a frame."""

    class_name: str
    box: Box
    score: float
    color_name: str | None = None
    track_id: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"detection score must be in [0, 1]: {self.score}")


@dataclass(frozen=True)
class FrameDetections:
    """The full output of a detector for one frame."""

    frame_index: int
    detections: tuple[Detection, ...]
    latency_ms: float
    detector_name: str

    # ------------------------------------------------------------------
    # Counts
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.detections)

    def count_of(self, class_name: str) -> int:
        return sum(1 for det in self.detections if det.class_name == class_name)

    def counts_by_class(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for det in self.detections:
            counts[det.class_name] = counts.get(det.class_name, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Object access
    # ------------------------------------------------------------------
    def of_class(self, class_name: str) -> list[Detection]:
        return [det for det in self.detections if det.class_name == class_name]

    def boxes_of(self, class_name: str) -> list[Box]:
        return [det.box for det in self.of_class(class_name)]

    def location_mask(self, grid: Grid, class_name: str) -> GridMask:
        """Occupancy mask of the detections of ``class_name`` on ``grid``."""
        return grid.mask_from_boxes(self.boxes_of(class_name))

    def filtered(self, min_score: float) -> "FrameDetections":
        """Detections with score at least ``min_score``."""
        return FrameDetections(
            frame_index=self.frame_index,
            detections=tuple(d for d in self.detections if d.score >= min_score),
            latency_ms=self.latency_ms,
            detector_name=self.detector_name,
        )


class Detector(abc.ABC):
    """A full-frame object detector.

    A detector carries its simulated per-frame latency but charges nothing:
    the scan that calls :meth:`detect` charges the call to its own clock
    (:meth:`~repro.cost.SimulatedClock.charge_calls`), so one detector can
    serve any number of scans.
    """

    #: component name used for simulated-cost accounting
    name: str = "detector"
    #: simulated latency a scan charges per processed frame (milliseconds)
    latency_ms: float = 0.0

    @abc.abstractmethod
    def detect(self, frame: Frame) -> FrameDetections:
        """Detect all objects in ``frame``."""
