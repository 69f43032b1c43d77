"""Grid-threshold calibration.

The paper uses a fixed occupancy threshold of 0.2 on the grid-cell scores
("For OD techniques we threshold the grid cell to determine the presence of
an object using a threshold of 0.2").  This module provides the validation
sweep behind such a choice: evaluate localisation F1 over a range of
thresholds on held-out frames and pick the best one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.detection.annotation import AnnotationSet
from repro.filters.base import FilterPrediction
from repro.filters.metrics import score_predictions


@dataclass(frozen=True)
class ThresholdCalibration:
    """Result of a threshold sweep."""

    filter_name: str
    thresholds: tuple[float, ...]
    micro_f1: tuple[float, ...]
    best_threshold: float
    best_f1: float

    def as_rows(self) -> list[dict[str, float]]:
        return [
            {"threshold": t, "micro_f1": f}
            for t, f in zip(self.thresholds, self.micro_f1)
        ]


def calibrate_threshold(
    predictions: Iterable[FilterPrediction],
    annotations: AnnotationSet,
    thresholds: Sequence[float] = (0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5),
) -> ThresholdCalibration:
    """Sweep grid thresholds on validation data and return the best by micro F1.

    ``predictions`` are the filter's predictions of the annotated frames, in
    order.  Each is scored at every threshold as it arrives (its raw cell
    scores are kept, and a threshold applies only in ``location_mask``), so
    the sweep predicts each frame once, however many thresholds it tries.
    """
    if not thresholds:
        raise ValueError("at least one threshold is required")
    _, reports = score_predictions(predictions, annotations, thresholds)
    scores = [reports[threshold].micro_f1 for threshold in thresholds]
    best_index = int(np.argmax(scores))
    return ThresholdCalibration(
        filter_name=reports[thresholds[0]].filter_name,
        thresholds=tuple(float(t) for t in thresholds),
        micro_f1=tuple(float(s) for s in scores),
        best_threshold=float(thresholds[best_index]),
        best_f1=float(scores[best_index]),
    )
