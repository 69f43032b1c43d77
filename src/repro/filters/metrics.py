"""Filter accuracy metrics — exactly the quantities plotted in the paper's Figures 7–15.

* **Count accuracy** (Figure 7, Figures 8–11): the fraction of frames whose
  predicted count equals the true count exactly, within ±1, or within ±2.
* **Localisation F1** (Figures 12–15): per-class precision / recall / F1 of
  the thresholded grid prediction against the ground-truth occupancy grid,
  where a predicted cell counts as correct when a ground-truth cell of the
  same class lies within Manhattan distance 0, 1 or 2.

Ground truth is, as in the paper, the output of the reference detector
(Mask R-CNN), provided as an :class:`~repro.detection.annotation.AnnotationSet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.detection.annotation import AnnotatedFrame, AnnotationSet
from repro.filters.base import FilterPrediction
from repro.spatial.grid import GridMask


# ----------------------------------------------------------------------
# Count metrics
# ----------------------------------------------------------------------
def count_accuracy(
    predicted: Sequence[int] | np.ndarray,
    actual: Sequence[int] | np.ndarray,
    tolerance: int = 0,
) -> float:
    """Fraction of frames where ``|predicted - actual| <= tolerance``."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        return 0.0
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative: {tolerance}")
    return float(np.mean(np.abs(predicted - actual) <= tolerance))


@dataclass(frozen=True)
class CountAccuracyReport:
    """Count accuracy of one filter on one dataset, at all three tolerances."""

    filter_name: str
    dataset_name: str
    num_frames: int
    exact: float
    within_1: float
    within_2: float
    per_class_exact: Mapping[str, float] = field(default_factory=dict)
    per_class_within_1: Mapping[str, float] = field(default_factory=dict)
    per_class_within_2: Mapping[str, float] = field(default_factory=dict)
    mean_absolute_error: float = 0.0


# ----------------------------------------------------------------------
# Localisation metrics
# ----------------------------------------------------------------------
def _matched_counts(
    predicted: np.ndarray, actual: np.ndarray, predicted_grown: np.ndarray, actual_grown: np.ndarray
) -> tuple[int, int, int]:
    """``(true_positives, false_positives, false_negatives)`` of two bool grids
    at a Manhattan tolerance, each also given grown by the tolerance (so a
    caller can grow a mask once for many comparisons)."""
    true_positives = int(np.count_nonzero(predicted & actual_grown))
    false_positives = int(np.count_nonzero(predicted)) - true_positives
    matched_actual = int(np.count_nonzero(actual & predicted_grown))
    false_negatives = int(np.count_nonzero(actual)) - matched_actual
    return true_positives, false_positives, false_negatives


def _grown(mask: GridMask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``mask`` at Manhattan tolerances 0, 1 and 2, each grown from the last."""
    once = mask.dilated(1)
    return mask.values, once.values, once.dilated(1).values


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    """F1 of ``(true_positives, false_positives, false_negatives)`` (1.0 when all are 0)."""
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class LocalizationReport:
    """Per-class localisation F1 of one filter on one dataset."""

    filter_name: str
    dataset_name: str
    num_frames: int
    per_class_f1: Mapping[str, float]
    per_class_f1_manhattan_1: Mapping[str, float]
    per_class_f1_manhattan_2: Mapping[str, float]
    micro_f1: float
    micro_f1_manhattan_1: float
    micro_f1_manhattan_2: float


# ----------------------------------------------------------------------
# Scoring predictions
# ----------------------------------------------------------------------
def score_predictions(
    predictions: Iterable[FilterPrediction],
    annotations: AnnotationSet,
    thresholds: Sequence[float | None] = (None,),
    total_only: bool = False,
    dataset_name: str | None = None,
) -> tuple[CountAccuracyReport, dict[float | None, LocalizationReport]]:
    """Count accuracy and localisation F1 of one filter's predictions, in one pass.

    ``predictions`` are the filter's predictions of the annotated frames, in
    the annotations' order; each is scored and dropped as it arrives, so a
    generator that predicts chunk by chunk never holds more than a chunk of
    ``(C, g, g)`` score planes.  Localisation is tallied at every one of
    ``thresholds`` (``None`` is the filter's own threshold) from the same
    prediction, so a threshold sweep predicts each frame once;
    ``thresholds=()`` scores counts only, and ``total_only=True`` only the
    total count (OD-COF has no per-class output).  Returns the count report
    and one localisation report per threshold.  A prediction whose frame is
    not the annotation's at the same position, or predictions that end
    before the annotations do, raise ``ValueError`` naming the position.
    """
    frames = annotations.frames
    names = annotations.class_names
    counted = () if total_only else names
    filter_name = ""
    # One row per frame: the total count, then each counted class's.
    predicted_counts: list[list[int]] = []
    actual_counts: list[list[int]] = []
    # threshold -> [class, tolerance (0, 1, 2), (tp, fp, fn)]
    tallies = {threshold: np.zeros((len(names), 3, 3), np.int64) for threshold in thresholds}
    for position, prediction in enumerate(predictions):
        if position >= len(frames) or frames[position].frame_index != prediction.frame_index:
            raise _misaligned(frames, position, prediction.frame_index)
        annotated = frames[position]
        filter_name = prediction.filter_name
        predicted_counts.append([prediction.total_count, *map(prediction.count_of, counted)])
        actual_counts.append([annotated.total_count, *map(annotated.count_of, counted)])
        for row, name in enumerate(names if tallies else ()):
            # The annotation is grown once per frame and class, not per threshold.
            truth = _grown(GridMask(grid=annotations.grid, values=annotated.grid_of(name)))
            for threshold, tally in tallies.items():
                mask = _grown(prediction.location_mask(name, threshold=threshold))
                for tolerance in range(3):
                    tally[row, tolerance] += _matched_counts(
                        mask[0], truth[0], mask[tolerance], truth[tolerance]
                    )
    scored = len(actual_counts)
    if scored < len(frames):
        raise _misaligned(frames, scored, None)
    dataset_name = dataset_name or annotations.stream_name
    width = 1 + len(counted)
    predicted = np.array(predicted_counts, dtype=np.int64).reshape(-1, width)
    actual = np.array(actual_counts, dtype=np.int64).reshape(-1, width)
    per_class = [
        {
            name: count_accuracy(predicted[:, column], actual[:, column], tolerance)
            for column, name in enumerate(counted, start=1)
        }
        for tolerance in range(3)
    ]
    errors = np.abs(predicted[:, 0] - actual[:, 0])
    counts = CountAccuracyReport(
        filter_name=filter_name,
        dataset_name=dataset_name,
        num_frames=scored,
        exact=count_accuracy(predicted[:, 0], actual[:, 0], 0),
        within_1=count_accuracy(predicted[:, 0], actual[:, 0], 1),
        within_2=count_accuracy(predicted[:, 0], actual[:, 0], 2),
        per_class_exact=per_class[0],
        per_class_within_1=per_class[1],
        per_class_within_2=per_class[2],
        mean_absolute_error=float(np.mean(errors)) if errors.size else 0.0,
    )
    # F1 is micro-averaged over frames (total TP / FP / FN per class across
    # the whole test set), matching the paper's definition of counting true /
    # false positives over all frames.
    localization = {
        threshold: LocalizationReport(
            filter_name=filter_name,
            dataset_name=dataset_name,
            num_frames=scored,
            per_class_f1=_per_class_f1(names, tally, 0),
            per_class_f1_manhattan_1=_per_class_f1(names, tally, 1),
            per_class_f1_manhattan_2=_per_class_f1(names, tally, 2),
            micro_f1=f1_from_counts(*tally[:, 0].sum(axis=0).tolist()),
            micro_f1_manhattan_1=f1_from_counts(*tally[:, 1].sum(axis=0).tolist()),
            micro_f1_manhattan_2=f1_from_counts(*tally[:, 2].sum(axis=0).tolist()),
        )
        for threshold, tally in tallies.items()
    }
    return counts, localization


def _misaligned(frames: Sequence[AnnotatedFrame], position: int, frame: int | None) -> ValueError:
    """Predictions (of ``frame``, or ended: ``None``) and annotations part at ``position``."""
    predicted = "have ended" if frame is None else f"are of frame {frame}"
    annotated = (
        f"of frame {frames[position].frame_index}"
        if position < len(frames)
        else f"past their end ({len(frames)} frames)"
    )
    return ValueError(
        f"predictions and annotations differ at position {position}: "
        f"the predictions {predicted}, the annotations are {annotated}"
    )


def _per_class_f1(names: Sequence[str], tally: np.ndarray, tolerance: int) -> dict[str, float]:
    """Each class's F1 from its ``(tp, fp, fn)`` row of ``tally`` at ``tolerance``."""
    return {name: f1_from_counts(*tally[row, tolerance].tolist()) for row, name in enumerate(names)}


def evaluate_count_filter(
    predictions: Iterable[FilterPrediction],
    annotations: AnnotationSet,
    dataset_name: str | None = None,
    total_only: bool = False,
) -> CountAccuracyReport:
    """Count accuracy of a filter's predictions of the annotated frames, in order.

    ``total_only=True`` evaluates only the total count (appropriate for the
    OD-COF filter which has no per-class output).
    """
    return score_predictions(predictions, annotations, (), total_only, dataset_name)[0]


def evaluate_localization(
    predictions: Iterable[FilterPrediction],
    annotations: AnnotationSet,
    dataset_name: str | None = None,
    threshold: float | None = None,
) -> LocalizationReport:
    """Grid localisation F1 of a filter's predictions of the annotated frames, in order."""
    scores = score_predictions(predictions, annotations, (threshold,), dataset_name=dataset_name)
    return scores[1][threshold]
