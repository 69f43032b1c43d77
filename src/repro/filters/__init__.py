"""Approximate frame filters — the paper's core contribution.

Section II of the paper proposes two families of cheap, approximate filters
that estimate, per frame:

* the total number of objects (``CF`` — count filter),
* the number of objects of each class (``CCF`` — class count filter),
* the location of objects of each class on a ``g x g`` grid (``CLF`` — class
  location filter),

without running a full object detector.  The **IC** family branches off an
image-classification backbone (class-activation maps); the **OD** family
branches off an object-detection backbone; **OD-COF** is a count-only
classifier branch.  Filters are approximate (false positives and false
negatives are both possible) and come with tolerance variants: counts within
±1 / ±2 and grid localisation within Manhattan distance 1 / 2.

This package provides:

* :mod:`repro.filters.base` — the prediction data model and filter interface;
* :mod:`repro.filters.heads` — the trained estimation heads (per-cell grid
  scorer, count calibration, pooled count regressor);
* :mod:`repro.filters.ic`, :mod:`repro.filters.od` — the two filter families
  plus the count-optimised ``OD-COF`` classifier;
* :mod:`repro.filters.neural` — a faithful CNN branch-network implementation
  of both families on the :mod:`repro.nn` framework (trainable end to end
  with the paper's multi-task loss);
* :mod:`repro.filters.training` — training pipelines for both implementations;
* :mod:`repro.filters.metrics` — the paper's accuracy metrics (exact / ±1 /
  ±2 count accuracy, localisation F1 at Manhattan distance 0 / 1 / 2), scored
  from a filter's predictions in one pass;
* :mod:`repro.filters.calibration` — grid-threshold calibration.
"""

from repro.filters.base import (
    BatchPrediction,
    CountTolerance,
    FilterPrediction,
    FrameFilter,
)
from repro.filters.heads import CountCalibration, GridScoringHead, PooledCountHead
from repro.filters.ic import ICFilter
from repro.filters.od import ODCountClassifier, ODFilter
from repro.filters.neural import NeuralBranchFilter, build_branch_network
from repro.filters.training import (
    FilterTrainer,
    NeuralTrainingConfig,
    train_neural_filter,
)
from repro.filters.metrics import (
    CountAccuracyReport,
    LocalizationReport,
    count_accuracy,
    evaluate_count_filter,
    evaluate_localization,
    score_predictions,
)
from repro.filters.calibration import ThresholdCalibration, calibrate_threshold

__all__ = [
    "BatchPrediction",
    "FilterPrediction",
    "FrameFilter",
    "CountTolerance",
    "GridScoringHead",
    "CountCalibration",
    "PooledCountHead",
    "ICFilter",
    "ODFilter",
    "ODCountClassifier",
    "NeuralBranchFilter",
    "build_branch_network",
    "FilterTrainer",
    "NeuralTrainingConfig",
    "train_neural_filter",
    "CountAccuracyReport",
    "LocalizationReport",
    "count_accuracy",
    "evaluate_count_filter",
    "evaluate_localization",
    "score_predictions",
    "ThresholdCalibration",
    "calibrate_threshold",
]
