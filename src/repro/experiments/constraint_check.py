"""Section IV-A constraint-accuracy check: "car left of a bus" without training for it.

The paper reports that evaluating a spatial constraint between two object
classes directly from the OD filter's location grids reaches 99 % accuracy
against a manually annotated data set, without training a dedicated
classifier for that constraint.  Here the "manual annotation" is the
reference detector's exact evaluation of the constraint; the experiment
measures how often the filter-based check agrees with it on the Detrac test
split.
"""

from __future__ import annotations

from repro.experiments.context import ExperimentConfig, get_context
from repro.query.ast import SpatialPredicate
from repro.query.evaluation import predicate_holds
from repro.query.planner import _spatial_possible
from repro.spatial.relations import Direction


def run(
    config: ExperimentConfig | None = None,
    dataset_name: str = "detrac",
    subject_class: str = "car",
    reference_class: str = "bus",
    dilation: int = 1,
) -> dict[str, object]:
    """Agreement between the OD-CLF constraint check and the exact evaluation."""
    context = get_context(dataset_name, config)
    predicate = SpatialPredicate(subject_class, reference_class, Direction.LEFT_OF)
    detector = context.reference_detector(seed_offset=700)

    agreements = 0
    positives_truth = 0
    positives_filter = 0
    total = 0
    for frames, batch in context.predicted_chunks(context.od_filter):
        for frame, prediction in zip(frames, batch):
            truth = predicate_holds(predicate, detector.detect(frame))
            estimate = _spatial_possible(predicate, prediction, dilation)
            total += 1
            agreements += int(truth == estimate)
            positives_truth += int(truth)
            positives_filter += int(estimate)

    accuracy = agreements / total if total else 0.0
    return {
        "dataset": dataset_name,
        "constraint": f"{subject_class} left_of {reference_class}",
        "frames": total,
        "accuracy": round(accuracy, 3),
        "paper_accuracy": 0.99,
        "true_positive_rate_truth": round(positives_truth / total, 3) if total else 0.0,
        "true_positive_rate_filter": round(positives_filter / total, 3) if total else 0.0,
    }
