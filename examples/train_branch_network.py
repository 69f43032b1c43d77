"""Train the CNN branch network end to end with the paper's multi-task loss.

The large experiment sweeps use the fast closed-form linear branch heads (see
DESIGN.md); this example exercises the faithful convolutional implementation
on the from-scratch :mod:`repro.nn` framework: a shared conv trunk with a
count head (GAP + dense) and a grid head (1x1 conv + sigmoid), trained with
the two-phase schedule from Section II-A — counts only first, then the
localisation term is switched on with (alpha, beta) = (1, 10) and beta decays.

Run with::

    python examples/train_branch_network.py
"""

from __future__ import annotations

from repro import build_jackson
from repro.detection import ReferenceDetector, annotate_stream
from repro.filters import NeuralTrainingConfig, train_neural_filter
from repro.filters.metrics import score_predictions


def main() -> None:
    print("Building a small synthetic Jackson dataset ...")
    dataset = build_jackson(train_size=160, val_size=30, test_size=80)
    detector = ReferenceDetector(class_names=dataset.class_names, seed=0)
    grid = dataset.grid(56)

    print("Annotating the training frames with the reference detector ...")
    train_annotations = annotate_stream(
        dataset.train, detector, dataset.class_names, grid, frame_indices=range(0, 160, 2)
    )

    config = NeuralTrainingConfig(
        image_size=56,
        grid_size=14,
        epochs=6,
        warmup_epochs=2,
        batch_size=16,
        base_channels=8,
    )
    print(
        f"Training the branch network end to end "
        f"({config.epochs} epochs, {config.image_size}x{config.image_size} input, "
        f"{config.grid_size}x{config.grid_size} grid) ..."
    )
    neural_filter = train_neural_filter(
        dataset.train, train_annotations, dataset.class_names, config=config
    )

    print("Evaluating on held-out test frames ...")
    test_annotations = annotate_stream(
        dataset.test, detector, dataset.class_names,
        dataset.grid(config.grid_size), frame_indices=range(0, 80, 2),
    )
    # The metrics score predictions: predict the annotated frames (one batch
    # here; a long split would go chunk by chunk through a generator), then
    # score counts and locations in one pass.
    predictions = neural_filter.predict_batch(
        [dataset.test.frame(item.frame_index) for item in test_annotations]
    )
    counts, by_threshold = score_predictions(predictions, test_annotations)
    localization = by_threshold[None]
    print(f"  count accuracy:      exact {counts.exact:.2f}, ±1 {counts.within_1:.2f}")
    print(f"  localisation F1:     {localization.micro_f1:.2f} "
          f"(Manhattan-1: {localization.micro_f1_manhattan_1:.2f})")
    print("  per-class F1:        "
          + ", ".join(f"{name}={value:.2f}" for name, value in localization.per_class_f1.items()))


if __name__ == "__main__":
    main()
