"""Ablation studies for the design choices the paper discusses in the text.

1. **Branch depth / grid resolution trade-off** (Section IV-A): branching at
   a deeper layer improves counts slightly but shrinks the grid and hurts
   localisation.  Here the analogue is the backbone's spatial pooling factor:
   a coarser feature grid is cheaper and counts almost as well, but
   localisation F1 drops.

2. **Grid occupancy threshold** (the paper fixes 0.2): a validation sweep of
   thresholds versus localisation F1.

3. **Cascade tolerance** (the paper picks, per query, the most selective
   filter combination that preserves accuracy): accuracy versus speedup for
   one spatial query under increasingly permissive tolerances.
"""

from __future__ import annotations


from repro.detection.backbone import classification_backbone
from repro.experiments.context import ExperimentConfig, get_context
from repro.filters import calibrate_threshold, score_predictions
from repro.filters.ic import ICFilter
from repro.query import PlannerConfig, QueryBuilder, QueryPlanner, StreamingQueryExecutor


def run_branch_depth(
    config: ExperimentConfig | None = None,
    dataset_name: str = "jackson",
    pool_factors: tuple[int, ...] = (1, 2, 4),
) -> list[dict[str, object]]:
    """Count accuracy and localisation F1 as the feature grid gets coarser."""
    context = get_context(dataset_name, config)
    rows: list[dict[str, object]] = []
    for pool_factor in pool_factors:
        trainer = context.trainer()
        backbone = classification_backbone(trainer.grid_size, pool_factor=pool_factor)
        grid_head, calibration = trainer._train_linear_branch(backbone)
        candidate = ICFilter(
            grid_head=grid_head,
            count_calibration=calibration,
            grid=trainer.grid,
            backbone=backbone,
            threshold=trainer.threshold,
        )
        counts, by_threshold = score_predictions(
            context.test_predictions(candidate), context.test_annotations
        )
        localization = by_threshold[None]
        rows.append(
            {
                "dataset": dataset_name,
                "pool_factor": pool_factor,
                "effective_grid": trainer.grid_size // pool_factor,
                "count_exact": round(counts.exact, 3),
                "count_within_1": round(counts.within_1, 3),
                "micro_f1": round(localization.micro_f1, 3),
                "micro_f1_manhattan_1": round(localization.micro_f1_manhattan_1, 3),
            }
        )
    return rows


def run_threshold_sweep(
    config: ExperimentConfig | None = None,
    dataset_name: str = "jackson",
    thresholds: tuple[float, ...] = (0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5),
) -> list[dict[str, object]]:
    """Localisation F1 as a function of the grid occupancy threshold."""
    context = get_context(dataset_name, config)
    calibration = calibrate_threshold(
        context.test_predictions(context.od_filter), context.test_annotations, thresholds
    )
    rows = [
        {
            "dataset": dataset_name,
            "threshold": row["threshold"],
            "micro_f1": round(row["micro_f1"], 3),
            "is_paper_default": abs(row["threshold"] - 0.2) < 1e-9,
        }
        for row in calibration.as_rows()
    ]
    rows.append(
        {
            "dataset": dataset_name,
            "threshold": calibration.best_threshold,
            "micro_f1": round(calibration.best_f1, 3),
            "is_paper_default": abs(calibration.best_threshold - 0.2) < 1e-9,
            "best": True,
        }
    )
    return rows


def run_cascade_tolerance(
    config: ExperimentConfig | None = None,
    dataset_name: str = "jackson",
) -> list[dict[str, object]]:
    """Accuracy vs speedup for a spatial query under different cascade tolerances."""
    context = get_context(dataset_name, config)
    query = (
        QueryBuilder("q5")
        .count("car").equals(1)
        .count("person").equals(1)
        .spatial("car").left_of("person")
        .build()
    )
    settings = ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2))
    cascades = [
        QueryPlanner(
            context.filters,
            PlannerConfig(count_tolerance=count_tolerance, location_dilation=location_dilation),
        ).plan(query)
        for count_tolerance, location_dilation in settings
    ]
    # One shared scan: the five plans plus a brute-force copy (no cascade),
    # each result carrying the cost attributed to it alone.
    executor = StreamingQueryExecutor(context.reference_detector(seed_offset=300))
    *results, brute = executor.execute_many(
        [query] * (len(settings) + 1), context.dataset.test, cascades + [None]
    )
    rows: list[dict[str, object]] = []
    for (count_tolerance, location_dilation), cascade, result in zip(settings, cascades, results):
        accuracy = result.accuracy_against(brute.matched_frames)
        rows.append(
            {
                "dataset": dataset_name,
                "count_tolerance": count_tolerance,
                "location_dilation": location_dilation,
                "cascade": cascade.describe(),
                "accuracy": round(accuracy["accuracy"], 3),
                "speedup": round(result.speedup_against(brute), 1),
                "selectivity": round(result.stats.filter_selectivity, 4),
            }
        )
    return rows


def run(config: ExperimentConfig | None = None) -> dict[str, list[dict[str, object]]]:
    """All ablations, keyed by study name."""
    return {
        "branch_depth": run_branch_depth(config),
        "threshold_sweep": run_threshold_sweep(config),
        "cascade_tolerance": run_cascade_tolerance(config),
    }
