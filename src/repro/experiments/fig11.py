"""Figures 8–11 — per-class count (CCF) accuracy across datasets.

For every dataset and every object class, reports the exact / ±1 / ±2
accuracy of the IC-CCF and OD-CCF per-class count estimates.  The paper's
observations: the two families are comparable, IC has a slight edge on exact
counts, and the less popular classes (fewer objects per frame) are *easier*
to count even though they have fewer training examples.
"""

from __future__ import annotations

from repro.experiments.context import DATASET_NAMES, ExperimentConfig, get_context


def run(
    config: ExperimentConfig | None = None,
    dataset_names: tuple[str, ...] = DATASET_NAMES,
) -> list[dict[str, object]]:
    """One row per (dataset, filter, class) with per-class count accuracy."""
    rows: list[dict[str, object]] = []
    for name in dataset_names:
        context = get_context(name, config)
        # The Fig 7 IC-CF / OD-CF reports: one scoring pass serves both figures.
        for label, key in (("IC-CCF", "ic"), ("OD-CCF", "od")):
            report = context.count_reports[key]
            for class_name in context.class_names:
                rows.append(
                    {
                        "dataset": name,
                        "filter": label,
                        "class": class_name,
                        "exact": round(report.per_class_exact.get(class_name, 0.0), 3),
                        "within_1": round(report.per_class_within_1.get(class_name, 0.0), 3),
                        "within_2": round(report.per_class_within_2.get(class_name, 0.0), 3),
                    }
                )
    return rows


def format_rows(rows: list[dict[str, object]]) -> str:
    lines = [f"{'dataset':<10}{'filter':<10}{'class':<10}{'exact':>8}{'±1':>8}{'±2':>8}"]
    for row in rows:
        lines.append(
            f"{row['dataset']:<10}{row['filter']:<10}{row['class']:<10}"
            f"{row['exact']:>8}{row['within_1']:>8}{row['within_2']:>8}"
        )
    return "\n".join(lines)
