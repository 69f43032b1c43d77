"""Figures 12–15 — per-class localisation (CLF) F1 across datasets.

For every dataset and object class, reports the localisation F1 of the
IC-CLF and OD-CLF grid predictions at Manhattan-distance tolerance 0, 1 and
2.  The paper's observations, which this reproduction preserves:

* OD filters localise markedly better than IC filters (their backbone keeps
  full spatial resolution);
* tolerance 1 / 2 recovers most of the residual error (spatial constraints
  survive slight mis-localisation);
* rare classes have lower localisation F1 (fewer training examples).
"""

from __future__ import annotations

from repro.experiments.context import DATASET_NAMES, ExperimentConfig, get_context


def run(
    config: ExperimentConfig | None = None,
    dataset_names: tuple[str, ...] = DATASET_NAMES,
) -> list[dict[str, object]]:
    """One row per (dataset, filter, class) with F1 at the three tolerances."""
    rows: list[dict[str, object]] = []
    for name in dataset_names:
        context = get_context(name, config)
        for label, key in (("IC-CLF", "ic"), ("OD-CLF", "od")):
            report = context.localization_reports[key]
            for class_name in context.class_names:
                rows.append(
                    {
                        "dataset": name,
                        "filter": label,
                        "class": class_name,
                        "f1": round(report.per_class_f1.get(class_name, 0.0), 3),
                        "f1_manhattan_1": round(
                            report.per_class_f1_manhattan_1.get(class_name, 0.0), 3
                        ),
                        "f1_manhattan_2": round(
                            report.per_class_f1_manhattan_2.get(class_name, 0.0), 3
                        ),
                        "micro_f1": round(report.micro_f1, 3),
                    }
                )
    return rows


def format_rows(rows: list[dict[str, object]]) -> str:
    lines = [f"{'dataset':<10}{'filter':<10}{'class':<10}{'f1':>8}{'f1@1':>8}{'f1@2':>8}"]
    for row in rows:
        lines.append(
            f"{row['dataset']:<10}{row['filter']:<10}{row['class']:<10}"
            f"{row['f1']:>8}{row['f1_manhattan_1']:>8}{row['f1_manhattan_2']:>8}"
        )
    return "\n".join(lines)
