"""Figure 7 — accuracy of object-count filters.

For each dataset, evaluates the three count filters the paper compares
(``OD-COF``, ``IC-CF``, ``OD-CF``) at the three tolerance bands (exact, ±1,
±2) on the annotated test split.

Expected shape (per the paper):

* accuracy rises steeply from exact to ±1 to ±2 for all filters;
* on the easy datasets (Coral, Jackson) the three filters are comparable;
* on Detrac (many objects per frame, high variance) ``OD-COF`` degrades while
  ``IC-CF`` and ``OD-CF`` remain competitive.
"""

from __future__ import annotations

from repro.experiments.context import DATASET_NAMES, ExperimentConfig, get_context


def run(
    config: ExperimentConfig | None = None,
    dataset_names: tuple[str, ...] = DATASET_NAMES,
) -> list[dict[str, object]]:
    """One row per (dataset, filter): exact / ±1 / ±2 total-count accuracy."""
    rows: list[dict[str, object]] = []
    for name in dataset_names:
        context = get_context(name, config)
        for label, key in (("OD-COF", "od_cof"), ("IC-CF", "ic"), ("OD-CF", "od")):
            report = context.count_reports[key]
            rows.append(
                {
                    "dataset": name,
                    "filter": label,
                    "exact": round(report.exact, 3),
                    "within_1": round(report.within_1, 3),
                    "within_2": round(report.within_2, 3),
                    "mae": round(report.mean_absolute_error, 3),
                    "frames": report.num_frames,
                }
            )
    return rows


def format_rows(rows: list[dict[str, object]]) -> str:
    lines = [f"{'dataset':<10}{'filter':<10}{'exact':>8}{'±1':>8}{'±2':>8}{'MAE':>8}"]
    for row in rows:
        lines.append(
            f"{row['dataset']:<10}{row['filter']:<10}{row['exact']:>8}{row['within_1']:>8}"
            f"{row['within_2']:>8}{row['mae']:>8}"
        )
    return "\n".join(lines)
