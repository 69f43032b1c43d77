"""Standard control-variate functions derived from filter predictions.

These helpers build the ``Z`` side of the control-variate pairs: cheap,
filter-based approximations of the quantity the detector computes exactly.
They mirror the approximate predicate checks the query planner uses, so the
same filter output serves both query filtering and aggregate estimation.
"""

from __future__ import annotations

from typing import Callable

from repro.filters.base import FilterPrediction
from repro.query.ast import (
    CountPredicate,
    Predicate,
    Query,
    RegionPredicate,
    SpatialPredicate,
)
from repro.query.planner import _count_possible, _region_possible, _spatial_possible
from repro.spatial.regions import Region

ControlValueFn = Callable[[FilterPrediction], float]


def class_count_control(class_name: str | None = None) -> ControlValueFn:
    """Control variate: the filter's (total or per-class) count estimate."""

    def control(prediction: FilterPrediction) -> float:
        if class_name is None:
            return float(prediction.total_count)
        return float(prediction.count_of(class_name))

    return control


def region_count_control(
    class_name: str, region: Region, dilation: int = 0
) -> ControlValueFn:
    """Control variate: number of predicted blobs of ``class_name`` inside ``region``."""

    def control(prediction: FilterPrediction) -> float:
        mask = prediction.location_mask(class_name, dilation=dilation)
        region_mask = region.grid_mask(prediction.grid)
        return float(mask.intersection(region_mask).blob_count())

    return control


def predicate_indicator_control(predicate: Predicate, tolerance: int = 0) -> ControlValueFn:
    """Control variate: 1 when the filter says the predicate may hold."""

    def control(prediction: FilterPrediction) -> float:
        if isinstance(predicate, CountPredicate):
            return 1.0 if _count_possible(predicate, prediction, tolerance) else 0.0
        if isinstance(predicate, SpatialPredicate):
            return 1.0 if _spatial_possible(predicate, prediction, tolerance) else 0.0
        if isinstance(predicate, RegionPredicate):
            return 1.0 if _region_possible(predicate, prediction, tolerance) else 0.0
        # Predicates the filters cannot evaluate (e.g. colors) contribute a
        # constant control, which the CV estimator simply ignores (beta = 0).
        return 1.0

    return control


def query_indicator_control(query: Query, tolerance: int = 0) -> ControlValueFn:
    """Control variate: 1 when the filter says *all* query predicates may hold."""
    per_predicate = [predicate_indicator_control(p, tolerance) for p in query.predicates]

    def control(prediction: FilterPrediction) -> float:
        return 1.0 if all(fn(prediction) > 0.5 for fn in per_predicate) else 0.0

    return control


def per_predicate_controls(query: Query, tolerance: int = 0) -> list[ControlValueFn]:
    """One control variate per query predicate (for multiple control variates).

    Count and region predicates contribute *value* controls (the filter's
    count estimate / in-region blob count), which correlate with the exact
    answer much better than bare indicators; spatial and other predicates
    contribute indicator controls.
    """
    controls: list[ControlValueFn] = []
    for predicate in query.predicates:
        if isinstance(predicate, CountPredicate):
            controls.append(class_count_control(predicate.class_name))
        elif isinstance(predicate, RegionPredicate):
            controls.append(
                region_count_control(predicate.class_name, predicate.region, dilation=tolerance)
            )
        else:
            controls.append(predicate_indicator_control(predicate, tolerance))
    return controls
