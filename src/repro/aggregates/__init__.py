"""Monitoring aggregates: sampling estimation with control variates.

Section III of the paper treats aggregate monitoring queries ("how many
frames in this 5000-frame window contain a blue car with a stop sign on its
right?", "what is the average number of bicycles in the bike lane per
hour?").  Rather than evaluating the expensive detector on every frame, such
queries are answered by sampling frames and estimating the aggregate, and the
cheap approximate filters are used as **control variates** to reduce the
variance of the estimate: the filter's (approximate) answer is highly
correlated with the detector's (exact) answer, so the classical CV estimator
— and its multi-variate generalisation for queries involving several objects
and constraints — yields the same unbiased mean with a much smaller variance
at a negligible increase in per-sample cost.
"""

from repro.aggregates.control_variates import (
    ControlVariateEstimate,
    control_variate_estimate,
    multiple_control_variates_estimate,
    optimal_beta,
)
from repro.aggregates.sampling import SampleEstimate, sample_mean_estimate, sample_frame_indices
from repro.aggregates.windows import HoppingWindow, SlidingWindow, WindowBounds
from repro.aggregates.monitor import (
    AggregateMonitor,
    AggregateQuerySpec,
    MonitoringReport,
)
from repro.aggregates.controls import (
    class_count_control,
    per_predicate_controls,
    predicate_indicator_control,
    query_indicator_control,
    region_count_control,
)

__all__ = [
    "ControlVariateEstimate",
    "control_variate_estimate",
    "multiple_control_variates_estimate",
    "optimal_beta",
    "SampleEstimate",
    "sample_mean_estimate",
    "sample_frame_indices",
    "HoppingWindow",
    "SlidingWindow",
    "WindowBounds",
    "AggregateMonitor",
    "AggregateQuerySpec",
    "MonitoringReport",
    "class_count_control",
    "region_count_control",
    "predicate_indicator_control",
    "query_indicator_control",
    "per_predicate_controls",
]
