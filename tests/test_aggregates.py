"""Tests for sampling estimation, control variates and aggregate monitoring."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregates import (
    AggregateMonitor,
    AggregateQuerySpec,
    HoppingWindow,
    SlidingWindow,
    WindowBounds,
    class_count_control,
    control_variate_estimate,
    multiple_control_variates_estimate,
    optimal_beta,
    per_predicate_controls,
    query_indicator_control,
    sample_frame_indices,
    sample_mean_estimate,
)
from repro.aggregates.monitor import MonitoringReport
from repro.aggregates.sampling import SampleEstimate
from repro.detection import ReferenceDetector
from repro.query import QueryBuilder, StreamingQueryExecutor


def test_sample_mean_estimate_basics():
    estimate = sample_mean_estimate([1.0, 2.0, 3.0, 4.0])
    assert estimate.mean == pytest.approx(2.5)
    assert estimate.num_samples == 4
    low, high = estimate.confidence_interval
    assert low < 2.5 < high
    assert estimate.half_width == pytest.approx((high - low) / 2)
    with pytest.raises(ValueError):
        sample_mean_estimate([])
    with pytest.raises(ValueError):
        sample_mean_estimate([1.0], confidence_level=1.5)


@pytest.mark.parametrize("n", [2, 3, 10, 60, 1000])
@pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99])
def test_sample_mean_interval_is_the_student_t_interval_bit_for_bit(n, level):
    # scipy.stats is the oracle here only: the library reads the same
    # quantile from scipy.special, imported when an interval is first read
    # (see test_import_repro_leaves_scipy_stats_unloaded).
    from scipy import stats

    values = np.random.default_rng(n).normal(3.0, 2.0, size=n)
    estimate = sample_mean_estimate(values, confidence_level=level)
    critical = float(stats.t.ppf(0.5 + level / 2.0, df=n - 1))
    assert estimate.confidence_interval == (
        estimate.mean - critical * estimate.std_error,
        estimate.mean + critical * estimate.std_error,
    )


#: run in a fresh interpreter: the scipy modules loaded after importing the
#: package, after estimating, and after reading one interval
_SCIPY_PROBE = """
import sys
import repro, repro.experiments, repro.service
from repro.aggregates import (
    control_variate_estimate, multiple_control_variates_estimate, sample_mean_estimate,
)

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

print(scipy_modules())
y, x = [1.0, 2.0, 4.0, 7.0, 3.0], [1.5, 2.0, 3.5, 6.0, 3.0]
plain = sample_mean_estimate(y)
control_variate_estimate(y, x)
multiple_control_variates_estimate(y, [[a, a * a] for a in x])
print(scipy_modules())
plain.confidence_interval
print("scipy.special" in sys.modules)
"""


def test_import_repro_leaves_scipy_stats_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    # No scipy module at all, after the import and after the estimates: the
    # grid operations are numpy, and scipy.special is imported only by
    # SampleEstimate.confidence_interval, on its first read (lint INV014).
    assert done.stdout.split("\n")[:3] == ["[]", "[]", "True"]


def test_the_lazy_interval_behaves_like_a_field():
    values = [1.0, 2.0, 4.0, 7.0]
    read, unread = sample_mean_estimate(values), sample_mean_estimate(values)
    interval = read.confidence_interval
    assert "confidence_interval" not in {field.name for field in fields(SampleEstimate)}
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)

    for clone in (pickle.loads(pickle.dumps(read)), pickle.loads(pickle.dumps(unread))):
        assert clone == read
        assert clone.confidence_interval == interval
    assert replace(read) == read and replace(read).confidence_interval == interval
    # replace() builds a new estimate: no interval is carried over stale.
    moved = replace(read, mean=read.mean + 10.0)
    assert moved.confidence_interval == (interval[0] + 10.0, interval[1] + 10.0)
    assert replace(read, confidence_level=0.99).half_width > read.half_width

    # A report's equality does not depend on which of its intervals were read.
    cv = control_variate_estimate(values, [1.5, 2.0, 3.5, 6.0])

    def report(plain):
        return MonitoringReport("q", plain, cv, len(values), 201.0, 200.0, 0.0)

    left, right = report(sample_mean_estimate(values)), report(sample_mean_estimate(values))
    left.plain.confidence_interval
    assert left == right and hash(left) == hash(right)
    assert asdict(left) == asdict(right)
    assert pickle.loads(pickle.dumps(left)) == right


def _raising_frame(index):
    raise AssertionError(f"frame {index} was rendered")


def _two_controls(query):
    return AggregateQuerySpec.from_query(
        query, [query_indicator_control(query), class_count_control("car")]
    )


#: ``(spec maker, call)`` per case; each asks for too small a sample, and the
#: message names the population
_TOO_SMALL = {
    "stream": (
        lambda query: AggregateQuerySpec.from_query(query, [query_indicator_control(query)]),
        lambda runner, monitor, spec, stream: runner.execute_aggregate(
            spec, stream, frame_filter=monitor.frame_filter, sample_size=1
        ),
        "the stream of 50 frames",
    ),
    "two-controls": (
        _two_controls,
        lambda runner, monitor, spec, stream: runner.execute_aggregate(
            spec, stream, frame_filter=monitor.frame_filter, sample_size=3
        ),
        "the stream of 50 frames",
    ),
    "partial-tail-window": (
        lambda query: AggregateQuerySpec.from_query(
            QueryBuilder("hopping").count("car").at_least(1).window(7, 7).build(),
            [query_indicator_control(query)],
        ),
        lambda runner, monitor, spec, stream: runner.execute_aggregate(
            spec, stream, frame_filter=monitor.frame_filter, sample_size=5,
            include_partial_windows=True,
        ),
        r"window \[49, 50\) of 1 frames",
    ),
    "estimate-window": (
        lambda query: AggregateQuerySpec.from_query(query, [query_indicator_control(query)]),
        lambda runner, monitor, spec, stream: monitor.estimate(
            spec, stream, 10, window=WindowBounds(10, 11)
        ),
        r"window \[10, 11\) of 1 frames",
    ),
    "frame-indices": (
        _two_controls,
        lambda runner, monitor, spec, stream: monitor.estimate(
            spec, stream, 10, frame_indices=[3, 5, 8]
        ),
        "frame_indices of 3 frames",
    ),
}


@pytest.mark.parametrize("case", _TOO_SMALL)
def test_a_too_small_sample_is_rejected_before_anything_renders(
    trained_od_filter, tiny_jackson, monkeypatch, case
):
    make_spec, call, population = _TOO_SMALL[case]
    stream = tiny_jackson.test
    spec = make_spec(QueryBuilder("cars").count("car").at_least(1).build())
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=13)
    runner = StreamingQueryExecutor(detector)
    monitor = AggregateMonitor(detector, trained_od_filter, clock=runner.clock)
    monkeypatch.setattr(stream, "frame", _raising_frame)
    baseline = runner.clock.snapshot()
    with pytest.raises(ValueError, match=f"sample of .* from {population} is too small"):
        call(runner, monitor, spec, stream)
    assert runner.clock.delta_since(baseline).total_ms == 0.0
    assert runner.clock.breakdown.per_component_calls == {}


def test_the_smallest_accepted_sample_estimates(trained_od_filter, tiny_jackson):
    stream = tiny_jackson.test
    query = QueryBuilder("cars").count("car").at_least(1).build()
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=13)
    monitor = AggregateMonitor(detector, trained_od_filter)
    single = AggregateQuerySpec.from_query(query, [query_indicator_control(query)])
    assert monitor.estimate(single, stream, 2).num_samples == 2
    assert monitor.estimate(single, stream, 10, window=WindowBounds(48, 50)).num_samples == 2
    assert monitor.estimate(_two_controls(query), stream, 4).num_samples == 4


def test_sample_frame_indices(rng):
    indices = sample_frame_indices(100, 20, rng)
    assert len(indices) == 20
    assert len(set(indices.tolist())) == 20
    assert sample_frame_indices(5, 10, rng).shape == (5,)  # capped without replacement
    with pytest.raises(ValueError):
        sample_frame_indices(0, 5, rng)


def test_control_variates_reduce_variance_on_correlated_data(rng):
    # Y = X + small noise: the CV estimator should nearly eliminate variance.
    x = rng.normal(10.0, 2.0, size=400)
    y = x + rng.normal(0.0, 0.2, size=400)
    estimate = control_variate_estimate(y, x, control_mean=10.0)
    assert estimate.variance < estimate.plain_variance / 10
    assert estimate.variance_reduction > 10
    assert estimate.correlation > 0.95
    assert abs(estimate.beta[0] - 1.0) < 0.1
    # With an uncorrelated control there is no benefit.
    unrelated = rng.normal(size=400)
    weak = control_variate_estimate(y, unrelated)
    assert weak.variance_reduction < 2.0


def test_control_variate_estimator_is_consistent(rng):
    # The CV-corrected mean stays close to the true mean.
    true_mean = 5.0
    x = rng.normal(2.0, 1.0, size=800)
    y = true_mean + 2.0 * (x - 2.0) + rng.normal(0.0, 0.5, size=800)
    estimate = control_variate_estimate(y, x, control_mean=2.0)
    assert estimate.mean == pytest.approx(true_mean, abs=0.2)
    assert optimal_beta(y, x) == pytest.approx(2.0, abs=0.2)


def test_multiple_control_variates(rng):
    z1 = rng.normal(size=500)
    z2 = rng.normal(size=500)
    y = 1.0 + 2.0 * z1 - 1.5 * z2 + rng.normal(0.0, 0.3, size=500)
    controls = np.stack([z1, z2], axis=1)
    estimate = multiple_control_variates_estimate(y, controls, control_means=[0.0, 0.0])
    assert estimate.mean == pytest.approx(1.0, abs=0.15)
    assert estimate.beta[0] == pytest.approx(2.0, abs=0.2)
    assert estimate.beta[1] == pytest.approx(-1.5, abs=0.2)
    assert estimate.variance_reduction > 5
    assert 0.9 <= estimate.correlation <= 1.0
    with pytest.raises(ValueError):
        multiple_control_variates_estimate(y[:3], controls[:3])
    with pytest.raises(ValueError):
        multiple_control_variates_estimate(y, controls, control_means=[0.0])


@settings(max_examples=25)
@given(st.lists(st.floats(-5, 5), min_size=5, max_size=40))
def test_cv_with_identical_control_matches_plain_mean(values):
    y = np.array(values)
    estimate = control_variate_estimate(y, y.copy())
    # Using Y itself as the control with mu set to the sample mean leaves the
    # mean unchanged and the estimator remains finite.
    assert estimate.mean == pytest.approx(estimate.plain_mean)
    assert estimate.variance >= 0.0


def test_a_control_equal_to_y_reports_zero_variance_and_infinite_reduction():
    """An exact control leaves only float residue in the CV variance (~1e-34
    on these samples, a ~2e31-fold "reduction" if kept); both estimators
    report it as 0."""
    y = (np.random.default_rng(0).random(60) < 0.3).astype(np.float64)
    noise = np.random.default_rng(1).random(60)
    for estimate in (
        control_variate_estimate(y, y.copy()),
        multiple_control_variates_estimate(y, y[:, None]),
        multiple_control_variates_estimate(y, np.stack([y, noise], axis=1)),
    ):
        assert estimate.plain_variance > 0
        assert estimate.variance == 0.0
        assert estimate.variance_reduction == float("inf")
    # A control that explains Y only partly keeps its finite variance.
    partial = control_variate_estimate(y, y + noise)
    assert 0.0 < partial.variance < partial.plain_variance


def test_windows():
    hopping = HoppingWindow(size=10, advance=5)
    windows = list(hopping.windows_over(23))
    assert windows[0] == WindowBounds(0, 10)
    assert windows[1] == WindowBounds(5, 15)
    assert all(w.size == 10 for w in windows)
    partial = list(hopping.windows_over(23, include_partial=True))
    assert partial[-1].size < 10
    sliding = list(SlidingWindow(size=5).windows_over(8))
    assert len(sliding) == 4
    assert WindowBounds(2, 6).contains(3)
    assert not WindowBounds(2, 6).contains(6)
    with pytest.raises(ValueError):
        HoppingWindow(size=0, advance=5)
    with pytest.raises(ValueError):
        WindowBounds(5, 5)


def test_hopping_window_tail_coverage():
    """Full-size-only windows silently drop the trailing remainder.

    ``size=100`` over 250 frames never covers frames 200–249 by default;
    ``include_partial=True`` (the executor's windowed-execution default)
    appends one shorter window covering the tail.
    """
    hopping = HoppingWindow(size=100, advance=100)
    covered: set[int] = set()
    for window in hopping.windows_over(250):
        covered.update(window.indices())
    assert max(covered) == 199 and 200 not in covered
    with_partial = list(hopping.windows_over(250, include_partial=True))
    covered_partial: set[int] = set()
    for window in with_partial:
        covered_partial.update(window.indices())
    assert covered_partial == set(range(250))
    assert with_partial[-1] == WindowBounds(200, 250)


def test_aggregate_monitor_end_to_end(trained_od_filter, tiny_jackson):
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=13)
    monitor = AggregateMonitor(detector=detector, frame_filter=trained_od_filter, seed=5)
    query = QueryBuilder("cars_present").count("car").at_least(1).build()
    spec = AggregateQuerySpec.from_query(query, [query_indicator_control(query)])
    report = monitor.estimate(spec, tiny_jackson.test, sample_size=25)
    assert report.num_samples == 25
    assert 0.0 <= report.plain.mean <= 1.0
    # Per-sample cost = detector + one filter pass under the paper's latency model.
    assert report.per_frame_cost_ms == pytest.approx(200.0 + trained_od_filter.latency_ms, rel=0.01)
    assert report.cost_overhead_ms == pytest.approx(trained_od_filter.latency_ms, rel=0.05)
    assert report.variance_reduction >= 0.5
    row = report.as_row()
    assert row["query"] == "cars_present"
    # Multiple controls path.
    multi_query = (
        QueryBuilder("multi").count("car").at_least(1).count("person").at_least(1).build()
    )
    multi_spec = AggregateQuerySpec.from_query(
        multi_query, per_predicate_controls(multi_query)
    )
    multi_report = monitor.estimate(multi_spec, tiny_jackson.test, sample_size=25)
    assert len(multi_report.control_variate.beta) == 2
    # Repeated estimation returns independent reports.
    repeats = monitor.estimate_repeated(spec, tiny_jackson.test, sample_size=10, repetitions=3)
    assert len(repeats) == 3
    with pytest.raises(ValueError):
        monitor.estimate_repeated(spec, tiny_jackson.test, sample_size=10, repetitions=0)
    with pytest.raises(ValueError):
        AggregateQuerySpec(name="bad", exact_value=lambda d: 0.0, control_values=[])


def test_class_count_control(trained_od_filter, tiny_jackson):
    prediction = trained_od_filter.predict(tiny_jackson.test.frame(0))
    total_control = class_count_control(None)
    car_control = class_count_control("car")
    assert total_control(prediction) == float(prediction.total_count)
    assert car_control(prediction) == float(prediction.count_of("car"))


def test_monitor_keeps_shared_clock_history(trained_od_filter, tiny_jackson):
    """Regression: estimate() must not wipe a caller-supplied shared clock."""
    from repro.cost import SimulatedClock

    clock = SimulatedClock()
    clock.charge("pre_existing", 50.0)
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=13)
    monitor = AggregateMonitor(
        detector=detector, frame_filter=trained_od_filter, clock=clock, seed=5
    )
    query = QueryBuilder("cars_present").count("car").at_least(1).build()
    spec = AggregateQuerySpec.from_query(query, [query_indicator_control(query)])
    first = monitor.estimate(spec, tiny_jackson.test, sample_size=10)
    second = monitor.estimate(spec, tiny_jackson.test, sample_size=10)
    # Per-estimate cost is a delta, not the running total...
    assert first.per_frame_cost_ms == pytest.approx(second.per_frame_cost_ms)
    assert first.per_frame_cost_ms == pytest.approx(
        200.0 + trained_od_filter.latency_ms, rel=0.01
    )
    # ...and the shared clock keeps its history across estimates.
    assert clock.breakdown.per_component_ms["pre_existing"] == 50.0
    assert clock.breakdown.per_component_calls["mask_rcnn"] == 20
