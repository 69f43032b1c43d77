"""Aggregate monitoring: putting filters, detector and control variates together.

An :class:`AggregateQuerySpec` asks for the fraction of frames satisfying a
query ("is there a car in the lower-right quadrant?"), whose per-frame
indicator is evaluated in two ways:

* exactly, as the reference detector's verdict on the query (this is
  ``Y``), and
* approximately, on one or more filter predictions (these are the control
  variates ``Z``).

The :class:`AggregateMonitor` samples frames (optionally per hopping window)
and reports the plain sampling estimate, the control-variate estimate, the
variance-reduction factor and the per-frame cost — i.e. one row of the
paper's Table IV.  Both values come from the executor's one scan, one scan
per call: each sample is a sampled query of it, covering only its own
frames, and the scan runs over the sorted union of the samples, so a frame
several samples (repetitions, overlapping windows) draw is rendered,
filtered and detected once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.aggregates.control_variates import (
    ControlVariateEstimate,
    control_variate_estimate,
    multiple_control_variates_estimate,
)
from repro.aggregates.controls import ControlValueFn
from repro.aggregates.sampling import SampleEstimate, sample_frame_indices, sample_mean_estimate
from repro.aggregates.windows import WindowBounds
from repro.cost import SimulatedClock
from repro.detection.base import Detector
from repro.filters.base import FrameFilter
from repro.query.ast import Query, WindowSpec
from repro.query.planner import CascadeStep, CountCheck, FilterCascade
from repro.video.stream import VideoStream, checked_frame_indices


@dataclass
class AggregateQuerySpec:
    """One aggregate monitoring query: the fraction of frames matching ``query``.

    ``Y_i`` is 1 when sampled frame ``i`` matches ``query`` and 0 otherwise;
    each entry of ``control_values`` maps a filter prediction to one control
    variate ``Z_i`` (all controls are evaluated on the same filter
    prediction — use multiple specs for multiple filters).

    ``window`` is the query's ``WINDOW HOPPING`` clause, if any;
    :meth:`~repro.query.executor.StreamingQueryExecutor.execute_aggregate`
    reports one estimate per window instance for windowed specs.  Plain
    :meth:`AggregateMonitor.estimate` ignores it (its explicit ``window``
    argument selects the sampling population).
    """

    query: Query
    control_values: Sequence[ControlValueFn]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.control_values:
            raise ValueError("an aggregate query needs at least one control variate")

    @property
    def name(self) -> str:
        return self.query.name

    @property
    def window(self) -> WindowSpec | None:
        return self.query.window

    @classmethod
    def from_query(
        cls, query: Query, control_values: Sequence[ControlValueFn], description: str = ""
    ) -> "AggregateQuerySpec":
        """Indicator aggregate: the fraction of frames satisfying ``query``.

        The query's window clause (if any) is carried over, so a windowed
        query parsed from text turns into a windowed aggregate spec.
        """
        return cls(
            query=query,
            control_values=list(control_values),
            description=description or query.describe(),
        )


@dataclass(frozen=True)
class MonitoringReport:
    """The estimate for one aggregate query (one row of Table IV)."""

    query_name: str
    plain: SampleEstimate
    control_variate: ControlVariateEstimate
    num_samples: int
    per_frame_cost_ms: float
    detector_only_cost_ms: float
    wall_clock_seconds: float

    @property
    def variance_reduction(self) -> float:
        return self.control_variate.variance_reduction

    @property
    def cost_overhead_ms(self) -> float:
        """Extra per-frame cost of evaluating the filters on each sample."""
        return self.per_frame_cost_ms - self.detector_only_cost_ms


def _check_sample_count(spec: AggregateQuerySpec, drawn: int, population: str) -> None:
    """Raise ``ValueError`` if ``drawn`` samples are too few for ``spec``'s
    control-variate estimator: two for one control
    (:func:`control_variate_estimate`), ``k + 2`` for ``k`` controls
    (:func:`multiple_control_variates_estimate`).  ``population`` names what
    the sample is drawn from."""
    controls = len(spec.control_values)
    needed = 2 if controls == 1 else controls + 2
    if drawn < needed:
        raise ValueError(
            f"a sample of {drawn} frame(s) from {population} is too small: "
            f"{spec.name!r} has {controls} control variate(s) and needs at least "
            f"{needed} samples"
        )


def sampling_population(
    spec: AggregateQuerySpec,
    stream: VideoStream,
    sample_size: int,
    window: WindowBounds | None = None,
) -> np.ndarray:
    """The frames :meth:`AggregateMonitor.estimate` samples from: ``window``'s
    frames of ``stream``, or every frame.

    Raises ``ValueError`` naming the population when ``sample_size``, clamped
    to the population as :func:`sample_frame_indices` clamps it, is too small
    for ``spec``'s estimator.  Nothing is rendered or charged, so a caller
    that samples several populations checks them all before the first.
    """
    if sample_size <= 0:
        raise ValueError(f"sample_size must be positive: {sample_size}")
    if window is None:
        population = np.arange(len(stream))
        name = f"the stream of {len(population)} frames"
    else:
        population = np.arange(window.start, min(window.stop, len(stream)))
        name = f"window [{window.start}, {window.stop}) of {len(population)} frames"
    _check_sample_count(spec, min(sample_size, len(population)), name)
    return population


class AggregateMonitor:
    """Estimates aggregate monitoring queries with control variates."""

    def __init__(
        self,
        detector: Detector,
        frame_filter: FrameFilter,
        clock: SimulatedClock | None = None,
        seed: int = 0,
    ) -> None:
        # Deferred import: repro.query.executor imports this module's
        # package at load, so a top-level import here would be circular.
        from repro.query.executor import StreamingQueryExecutor

        self.detector = detector
        self.frame_filter = frame_filter
        self.clock = clock or SimulatedClock()
        self._rng = np.random.default_rng(seed)
        self._executor = StreamingQueryExecutor(detector, self.clock)
        # The sample's cascade: one step over the control filter whose check
        # (no count predicate) passes every prediction, so the scan predicts
        # and detects each sampled frame once.
        self._cascade = FilterCascade(
            [CascadeStep(frame_filter.name, frame_filter, CountCheck((), 0))]
        )

    def estimate(
        self,
        spec: AggregateQuerySpec,
        stream: VideoStream,
        sample_size: int,
        window: WindowBounds | None = None,
        frame_indices: Sequence[int] | None = None,
    ) -> MonitoringReport:
        """Estimate one aggregate query by sampling ``sample_size`` frames.

        Sampling is uniform over the window (or the whole stream).  This is
        the one-sample case of the scan
        :meth:`~repro.query.executor.StreamingQueryExecutor.execute_aggregate`
        runs for all of its samples (see :meth:`_estimate_samples`).  The
        report contains both the plain sampling estimate and the
        control-variate estimate; with multiple controls the multiple-CV
        estimator is used.  ``self.clock`` is charged and keeps its history.
        ``window`` and ``frame_indices`` both choose the population, so
        passing both is a ``ValueError``; so is a sample too small for the
        estimator (see :func:`sampling_population`), raised before anything
        is rendered.  A sampled frame the scan set aside raises
        ``RuntimeError`` naming it.
        """
        if window is not None and frame_indices is not None:
            raise ValueError("estimate takes a window or frame_indices, not both")
        # Both populations are checked before anything is rendered or charged.
        if frame_indices is None:
            population = sampling_population(spec, stream, sample_size, window)
            sample = self._draw(population, sample_size)
        else:
            sample = checked_frame_indices(frame_indices, stream)
            _check_sample_count(spec, len(sample), f"frame_indices of {len(sample)} frames")
        return self._estimate_samples(spec, stream, [sample])[0]

    def _draw(self, population: np.ndarray, sample_size: int) -> list[int]:
        """``sample_size`` frames of ``population``, sorted, drawn from ``self._rng``."""
        return population[sample_frame_indices(len(population), sample_size, self._rng)].tolist()

    def _estimate_samples(
        self, spec: AggregateQuerySpec, stream: VideoStream, samples: Sequence[Sequence[int]]
    ) -> list[MonitoringReport]:
        """One report per sample in ``samples``, all from one scan.

        Each sample is a sampled query of the executor's one scan: the query
        without its window clause (the sample is drawn inside the window
        already), covering only its sample's frames, with a one-step cascade
        over the control filter that passes every prediction.  The scan runs
        over the sorted union of the samples, so a frame two samples share
        is rendered, predicted and detected once.  ``Y`` is whether the scan
        matched a sampled frame, and the controls are read off the control
        filter's predictions, in the sample's own order (repeats included).
        The per-frame cost is the query's attributed cost (latency x calls)
        over its distinct frames, and the wall clock is the whole scan's.  A
        sampled frame the scan set aside (its retries exhausted) raises
        ``RuntimeError`` naming it: no sample may shrink unannounced.
        """
        started = time.perf_counter()
        covered = [frozenset(sample) for sample in samples]
        scan = self._executor._scan(
            [replace(spec.query, window=None)] * len(samples), stream,
            [self._cascade] * len(samples), sorted(frozenset().union(*covered)),
            None, None, None, samples=covered, controls=[spec.control_values] * len(samples),
        )
        faults = scan.results[0].stats.faults
        if faults is not None and faults.quarantined:
            lost = [index for record in faults.quarantined for index in record.frames]
            raise RuntimeError(
                f"{spec.name!r}: sampled frame(s) {lost} could not be evaluated "
                f"({faults.quarantined[0].error})"
            )
        elapsed = time.perf_counter() - started
        reports = []
        for sample, distinct, result in zip(samples, covered, scan.results):
            matched = set(result.matched_frames)
            # One control row per passed frame, in scan (sorted) order.
            rows = dict(zip(sorted(distinct), result.control_rows))
            exact_values = np.array([1.0 if index in matched else 0.0 for index in sample])
            controls = np.array([rows[index] for index in sample])
            if controls.shape[1] == 1:
                cv = control_variate_estimate(exact_values, controls[:, 0])
            else:
                cv = multiple_control_variates_estimate(exact_values, controls)
            reports.append(
                MonitoringReport(
                    query_name=spec.name,
                    plain=sample_mean_estimate(exact_values),
                    control_variate=cv,
                    num_samples=len(sample),
                    per_frame_cost_ms=result.stats.simulated_cost.total_ms / len(distinct),
                    detector_only_cost_ms=self.detector.latency_ms,
                    wall_clock_seconds=elapsed,
                )
            )
        return reports
