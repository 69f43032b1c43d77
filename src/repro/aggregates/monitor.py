"""Aggregate monitoring: putting filters, detector and control variates together.

An :class:`AggregateQuerySpec` describes a per-frame quantity of interest —
typically an indicator ("is there a car in the lower-right quadrant?") or a
count ("number of bicycles in the bike lane") — evaluated in two ways:

* exactly, on the reference detector's output (this is ``Y``), and
* approximately, on one or more filter predictions (these are the control
  variates ``Z``).

The :class:`AggregateMonitor` samples frames (optionally per hopping window),
evaluates both, and reports the plain sampling estimate, the control-variate
estimate, the variance-reduction factor and the per-frame cost — i.e. one row
of the paper's Table IV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.aggregates.control_variates import (
    ControlVariateEstimate,
    control_variate_estimate,
    multiple_control_variates_estimate,
)
from repro.aggregates.sampling import SampleEstimate, sample_frame_indices, sample_mean_estimate
from repro.aggregates.windows import WindowBounds
from repro.cost import SimulatedClock
from repro.detection.base import Detector, FrameDetections
from repro.filters.base import FilterPrediction, FrameFilter
from repro.query.ast import Query, WindowSpec
from repro.query.evaluation import evaluate_predicates_on_detections
from repro.video.prefetch import decode_ahead
from repro.video.stream import Frame, VideoStream, checked_frame_indices


#: sampled frames per filter tile: a sample of more than one tile renders
#: ahead on a ``decode-ahead`` thread while the main thread runs the filter
#: over the previous tile (DESIGN.md "Parallel pipeline" has the tile sizes
#: measured)
_SAMPLE_TILE = 8

#: a function computing the exact per-frame value from detector output
ExactValueFn = Callable[[FrameDetections], float]
#: a function computing an approximate per-frame value from a filter prediction
ControlValueFn = Callable[[FilterPrediction], float]


@dataclass
class AggregateQuerySpec:
    """One aggregate monitoring query.

    ``exact_value`` maps the reference detector's output to the per-frame
    value ``Y_i``; each entry of ``control_values`` maps a filter prediction
    to one control variate ``Z_i`` (all controls are evaluated on the same
    filter prediction — use multiple specs for multiple filters).

    ``window`` carries the query's ``WINDOW HOPPING`` clause, if any;
    :meth:`~repro.query.executor.StreamingQueryExecutor.execute_aggregate`
    reports one estimate per window instance for windowed specs.  Plain
    :meth:`AggregateMonitor.estimate` ignores it (its explicit ``window``
    argument selects the sampling population).
    """

    name: str
    exact_value: ExactValueFn
    control_values: Sequence[ControlValueFn]
    description: str = ""
    window: WindowSpec | None = None

    def __post_init__(self) -> None:
        if not self.control_values:
            raise ValueError("an aggregate query needs at least one control variate")

    @classmethod
    def from_query(
        cls, query: Query, control_values: Sequence[ControlValueFn], description: str = ""
    ) -> "AggregateQuerySpec":
        """Indicator aggregate: the fraction of frames satisfying ``query``.

        The query's window clause (if any) is carried over, so a windowed
        query parsed from text turns into a windowed aggregate spec.
        """

        def exact(detections: FrameDetections) -> float:
            return 1.0 if evaluate_predicates_on_detections(query, detections) else 0.0

        return cls(
            name=query.name,
            exact_value=exact,
            control_values=list(control_values),
            description=description or query.describe(),
            window=query.window,
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

    def as_row(self) -> dict[str, object]:
        return {
            "query": self.query_name,
            "samples": self.num_samples,
            "plain_mean": round(self.plain.mean, 4),
            "cv_mean": round(self.control_variate.mean, 4),
            "per_frame_ms": round(self.per_frame_cost_ms, 2),
            "variance_reduction": round(self.variance_reduction, 1),
            "correlation": round(self.control_variate.correlation, 3),
        }


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
        self.detector = detector
        self.frame_filter = frame_filter
        self.clock = clock or SimulatedClock()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Core estimation
    # ------------------------------------------------------------------
    def _evaluate_samples(
        self,
        spec: AggregateQuerySpec,
        stream: VideoStream,
        indices: Sequence[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate exact values and controls on the sampled frames.

        The filter side runs vectorized over tiles of ``_SAMPLE_TILE``
        sampled frames; the reference detector, which defines ``Y``, then
        runs frame by frame, in sample order.  A sample of more than one
        tile renders ahead on one ``decode-ahead`` thread, so tile *k+1*
        renders while tile *k* runs the backbone and heads.  Nothing moves
        by a bit: ``predict_batch`` rows do not depend on the batch, and the
        tiles are charged once afterwards, as the one batched charge of
        ``n`` calls a single whole-sample ``predict_batch`` would be, before
        the first detector charge.  Every charge goes to ``self.clock``.
        """
        # One tile has nothing to overlap (the rule of a single-chunk scan).
        overlap = len(indices) > _SAMPLE_TILE
        with decode_ahead(stream, indices, _SAMPLE_TILE, 1 if overlap else 0) as fetch:
            frames: list[Frame] = []
            predictions: list[FilterPrediction] = []
            for start in range(0, len(indices), _SAMPLE_TILE):
                tile = [fetch(index) for index in indices[start : start + _SAMPLE_TILE]]
                predictions.extend(self.frame_filter.predict_batch(tile))
                frames.extend(tile)
            self.clock.charge_calls(self.frame_filter, len(frames))
            exact_values = np.zeros(len(indices))
            controls = np.zeros((len(indices), len(spec.control_values)))
            for row, (frame, prediction) in enumerate(zip(frames, predictions)):
                detections = self.detector.detect(frame)
                self.clock.charge_calls(self.detector)
                exact_values[row] = spec.exact_value(detections)
                for col, control in enumerate(spec.control_values):
                    controls[row, col] = control(prediction)
            return exact_values, controls

    def estimate(
        self,
        spec: AggregateQuerySpec,
        stream: VideoStream,
        sample_size: int,
        window: WindowBounds | None = None,
        frame_indices: Sequence[int] | None = None,
    ) -> MonitoringReport:
        """Estimate one aggregate query by sampling ``sample_size`` frames.

        Sampling is uniform over the window (or the whole stream).  The report
        contains both the plain sampling estimate and the control-variate
        estimate; with multiple controls the multiple-CV estimator is used.
        ``window`` and ``frame_indices`` both choose the population, so
        passing both is a ``ValueError``; so is a sample too small for the
        estimator (see :func:`sampling_population`), raised before anything
        is rendered.
        """
        if window is not None and frame_indices is not None:
            raise ValueError("estimate takes a window or frame_indices, not both")
        # Delta-snapshot accounting rather than a reset, so a caller-supplied
        # shared clock keeps its history across estimates (same contract as
        # StreamingQueryExecutor.execute).
        cost_baseline = self.clock.snapshot()
        started = time.perf_counter()
        # Both populations are checked before anything is rendered or charged.
        if frame_indices is None:
            population = sampling_population(spec, stream, sample_size, window)
            chosen = population[
                sample_frame_indices(len(population), sample_size, self._rng)
            ].tolist()
        else:
            chosen = checked_frame_indices(frame_indices, stream)
            _check_sample_count(spec, len(chosen), f"frame_indices of {len(chosen)} frames")
        exact_values, controls = self._evaluate_samples(spec, stream, chosen)
        elapsed = time.perf_counter() - started

        plain = sample_mean_estimate(exact_values)
        if controls.shape[1] == 1:
            cv = control_variate_estimate(exact_values, controls[:, 0])
        else:
            cv = multiple_control_variates_estimate(exact_values, controls)

        num_samples = len(chosen)
        estimate_ms = self.clock.delta_since(cost_baseline).total_ms
        per_frame_ms = estimate_ms / num_samples if num_samples else 0.0
        return MonitoringReport(
            query_name=spec.name,
            plain=plain,
            control_variate=cv,
            num_samples=num_samples,
            per_frame_cost_ms=per_frame_ms,
            detector_only_cost_ms=self.detector.latency_ms,
            wall_clock_seconds=elapsed,
        )
