"""The oracle: annotate every frame with the detector, evaluate the query exactly.

This is the baseline the paper compares against ("we also evaluate each query
in a brute force manner annotating all frames with Mask R-CNN") and what every
engine configuration is tested against, so it shares no code with the engine:
it imports none of the executor, the scan session, the parallel pipeline, the
temporal layer or the planner (lint INV012), and its window coverage and
partition are plain ``start <= index < stop`` membership rather than the
engine's merged intervals and bisection.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.aggregates.windows import HoppingWindow, WindowBounds
from repro.cost import SimulatedClock
from repro.detection.base import Detector
from repro.faults.injector import current_report
from repro.query.ast import Query
from repro.query.evaluation import evaluate_predicates_on_detections
from repro.query.results import (
    ExecutionStats,
    QueryExecutionResult,
    WindowResult,
    WindowStats,
)
from repro.video.stream import VideoStream, checked_frame_indices


def brute_force_execute(
    query: Query,
    stream: VideoStream,
    detector: Detector,
    frame_indices: Sequence[int] | None = None,
    clock: SimulatedClock | None = None,
) -> QueryExecutionResult:
    """Run the detector on every covered frame; no filter, no reuse, no chunking.

    A windowed query covers the frames inside at least one hopping-window
    instance (a trailing partial window included, as ``execute`` defaults
    to).  Each window reports its matches ascending; an index listed twice
    in ``frame_indices`` is detected, and counted, twice.  Each detector
    call is charged to ``clock``.
    """
    clock = clock or SimulatedClock()
    indices = checked_frame_indices(frame_indices, stream)
    window_bounds: list[WindowBounds] | None = None
    if query.window is not None:
        hopping = HoppingWindow(size=query.window.size, advance=query.window.advance)
        window_bounds = list(hopping.windows_over(len(stream), include_partial=True))
        indices = [
            index
            for index in indices
            if any(bounds.start <= index < bounds.stop for bounds in window_bounds)
        ]
    cost_baseline = clock.snapshot()
    matched: list[int] = []
    started = time.perf_counter()
    for index in indices:
        detections = detector.detect(stream.frame(index))
        clock.charge_calls(detector)
        if evaluate_predicates_on_detections(query, detections):
            matched.append(index)
    elapsed = time.perf_counter() - started
    windows: list[WindowResult] | None = None
    if window_bounds is not None:
        windows = []
        for bounds in window_bounds:
            scanned = sum(bounds.start <= index < bounds.stop for index in indices)
            windows.append(
                WindowResult(
                    bounds=bounds,
                    matched_frames=tuple(
                        sorted(index for index in matched if bounds.start <= index < bounds.stop)
                    ),
                    # No filter ran: every scanned frame "passed" to the detector.
                    stats=WindowStats(frames_scanned=scanned, frames_passed_filters=scanned),
                )
            )
    return QueryExecutionResult(
        query_name=query.name,
        cascade_description="(empty)",
        matched_frames=tuple(matched),
        stats=ExecutionStats(
            frames_scanned=len(indices),
            frames_passed_filters=len(indices),
            detector_invocations=len(indices),
            filter_invocations=0,
            simulated_cost=clock.delta_since(cost_baseline),
            wall_clock_seconds=elapsed,
            faults=current_report(()),
        ),
        windows=None if windows is None else tuple(windows),
    )
