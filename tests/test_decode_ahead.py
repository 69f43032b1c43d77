"""Decode-ahead: the prefetch window, the rule, the lifecycle.

A chunked scan of more than one chunk renders ahead even without
``ParallelConfig``, on one background thread with or without a filter step;
a single-chunk scan, an approximate or cascade-free temporal scan stay
inline.  An aggregate sample runs through the same scan, so it renders
ahead when it spans more than one chunk; ``annotate_stream`` renders ahead
of the detector, and ``FilterTrainer`` in its one render pass.  The
consuming thread renders queued frames itself rather than wait on one still
being drawn; the tests of that path gate the render thread on events, so
none depends on timing.  Frames render the same on any thread, so every
result here must ``==`` the same pass with decode-ahead patched out (a
sample's estimate also matches its single-batch oracle), and no
``decode-ahead`` thread may outlive a pass however it ends.
CI runs this module five times in a row: a leaked thread or a frame
cancelled and then needed shows up only under some timings.
"""

from __future__ import annotations

import re
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.aggregates import query_indicator_control, sample_frame_indices
from repro.aggregates.controls import class_count_control
from repro.aggregates.monitor import AggregateMonitor, AggregateQuerySpec
from repro.detection import ReferenceDetector, annotate_frames, annotate_stream
from repro.faults import FaultExhausted, FaultInjector, RetryPolicy
from repro.filters import FilterTrainer
from repro.query import (
    ParallelConfig,
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    TemporalConfig,
)
from repro.query.parallel import DEFAULT_CHUNK_SIZE
from repro.query.results import MultiQueryExecutionResult
from repro.query.session import ScanSession
from repro.video.prefetch import PREFETCH_DEPTH, FramePrefetcher
from tests.conftest import reference_estimate
from tests.differential import first_difference, normalize

#: unordered frame indices with repeats, as ``frame_indices`` may give them
UNORDERED_REPEATING = [7, 3, 7, 12, 3, 40, 7, 0, 49, 12, 25, 25, 1, 30] * 3


@pytest.fixture(scope="module")
def planner(trained_od_filter, trained_od_cof):
    return QueryPlanner(
        {"od": trained_od_filter, "od_cof": trained_od_cof},
        PlannerConfig(count_tolerance=1, location_dilation=1),
    )


@pytest.fixture(scope="module")
def stream(tiny_jackson):
    return tiny_jackson.test


def _executor(tiny_jackson):
    return StreamingQueryExecutor(
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=42)
    )


def _plain(name="plain"):
    return QueryBuilder(name).count("car").at_least(1).count(None).at_most(4).build()


def _windowed(name="windowed"):
    return QueryBuilder(name).count("car").at_least(1).window(20, 10).build()


def _empty(name="empty"):
    return QueryBuilder(name).count("car").at_least(3).count("car").at_most(1).build()


@contextmanager
def _inline(stream, indices, chunk_size, threads):
    yield stream.frame


def _timeless(result):
    """``result`` with its wall clock zeroed: everything else must be equal."""
    if isinstance(result, MultiQueryExecutionResult):
        return replace(
            result,
            results=tuple(_timeless(single) for single in result.results),
            shared=replace(result.shared, wall_clock_seconds=0.0),
        )
    return replace(result, stats=replace(result.stats, wall_clock_seconds=0.0))


def _live_decode_ahead_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.is_alive() and "decode-ahead" in thread.name
    ]


@pytest.fixture()
def prefetchers(monkeypatch):
    """``(depth, threads)`` of every ``FramePrefetcher`` built during the test."""
    built: list[tuple[int, int]] = []
    init = FramePrefetcher.__init__

    def spying_init(self, stream, indices, depth, threads):
        built.append((depth, threads))
        init(self, stream, indices, depth, threads)

    monkeypatch.setattr(FramePrefetcher, "__init__", spying_init)
    return built


# ----------------------------------------------------------------------
# The window is keyed by position
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "indices",
    [list(range(32)), list(range(32)) * 2, [5, 3, 5, 9, 3, 40, 5] * 4],
    ids=["ordered", "repeating", "unordered-repeating"],
)
def test_decode_ahead_window_renders_each_position_once(stream, counted_renders, indices):
    depth = 4
    expected = {index: stream.frame(index).image for index in set(indices)}
    counted_renders.clear()
    prefetcher = FramePrefetcher(stream, indices, depth=depth, threads=1)
    try:
        for index in indices:
            frame = prefetcher.frame(index)
            assert frame.index == index
            assert (frame.image == expected[index]).all()
            assert len(prefetcher._futures) <= depth
    finally:
        prefetcher.close()
    assert sorted(counted_renders) == sorted(indices)


def test_decode_ahead_window_keeps_stepped_over_positions(stream, counted_renders):
    """A chunk set aside mid-render leaves its tail behind the cursor: a
    backward request into it is served from the window, not from the next
    lap of a repeating sequence, and the scan goes on where it was."""
    indices = list(range(16)) * 2
    prefetcher = FramePrefetcher(stream, indices, depth=4, threads=1)
    try:
        for index in (0, 1, 2):
            assert prefetcher.frame(index).index == index
        # Positions 3-7 stepped over (a chunk quarantined at its first frame).
        assert prefetcher.frame(8).index == 8
        assert 5 in prefetcher._futures and 21 not in prefetcher._futures
        assert prefetcher.frame(5).index == 5  # stepped-over position 5
        assert 5 not in prefetcher._futures and prefetcher._cursor == 9
        for index in range(9, 16):
            assert prefetcher.frame(index).index == index
        # Into the second lap, stepping over positions 16-20 (indices 0-4).
        assert prefetcher.frame(5).index == 5 and prefetcher._cursor == 22
        assert prefetcher.frame(2).index == 2  # stepped-over position 18
        assert 18 not in prefetcher._futures and prefetcher._cursor == 22
        for index in range(6, 16):
            assert prefetcher.frame(index).index == index
    finally:
        prefetcher.close()
    # Every request was served from the window: no position rendered twice.
    assert len(counted_renders) <= len(indices)


# ----------------------------------------------------------------------
# The consuming thread renders instead of waiting
# ----------------------------------------------------------------------
def _on_render_thread() -> bool:
    return threading.current_thread().name.startswith("decode-ahead")


class GatedStream:
    """A stand-in stream whose render thread blocks on chosen indices.

    A render-thread render of an index in ``gated`` sets that index's
    ``started`` event, then waits for its gate; the consuming thread never
    blocks.  The consumer's render of an index in ``opens`` opens the gate
    named there, after rendering, so the order of events is fixed.  An
    index in ``poisoned`` raises the decode site's ``FaultExhausted``.  Each
    render sleeps ``pause`` seconds, with the GIL released, as a real
    render draws its noise.
    """

    def __init__(self, gated=(), opens=None, poisoned=(), pause=0.0):
        self.gates = {index: threading.Event() for index in gated}
        self.started = {index: threading.Event() for index in gated}
        self.opens = dict(opens or {})
        self.poisoned = set(poisoned)
        self.pause = pause
        #: ``(index, rendered on a decode-ahead thread)`` per render
        self.renders: list[tuple[int, bool]] = []

    def frame(self, index):
        background = _on_render_thread()
        self.renders.append((index, background))
        if background and index in self.gates:
            self.started[index].set()
            assert self.gates[index].wait(10), f"gate {index} never opened"
        time.sleep(self.pause)
        try:
            if index in self.poisoned:
                raise FaultExhausted("decode", index, 3, "poisoned")
            return index
        finally:
            if not background and index in self.opens:
                self.gates[self.opens[index]].set()

    def rendered_by(self, background):
        return sorted(index for index, on_thread in self.renders if on_thread is background)


def _pin_render_thread_on(stream, prefetcher):
    """Hold the render thread in position 2 with positions 3-6 queued.

    The render thread blocks in index 0 while the consumer requests index 1,
    which has not started and so is rendered by the consumer.  Index 0 is
    then released, and the render thread blocks in index 2, the cursor.
    """
    assert prefetcher.frame(1) == 1
    assert stream.started[0].wait(10)
    assert stream.rendered_by(background=False) == [1]
    stream.gates[0].set()
    assert stream.started[2].wait(10)


def test_decode_ahead_consumer_renders_a_request_not_started():
    stream = GatedStream(gated=[0])
    prefetcher = FramePrefetcher(stream, range(8), depth=4, threads=1)
    try:
        assert prefetcher.frame(3) == 3  # the render thread holds index 0
        assert stream.started[0].wait(10)
        assert stream.rendered_by(background=False) == [3]
        assert stream.rendered_by(background=True) == [0]
    finally:
        stream.gates[0].set()
        prefetcher.close()


def test_decode_ahead_consumer_renders_ahead_while_its_frame_is_drawn():
    """While index 2 is drawn, the consumer renders queued positions 3-6;
    its render of 6 releases index 2.  Every position renders once, and
    no more than ``depth`` renders are outstanding."""
    depth = 4
    stream = GatedStream(gated=[0, 2], opens={6: 2})
    prefetcher = FramePrefetcher(stream, range(12), depth=depth, threads=1)
    try:
        _pin_render_thread_on(stream, prefetcher)
        assert prefetcher.frame(2) == 2
        assert stream.rendered_by(background=False) == [1, 3, 4, 5, 6]
        assert stream.rendered_by(background=True) == [0, 2]
        for index in range(3, 12):
            assert prefetcher.frame(index) == index
            # Outstanding: the window's positions at or past the cursor.
            assert sum(p >= prefetcher._cursor for p in prefetcher._futures) <= depth
    finally:
        prefetcher.close()
    assert sorted(index for index, _ in stream.renders) == list(range(12))


def test_decode_ahead_helped_render_raises_when_requested():
    """A decode failure the consumer met while helping is kept at its
    position: the requests before it are served, and it raises only when
    its own position is requested."""
    stream = GatedStream(gated=[0, 2], opens={6: 2}, poisoned=[5])
    prefetcher = FramePrefetcher(stream, range(12), depth=4, threads=1)
    try:
        _pin_render_thread_on(stream, prefetcher)
        assert prefetcher.frame(2) == 2
        assert (5, False) in stream.renders
        assert [prefetcher.frame(index) for index in (3, 4)] == [3, 4]
        with pytest.raises(FaultExhausted) as raised:
            prefetcher.frame(5)
        assert (raised.value.site, raised.value.key) == ("decode", 5)
        assert [prefetcher.frame(index) for index in range(6, 12)] == list(range(6, 12))
    finally:
        prefetcher.close()
    assert sorted(index for index, _ in stream.renders) == list(range(12))


def test_decode_ahead_consumer_help_under_thread_switching():
    """More render threads than cores and a tiny switch interval: however
    renders and the consumer's help interleave, every position of a
    repeating sequence renders once and each request gets its own frame."""
    indices = list(range(50)) * 6
    stream = GatedStream(pause=1e-4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        prefetcher = FramePrefetcher(stream, indices, depth=8, threads=3)
        try:
            assert [prefetcher.frame(index) for index in indices] == indices
        finally:
            prefetcher.close()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(index for index, _ in stream.renders) == sorted(indices)


# ----------------------------------------------------------------------
# Parity: the default is output-neutral
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", [None, 16])
@pytest.mark.parametrize("frame_indices", [None, UNORDERED_REPEATING], ids=["all", "unordered"])
def test_decode_ahead_default_matches_inline(
    tiny_jackson, stream, planner, monkeypatch, counted_renders, prefetchers,
    batch_size, frame_indices,
):
    queries = [_plain(), _windowed(), _empty()]
    cascades = [planner.plan(query) for query in queries]
    assert cascades[2].provably_empty

    def scans():
        runner = _executor(tiny_jackson)
        return [
            runner.execute(queries[0], stream, cascades[0],
                           frame_indices=frame_indices, batch_size=batch_size),
            runner.execute(queries[1], stream, cascades[1],
                           frame_indices=frame_indices, batch_size=batch_size),
            runner.execute(queries[2], stream, cascades[2],
                           frame_indices=frame_indices, batch_size=batch_size),
            runner.execute_many(queries, stream, cascades,
                                frame_indices=frame_indices, batch_size=batch_size),
        ]

    ahead = scans()
    renders = sorted(counted_renders)
    assert len(prefetchers) == 3  # the provably-empty scan renders nothing
    requested = list(range(len(stream))) if frame_indices is None else frame_indices
    windowed_stop = ahead[1].windows[-1].bounds.stop
    # Each requested position of each scan is rendered exactly once.
    assert renders == sorted(
        requested + [i for i in requested if i < windowed_stop] + requested
    )

    monkeypatch.setattr("repro.query.executor.decode_ahead", _inline)
    inline = scans()
    assert len(prefetchers) == 3
    for got, want in zip(ahead, inline):
        assert _timeless(got) == _timeless(want)


#: two windowed queries whose coverage alternates, (0, 1) on frames 0-4,
#: (1,) on 5-9, (0,) on 10-14 and neither on 15-19: the scan's context
#: changes between frames whose one-row verdicts are equal, so a stride gap
#: can hide the change
ALTERNATING = (
    QueryBuilder("short").count("car").at_least(1).window(5, 10).build(),
    QueryBuilder("long").count("car").at_least(1).window(10, 20).build(),
)

#: an exact gate loose enough that every step within one context reuses
STRIDING_GATE = TemporalConfig(delta_threshold=255.0, keyframe_interval=6, max_stride=8)


def test_decode_ahead_exact_strided_scan_matches_inline(
    tiny_jackson, stream, planner, monkeypatch, counted_renders, prefetchers
):
    """An exact gate renders ahead through two maximal strides: stride
    backfill, refinement probes and the frames a context change inside a
    gap forces to a keyframe are all served from the window, so each
    covered position renders once, and the result is the inline scan's."""
    cascades = [planner.plan(query) for query in ALTERNATING]
    covered = [index for index in range(len(stream)) if index % 20 < 15]

    def scan():
        return _executor(tiny_jackson).execute_many(
            ALTERNATING, stream, cascades, temporal=STRIDING_GATE
        )

    ahead = scan()
    assert prefetchers == [(2 * STRIDING_GATE.max_stride, 1)]
    assert sorted(counted_renders) == covered
    stats = ahead.shared.temporal
    assert stats.max_stride_used > 1 and stats.frames_skipped > 0
    assert _live_decode_ahead_threads() == []

    counted_renders.clear()
    monkeypatch.setattr("repro.query.executor.decode_ahead", _inline)
    inline = scan()
    assert sorted(counted_renders) == covered
    assert _timeless(ahead) == _timeless(inline)


def _aggregate_spec(query, controls=1):
    values = [query_indicator_control(query), class_count_control("car")]
    return AggregateQuerySpec.from_query(query, values[:controls])


#: one sample spanning three chunks, the last one partial
THREE_CHUNKS = 2 * DEFAULT_CHUNK_SIZE + 3

#: ``(query, controls, sample sizes)`` per case
AGGREGATE_CASES = {
    "sizes": (_plain, 1, (1, 2, DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE + 1, 100)),
    "windowed": (_windowed, 1, (THREE_CHUNKS,)),
    "multi-control": (_plain, 2, (THREE_CHUNKS,)),
}


@pytest.mark.parametrize("case", AGGREGATE_CASES)
def test_decode_ahead_aggregate_matches_single_batch_oracle(
    tiny_jackson, stream, planner, monkeypatch, counted_renders, case
):
    """Each sample of the shared scan, rendered ahead past one chunk,
    estimates as the single-batch oracle does on the same frames; against the
    same scans rendered inline it changes no report and no clock entry, and
    it renders each sampled position once."""
    make_query, controls, sizes = AGGREGATE_CASES[case]
    query = make_query()
    cascade = planner.plan(query)
    spec = _aggregate_spec(query, controls)
    samples: list[list[int]] = []
    add_query = ScanSession.add_query

    def recording_add_query(self, query, cascade=None, **kwargs):
        samples.append(sorted(kwargs["sample"]))
        return add_query(self, query, cascade, **kwargs)

    monkeypatch.setattr(ScanSession, "add_query", recording_add_query)

    def estimates():
        runner = _executor(tiny_jackson)
        results, reports = [], []
        for size in sizes:
            try:
                result = runner.execute_aggregate(
                    spec, stream, cascade, sample_size=size, repetitions=2, seed=5
                )
            except ValueError as error:  # one sample has no estimate, and renders nothing
                results.append(repr(error))
                continue
            results.append(asdict(result))
            reports += result.reports
            reports += [report for window in result.windows or () for report in window.reports]
        breakdown = runner.clock.breakdown
        return results, reports, [
            list(breakdown.per_component_ms.items()),
            list(breakdown.per_component_calls.items()),
            list(breakdown.per_component_reused.items()),
        ]

    results, reports, clock = estimates()
    renders = sorted(counted_renders)
    assert len(samples) == len(reports)
    for sample, report in zip(samples, reports):
        plain, cv, per_frame_ms = reference_estimate(
            ReferenceDetector(class_names=tiny_jackson.class_names, seed=42),
            cascade.primary_filter, spec, stream, sample,
        )
        # NaN correlations compare equal.
        assert first_difference(
            normalize([asdict(report.plain), asdict(report.control_variate)]),
            normalize([asdict(plain), asdict(cv)]),
        ) is None
        assert report.per_frame_cost_ms == per_frame_ms
    counted_renders.clear()
    monkeypatch.setattr("repro.query.executor.decode_ahead", _inline)
    inline_results, _, inline_clock = estimates()
    assert renders == sorted(counted_renders)
    # Reports without their wall clock.
    assert first_difference(normalize(results), normalize(inline_results)) is None
    # Insertion order and every float bit of the clock.
    assert clock == inline_clock
    assert _live_decode_ahead_threads() == []


def test_decode_ahead_aggregate_charges_the_filter_once(
    tiny_jackson, stream, trained_od_filter, monkeypatch
):
    """The report attributes the filter as one product ``latency x n``, while
    the scan charges the clock once per chunk, before that chunk's detector
    charges: at this latency the charges per chunk sum differently."""
    latency, n = 0.39, DEFAULT_CHUNK_SIZE + 5
    per_chunk = 0.0
    for start in range(0, n, DEFAULT_CHUNK_SIZE):
        per_chunk += latency * (min(start + DEFAULT_CHUNK_SIZE, n) - start)
    assert per_chunk != latency * n
    monkeypatch.setattr(trained_od_filter, "latency_ms", latency)
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=42)
    monitor = AggregateMonitor(detector, trained_od_filter)
    report = monitor.estimate(_aggregate_spec(_plain()), stream, n, frame_indices=range(n))
    breakdown = monitor.clock.breakdown
    assert list(breakdown.per_component_ms) == [trained_od_filter.name, detector.name]
    assert breakdown.per_component_ms[trained_od_filter.name] == per_chunk
    assert breakdown.per_component_calls[trained_od_filter.name] == n
    assert report.per_frame_cost_ms == (latency * n + detector.latency_ms * n) / n


# ----------------------------------------------------------------------
# The rule: which scans render ahead
# ----------------------------------------------------------------------
def test_decode_ahead_only_for_multi_chunk_scans(
    tiny_jackson, stream, planner, prefetchers
):
    query = _plain()
    cascade = planner.plan(query)
    runner = _executor(tiny_jackson)

    runner.execute(query, stream, cascade, batch_size=16)
    # No batch_size: chunks of DEFAULT_CHUNK_SIZE; batch_size=1: chunks of one.
    runner.execute_many([query, _windowed()], stream, [cascade, None])
    runner.execute_many([query, _windowed()], stream, [cascade, None], batch_size=1)
    # Cascade-free: one thread renders beside the detector, as beside a filter.
    runner.execute(query, stream)
    runner.execute_many([query, _windowed()], stream)  # shared
    assert prefetchers == [(2 * 16, 1), (2 * 16, 1), (2 * 1, 1), (2 * 16, 1), (2 * 16, 1)]

    runner.execute(query, stream, cascade, batch_size=len(stream))  # one chunk
    runner.execute(query, stream, batch_size=len(stream))  # one chunk, cascade-free
    runner.execute(query, stream, cascade, frame_indices=[4], batch_size=None)
    # An approximate gate decides what is rendered at all; one frame has
    # nothing to overlap.
    runner.execute(query, stream, cascade, temporal=TemporalConfig(exact=False, max_stride=4))
    runner.execute(query, stream, cascade, frame_indices=[4], temporal=TemporalConfig())
    runner.execute(query, stream, temporal=TemporalConfig())  # cascade-free
    assert len(prefetchers) == 5

    # An exact gate renders every frame: ahead through two maximal strides.
    runner.execute(query, stream, cascade, temporal=TemporalConfig(exact=True))
    runner.execute(query, stream, cascade, temporal=TemporalConfig(exact=True, max_stride=4))
    assert prefetchers[5:] == [(2 * 1, 1), (2 * 4, 1)]

    # An aggregate sample: the scan's rule, more than one chunk.
    spec = AggregateQuerySpec.from_query(query, [lambda prediction: 1.0])
    runner.execute_aggregate(spec, stream, cascade, sample_size=DEFAULT_CHUNK_SIZE)
    assert len(prefetchers) == 7
    runner.execute_aggregate(spec, stream, cascade, sample_size=DEFAULT_CHUNK_SIZE + 1)
    runner.execute_aggregate(spec, stream, cascade, sample_size=40)
    assert prefetchers[7:] == [(2 * DEFAULT_CHUNK_SIZE, 1)] * 2

    # A pooled scan renders ahead on one thread, even a single chunk; it
    # chunks by ``batch_size`` as any one-shot scan does.
    config = ParallelConfig(num_workers=2)
    runner.execute(query, stream, cascade, batch_size=8, parallel=config)
    runner.execute(query, stream, cascade, parallel=config)
    runner.execute(query, stream, cascade, batch_size=len(stream), parallel=config)
    runner.execute(query, stream, cascade, parallel=replace(config, num_workers=1))
    assert prefetchers[9:] == [
        (2 * 8, 1), (2 * DEFAULT_CHUNK_SIZE, 1), (2 * len(stream), 1), (2 * DEFAULT_CHUNK_SIZE, 1)
    ]
    assert _live_decode_ahead_threads() == []


# ----------------------------------------------------------------------
# Lifecycle: no decode-ahead thread outlives a scan
# ----------------------------------------------------------------------
def test_decode_ahead_lifecycle_filter_raises_mid_scan(
    tiny_jackson, stream, planner, monkeypatch, prefetchers
):
    query = _plain()
    cascade = planner.plan(query)
    first = cascade.steps[0].frame_filter
    predict_batch = first.predict_batch
    calls = []

    def failing_predict_batch(frames):
        calls.append(len(frames))
        if len(calls) == 2:
            raise RuntimeError("injected filter failure")
        return predict_batch(frames)

    monkeypatch.setattr(first, "predict_batch", failing_predict_batch)
    for batch_size in (None, 8):
        calls.clear()
        with pytest.raises(RuntimeError, match="injected filter failure"):
            _executor(tiny_jackson).execute(query, stream, cascade, batch_size=batch_size)
        assert _live_decode_ahead_threads() == []
    assert len(prefetchers) == 2


@pytest.mark.parametrize("batch_size", [None, 10])
def test_decode_ahead_lifecycle_decode_quarantine_matches_inline(
    tiny_jackson, stream, planner, monkeypatch, prefetchers, batch_size
):
    """An undecodable frame quarantines the same chunks with or without
    decode-ahead, though decode-ahead has rendered past it."""
    queries = [_plain(), _windowed()]
    cascades = [planner.plan(query) for query in queries]
    retry = RetryPolicy(max_attempts=3)
    poison = {("decode", 3): 3, ("decode", 27): 3}

    def faulted():
        with FaultInjector(schedule=poison, retry=retry) as injector:
            result = _executor(tiny_jackson).execute_many(
                queries, stream, cascades, batch_size=batch_size
            )
        assert injector.unfired() == ()
        return result

    ahead = faulted()
    assert len(prefetchers) == 1
    assert _live_decode_ahead_threads() == []
    monkeypatch.setattr("repro.query.executor.decode_ahead", _inline)
    inline = faulted()
    quarantined = ahead[0].stats.faults.quarantined
    assert [record.key for record in quarantined] == [3, 27]
    assert quarantined == inline[0].stats.faults.quarantined
    assert _timeless(ahead) == _timeless(inline)


@pytest.mark.parametrize("batch_size", [None, 10])
def test_decode_ahead_lifecycle_helped_decode_fault_quarantines_as_inline(
    tiny_jackson, stream, planner, monkeypatch, prefetchers, batch_size
):
    """A render thread's first frame waits until the consumer has tried
    index 13, so the consumer renders it (while helping, unless it got there
    first or the thread never started a frame): its failure quarantines
    index 13's chunk only, as an inline scan does."""
    queries = [_plain(), _windowed()]
    cascades = [planner.plan(query) for query in queries]
    poisoned = 13  # within one window depth of the render thread's first frame
    tried = threading.Event()
    held: list[int] = []
    renders: list[tuple[int, bool]] = []
    frame = stream.frame

    def gated_frame(index):
        background = _on_render_thread()
        renders.append((index, background))
        if background and not held:
            held.append(index)
            assert tried.wait(10), f"the consumer never tried index {poisoned}"
        try:
            return frame(index)
        finally:
            if not background and index == poisoned:
                tried.set()

    monkeypatch.setitem(vars(stream), "frame", gated_frame)

    def faulted():
        injector = FaultInjector(
            schedule={("decode", poisoned): 3}, retry=RetryPolicy(max_attempts=3)
        )
        with injector:
            return _executor(tiny_jackson).execute_many(
                queries, stream, cascades, batch_size=batch_size
            )

    ahead = faulted()
    assert len(prefetchers) == 1
    assert (poisoned, False) in renders and (poisoned, True) not in renders
    assert _live_decode_ahead_threads() == []
    monkeypatch.setattr("repro.query.executor.decode_ahead", _inline)
    inline = faulted()
    quarantined = ahead[0].stats.faults.quarantined
    assert [record.key for record in quarantined] == [poisoned]
    assert quarantined == inline[0].stats.faults.quarantined
    assert _timeless(ahead) == _timeless(inline)


@pytest.mark.parametrize("fails", ["filter", "detector"])
def test_decode_ahead_lifecycle_aggregate_raises_mid_estimate(
    tiny_jackson, stream, trained_od_filter, monkeypatch, prefetchers, fails
):
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=42)
    target, name = (trained_od_filter, "predict_batch") if fails == "filter" else (detector, "detect")
    original = getattr(target, name)
    calls = []

    def failing(*args):
        calls.append(len(calls))
        if len(calls) == 2:
            raise RuntimeError(f"injected {fails} failure")
        return original(*args)

    monkeypatch.setattr(target, name, failing)
    monitor = AggregateMonitor(detector, trained_od_filter)
    with pytest.raises(RuntimeError, match=f"injected {fails} failure"):
        monitor.estimate(_aggregate_spec(_plain()), stream, 3 * DEFAULT_CHUNK_SIZE)
    assert len(prefetchers) == 1
    assert _live_decode_ahead_threads() == []


def test_decode_ahead_lifecycle_aggregate_decode_fault_raises_as_inline(
    tiny_jackson, stream, trained_od_filter, monkeypatch, prefetchers
):
    """An undecodable sample fails the estimate, naming the frame, the same
    with or without decode-ahead, though decode-ahead has rendered past it."""
    indices = list(range(3 * DEFAULT_CHUNK_SIZE))
    poisoned = DEFAULT_CHUNK_SIZE + 5
    spec = _aggregate_spec(_plain())

    def faulted():
        detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=42)
        monitor = AggregateMonitor(detector, trained_od_filter)
        injector = FaultInjector(
            schedule={("decode", poisoned): 3}, retry=RetryPolicy(max_attempts=3)
        )
        with injector, pytest.raises(RuntimeError, match="could not be evaluated") as raised:
            monitor.estimate(spec, stream, len(indices), frame_indices=indices)
        assert injector.unfired() == ()
        return str(raised.value), monitor.clock.snapshot()

    ahead = faulted()
    assert len(prefetchers) == 1
    assert _live_decode_ahead_threads() == []
    monkeypatch.setattr("repro.query.executor.decode_ahead", _inline)
    inline = faulted()
    assert ahead == inline
    # The poisoned frame's chunk is set aside, and the message names both.
    chunk = list(range(DEFAULT_CHUNK_SIZE, 2 * DEFAULT_CHUNK_SIZE))
    assert f"frame(s) {chunk}" in ahead[0]
    assert f"fault at decode@{poisoned} exhausted 3 attempts" in ahead[0]


def test_decode_ahead_lifecycle_aggregate_fault_on_a_shared_frame(
    tiny_jackson, stream, trained_od_filter, prefetchers
):
    """A decode fault that exhausts its retries on a frame two samples share
    fails the whole call, naming that frame, and stops the one scan's
    decode-ahead thread."""
    sample_size, seed = 30, 5
    rng = np.random.default_rng(seed)
    first, second = (
        set(sample_frame_indices(len(stream), sample_size, rng).tolist()) for _ in range(2)
    )
    # A shared frame past the first chunk of the union scan, so decode-ahead
    # has rendered ahead of it when it fails.
    poisoned = min(index for index in first & second if index >= DEFAULT_CHUNK_SIZE)
    injector = FaultInjector(
        schedule={("decode", poisoned): 3}, retry=RetryPolicy(max_attempts=3)
    )
    with injector, pytest.raises(RuntimeError, match="could not be evaluated") as raised:
        _executor(tiny_jackson).execute_aggregate(
            _aggregate_spec(_plain()), stream, frame_filter=trained_od_filter,
            sample_size=sample_size, repetitions=2, seed=seed,
        )
    assert injector.unfired() == ()
    assert re.search(rf"sampled frame\(s\) \[[^]]*\b{poisoned}\b[^]]*\]", str(raised.value))
    assert f"fault at decode@{poisoned} exhausted 3 attempts" in str(raised.value)
    assert len(prefetchers) == 1  # one scan for both samples
    assert _live_decode_ahead_threads() == []


# ----------------------------------------------------------------------
# Annotation and training render ahead
# ----------------------------------------------------------------------
def _annotation_rows(annotations):
    """Everything an ``AnnotationSet`` holds, comparable with ``==``."""
    return (
        annotations.stream_name,
        annotations.class_names,
        annotations.grid,
        [
            (
                annotated.frame_index,
                annotated.counts,
                {name: cells.tobytes() for name, cells in annotated.location_grids.items()},
            )
            for annotated in annotations
        ],
    )


@pytest.mark.parametrize("frame_indices", [None, UNORDERED_REPEATING], ids=["all", "unordered"])
def test_annotate_stream_renders_ahead_as_annotate_frames_inline(
    tiny_jackson, stream, counted_renders, prefetchers, frame_indices
):
    """Every position renders once, on either thread, across many windows
    of ``PREFETCH_DEPTH`` frames, and the labels are those of inline renders."""
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=9)
    grid = tiny_jackson.grid(56)
    indices = list(range(len(stream))) if frame_indices is None else frame_indices
    ahead = annotate_stream(
        stream, detector, tiny_jackson.class_names, grid, frame_indices=frame_indices
    )
    assert prefetchers == [(PREFETCH_DEPTH, 1)]
    assert len(indices) > 4 * PREFETCH_DEPTH
    assert sorted(counted_renders) == sorted(indices)
    assert _live_decode_ahead_threads() == []
    inline = annotate_frames(
        [stream.frame(index) for index in indices],
        detector,
        tiny_jackson.class_names,
        grid,
        stream.name,
    )
    assert _annotation_rows(ahead) == _annotation_rows(inline)


def test_annotate_stream_retries_a_decode_fault_on_the_render_thread(
    tiny_jackson, stream, monkeypatch, prefetchers
):
    """Decode faults on positions 0 and 2 each fail twice and render on the
    third attempt.  The first detection waits until the render thread has
    rendered one of them: position 0 if it started that render before the
    consumer asked, else position 2, which nothing else can take while the
    consumer waits.  Labels, retries and recoveries equal the inline run's."""
    indices = [4, 9, 1, 9, 30, 22, 4, 17]
    faulted = {indices[0], indices[2]}
    grid = tiny_jackson.grid(56)
    frame = stream.frame

    def run(ahead):
        attempts: list[tuple[int, bool]] = []
        rendered_behind = threading.Event()
        if not ahead:
            rendered_behind.set()

        def recording_frame(index):
            result = frame(index)
            if _on_render_thread() and index in faulted:
                rendered_behind.set()
            return result

        detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=9)
        detect = detector.detect

        def waiting_detect(detected):
            assert rendered_behind.wait(10), "the render thread rendered no faulted frame"
            return detect(detected)

        monkeypatch.setitem(vars(stream), "frame", recording_frame)
        monkeypatch.setattr(detector, "detect", waiting_detect)
        injector = FaultInjector(
            schedule={("decode", index): 2 for index in faulted},
            retry=RetryPolicy(max_attempts=3),
        )
        maybe_raise = injector.maybe_raise

        def recording_maybe_raise(site, key):
            attempts.append((key, _on_render_thread()))
            maybe_raise(site, key)

        monkeypatch.setattr(injector, "maybe_raise", recording_maybe_raise)
        with injector:
            annotations = annotate_stream(
                stream, detector, tiny_jackson.class_names, grid, frame_indices=indices
            )
        assert injector.unfired() == ()
        report = injector.report()
        counts = (report.retries, report.recovered, report.exhausted, report.backoff_ms)
        return _annotation_rows(annotations), counts, attempts

    ahead, ahead_counts, attempts = run(ahead=True)
    assert prefetchers == [(PREFETCH_DEPTH, 1)]
    assert _live_decode_ahead_threads() == []
    # Some faulted frame failed twice and rendered, all on the render thread
    # (index 4 renders once more, at position 6, with no fault left).
    assert any(
        [background for key, background in attempts if key == index][:3] == [True] * 3
        for index in faulted
    )
    monkeypatch.setattr("repro.detection.annotation.decode_ahead", _inline)
    inline, inline_counts, _ = run(ahead=False)
    assert len(prefetchers) == 1
    assert (ahead, ahead_counts) == (inline, inline_counts)
    assert ahead_counts[:3] == (4, 2, 0)


def test_train_all_renders_once_ahead_and_leaves_no_render_thread(
    tiny_jackson, counted_renders, prefetchers
):
    """One render pass, on one render thread, over the background picks and
    then the other training frames; every distinct frame renders once."""
    trainer = FilterTrainer(dataset=tiny_jackson, max_train_frames=24, background_frames=8)
    trainer.train_all()
    assert prefetchers == [(PREFETCH_DEPTH, 1)]
    assert _live_decode_ahead_threads() == []
    picks = list(trainer._background_indices())
    held = picks + [index for index in trainer.train_indices() if index not in picks]
    assert list(trainer._frames) == held
    assert sorted(counted_renders) == sorted(held)
