"""Decode-ahead: rendering a known list of frames ahead on a background thread.

The passes that know up front which frames they will render (a chunked or
exact-gated scan, an aggregate sample's among them, the experiments'
prediction pass, annotation and filter training) get their ``render(index)`` from
:func:`decode_ahead`.  One background thread renders the next frames of the
list while the caller works on earlier ones, and the caller renders queued
frames itself rather than wait on one still being drawn, so both cores
render.  A frame renders the same on any thread, so the caller gets frames
equal to what ``stream.frame`` returns, in the order it asks for them.
``brute_force_execute`` (the oracle) and approximate temporal scans render
inline.

The module needs only :class:`~repro.video.stream.VideoStream` and
:class:`~repro.video.stream.Frame`, which is why it sits in the video layer:
every layer above it (detection, filters, query, aggregates, experiments)
may render ahead without importing the query engine.
"""

from __future__ import annotations

from bisect import bisect_left
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing, contextmanager
from typing import Callable, Iterator, Sequence

from repro.video.stream import Frame, VideoStream

#: chunks the decode-ahead prefetcher keeps rendered ahead of its consumer,
#: and the chunks a session holds in flight beyond one per worker
PREFETCH_DEPTH = 2


class FramePrefetcher:
    """Decode-ahead rendering over a known index sequence.

    Wraps ``stream.frame`` for every pass that knows its index sequence up
    front (chunked scans, aggregate samples included, temporal gating,
    annotation, filter training).  The window
    is keyed by *position* in the sequence, so repeated and unordered
    indices are served like any other: a request consumes the first
    unserved occurrence of its index at or after the cursor (one past the
    furthest position served) and schedules background rendering through
    ``depth`` positions beyond it.  A consumer that requests every position
    in order therefore has each one rendered exactly once, with at most
    ``depth`` renders outstanding.

    The consumer does not wait on a render thread.  A requested position
    whose render has not started is cancelled and rendered on the calling
    thread; one still being drawn makes the calling thread render the
    window's next unstarted positions (each cancelled from the queue, its
    frame or exception kept at its position) until the requested frame is
    done.  An exception is raised when its position is requested, on
    whichever thread it was rendered.

    The window is bounded on both sides.  Positions a request steps over
    (the rest of a chunk quarantined mid-render, an adaptive stride) stay
    until they fall more than ``depth`` positions behind the cursor, and a
    backward request for one of them (binary-search refinement,
    exact-mode re-verification) is served from the window; older entries are
    cancelled if still queued and dropped, so a striding scan neither retains
    every speculatively rendered frame nor decodes far behind its head.  A
    request the window does not hold is rendered by the stream.  One thread
    consumes it, and only that thread touches the window; callers get one
    through :func:`decode_ahead`, which closes it on every exit path.
    """

    def __init__(
        self,
        stream: VideoStream,
        indices: Sequence[int],
        depth: int,
        threads: int,
    ) -> None:
        self._stream = stream
        self._order = list(indices)
        self._positions: dict[int, list[int]] = {}
        for position, index in enumerate(self._order):
            self._positions.setdefault(index, []).append(position)
        self._depth = max(0, depth)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, threads), thread_name_prefix="decode-ahead"
        )
        #: unserved renders by position: all scheduled ones at or after the
        #: cursor, and the stepped-over ones behind it still in the window
        self._futures: dict[int, Future] = {}
        self._cursor = 0
        self._scheduled = 0
        self._evicted = 0
        self._closed = False

    def _take(self, index: int) -> int | None:
        """The position a request for ``index`` consumes (``None``: not in the window)."""
        cursor = self._cursor
        if cursor < len(self._order) and self._order[cursor] == index:
            position = cursor
        else:
            for behind in range(self._evicted, cursor):
                if self._order[behind] == index and behind in self._futures:
                    return behind
            positions = self._positions.get(index, [])
            k = bisect_left(positions, cursor)
            if k == len(positions):
                return None
            position = positions[k]
        self._cursor = position + 1
        self._evict_before(position - self._depth)
        self._schedule_through(position + self._depth)
        return position

    def _evict_before(self, limit: int) -> None:
        while self._evicted < limit:
            future = self._futures.pop(self._evicted, None)
            if future is not None:
                future.cancel()
            self._evicted += 1
        # What was evicted before it was scheduled is never scheduled.
        self._scheduled = max(self._scheduled, self._evicted)

    def _schedule_through(self, position: int) -> None:
        limit = min(position + 1, len(self._order))
        while self._scheduled < limit:
            index = self._order[self._scheduled]
            self._futures[self._scheduled] = self._pool.submit(self._stream.frame, index)
            self._scheduled += 1

    def frame(self, index: int) -> Frame:
        position = self._take(index)
        future = None if position is None else self._futures.pop(position, None)
        if future is None or future.cancel():
            # Not in the window, or its render has not started: draw it here.
            return self._stream.frame(index)
        self._help_until(future)
        return future.result()

    def _help_until(self, awaited: Future) -> None:
        """Render the window's next unstarted positions while ``awaited`` is drawn.

        Each queued render this thread cancels is rendered here instead and
        its result (or exception) stored at its position, to be returned
        (or raised) when that position is requested.  Stops when
        ``awaited`` is done or every scheduled position has started.
        """
        position = self._cursor
        while position < self._scheduled and not awaited.done():
            future = self._futures.get(position)
            if future is not None and future.cancel():
                self._futures[position] = _rendered(self._stream, self._order[position])
            position += 1

    def close(self) -> None:
        """Shut the decode-ahead pool down; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=True)


def _rendered(stream: VideoStream, index: int) -> Future:
    """A finished future holding ``stream.frame(index)`` or what it raised."""
    future: Future = Future()
    try:
        future.set_result(stream.frame(index))
    except Exception as error:
        future.set_exception(error)
    return future


@contextmanager
def decode_ahead(
    stream: VideoStream,
    indices: Sequence[int],
    chunk_size: int,
    threads: int,
) -> Iterator[Callable[[int], Frame]]:
    """The ``render(index)`` of one pass over ``indices``.

    A :class:`FramePrefetcher` running ``PREFETCH_DEPTH`` chunks of
    ``chunk_size`` frames (the frames the caller consumes at a time, or the
    longest jump a gated scan makes: its ``max_stride``) ahead on
    ``threads`` render threads, closed however the block exits.  Every
    caller (``StreamingQueryExecutor._scan``, which every frame query and
    every aggregate sample runs, ``ExperimentContext.predicted_chunks``, ``annotate_stream`` and
    ``FilterTrainer``'s one render pass) asks for one thread, or for
    ``threads=0`` where rendering ahead does not pay: that gives
    ``stream.frame`` itself, so callers do not branch.  The only place that
    constructs a prefetcher (lint INV011).
    """
    if threads < 1:
        yield stream.frame
        return
    depth = PREFETCH_DEPTH * chunk_size
    with closing(FramePrefetcher(stream, indices, depth, threads)) as prefetcher:
        yield prefetcher.frame
