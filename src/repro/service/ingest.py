"""Bounded ingestion queues with explicit backpressure policy.

Every stream shard owns one :class:`IngestionQueue` of frame chunks.  A live
source that outruns the scan has to go *somewhere*, and the policy names the
three honest answers:

* ``block`` — the producer waits for space.  Backpressure propagates to the
  caller of ``feed``; queue depth stays bounded by construction.
* ``drop_oldest`` — the oldest queued chunk is evicted (counted in
  ``dropped_chunks``) to admit the new one.  Freshness over completeness.
* ``degrade`` — the queue admits the chunk but raises its ``degrade_requested``
  flag; the consuming shard flips its scan session into temporal-approximate
  mode until the depth falls back under half the capacity (hysteresis, so the
  mode does not flap at the boundary).  Each rising edge counts one degrade
  event.  The producer still blocks at twice the configured capacity — a hard
  backstop so a wedged consumer cannot buffer unboundedly.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Sequence

from repro import hooks
from repro.video.stream import Frame

#: the admissible backpressure policies, in documentation order
POLICIES = ("block", "drop_oldest", "degrade")


class IngestionQueue:
    """A bounded, closable FIFO of frame chunks with one backpressure policy."""

    def __init__(self, maxsize: int, policy: str = "block") -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        if policy not in POLICIES:
            raise ValueError(f"unknown backpressure policy {policy!r}; use one of {POLICIES}")
        self.maxsize = maxsize
        self.policy = policy
        self._chunks: deque[Sequence[Frame]] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._woken = False
        # Telemetry (read under the lock via snapshot()).
        self.high_water = 0
        self.dropped_chunks = 0
        self.degrade_events = 0
        self.degrade_requested = False

    def _capacity(self) -> int:
        # ``degrade`` trades latency for liveness: the soft bound triggers the
        # degraded mode, the hard bound (2x) still blocks the producer.
        return self.maxsize * 2 if self.policy == "degrade" else self.maxsize

    def put(self, chunk: Sequence[Frame], timeout: float | None = None) -> bool:
        """Enqueue one chunk per the policy; returns False if closed/timed out."""
        with self._not_full:
            if self._closed:
                return False
            if self.policy == "drop_oldest":
                while len(self._chunks) >= self.maxsize:
                    self._chunks.popleft()
                    self.dropped_chunks += 1
            else:
                if self.policy == "degrade" and len(self._chunks) >= self.maxsize:
                    if not self.degrade_requested:
                        self.degrade_requested = True
                        self.degrade_events += 1
                while len(self._chunks) >= self._capacity():
                    if not self._not_full.wait(timeout=timeout):
                        return False
                    if self._closed:
                        return False
            self._chunks.append(chunk)
            self.high_water = max(self.high_water, len(self._chunks))
            self._not_empty.notify()
            return True

    def get(self, timeout: float | None = None) -> Sequence[Frame] | None:
        """Dequeue the next chunk; ``None`` when the queue is closed and drained,
        on a timeout, or when :meth:`wake` cut the wait short.

        Also clears ``degrade_requested`` once the depth falls to half the
        soft capacity or below (the hysteresis that ends a degraded episode).
        """
        if hooks.injector is not None:
            # Injected queue stall: this dequeue times out empty exactly as a
            # slow producer would make it.  The chunk stays queued; callers
            # must already treat ``None`` as "poll again" (the shard worker's
            # timed loop does), so no work is lost.
            if hooks.injector.queue_stall():
                return None
        with self._not_empty:
            while not self._chunks:
                if self._closed or self._woken:
                    self._woken = False
                    return None
                if not self._not_empty.wait(timeout=timeout):
                    return None
            self._woken = False
            chunk = self._chunks.popleft()
            if self.degrade_requested and len(self._chunks) <= self.maxsize // 2:
                self.degrade_requested = False
            self._not_full.notify()
            return chunk

    def wake(self) -> None:
        """End the consumer's wait: its pending (or next) empty ``get`` returns ``None``.

        The shard's worker pool calls it when a chunk's filter phase
        finishes, so the shard thread waits on one condition for a new chunk
        *or* a chunk to merge.
        """
        with self._lock:
            self._woken = True
            self._not_empty.notify_all()

    def close(self, drain: bool = True) -> None:
        """Refuse further puts; pending gets drain (or drop) the backlog."""
        with self._lock:
            self._closed = True
            if not drain:
                self._chunks.clear()
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._chunks)

    def snapshot(self) -> dict[str, int | bool]:
        """A consistent read of the queue telemetry."""
        with self._lock:
            return {
                "depth": len(self._chunks),
                "high_water": self.high_water,
                "dropped_chunks": self.dropped_chunks,
                "degrade_events": self.degrade_events,
                "degrade_requested": self.degrade_requested,
            }
