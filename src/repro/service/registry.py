"""Standing-query membership: handles, per-stream grouping, the registry lock.

The registry is the service's source of truth for *which* queries exist and
on *what* stream; the scan state itself (accumulators, merged plan, window
partials) lives in each stream shard's
:class:`~repro.query.session.ScanSession`.  Splitting the two keeps the
locking story simple: registry membership is guarded by one lock (INV008 —
``_entries`` / ``_by_stream`` may only be mutated while ``self._lock`` is
held), while scan state is only ever touched under the owning shard's lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.query.ast import Query
from repro.query.planner import FilterCascade

if TYPE_CHECKING:
    from repro.cost import QueryBudget
    from repro.service.emitters import Emitter


@dataclass
class StandingQuery:
    """One registered always-on query (the registry's per-handle record).

    ``handle`` is the service-wide identifier returned by ``register`` and
    used by every emission; ``sid`` is the query's id inside its stream
    shard's scan session (assigned when the shard admits the query).
    """

    handle: int
    stream: str
    key: str
    query: Query
    cascade: FilterCascade
    sid: int = -1
    budget: "QueryBudget | None" = None
    emitter: "Emitter | None" = None


class QueryRegistry:
    """Thread-safe handle → standing-query membership, grouped by stream."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: dict[int, StandingQuery] = {}
        self._by_stream: dict[str, list[int]] = {}
        self._next_handle = 0

    def add(self, entry_fields: dict) -> StandingQuery:
        """Allocate a handle and record a new standing query."""
        with self._lock:
            handle = self._next_handle
            self._next_handle += 1
            entry = StandingQuery(handle=handle, **entry_fields)
            self._entries[handle] = entry
            self._by_stream.setdefault(entry.stream, []).append(handle)
            return entry

    def remove(self, handle: int) -> StandingQuery:
        """Drop a standing query from membership; returns its record."""
        with self._lock:
            entry = self._entries.pop(handle)
            handles = self._by_stream[entry.stream]
            handles.remove(handle)
            if not handles:
                del self._by_stream[entry.stream]
            return entry

    def get(self, handle: int) -> StandingQuery:
        with self._lock:
            return self._entries[handle]

    def handles_for(self, stream: str) -> tuple[int, ...]:
        with self._lock:
            return tuple(self._by_stream.get(stream, ()))

    def streams(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._by_stream)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, handle: int) -> bool:
        with self._lock:
            return handle in self._entries
