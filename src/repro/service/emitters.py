"""Pluggable sinks for standing-query emissions.

The service pushes an :class:`Emission` for every incremental event a
standing query produces: newly confirmed matches, completed windows, budget
violations, and the final :class:`~repro.query.results.QueryExecutionResult`
on deregistration.  Emitters are deliberately tiny — a callback adapter for
"wire it to my own code" and a thread-safe buffer for tests and polling
consumers.  Emitter exceptions are the consumer's problem by design: the
service catches and counts them (``StreamStats.emitter_errors``) so one bad
subscriber cannot stall a stream shard.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

from repro import hooks

if TYPE_CHECKING:
    from repro.cost import BudgetViolation
    from repro.faults.injector import QuarantineRecord
    from repro.query.results import QueryExecutionResult, WindowResult


@dataclass(frozen=True)
class Emission:
    """One incremental event of one standing query.

    ``kind`` is ``"matches"`` (``matched_frames`` newly confirmed),
    ``"window"`` (``window`` completed), ``"violation"`` (``violation``
    fired), ``"result"`` (``result`` finalised on deregistration / stream
    close) or ``"fault"`` (``fault`` holds the
    :class:`~repro.faults.QuarantineRecord` of a frame group that exhausted
    its retry budget; ``handle`` is ``-1`` — quarantine is per stream, not
    per query).  ``watermark`` is the stream's highest processed frame index
    at emission time.
    """

    stream: str
    key: str
    handle: int
    kind: str
    watermark: int
    matched_frames: tuple[int, ...] = ()
    window: "WindowResult | None" = None
    violation: "BudgetViolation | None" = None
    result: "QueryExecutionResult | None" = None
    fault: "QuarantineRecord | None" = None


class Emitter(Protocol):
    """Anything that can receive standing-query emissions."""

    def emit(self, emission: Emission) -> None: ...


@dataclass
class CallbackEmitter:
    """Adapts a plain callable to the emitter protocol."""

    callback: Callable[[Emission], None]

    def emit(self, emission: Emission) -> None:
        self.callback(emission)


@dataclass
class BufferEmitter:
    """Collects emissions in memory, thread-safely (the default test sink)."""

    _emissions: list[Emission] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def emit(self, emission: Emission) -> None:
        with self._lock:
            self._emissions.append(emission)

    def emissions(self, kind: str | None = None, handle: int | None = None) -> list[Emission]:
        """A snapshot of received emissions, optionally filtered."""
        with self._lock:
            snapshot = list(self._emissions)
        return [
            emission
            for emission in snapshot
            if (kind is None or emission.kind == kind)
            and (handle is None or emission.handle == handle)
        ]

    def windows(self, handle: int | None = None) -> list["WindowResult"]:
        """Completed windows in emission order (the quickstart accessor)."""
        return [
            emission.window
            for emission in self.emissions(kind="window", handle=handle)
            if emission.window is not None
        ]

    def matched_frames(self, handle: int | None = None) -> list[int]:
        """All newly-confirmed match indices, concatenated in emission order."""
        out: list[int] = []
        for emission in self.emissions(kind="matches", handle=handle):
            out.extend(emission.matched_frames)
        return out

    def clear(self) -> None:
        with self._lock:
            self._emissions.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._emissions)


def deliver(
    emitters: Iterable[Emitter],
    emission: Emission,
    warned: set[int] | None = None,
) -> int:
    """Deliver ``emission`` to every emitter; returns the number of failures.

    A raising emitter never stops delivery to the others and never
    propagates into the caller (the stream shard keeps scanning).  With
    ``warned`` — a caller-owned set of emitter ids — the first failure of
    each emitter additionally raises a :class:`RuntimeWarning`; repeat
    failures are counted silently.
    """
    failures = 0
    for emitter in emitters:
        try:
            if hooks.injector is not None:
                # Injected emitter fault: simulates this subscriber raising.
                hooks.injector.emitter_event()
            emitter.emit(emission)
        except Exception as error:
            failures += 1
            if warned is not None and id(emitter) not in warned:
                warned.add(id(emitter))
                warnings.warn(
                    f"emitter {type(emitter).__name__} raised "
                    f"{type(error).__name__} while receiving a "
                    f"{emission.kind!r} emission for stream "
                    f"{emission.stream!r}; it stays subscribed and further "
                    "failures are only counted",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return failures
