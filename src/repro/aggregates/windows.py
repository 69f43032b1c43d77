"""Window specifications over frame streams (hopping / sliding)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, MutableSet

from repro.query.diagnostics import WindowTailDropWarning


def warn_window_tail_drop(
    *,
    size: int,
    advance: int,
    start: int,
    stop: int,
    num_frames: int,
    registry: MutableSet[tuple[int, int, int, int]] | None = None,
    stacklevel: int = 2,
) -> None:
    """Emit the QA006 tail-drop warning, at most once per ``registry``.

    ``registry`` is an opaque per-scan (or per-session) set: when given, the
    warning for a ``(size, advance, start, stop)`` tail fires only the first
    time that tail is seen through that registry — a standing query over an
    endless stream warns once, not once per chunk.  ``None`` keeps the
    historical warn-every-call behaviour.
    """
    if registry is not None:
        key = (size, advance, start, stop)
        if key in registry:
            return
        registry.add(key)
    warnings.warn(
        f"window of size {size} drops the trailing "
        f"{stop - start} frame(s) [{start}, {stop}) of a "
        f"{num_frames}-frame stream (QA006); pass "
        "include_partial=True to cover them",
        WindowTailDropWarning,
        stacklevel=stacklevel,
    )


@dataclass(frozen=True)
class WindowBounds:
    """A half-open frame range ``[start, stop)`` of one window instance."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(f"invalid window bounds: [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        return self.stop - self.start

    def indices(self) -> range:
        return range(self.start, self.stop)

    def contains(self, frame_index: int) -> bool:
        return self.start <= frame_index < self.stop


@dataclass(frozen=True)
class HoppingWindow:
    """A hopping (tumbling when ``advance == size``) window, as in ``WINDOW HOPPING``."""

    size: int
    advance: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.advance <= 0:
            raise ValueError(f"size and advance must be positive: {self.size}, {self.advance}")

    def covers(self, index: int, origin: int = 0) -> bool:
        """Whether ``index`` lies in some instance of the window anchored at ``origin``.

        Instances start at ``origin``, ``origin + advance``, ... without end;
        where a finite stream stops materialising them is the caller's to add.
        """
        return index >= origin and (index - origin) % self.advance < self.size

    def windows_over(
        self,
        num_frames: int,
        include_partial: bool = False,
        *,
        warn_registry: MutableSet[tuple[int, int, int, int]] | None = None,
    ) -> Iterator[WindowBounds]:
        """All window instances over a stream of ``num_frames`` frames.

        With the default ``include_partial=False`` only full-size windows are
        yielded, so a trailing remainder shorter than ``size`` is silently
        *not covered* (e.g. ``size=100`` over 250 frames never covers frames
        200–249).  That is the right default for the paper's fixed-size
        window experiments, where every window must hold the same number of
        frames; windowed *query execution* wants full stream coverage and
        passes ``include_partial=True`` (the executor's
        ``include_partial_windows`` default), which appends one final,
        shorter window over the remaining frames.

        Dropping a non-empty tail is silent data loss from the caller's point
        of view, so it is surfaced as a
        :class:`~repro.query.diagnostics.WindowTailDropWarning` (the runtime
        counterpart of the static QA006 diagnostic) — callers that chose the
        fixed-size semantics deliberately can filter the category out.
        Callers that evaluate the same window spec repeatedly (a scan loop, a
        standing-query session) pass a shared ``warn_registry`` set so each
        distinct dropped tail warns once per scan rather than once per call.
        """
        if num_frames <= 0:
            return
        start = 0
        while start < num_frames:
            stop = min(start + self.size, num_frames)
            if stop - start == self.size or (include_partial and stop > start):
                yield WindowBounds(start=start, stop=stop)
            if stop - start < self.size:
                if not include_partial and stop > start:
                    warn_window_tail_drop(
                        size=self.size,
                        advance=self.advance,
                        start=start,
                        stop=stop,
                        num_frames=num_frames,
                        registry=warn_registry,
                        stacklevel=3,
                    )
                break
            start += self.advance


@dataclass(frozen=True)
class SlidingWindow:
    """A sliding window that advances one frame at a time."""

    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"size must be positive: {self.size}")

    def windows_over(self, num_frames: int) -> Iterator[WindowBounds]:
        for start in range(0, max(num_frames - self.size + 1, 0)):
            yield WindowBounds(start=start, stop=start + self.size)
