"""Opt-in runtime sanitizers for the parallel execution engine.

Three cooperating sanitizers, selected through
``ParallelConfig(sanitize=...)`` and active only while a
:class:`SanitizerSession` is installed in the ``sanitizer`` slot of
:mod:`repro.hooks` (every site in the hot paths reads ``hooks.sanitizer``
behind an ``is not None`` guard, so the instrumentation costs one
attribute load when off — the invariant lint's INV007 enforces exactly
that pattern):

* **Race detector** (``"race"``, RC0xx) — a lockset/ownership checker over
  the engine's shared state.  Instrumented critical sections declare the
  locks they hold (:meth:`SanitizerSession.cache_access`; the engine has
  no lock-guarded shared structure today, so the next one declares the
  first production site), worker tasks open an *ownership window* over
  their private cascade clones
  (:meth:`SanitizerSession.worker_window`), and every
  :class:`~repro.cost.SimulatedClock` charge/absorb/reuse runs inside a
  clock access (:meth:`SanitizerSession.clock_access`).  Two overlapping
  accesses to the same resource from different threads with disjoint
  declared locksets — or one clock charged inside two concurrently open
  worker windows — is a race, reported with both threads' captured stacks:
  RC001 for shared state, RC002 for worker-private clones, RC003 for
  clocks.
* **Numeric sanitizer** (``"numeric"``, NU0xx) — hooks every
  :class:`~repro.nn.network.Sequential` layer output for NaN (NU001) and
  Inf/overflow (NU002), naming the offending layer and the chunk being
  processed, and every cost accumulation for a non-finite charge or total
  (NU003).
* **Determinism checker** (``"determinism"``, RC004) — digests each merged
  chunk's per-query alive sets during the parallel scan, then re-runs the
  same chunks under the coverage masks they were dispatched with,
  sequentially, on a clock-detached deep copy of the cascades and reports
  the first divergent chunk (a quarantined chunk merged nothing and is
  skipped).  Cascade steps are conjunctive, so
  the digest is invariant under adaptive step reordering; any divergence is
  real nondeterminism (state leaking between workers, an order-dependent
  check, a thread-dependent filter).

``strict`` sessions (the default through ``ParallelConfig``) raise
:class:`~repro.analysis.diagnostics.AnalysisError` at the first
error-severity finding — inside whichever thread tripped it, which
propagates through the worker future to the merge loop and aborts the scan.
Non-strict sessions collect everything into an
:class:`~repro.analysis.diagnostics.AnalysisReport` exposed on the
execution's stats.
"""

from __future__ import annotations

import copy
import hashlib
import math
import threading
import traceback
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro import hooks
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, diag

#: The sanitizer modes ``ParallelConfig(sanitize=...)`` understands.
SANITIZE_MODES = ("race", "numeric", "determinism")


def parse_sanitize_spec(spec: str | Iterable[str] | None) -> frozenset[str]:
    """Normalise a ``sanitize=`` value to the set of enabled modes.

    Accepts ``None`` (empty), ``"all"``, a single mode name, a comma- or
    plus-separated string, or an iterable of mode names.
    """
    if spec is None:
        return frozenset()
    if isinstance(spec, str):
        tokens = [token.strip() for token in spec.replace("+", ",").split(",")]
        tokens = [token for token in tokens if token]
    else:
        tokens = [str(token).strip() for token in spec]
    modes: set[str] = set()
    for token in tokens:
        if token == "all":
            modes.update(SANITIZE_MODES)
        elif token in SANITIZE_MODES:
            modes.add(token)
        else:
            raise ValueError(
                f"unknown sanitizer {token!r}: expected one of "
                f"{', '.join(SANITIZE_MODES)} or 'all'"
            )
    return frozenset(modes)


def _capture_stack(skip: int = 3, limit: int = 12) -> str:
    """A compact one-line stack trace of the calling thread (innermost last)."""
    frames = traceback.extract_stack(limit=limit + skip)[:-skip]
    shown = frames[-4:]
    return " -> ".join(
        f"{frame.name}@{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}"
        for frame in shown
    )


def chunk_digest(alive: Sequence[Sequence[int]]) -> str:
    """Stable digest of one chunk's per-query alive sets."""
    normalized = tuple(tuple(int(index) for index in row) for row in alive)
    return hashlib.sha256(repr(normalized).encode("utf-8")).hexdigest()[:16]


class _OpenAccess:
    """One in-flight instrumented critical section."""

    __slots__ = ("resource", "thread_id", "thread_name", "locks", "stack", "touched")

    def __init__(self, resource: tuple[Any, ...], locks: frozenset[int]) -> None:
        current = threading.current_thread()
        self.resource = resource
        self.thread_id = current.ident
        self.thread_name = current.name
        self.locks = locks
        self.stack = _capture_stack(skip=4)
        #: clock resources charged inside this window (worker windows only),
        #: mapped to the stack of the first charge
        self.touched: dict[tuple[Any, ...], str] = {}


class SanitizerSession:
    """One activation of the runtime sanitizers (it installs itself in ``hooks.sanitizer``)."""

    def __init__(self, modes: Iterable[str] | str | None, strict: bool = True) -> None:
        self.modes = parse_sanitize_spec(modes)
        if not self.modes:
            raise ValueError("a sanitizer session needs at least one mode")
        self.strict = strict
        self._mu = threading.Lock()
        self._findings: list[Diagnostic] = []
        self._seen: set[tuple[str, tuple[Any, ...]]] = set()
        self._inflight: dict[tuple[Any, ...], list[_OpenAccess]] = {}
        self._windows: list[_OpenAccess] = []
        self._local = threading.local()
        #: chunk id -> (digest, frame indices, covered masks) of a merged
        #: chunk, ``None`` for a quarantined one
        self._chunk_digests: dict[
            int, tuple[str, tuple[int, ...], Sequence[Sequence[bool]] | None] | None
        ] = {}

    # ------------------------------------------------------------------
    # Mode queries
    # ------------------------------------------------------------------
    @property
    def race(self) -> bool:
        return "race" in self.modes

    @property
    def numeric(self) -> bool:
        return "numeric" in self.modes

    @property
    def determinism(self) -> bool:
        return "determinism" in self.modes

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------
    def record(self, finding: Diagnostic, key: tuple[Any, ...] = ()) -> None:
        """Record one finding (deduped per resource); strict sessions raise."""
        with self._mu:
            dedup = (finding.code, key)
            if key and dedup in self._seen:
                return
            self._seen.add(dedup)
            self._findings.append(finding)
        if self.strict and finding.severity.value == "error":
            raise _strict_error(finding)

    def report(self) -> AnalysisReport:
        with self._mu:
            return AnalysisReport(diagnostics=tuple(self._findings))

    # ------------------------------------------------------------------
    # Race detector
    # ------------------------------------------------------------------
    def _open(
        self, resource: tuple[Any, ...], locks: frozenset[int], code: str, what: str
    ) -> _OpenAccess:
        access = _OpenAccess(resource, locks)
        conflict: _OpenAccess | None = None
        with self._mu:
            peers = self._inflight.setdefault(resource, [])
            for peer in peers:
                if peer.thread_id != access.thread_id and not (peer.locks & access.locks):
                    conflict = peer
                    break
            peers.append(access)
            if code == "RC002":
                self._windows.append(access)
        if conflict is not None:
            self.record(
                diag(
                    code,
                    f"{what} accessed concurrently by {access.thread_name} "
                    f"[{access.stack}] and {conflict.thread_name} "
                    f"[{conflict.stack}] with no common lock held",
                ),
                key=resource,
            )
        return access

    def _close(self, access: _OpenAccess) -> None:
        with self._mu:
            peers = self._inflight.get(access.resource, [])
            if access in peers:
                peers.remove(access)
            if not peers:
                self._inflight.pop(access.resource, None)
            if access in self._windows:
                self._windows.remove(access)

    @contextmanager
    def cache_access(
        self, owner: object, guarded_by: frozenset[int], what: str = "shared state"
    ) -> Iterator[None]:
        """A critical section over shared state, declaring the locks it holds (RC001)."""
        if not self.race:
            yield
            return
        resource = ("shared", id(owner))
        access = self._open(resource, guarded_by, "RC001", f"{what} of {type(owner).__name__}")
        try:
            yield
        finally:
            self._close(access)

    @contextmanager
    def worker_window(self, chunk_id: int, resource_key: Any) -> Iterator[None]:
        """The ownership window of one worker task over its private clones (RC002).

        Also publishes ``chunk_id`` thread-locally so numeric findings can
        name the chunk being processed, and collects the clocks charged
        within the window for cross-window race detection (RC003).
        """
        previous = getattr(self._local, "chunk_id", None)
        self._local.chunk_id = chunk_id
        access: _OpenAccess | None = None
        if self.race:
            access = self._open(
                ("worker", resource_key),
                frozenset(),
                "RC002",
                f"worker-private cascade clones (chunk {chunk_id})",
            )
        try:
            yield
        finally:
            self._local.chunk_id = previous
            if access is not None:
                self._close(access)

    @contextmanager
    def clock_access(
        self, clock: object, op: str, component: str, milliseconds: float
    ) -> Iterator[None]:
        """One clock mutation: overlap/window race check (RC003) + NU003 check."""
        resource = ("clock", id(clock))
        access: _OpenAccess | None = None
        if self.race:
            access = self._open(
                resource, frozenset(), "RC003", f"SimulatedClock.{op} on clock"
            )
            window = self._window_of_current_thread()
            conflict_stack: str | None = None
            conflict_name: str | None = None
            with self._mu:
                for other in self._windows:
                    if other.thread_id != access.thread_id and resource in other.touched:
                        conflict_stack = other.touched[resource]
                        conflict_name = other.thread_name
                        break
                if window is not None and resource not in window.touched:
                    window.touched[resource] = access.stack
            if conflict_stack is not None:
                self.record(
                    diag(
                        "RC003",
                        f"one SimulatedClock charged from two concurrent worker "
                        f"tasks: {access.thread_name} [{access.stack}] and "
                        f"{conflict_name} [{conflict_stack}] — per-worker clocks "
                        f"must be private (is a filter shared across clones?)",
                    ),
                    key=resource,
                )
        try:
            yield
        finally:
            if access is not None:
                self._close(access)
            if self.numeric:
                total = getattr(clock, "elapsed_ms", 0.0)
                if not math.isfinite(milliseconds) or not math.isfinite(total):
                    self.record(
                        diag(
                            "NU003",
                            f"non-finite cost accumulation: {op}({component!r}, "
                            f"{milliseconds}) leaves the clock total at {total}"
                            f"{self._chunk_suffix()}",
                        ),
                        key=("nu3", id(clock), component),
                    )

    def _window_of_current_thread(self) -> _OpenAccess | None:
        me = threading.current_thread().ident
        with self._mu:
            for window in self._windows:
                if window.thread_id == me:
                    return window
        return None

    # ------------------------------------------------------------------
    # Numeric sanitizer
    # ------------------------------------------------------------------
    def _chunk_suffix(self) -> str:
        chunk_id = getattr(self._local, "chunk_id", None)
        return f" (chunk {chunk_id})" if chunk_id is not None else ""

    def check_layer_output(
        self, network: object, position: int, layer: object, output: Any
    ) -> None:
        """NaN/Inf check on one layer's output (NU001 / NU002)."""
        if not self.numeric or not isinstance(output, np.ndarray):
            return
        if not np.issubdtype(output.dtype, np.floating):
            return
        finite = np.isfinite(output)
        if finite.all():
            return
        from repro.analysis.shapes import describe_layer

        label = f"layer {position} {describe_layer(layer)}"
        if np.isnan(output).any():
            self.record(
                diag(
                    "NU001",
                    f"NaN in the output of {label}{self._chunk_suffix()}",
                ),
                key=("nu1", id(network), position),
            )
        if np.isinf(output).any():
            self.record(
                diag(
                    "NU002",
                    f"non-finite (overflowed) values in the output of {label}"
                    f"{self._chunk_suffix()}",
                ),
                key=("nu2", id(network), position),
            )

    # ------------------------------------------------------------------
    # Determinism checker
    # ------------------------------------------------------------------
    def observe_chunk(self, chunk_id: int, dispatch: Any, outcome: Any) -> None:
        """Digest one chunk's alive sets at its in-order merge point.

        Records the digest with the dispatch's frame ``indices`` and
        ``covered`` masks, which is what :meth:`verify_determinism` re-runs.
        ``outcome=None`` records a quarantined chunk: its id was consumed but
        it never merged, so there are no survivors to compare.
        """
        if not self.determinism:
            return
        with self._mu:
            self._chunk_digests[chunk_id] = (
                None
                if outcome is None
                else (
                    chunk_digest(outcome.filtered.alive),
                    tuple(dispatch.indices),
                    dispatch.covered,
                )
            )

    def verify_determinism(
        self,
        stream: Any,
        query_cascades: Sequence[Any],
        assignments: Sequence[Sequence[int]],
    ) -> None:
        """Re-run the merged chunks sequentially and diff the digests (RC004).

        Each chunk is re-run over the frames and ``covered`` masks recorded
        at its merge, on a clock-detached deep copy of the cascades with
        identity step orders; cascade steps are conjunctive, so a digest
        mismatch means the parallel run's survivors genuinely diverged.
        """
        if not self.determinism:
            return
        from repro.query.parallel import run_filter_chunk

        reference = copy.deepcopy(list(query_cascades))
        for cascade in reference:
            for frame_filter in cascade.filters:
                frame_filter.clock = None
        identity_orders = [
            tuple(range(len(cascade.steps))) for cascade in reference
        ]
        with self._mu:
            merged = dict(self._chunk_digests)
        for chunk_id in sorted(merged):
            record = merged[chunk_id]
            if record is None:
                continue  # quarantined: the scan claimed no survivors for it
            observed, chunk, covered = record
            frames = [stream.frame(index) for index in chunk]
            expected = chunk_digest(
                run_filter_chunk(reference, assignments, covered, identity_orders, frames).alive
            )
            if observed != expected:
                self.record(
                    diag(
                        "RC004",
                        f"parallel and sequential results diverged at chunk "
                        f"{chunk_id} (frames {chunk[0]}..{chunk[-1]}): parallel "
                        f"digest {observed} vs sequential {expected} — the first "
                        f"divergent chunk of the scan",
                    ),
                    key=("rc4", chunk_id),
                )
                return

    # ------------------------------------------------------------------
    # Hook installation
    # ------------------------------------------------------------------
    def activate(self) -> "SanitizerSession":
        """Install this session in ``hooks.sanitizer`` (one active session at a time)."""
        if not hooks.install("sanitizer", self):
            raise RuntimeError(
                "a sanitizer session is already active; sanitized scans "
                "cannot nest or run concurrently in one process"
            )
        return self

    def deactivate(self) -> None:
        """Empty the slot if this session holds it (idempotent)."""
        hooks.uninstall("sanitizer", self)


def active_session() -> SanitizerSession | None:
    """The currently installed session, if any (used by the executor)."""
    return hooks.sanitizer


def _strict_error(finding: Diagnostic) -> Exception:
    """An :class:`AnalysisError` carrying one sanitizer finding."""
    from repro.analysis.diagnostics import AnalysisError

    return AnalysisError(
        f"sanitizer found 1 error(s): {finding.code}: {finding.message}",
        diagnostics=(finding,),
    )


@contextmanager
def sanitized_scan(
    sanitize: str | Iterable[str] | None, strict: bool = True
) -> Iterator[SanitizerSession | None]:
    """Activate a session for one scan (``None`` spec = no instrumentation)."""
    modes = parse_sanitize_spec(sanitize)
    if not modes:
        yield None
        return
    session = SanitizerSession(modes, strict=strict).activate()
    try:
        yield session
    finally:
        session.deactivate()


__all__ = [
    "SANITIZE_MODES",
    "SanitizerSession",
    "active_session",
    "chunk_digest",
    "parse_sanitize_spec",
    "sanitized_scan",
]
