"""Deterministic fault injection and the retry/quarantine vocabulary.

The fault-tolerance layer has two halves that meet in this module:

* **Injection** — :class:`FaultInjector` raises seeded, schedule-driven
  faults at eight well-known sites (decode, filter, detector, worker
  crash/stall, queue stall, emitter, shard crash).  It installs itself
  in the ``injector`` slot of :mod:`repro.hooks`, next to the runtime
  sanitizers' slot: every site reads ``hooks.injector`` behind an
  ``is not None`` guard, so the uninstalled cost is one attribute load
  per site (INV007 in ``tools/lint_invariants.py`` enforces the pattern).

* **Recovery bookkeeping** — :class:`RetryPolicy` bounds retries with
  exponential backoff charged to a :class:`~repro.cost.SimulatedClock`
  (never wall-clock, so retried runs stay bit-deterministic), and
  :class:`FaultReport` / :class:`QuarantineRecord` account for every
  injected fault, retry, respawn, re-dispatch and quarantined frame.

Faults are deterministic by construction: an explicit schedule maps
``(site, key)`` to an injection count, and optional per-site rates are
decided by hashing ``(seed, site, key, occurrence)`` — never by a
global RNG whose state would depend on call interleaving.
"""

from __future__ import annotations

import math
import numbers
import os
import re
import threading
from collections import Counter
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable, Mapping, TypeVar

from repro import hooks
from repro.cost import RETRY_BACKOFF_COMPONENT, SimulatedClock

T = TypeVar("T")

#: Every site the injector knows how to fault.
FAULT_SITES = (
    "decode",
    "filter",
    "detector",
    "worker_crash",
    "worker_stall",
    "queue_stall",
    "emitter",
    "shard_crash",
)

#: The one site keyed by a string, ``"<stream>:<chunk number>"``; every
#: other site is keyed by a non-negative integer (a frame index, a chunk id
#: or a per-injector sequence number).
_STRING_KEYED_SITES = ("shard_crash",)
_SHARD_KEY = re.compile(r".+:(0|[1-9][0-9]*)")


def _check_range(name: str, value: float, floor: float, ceiling: float = math.inf) -> None:
    """Refuse ``value`` outside ``[floor, ceiling)``; NaN and infinity fail."""
    if not floor <= value < ceiling:
        raise ValueError(f"{name} must be in [{floor}, {ceiling}): {value!r}")


def _check_site(site: str) -> None:
    if site not in FAULT_SITES:
        raise ValueError(f"unknown fault site {site!r}")


def _check_scheduled(site: str, key: object, count: int) -> None:
    """Refuse a schedule entry whose key its site can never produce."""
    _check_site(site)
    if site in _STRING_KEYED_SITES:
        if not (isinstance(key, str) and _SHARD_KEY.fullmatch(key)):
            raise ValueError(f"{site} key must be '<stream>:<chunk>': {key!r}")
    elif isinstance(key, bool) or not isinstance(key, numbers.Integral) or key < 0:
        raise ValueError(f"{site} key must be a non-negative integer: {key!r}")
    if not count >= 1:
        raise ValueError(f"schedule count for {site!r} must be >= 1: {count!r}")


def _check_rate(site: str, rate: float) -> None:
    _check_site(site)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate for {site!r} must be in [0, 1]: {rate!r}")


class FaultError(RuntimeError):
    """A single injected (or detected) fault at one site."""

    def __init__(self, site: str, key: object, detail: str = "") -> None:
        super().__init__(site, key, detail)
        self.site = site
        self.key = key
        self.detail = detail

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f": {self.detail}" if self.detail else ""
        return f"injected fault at {self.site}@{self.key}{suffix}"


class FaultExhausted(FaultError):
    """A fault that survived every retry the policy allowed."""

    def __init__(
        self, site: str, key: object, attempts: int, detail: str = ""
    ) -> None:
        RuntimeError.__init__(self, site, key, attempts, detail)
        self.site = site
        self.key = key
        self.attempts = attempts
        self.detail = detail

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f": {self.detail}" if self.detail else ""
        return (
            f"fault at {self.site}@{self.key} exhausted "
            f"{self.attempts} attempts{suffix}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff on the simulated clock.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    initial attempt plus two retries.  Backoff for the *n*-th failed
    attempt is ``backoff_ms * backoff_factor ** (n - 1)`` milliseconds,
    charged to the supplied clock under ``component`` — deterministic
    cost, zero wall-clock sleep.
    """

    max_attempts: int = 3
    backoff_ms: float = 1.0
    backoff_factor: float = 2.0
    component: str = RETRY_BACKOFF_COMPONENT

    def __post_init__(self) -> None:
        _check_range("max_attempts", self.max_attempts, 1)
        _check_range("backoff_ms", self.backoff_ms, 0.0)
        _check_range("backoff_factor", self.backoff_factor, 1.0)

    def backoff_for(self, attempt: int) -> float:
        """Backoff in ms after the ``attempt``-th failure (1-based)."""
        return self.backoff_ms * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class InjectedFault:
    """One fault the injector actually fired."""

    site: str
    key: object
    occurrence: int


@dataclass(frozen=True)
class QuarantineRecord:
    """Frames set aside after retries (or supervision) gave up."""

    site: str
    key: object
    frames: tuple[int, ...]
    error: str


@dataclass(frozen=True)
class FaultReport:
    """Immutable accounting of every fault and every recovery action."""

    injected: tuple[InjectedFault, ...] = ()
    retries: int = 0
    recovered: int = 0
    exhausted: int = 0
    respawns: int = 0
    redispatches: int = 0
    backoff_ms: float = 0.0
    quarantined: tuple[QuarantineRecord, ...] = ()

    @property
    def injected_count(self) -> int:
        return len(self.injected)

    def by_site(self) -> dict[str, int]:
        """Injected-fault counts keyed by site name."""
        return dict(Counter(fault.site for fault in self.injected))


class FaultLog:
    """Thread-safe mutable accumulator behind :class:`FaultReport`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._injected: list[InjectedFault] = []
        self._retries = 0
        self._recovered = 0
        self._exhausted = 0
        self._respawns = 0
        self._redispatches = 0
        self._backoff_ms = 0.0

    def note_injected(self, fault: InjectedFault) -> None:
        with self._lock:
            self._injected.append(fault)

    def note_retry(self) -> None:
        with self._lock:
            self._retries += 1

    def note_recovered(self) -> None:
        with self._lock:
            self._recovered += 1

    def note_exhausted(self) -> None:
        with self._lock:
            self._exhausted += 1

    def note_respawn(self) -> None:
        with self._lock:
            self._respawns += 1

    def note_redispatch(self) -> None:
        with self._lock:
            self._redispatches += 1

    def note_backoff(self, milliseconds: float) -> None:
        with self._lock:
            self._backoff_ms += milliseconds

    def freeze(
        self, quarantined: tuple[QuarantineRecord, ...] = ()
    ) -> FaultReport:
        with self._lock:
            return FaultReport(
                injected=tuple(self._injected),
                retries=self._retries,
                recovered=self._recovered,
                exhausted=self._exhausted,
                respawns=self._respawns,
                redispatches=self._redispatches,
                backoff_ms=self._backoff_ms,
                quarantined=tuple(quarantined),
            )


def _hash01(seed: int, site: str, key: object, occurrence: int) -> float:
    """Deterministic uniform-[0,1) draw for rate-based injection."""
    digest = sha256(f"{seed}:{site}:{key}:{occurrence}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultInjector:
    """Seeded, schedule-driven fault injection with retry accounting.

    ``schedule`` maps ``(site, key)`` to how many times that exact site
    should fault (each retry attempt consumes one count, so a schedule
    of ``max_attempts`` at one key produces a poison chunk).  ``rates``
    maps a site to a per-attempt probability decided by hashing
    ``(seed, site, key, occurrence)`` — deterministic for a fixed seed
    regardless of thread interleaving.

    The injector is also a context manager: ``with injector:`` installs
    it in ``hooks.injector`` and uninstalls on exit.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        schedule: Mapping[tuple[str, object], int] | None = None,
        rates: Mapping[str, float] | None = None,
        stall_seconds: float = 0.25,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.seed = int(seed)
        self._schedule: dict[tuple[str, object], int] = dict(schedule or {})
        self._rates: dict[str, float] = dict(rates or {})
        for (site, key), count in self._schedule.items():
            _check_scheduled(site, key, count)
        for site, rate in self._rates.items():
            _check_rate(site, rate)
        # A worker stall is a real ``time.sleep``, which overflows past
        # TIMEOUT_MAX.
        _check_range("stall_seconds", stall_seconds, 0.0, threading.TIMEOUT_MAX)
        self.stall_seconds = float(stall_seconds)
        self.retry = retry if retry is not None else RetryPolicy()
        #: Fallback clock for backoff at sites without one (frame decode).
        self.clock = SimulatedClock()
        self.log = FaultLog()
        self._lock = threading.Lock()
        self._consumed: dict[tuple[str, object], int] = {}
        self._sequences: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Core decision + raise primitives
    # ------------------------------------------------------------------
    def should_fault(self, site: str, key: object) -> bool:
        """Decide (and consume) one injection opportunity at a site."""
        with self._lock:
            occurrence = self._consumed.get((site, key), 0)
            scheduled = self._schedule.get((site, key), 0)
            fire = occurrence < scheduled
            if not fire:
                rate = self._rates.get(site, 0.0)
                fire = rate > 0.0 and _hash01(self.seed, site, key, occurrence) < rate
            if fire:
                self._consumed[(site, key)] = occurrence + 1
        if fire:
            self.log.note_injected(InjectedFault(site, key, occurrence + 1))
        return fire

    def maybe_raise(self, site: str, key: object) -> None:
        if self.should_fault(site, key):
            raise FaultError(site, key)

    def _next_key(self, site: str) -> int:
        """Sequence counter for sites without a natural key."""
        with self._lock:
            value = self._sequences.get(site, 0)
            self._sequences[site] = value + 1
        return value

    # ------------------------------------------------------------------
    # Site-specific entry points (called from the guarded hooks)
    # ------------------------------------------------------------------
    def filter_event(self, first_index: int) -> None:
        """Fault site at the top of ``run_filter_chunk`` (keyed by the
        chunk's first frame index, identical inline and in workers)."""
        self.maybe_raise("filter", first_index)

    def worker_directive(self, chunk_id: int) -> tuple[str, float] | None:
        """Supervisor-side crash/stall decision for one dispatched chunk.

        Decided on the dispatching thread before the task ships, so the
        schedule is consumed in dispatch order whatever the workers do.
        """
        if self.should_fault("worker_crash", chunk_id):
            return ("crash", 0.0)
        if self.should_fault("worker_stall", chunk_id):
            return ("stall", self.stall_seconds)
        return None

    def queue_stall(self) -> bool:
        """Whether this ingestion-queue ``get`` should time out empty."""
        return self.should_fault("queue_stall", self._next_key("queue_stall"))

    def emitter_event(self) -> None:
        """Raise inside ``deliver``'s per-emitter try (keyed by a
        per-injector delivery sequence number)."""
        self.maybe_raise("emitter", self._next_key("emitter"))

    def shard_event(self, stream: str, chunk_number: int) -> None:
        """Simulated shard-worker crash while processing one chunk."""
        self.maybe_raise("shard_crash", f"{stream}:{chunk_number}")

    # ------------------------------------------------------------------
    # Retry loop
    # ------------------------------------------------------------------
    def with_retry(
        self,
        site: str,
        key: object,
        clock: SimulatedClock | None,
        thunk: Callable[[], T],
    ) -> T:
        """Run ``thunk`` under the retry policy for one fault site.

        Injected :class:`FaultError`\\ s (from the pre-attempt draw *or*
        raised by a nested hook inside ``thunk``) are retried with
        exponential backoff charged to ``clock`` (the injector's own
        clock when ``None``).  Exhaustion raises :class:`FaultExhausted`;
        genuine non-fault exceptions propagate untouched on the first
        throw — retrying non-deterministic real failures is the
        caller's policy decision, not this loop's.
        """
        retry = self.retry
        attempt = 0
        while True:
            attempt += 1
            try:
                self.maybe_raise(site, key)
                result = thunk()
            except FaultExhausted:
                raise
            except FaultError as error:
                self.log.note_retry()
                if attempt >= retry.max_attempts:
                    self.log.note_exhausted()
                    raise FaultExhausted(
                        error.site, error.key, attempt, error.detail
                    ) from error
                backoff = retry.backoff_for(attempt)
                target = clock if clock is not None else self.clock
                target.charge(retry.component, backoff)
                self.log.note_backoff(backoff)
                continue
            if attempt > 1:
                self.log.note_recovered()
            return result

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def unfired(self) -> tuple[tuple[str, object, int], ...]:
        """Scheduled faults that never fired: ``(site, key, remaining)``.

        The chaos soak asserts this is empty — every scheduled fault
        must be accounted for by the run it was aimed at.
        """
        remaining = []
        with self._lock:
            for (site, key), count in sorted(
                self._schedule.items(), key=lambda item: (item[0][0], str(item[0][1]))
            ):
                consumed = self._consumed.get((site, key), 0)
                if consumed < count:
                    remaining.append((site, key, count - consumed))
        return tuple(remaining)

    def report(
        self, quarantined: tuple[QuarantineRecord, ...] = ()
    ) -> FaultReport:
        return self.log.freeze(quarantined)

    # ------------------------------------------------------------------
    # Hook installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultInjector":
        install(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        uninstall(self)


def install(injector: FaultInjector) -> None:
    """Install ``injector`` in ``hooks.injector``.

    Refuses to stack: exactly one injector may be live at a time.
    """
    if not hooks.install("injector", injector):
        raise RuntimeError(
            "a FaultInjector is already installed; uninstall it first"
        )


def uninstall(injector: FaultInjector | None = None) -> None:
    """Remove the installed injector (idempotent).

    Passing a specific ``injector`` uninstalls only if it is the one
    currently live — a stale handle from an earlier session is a no-op.
    """
    hooks.uninstall("injector", injector)


def current_injector() -> FaultInjector | None:
    return hooks.injector


def current_report(
    quarantined: tuple[QuarantineRecord, ...] = ()
) -> FaultReport | None:
    """The installed injector's report, or a quarantine-only report.

    Returns ``None`` when no injector is live and nothing was
    quarantined, so fault-free runs carry ``faults=None`` and stay
    bit-identical to pre-fault-layer results.
    """
    injector = current_injector()
    if injector is not None:
        return injector.report(tuple(quarantined))
    if quarantined:
        return FaultReport(quarantined=tuple(quarantined))
    return None


# ----------------------------------------------------------------------
# REPRO_FAULTS environment knob
# ----------------------------------------------------------------------
def parse_fault_spec(spec: str) -> FaultInjector:
    """Build an injector from a compact spec string.

    Comma-separated tokens::

        seed=7             injector seed (rate draws)
        stall=0.5          stall duration in seconds
        retries=4          RetryPolicy.max_attempts
        backoff=2.5        RetryPolicy.backoff_ms
        decode@12          one decode fault at frame 12
        filter@8x3         three filter faults at chunk-first-index 8
        worker_crash@2     crash the worker handling chunk 2
        shard_crash@cam:1  shard fault at stream "cam", chunk 1
        emitter%0.05       5% per-delivery emitter raise rate

    A token that could never take effect (a key its site never produces,
    a non-finite stall or backoff, a count below one) raises
    :class:`ValueError` naming the token, so a bad spec fails here and
    never inside a worker.
    """
    options: dict[str, float] = {"seed": 0, "stall": 0.25, "retries": 3, "backoff": 1.0}
    schedule: dict[tuple[str, object], int] = {}
    rates: dict[str, float] = {}
    for raw in spec.replace(";", ",").split(","):
        token = raw.strip()
        if token:
            try:
                _parse_token(token, options, schedule, rates)
            except ValueError as error:
                raise ValueError(f"fault-spec token {token!r}: {error}") from None
    return FaultInjector(
        seed=int(options["seed"]),
        schedule=schedule,
        rates=rates,
        stall_seconds=options["stall"],
        retry=RetryPolicy(max_attempts=int(options["retries"]), backoff_ms=options["backoff"]),
    )


#: spec option -> (type, [floor, ceiling) it must lie in; None = any value)
_SPEC_OPTIONS: dict[str, tuple[type, tuple[float, float] | None]] = {
    "seed": (int, None),
    "retries": (int, (1, math.inf)),
    "stall": (float, (0.0, threading.TIMEOUT_MAX)),
    "backoff": (float, (0.0, math.inf)),
}


def _parse_token(
    token: str,
    options: dict[str, float],
    schedule: dict[tuple[str, object], int],
    rates: dict[str, float],
) -> None:
    """Fold one spec token into ``options`` / ``schedule`` / ``rates``."""
    if "=" in token:
        name, _, value = (part.strip() for part in token.partition("="))
        if name not in _SPEC_OPTIONS:
            raise ValueError(f"unknown option {name!r}")
        kind, bounds = _SPEC_OPTIONS[name]
        options[name] = kind(value)
        if bounds is not None:
            _check_range(name, options[name], *bounds)
    elif "%" in token:
        site, _, rate_text = (part.strip() for part in token.partition("%"))
        rate = float(rate_text)
        _check_rate(site, rate)
        rates[site] = rate
    elif "@" in token:
        site, _, key_text = (part.strip() for part in token.partition("@"))
        _check_site(site)
        count = 1
        head, x, tail = key_text.rpartition("x")
        if x and head and tail.isascii() and tail.isdigit():
            key_text, count = head, int(tail)
        key: object = key_text
        if site not in _STRING_KEYED_SITES:
            if not (key_text.isascii() and key_text.isdigit()):
                raise ValueError(f"{site} key must be a non-negative integer: {key_text!r}")
            key = int(key_text)
        _check_scheduled(site, key, count)
        schedule[(site, key)] = schedule.get((site, key), 0) + count
    else:
        raise ValueError("expected name=value, site@key[xN] or site%rate")


def maybe_install_from_env() -> FaultInjector | None:
    """Install an injector described by ``$REPRO_FAULTS``, if any.

    No-op (returning ``None``) when the variable is unset/empty or when
    an injector is already live — a service embedded inside an explicit
    injection session must not fight it.
    """
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    injector = parse_fault_spec(spec)
    # One check-and-set: of two services constructed concurrently, one
    # installs and the other sees the slot taken.
    return injector if hooks.install("injector", injector) else None
