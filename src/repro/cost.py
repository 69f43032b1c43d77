"""Latency model and simulated clock.

The paper reports component latencies measured on a Titan XP GPU:

* IC branch (first 5 VGG19 layers + branch): ~1.5 ms / frame
* OD branch (first 8 Darknet layers + branch): ~1.9 ms / frame
* full YOLOv2: ~15 ms / frame
* Mask R-CNN: ~200 ms / frame

We cannot reproduce those absolute numbers on CPU with a numpy substrate, but
the *ratios* between components are what drive every execution-time result in
the paper (Table III, Table IV).  Each simulated component therefore carries
its paper-calibrated latency, and the scan that invokes it charges that
latency to its own :class:`SimulatedClock` (:meth:`SimulatedClock.charge_calls`),
so execution-time tables reproduce the paper's shape deterministically, while
pytest-benchmark separately reports the wall-clock cost of our own code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Protocol


# Latencies in milliseconds per frame, as reported in Section IV of the paper.
IC_BRANCH_MS = 1.5
OD_BRANCH_MS = 1.9
OD_COF_MS = 1.9
YOLO_FULL_MS = 15.0
MASK_RCNN_MS = 200.0

# Branch-depth trade-off reported in the paper's footnote: branching at layer
# 5 gives ~90% accuracy at ~1.0 ms, branching at layer 15 gives ~92% at 1.5 ms.
IC_BRANCH_LAYER5_MS = 1.0
IC_BRANCH_LAYER15_MS = 1.5


@dataclass
class CostBreakdown:
    """Accumulated simulated cost, broken down by component name.

    ``per_component_calls`` counts invocations that actually ran (and charged
    their latency); ``per_component_reused`` counts invocations the temporal
    execution layer *avoided* by reusing a cached result — they charge zero
    milliseconds but are recorded so reused-vs-computed ratios are visible in
    every cost report.
    """

    per_component_ms: dict[str, float] = field(default_factory=dict)
    per_component_calls: dict[str, int] = field(default_factory=dict)
    per_component_reused: dict[str, int] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return sum(self.per_component_ms.values())

    @property
    def total_seconds(self) -> float:
        return self.total_ms / 1000.0

    @property
    def total_calls(self) -> int:
        """Invocations that actually ran (computed, not reused)."""
        return sum(self.per_component_calls.values())

    @property
    def total_reused(self) -> int:
        """Invocations avoided by temporal reuse (charged zero milliseconds)."""
        return sum(self.per_component_reused.values())

    @property
    def reuse_fraction(self) -> float:
        """Fraction of all would-be invocations that were served from cache.

        ``nan`` when nothing ran at all (no computed and no reused calls).
        """
        total = self.total_calls + self.total_reused
        if total == 0:
            return float("nan")
        return self.total_reused / total

    def add(self, component: str, milliseconds: float, calls: int) -> None:
        """Accumulate ``calls`` invocations costing ``milliseconds`` in total."""
        self.per_component_ms[component] = (
            self.per_component_ms.get(component, 0.0) + milliseconds
        )
        self.per_component_calls[component] = (
            self.per_component_calls.get(component, 0) + calls
        )

    def merged_with(self, other: "CostBreakdown") -> "CostBreakdown":
        merged = self.copy()
        for name, ms in other.per_component_ms.items():
            merged.per_component_ms[name] = merged.per_component_ms.get(name, 0.0) + ms
        for name, calls in other.per_component_calls.items():
            merged.per_component_calls[name] = (
                merged.per_component_calls.get(name, 0) + calls
            )
        for name, reused in other.per_component_reused.items():
            merged.per_component_reused[name] = (
                merged.per_component_reused.get(name, 0) + reused
            )
        return merged

    def copy(self) -> "CostBreakdown":
        """An independent copy (mutating the copy leaves the original intact)."""
        return CostBreakdown(
            per_component_ms=dict(self.per_component_ms),
            per_component_calls=dict(self.per_component_calls),
            per_component_reused=dict(self.per_component_reused),
        )

    def minus(self, earlier: "CostBreakdown") -> "CostBreakdown":
        """The cost accumulated since ``earlier`` (a prior snapshot of this clock).

        Components whose delta is zero are dropped, so a delta over a period
        in which a component never ran does not mention it at all.  ``earlier``
        must be a prefix of this breakdown (same clock, taken earlier) —
        negative deltas indicate a reset in between and raise.
        """
        delta = CostBreakdown()
        missing = (
            set(earlier.per_component_ms) - set(self.per_component_ms)
        ) | (set(earlier.per_component_reused) - set(self.per_component_reused))
        if missing:
            raise ValueError(
                f"snapshot is not a prefix of this breakdown (components {sorted(missing)} "
                "disappeared); was the clock reset between the snapshot and now?"
            )
        for name, ms in self.per_component_ms.items():
            diff_ms = ms - earlier.per_component_ms.get(name, 0.0)
            diff_calls = self.per_component_calls.get(name, 0) - earlier.per_component_calls.get(name, 0)
            if diff_ms < -1e-9 or diff_calls < 0:
                raise ValueError(
                    f"snapshot is not a prefix of this breakdown (component {name!r} "
                    "shrank); was the clock reset between the snapshot and now?"
                )
            if diff_calls or diff_ms > 0.0:
                delta.per_component_ms[name] = diff_ms
                delta.per_component_calls[name] = diff_calls
        for name, reused in self.per_component_reused.items():
            diff_reused = reused - earlier.per_component_reused.get(name, 0)
            if diff_reused < 0:
                raise ValueError(
                    f"snapshot is not a prefix of this breakdown (component {name!r} "
                    "shrank); was the clock reset between the snapshot and now?"
                )
            if diff_reused:
                delta.per_component_reused[name] = diff_reused
        return delta


def merge_worker_breakdowns(breakdowns: Iterable[CostBreakdown]) -> CostBreakdown:
    """Merge per-worker cost breakdowns into one total.

    Parallel execution charges each worker's filter work to a private
    per-worker clock (a shared clock would race and lose updates under
    threads); the merged breakdown is what the run charged overall.  Merging
    is order-dependent only at float rounding: component call counts are
    exact integers, milliseconds agree with a single-clock run to the last
    ulp or two.
    """
    merged = CostBreakdown()
    for breakdown in breakdowns:
        merged = merged.merged_with(breakdown)
    return merged


@dataclass(frozen=True)
class ParallelCostReport:
    """Cost accounting for one parallel pipelined execution.

    ``per_worker`` holds one entry per worker that executed at least one
    chunk — the merge of that worker's chunk deltas, ordered by worker label
    (thread ids in numeric order); ``wall_clock_seconds`` is the whole run's
    wall clock.  The report puts the two cost notions of this
    codebase side by side: the *simulated* cost is invariant under
    parallelism (the same component invocations happen, so the paper-model
    milliseconds are identical to a sequential run), while the *wall clock*
    is what the worker pool actually buys.
    """

    per_worker: tuple[CostBreakdown, ...]
    wall_clock_seconds: float

    @property
    def num_workers(self) -> int:
        return len(self.per_worker)

    @property
    def merged(self) -> CostBreakdown:
        """All workers' simulated filter cost combined."""
        return merge_worker_breakdowns(self.per_worker)

    @property
    def simulated_seconds(self) -> float:
        return self.merged.total_seconds

    @property
    def worker_seconds(self) -> tuple[float, ...]:
        """Per-worker simulated seconds, for load-balance inspection."""
        return tuple(breakdown.total_seconds for breakdown in self.per_worker)

    @property
    def balance(self) -> float:
        """Mean over max of the per-worker simulated loads (1.0 = perfectly even).

        ``nan`` when no worker charged anything (e.g. an empty scan).
        """
        seconds = self.worker_seconds
        peak = max(seconds, default=0.0)
        if peak <= 0.0:
            return float("nan")
        return (sum(seconds) / len(seconds)) / peak

    @property
    def simulated_over_wall(self) -> float:
        """Simulated seconds per wall-clock second of the filter phase.

        A pure reporting ratio (the two clocks measure different things —
        paper-model GPU latencies vs this reproduction's numpy wall time);
        ``inf`` when the run took no measurable wall time.
        """
        if self.wall_clock_seconds <= 0.0:
            return float("inf") if self.simulated_seconds > 0.0 else 0.0
        return self.simulated_seconds / self.wall_clock_seconds


@dataclass(frozen=True)
class SharedCostReport:
    """Cost accounting for a shared multi-query execution.

    ``shared`` is what the shared scan actually charged — every frame
    materialised once, every shared filter evaluated at most once per frame,
    the detector run at most once per frame — while ``attributed`` holds, per
    query, the cost that query would have paid running alone over the same
    frames (its cascade's filter invocations plus the detector on its own
    cascade survivors).  The gap between the attributed total and the shared
    total is the work the sharing eliminated.
    """

    shared: CostBreakdown
    attributed: dict[str, CostBreakdown] = field(default_factory=dict)

    @property
    def standalone_ms(self) -> float:
        """Total cost of running every query independently (sum of attributions)."""
        return sum(breakdown.total_ms for breakdown in self.attributed.values())

    @property
    def shared_ms(self) -> float:
        return self.shared.total_ms

    @property
    def savings_ratio(self) -> float:
        """How many times cheaper the shared run is than N independent runs.

        ``1.0`` when both sides are free (nothing executed, nothing saved);
        ``inf`` when attributed work exists but the shared run charged
        nothing (cannot happen with real components, but keeps the ratio
        total).
        """
        if self.shared_ms <= 0.0:
            return 1.0 if self.standalone_ms <= 0.0 else float("inf")
        return self.standalone_ms / self.shared_ms

    @property
    def computed_calls(self) -> int:
        """Component invocations the shared scan actually performed."""
        return self.shared.total_calls

    @property
    def reused_calls(self) -> int:
        """Component invocations the shared scan avoided via temporal reuse."""
        return self.shared.total_reused

    @property
    def reuse_fraction(self) -> float:
        """Reused fraction of the shared scan's would-be invocations (``nan`` if none)."""
        return self.shared.reuse_fraction


@dataclass(frozen=True)
class BudgetViolation:
    """One SLA ceiling a standing query blew through.

    ``kind`` names the ceiling (``"throughput"``, ``"per_frame_cost"`` or
    ``"total_cost"``); ``observed`` and ``limit`` are in the ceiling's own
    unit (frames/second or simulated milliseconds).  ``at_frame`` is the
    stream watermark when the check fired, so violations can be lined up
    against window emissions and degrade events in a service trace.
    """

    label: str
    kind: str
    observed: float
    limit: float
    at_frame: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.label}: {self.kind} budget exceeded at frame {self.at_frame} "
            f"(observed {self.observed:.3f}, limit {self.limit:.3f})"
        )


@dataclass(frozen=True)
class QueryBudget:
    """Per-query SLA ceilings for standing queries.

    All ceilings are optional; an unset ceiling is never checked.  The
    throughput floor is measured against *wall* time (the service's real
    ingest rate), while the cost ceilings are measured against *simulated*
    milliseconds attributed to the query (the paper-model cost it would pay
    running alone) — the same dual accounting the rest of the codebase uses.

    ``grace_seconds`` suppresses the throughput check until the query has
    been registered that long, so a freshly registered query is not flagged
    before the first chunk could possibly have arrived.
    """

    min_frames_per_second: float | None = None
    max_simulated_ms_per_frame: float | None = None
    max_simulated_ms_total: float | None = None
    grace_seconds: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "min_frames_per_second",
            "max_simulated_ms_per_frame",
            "max_simulated_ms_total",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set, got {value}")
        if self.grace_seconds < 0:
            raise ValueError(f"grace_seconds must be >= 0, got {self.grace_seconds}")

    def violations(
        self,
        *,
        label: str,
        frames: int,
        elapsed_seconds: float,
        simulated_ms: float,
        at_frame: int,
    ) -> list[BudgetViolation]:
        """Ceilings currently violated given the query's accrued counters.

        Stateless: callers that want edge-triggered events (fire once per
        ceiling, not once per chunk) track which ``kind``s already fired.
        """
        found: list[BudgetViolation] = []
        if (
            self.min_frames_per_second is not None
            and elapsed_seconds > self.grace_seconds
            and elapsed_seconds > 0.0
        ):
            observed = frames / elapsed_seconds
            if observed < self.min_frames_per_second:
                found.append(
                    BudgetViolation(
                        label=label,
                        kind="throughput",
                        observed=observed,
                        limit=self.min_frames_per_second,
                        at_frame=at_frame,
                    )
                )
        if self.max_simulated_ms_per_frame is not None and frames > 0:
            observed = simulated_ms / frames
            if observed > self.max_simulated_ms_per_frame:
                found.append(
                    BudgetViolation(
                        label=label,
                        kind="per_frame_cost",
                        observed=observed,
                        limit=self.max_simulated_ms_per_frame,
                        at_frame=at_frame,
                    )
                )
        if (
            self.max_simulated_ms_total is not None
            and simulated_ms > self.max_simulated_ms_total
        ):
            found.append(
                BudgetViolation(
                    label=label,
                    kind="total_cost",
                    observed=simulated_ms,
                    limit=self.max_simulated_ms_total,
                    at_frame=at_frame,
                )
            )
        return found


#: Clock component retry backoff is charged to (see
#: :class:`repro.faults.RetryPolicy`): recovery time is simulated cost,
#: never a wall-clock sleep, so retried runs stay deterministic.
RETRY_BACKOFF_COMPONENT = "retry_backoff"


class Invocable(Protocol):
    """What :meth:`SimulatedClock.charge_calls` reads off a filter or a detector."""

    name: str
    latency_ms: float


class SimulatedClock:
    """Accumulates the simulated cost of detector / filter invocations."""

    def __init__(self) -> None:
        self._breakdown = CostBreakdown()

    def charge(self, component: str, milliseconds: float, calls: int = 1) -> None:
        """Charge ``milliseconds`` of simulated latency to ``component``."""
        if not math.isfinite(milliseconds):
            raise ValueError(
                f"cannot charge non-finite time to {component!r}: {milliseconds}"
            )
        if milliseconds < 0:
            raise ValueError(f"cannot charge negative time: {milliseconds}")
        if calls < 0:
            raise ValueError(f"cannot charge negative calls: {calls}")
        self._breakdown.add(component, milliseconds, calls)

    def charge_calls(self, invoked: Invocable, calls: int = 1) -> None:
        """Charge ``calls`` invocations of a filter or a detector.

        ``invoked.latency_ms`` per call, under ``invoked.name``.  Filters and
        detectors charge nothing themselves: whoever schedules a call
        charges it to its own clock, and a call that must cost nothing
        (exact-mode verification, planning measurement) is simply not
        charged.  Zero calls charge nothing.
        """
        if calls > 0:
            self.charge(invoked.name, invoked.latency_ms * calls, calls=calls)

    def reuse(self, component: str, calls: int = 1) -> None:
        """Record ``calls`` invocations of ``component`` served from a temporal cache.

        Reused invocations charge zero milliseconds — the whole point of the
        temporal execution layer — but are counted separately so cost reports
        can show how much work the reuse avoided (see
        :attr:`CostBreakdown.per_component_reused`).
        """
        if calls < 0:
            raise ValueError(f"cannot record negative reused calls: {calls}")
        if calls == 0:
            return
        breakdown = self._breakdown
        breakdown.per_component_reused[component] = (
            breakdown.per_component_reused.get(component, 0) + calls
        )

    def absorb(self, breakdown: CostBreakdown) -> None:
        """Add a detached breakdown (e.g. a parallel worker's chunk delta) to this clock.

        The parallel engine charges filter work to per-worker clocks and
        absorbs each chunk's delta into the main clock at the in-order merge
        point, so the main clock's history reads exactly like a sequential
        run's: chunk by chunk, in stream order.
        """
        for name, ms in breakdown.per_component_ms.items():
            self.charge(name, ms, calls=breakdown.per_component_calls.get(name, 0))
        for name, reused in breakdown.per_component_reused.items():
            self.reuse(name, reused)

    def reset(self) -> None:
        """Discard all accumulated cost."""
        self._breakdown = CostBreakdown()

    def snapshot(self) -> CostBreakdown:
        """A frozen copy of the current breakdown, for later delta accounting.

        Callers that share one clock across several executions take a
        snapshot before each run and compute the run's own cost with
        :meth:`CostBreakdown.minus`, instead of resetting the clock (which
        would silently wipe the other runs' accumulated cost).
        """
        return self._breakdown.copy()

    def delta_since(self, snapshot: CostBreakdown) -> CostBreakdown:
        """The cost accumulated since ``snapshot`` (see :meth:`snapshot`)."""
        return self._breakdown.minus(snapshot)

    @property
    def breakdown(self) -> CostBreakdown:
        return self._breakdown

    @property
    def elapsed_ms(self) -> float:
        return self._breakdown.total_ms

    @property
    def elapsed_seconds(self) -> float:
        return self._breakdown.total_seconds
