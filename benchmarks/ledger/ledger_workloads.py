"""The ledger's seven workloads.

Every workload builds its inputs from the seed (dataset, training, detector
and sampling seeds all derive from it) and then drives the engine through
public ``repro`` entry points only.  A workload has four parts:

* ``setup()`` — what a user pays before the first scan: dataset build,
  filter training, planning, pre-rendering.  Timed by the harness, several
  times per run.
* ``oracle()`` — reference answers for the output checks (brute force,
  one-shot runs).  Run once, outside every timed region.
* ``repetition(ops)`` — the timed scans.  Each engine call is one counted
  and timed operation: an exception fails it and the run goes on.
* ``check(rep, ops)`` — output checks, also counted operations; a failed
  check never aborts the run.

Sizes are the ``FULL`` dictionaries below; ``SMOKE`` shrinks them for the
tier-1 smoke test.  README.md records why each workload exists and which
layers it loads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
import traceback
from types import SimpleNamespace

import numpy as np

from repro.aggregates import AggregateQuerySpec, query_indicator_control
from repro.detection import DetectorErrorModel, ReferenceDetector, annotate_stream
from repro.experiments.table3 import build_query_specs
from repro.experiments.table4 import build_aggregate_specs
from repro.filters import FilterTrainer
from repro.filters.training import NeuralTrainingConfig, train_neural_filter
from repro.query import (
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    TemporalConfig,
    WindowSpec,
    brute_force_execute,
)
from repro.service import QueryService, StreamConfig
from repro.spatial.geometry import Point
from repro.video import build_detrac, build_jackson
from repro.video.datasets import JACKSON_PROFILE
from repro.video.motion import ParkedMotion
from repro.video.objects import TrackedObject, default_class_registry
from repro.video.renderer import FrameRenderer, RendererConfig
from repro.video.scene import Scene, SceneConfig
from repro.video.stream import VideoStream

BATCH = 16


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
#: seconds one calibration sample takes on the reference box when nothing
#: else contends for it (2-core Xeon 2.1 GHz, measured in a quiet phase)
REFERENCE_CALIBRATION_S = 0.0100

_CALIBRATION_IMAGES = np.random.default_rng(0).integers(
    0, 255, size=(8, 112, 112, 3), dtype=np.uint8
)


def _calibration_kernel() -> float:
    started = time.perf_counter()
    pixels = _CALIBRATION_IMAGES.astype(np.float64) / 255.0
    pixels.mean(axis=3)
    pixels.reshape(8, 56, 2, 56, 2, 3).mean(axis=(2, 4))
    np.abs(pixels - pixels.mean(axis=0, keepdims=True)).mean(axis=3)
    noise = np.random.default_rng(1).normal(0.0, 1.0, size=(112, 112, 3))
    np.clip(pixels[0] * 255.0 + noise, 0, 255).astype(np.uint8)
    return time.perf_counter() - started


def calibration_seconds() -> float:
    """Time a fixed numpy kernel that shares no code with ``repro``.

    The sandbox's speed drifts by a third over minutes (a shared host), far
    more than any bound worth setting.  The kernel has the engine's mix of
    work — uint8 -> float conversion, block and axis reductions, gaussian
    noise, clipping — on arrays of a frame batch, so it slows down with the
    host the way the scans do, and timings divided by it hold still.  One
    sample is the median of three runs, so a single preempted run does not
    pass for a slow host.
    """
    return sorted(_calibration_kernel() for _ in range(3))[1]


class HostClock:
    """Times a call in wall seconds and in seconds at reference host speed.

    A calibration sample is taken right before and right after the call
    (back-to-back calls share one); their mean over
    :data:`REFERENCE_CALIBRATION_S` is how much slower than the reference
    the host ran meanwhile, and the wall time is divided by it.
    """

    #: a sample this fresh is reused as the next call's "before"
    REUSE_S = 0.05

    def __init__(self) -> None:
        self._sample = calibration_seconds()  # also warms the kernel up
        self._sampled_at = float("-inf")
        #: host slowdown during the most recent timed call (1.0 = reference)
        self.slowdown = 1.0

    def time(self, fn, *args, **kwargs) -> tuple[object, float, float]:
        """``(result, wall_s, ref_s)`` of ``fn(*args, **kwargs)``."""
        if time.perf_counter() - self._sampled_at > self.REUSE_S:
            self._sample = calibration_seconds()
        before = self._sample
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - started
        self._sample = calibration_seconds()
        self._sampled_at = time.perf_counter()
        self.slowdown = (before + self._sample) / 2.0 / REFERENCE_CALIBRATION_S
        return result, wall, wall / self.slowdown


class Ops:
    """Counted operations: every engine call and every output check is one.

    Engine calls are also timed; :meth:`take_time` hands the seconds
    accumulated since the last take to the repetition that made the calls.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.clock = HostClock()
        self._wall_s = 0.0
        self._ref_s = 0.0

    def call(self, label: str, fn, *args, **kwargs):
        """Run and time one engine call; an exception fails it and returns ``None``."""
        self.attempted += 1
        try:
            result, wall, ref = self.clock.time(fn, *args, **kwargs)
        except Exception:
            self.failed += 1
            self.failures.append(f"{label}: {traceback.format_exc(limit=4)}")
            return None
        self._wall_s += wall
        self._ref_s += ref
        return result

    def take_time(self) -> tuple[float, float]:
        """Wall and reference-speed seconds of the calls since the last take."""
        taken = (self._wall_s, self._ref_s)
        self._wall_s = self._ref_s = 0.0
        return taken

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {label} failed {detail}".rstrip())

    def count(self, attempted: int, failed: int, label: str) -> None:
        """Operations counted elsewhere (fed chunks, estimates)."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {attempted} {label} failed")


@dataclasses.dataclass
class Rep:
    """One timed repetition."""

    #: wall seconds inside the engine calls
    wall_s: float
    #: the same, at reference host speed (see :class:`HostClock`)
    ref_s: float
    #: stream frames consumed by all scans (sampled frames for aggregates)
    frames: int
    #: simulated (paper latency model) cost of the scans, milliseconds
    sim_ms: float
    #: simulated cost split by component name
    sim_components: dict[str, float]
    #: workload-specific results the checks and quality numbers read
    out: dict
    digest: str = ""


def digest_of(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _matches(result) -> tuple[int, ...]:
    return tuple(result.matched_frames) if result is not None else ()


def _windows(result) -> tuple:
    if result is None or result.windows is None:
        return ()
    return tuple((w.bounds.start, w.bounds.stop, w.matched_frames) for w in result.windows)


def _add_cost(components: dict[str, float], breakdown) -> float:
    for name, ms in breakdown.per_component_ms.items():
        components[name] = components.get(name, 0.0) + ms
    return breakdown.total_ms


def _scan_counters(results) -> dict[str, int]:
    """Work counters pooled over per-query execution results."""
    done = [result.stats for result in results if result is not None]
    return {
        "passed": sum(stats.frames_passed_filters for stats in done),
        "scanned": sum(stats.frames_scanned for stats in done),
        "detector_frames": sum(stats.detector_invocations for stats in done),
    }


def pooled_accuracy(pairs) -> tuple[float, float]:
    """Recall and precision pooled over ``(found, truth)`` match-set pairs."""
    tp = fp = fn = 0
    for found, truth in pairs:
        found, truth = set(found), set(truth)
        tp += len(found & truth)
        fp += len(found - truth)
        fn += len(truth - found)
    recall = tp / (tp + fn) if tp + fn else 1.0
    precision = tp / (tp + fp) if tp + fp else 1.0
    return recall, precision


class Workload:
    """Base class: sizes, seeds and the default measurement loop."""

    name = ""
    FULL: dict = {}
    SMOKE: dict = {}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.size = dict(self.FULL, **self.SMOKE) if smoke else dict(self.FULL)
        #: seconds spent in ``QueryPlanner.plan`` / training during ``setup``
        self.plan_s = 0.0
        self.train_s = 0.0

    # -- helpers ---------------------------------------------------------
    def detector(self) -> ReferenceDetector:
        return ReferenceDetector(class_names=self.dataset.class_names, seed=self.seed + 300)

    def executor(self) -> StreamingQueryExecutor:
        return StreamingQueryExecutor(self.detector())

    def _jackson(self) -> None:
        size = self.size
        self.dataset = build_jackson(
            train_size=size["train"], val_size=16, test_size=size["test"], seed=self.seed
        )
        started = time.perf_counter()
        trainer = FilterTrainer(
            dataset=self.dataset, max_train_frames=size["train_frames"], seed=self.seed
        )
        self.od = trainer.train_od_filter()
        self.train_s = time.perf_counter() - started

    def _plan_table3(self, names, filters) -> None:
        context = SimpleNamespace(dataset=self.dataset)
        specs = {spec.name: spec for spec in build_query_specs()}
        self.queries, self.cascades = [], []
        started = time.perf_counter()
        for name in names:
            spec = specs[name]
            query = spec.build(context)
            planner = QueryPlanner(
                filters,
                PlannerConfig(
                    count_tolerance=spec.count_tolerance,
                    location_dilation=spec.location_dilation,
                ),
            )
            self.queries.append(query)
            self.cascades.append(planner.plan(query))
        self.plan_s = time.perf_counter() - started

    def _brute(self, query, stream, frame_indices=None) -> tuple[int, ...]:
        return brute_force_execute(
            query, stream, self.detector(), frame_indices=frame_indices
        ).matched_frames

    def _brute_shared(self, queries, stream) -> list[tuple[int, ...]]:
        """Brute force for several queries in one detector pass (no cascades)."""
        return [_matches(r) for r in self.executor().execute_many(queries, stream).results]

    # -- protocol --------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def oracle(self) -> None:
        raise NotImplementedError

    def repetition(self, ops: Ops) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep, ops: Ops) -> None:
        raise NotImplementedError

    def quality(self, rep: Rep) -> dict[str, float]:
        """Answer-quality numbers of one repetition (recall, precision, ...)."""
        return {}

    def measure(self, seconds: float, ops: Ops, min_reps: int = 3) -> list[Rep]:
        """Timed repetitions until ``seconds`` have passed (at least ``min_reps``)."""
        reps: list[Rep] = []
        deadline = time.perf_counter() + seconds
        # One more repetition only while at least half of it fits the budget.
        while len(reps) < min_reps or time.perf_counter() + reps[-1].wall_s / 2 < deadline:
            reps.append(self.repetition(ops))
        return reps

    def latency_ms(self, reps: list[Rep]) -> float:
        """Input to complete result: the median repetition, at reference host speed."""
        return statistics.median(rep.ref_s for rep in reps) * 1000.0

    def trace_extras(self, ops: Ops) -> dict[str, float]:
        """Per-layer diagnostics that need runs of their own (traced runs only)."""
        return {}


# ----------------------------------------------------------------------
# Scan workloads on the Jackson Table III queries
# ----------------------------------------------------------------------
class Table3Batched(Workload):
    name = "table3_batched"
    FULL = {"train": 240, "train_frames": 80, "test": 128, "window": (100, 50)}
    SMOKE = {"train": 48, "train_frames": 24, "test": 32, "window": (32, 16)}

    def setup(self) -> None:
        self._jackson()
        self._plan_table3(("q3", "q4", "q5"), {"od": self.od})
        self.stream = self.dataset.test

    def oracle(self) -> None:
        self.truth = [self._brute(query, self.stream) for query in self.queries]

    def _batched(self, ops: Ops) -> list:
        return [
            ops.call(
                f"execute {query.name}", self.executor().execute,
                query, self.stream, cascade, batch_size=BATCH,
            )
            for query, cascade in zip(self.queries, self.cascades)
        ]

    def repetition(self, ops: Ops) -> Rep:
        singles = self._batched(ops)
        windowed = dataclasses.replace(
            self.queries[1], name="q4w", window=WindowSpec(*self.size["window"])
        )
        multi = ops.call(
            "execute_many", self.executor().execute_many,
            [*self.queries, windowed], self.stream,
            [*self.cascades, self.cascades[1]], batch_size=BATCH,
        )
        wall, ref = ops.take_time()
        components: dict[str, float] = {}
        sim_ms = sum(
            _add_cost(components, r.stats.simulated_cost) for r in singles if r is not None
        )
        if multi is not None:
            # What the one shared scan charged: queries that share a cascade
            # step pay for it once.
            sim_ms += _add_cost(components, multi.shared.cost.shared)
        out = {
            "single": [_matches(r) for r in singles],
            "shared": [_matches(r) for r in multi.results] if multi is not None else [],
            "windows": _windows(multi.results[-1]) if multi is not None else (),
            **_scan_counters(singles),
        }
        return Rep(
            wall, ref, 4 * len(self.stream), sim_ms, components, out,
            digest_of(out["single"], out["shared"], out["windows"]),
        )

    def check(self, rep: Rep, ops: Ops) -> None:
        out = rep.out
        for query, found, truth in zip(self.queries, out["single"], self.truth):
            ops.check(f"{query.name} precision", set(found) <= set(truth))
        for query, alone, shared in zip(self.queries, out["single"], out["shared"]):
            ops.check(f"{query.name} execute_many == execute", alone == shared)
        ops.check(
            "q4w flat matches == q4",
            len(out["shared"]) == 4 and out["shared"][3] == out["single"][1],
        )
        union = sorted({i for _, _, matched in out["windows"] for i in matched})
        ops.check("q4w window union == flat", tuple(union) == out["single"][1])

    def quality(self, rep: Rep) -> dict[str, float]:
        recall, precision = pooled_accuracy(zip(rep.out["single"], self.truth))
        return {"recall": recall, "precision": precision}


class Table3PerFrame(Table3Batched):
    name = "table3_perframe"
    FULL = {"train": 240, "train_frames": 80, "test": 64}
    SMOKE = {"train": 48, "train_frames": 24, "test": 12}
    TEMPORAL = TemporalConfig(delta_threshold=5.0, max_stride=8, exact=True)

    def oracle(self) -> None:
        super().oracle()
        self.batched = [_matches(result) for result in self._batched(Ops())]

    def repetition(self, ops: Ops) -> Rep:
        singles = [
            ops.call(f"execute {query.name}", self.executor().execute, query, self.stream, cascade)
            for query, cascade in zip(self.queries, self.cascades)
        ]
        temporal = ops.call(
            "execute q4 temporal-exact", self.executor().execute,
            self.queries[1], self.stream, self.cascades[1], temporal=self.TEMPORAL,
        )
        wall, ref = ops.take_time()
        components: dict[str, float] = {}
        sim_ms = sum(
            _add_cost(components, r.stats.simulated_cost)
            for r in (*singles, temporal)
            if r is not None
        )
        out = {
            "single": [_matches(r) for r in singles],
            "temporal": _matches(temporal),
            "temporal_stats": temporal.temporal if temporal is not None else None,
            **_scan_counters(singles),
        }
        return Rep(
            wall, ref, 4 * len(self.stream), sim_ms, components, out,
            digest_of(out["single"], out["temporal"]),
        )

    def check(self, rep: Rep, ops: Ops) -> None:
        out = rep.out
        for query, found, truth, batched in zip(
            self.queries, out["single"], self.truth, self.batched
        ):
            ops.check(f"{query.name} precision", set(found) <= set(truth))
            ops.check(f"{query.name} per-frame == batched", found == batched)
        ops.check("q4 temporal-exact == batched", out["temporal"] == self.batched[1])


class NeuralCascade(Table3Batched):
    name = "neural_cascade"
    FULL = {"train": 96, "train_frames": 64, "test": 192, "epochs": 2}
    SMOKE = {"train": 48, "train_frames": 16, "test": 16, "epochs": 1}

    def setup(self) -> None:
        size = self.size
        self.dataset = build_jackson(
            train_size=size["train"], val_size=16, test_size=size["test"], seed=self.seed
        )
        started = time.perf_counter()
        train = self.dataset.train
        indices = np.linspace(0, len(train) - 1, size["train_frames"]).astype(int)
        annotations = annotate_stream(
            train,
            ReferenceDetector(class_names=self.dataset.class_names, seed=self.seed),
            self.dataset.class_names,
            self.dataset.grid(56),
            frame_indices=sorted({int(i) for i in indices}),
        )
        self.neural = train_neural_filter(
            train,
            annotations,
            self.dataset.class_names,
            NeuralTrainingConfig(epochs=size["epochs"], warmup_epochs=1, seed=self.seed),
        )
        self.neural.network.set_training(False)
        self.train_s = time.perf_counter() - started
        self._plan_table3(("q4", "q5"), {"od": self.neural})
        self.stream = self.dataset.test

    def repetition(self, ops: Ops) -> Rep:
        singles = self._batched(ops)
        wall, ref = ops.take_time()
        components: dict[str, float] = {}
        sim_ms = sum(
            _add_cost(components, r.stats.simulated_cost) for r in singles if r is not None
        )
        out = {"single": [_matches(r) for r in singles], **_scan_counters(singles)}
        return Rep(
            wall, ref, len(singles) * len(self.stream), sim_ms, components, out,
            digest_of(out["single"]),
        )

    def check(self, rep: Rep, ops: Ops) -> None:
        for query, found, truth in zip(self.queries, rep.out["single"], self.truth):
            ops.check(f"{query.name} precision", set(found) <= set(truth))


# ----------------------------------------------------------------------
# Detector-only scan on the dense Detrac profile
# ----------------------------------------------------------------------
class BruteforceDense(Workload):
    name = "bruteforce_dense"
    FULL = {"test": 480, "oracle_frames": 160, "window": (100, 50)}
    SMOKE = {"test": 64, "oracle_frames": 32, "window": (32, 16)}

    def setup(self) -> None:
        self.dataset = build_detrac(
            train_size=16, val_size=16, test_size=self.size["test"], seed=self.seed
        )
        context = SimpleNamespace(dataset=self.dataset)
        specs = {spec.name: spec for spec in build_query_specs()}
        q6, q7 = specs["q6"].build(context), specs["q7"].build(context)
        windowed = dataclasses.replace(q6, name="q6w", window=WindowSpec(*self.size["window"]))
        self.queries = [q6, q7, windowed]
        self.stream = self.dataset.test

    def oracle(self) -> None:
        head = range(self.size["oracle_frames"])
        self.truth = [self._brute(q, self.stream, head) for q in self.queries[:2]]

    def repetition(self, ops: Ops) -> Rep:
        multi = ops.call(
            "execute_many", self.executor().execute_many,
            self.queries, self.stream, batch_size=BATCH,
        )
        wall, ref = ops.take_time()
        components: dict[str, float] = {}
        sim_ms = 0.0
        out = {"matches": [], "windows": (), "passed": 0, "scanned": 0, "detector_frames": 0}
        if multi is not None:
            sim_ms = _add_cost(components, multi.shared.cost.shared)
            out = {
                "matches": [_matches(r) for r in multi.results],
                "windows": _windows(multi.results[2]),
                # No cascade: every scanned frame goes on to the detector.
                "passed": multi.shared.frames_scanned,
                "scanned": multi.shared.frames_scanned,
                "detector_frames": multi.shared.detector_invocations,
            }
        return Rep(
            wall, ref, len(self.stream), sim_ms, components, out,
            digest_of(out["matches"], out["windows"]),
        )

    def _head(self, matches) -> tuple[int, ...]:
        return tuple(i for i in matches if i < self.size["oracle_frames"])

    def check(self, rep: Rep, ops: Ops) -> None:
        matches = rep.out["matches"]
        for query, truth, found in zip(self.queries, self.truth, matches):
            ops.check(
                f"{query.name} == oracle on first {self.size['oracle_frames']} frames",
                self._head(found) == tuple(truth),
            )
        ops.check("q6w flat matches == q6", len(matches) == 3 and matches[2] == matches[0])

    def quality(self, rep: Rep) -> dict[str, float]:
        found = [self._head(matches) for matches in rep.out["matches"][:2]]
        recall, precision = pooled_accuracy(zip(found, self.truth))
        return {"recall": recall, "precision": precision}


# ----------------------------------------------------------------------
# Temporal-approximate scan of a low-motion stream
# ----------------------------------------------------------------------
def build_low_motion_stream(num_frames: int, seed: int) -> VideoStream:
    """Two parked cars and a person; a third car parks during ``[600k+200, 600k+400)``.

    Built like ``bench_temporal_delta.build_low_motion_stream``: pixels change
    only at the event boundaries, plus per-frame sensor noise and shading.
    """
    registry = default_class_registry()
    car, person = registry["car"], registry["person"]
    config = SceneConfig(
        frame_width=448, frame_height=448, num_frames=num_frames,
        mean_count=3.0, std_count=0.0, count_autocorrelation=0.9,
        class_mix=JACKSON_PROFILE.classes, max_count=4, seed=seed,
    )
    tracks = [
        TrackedObject(0, car, 46.0, 24.0, "blue", 0, num_frames, ParkedMotion(Point(120, 200))),
        TrackedObject(1, car, 42.0, 22.0, "white", 0, num_frames, ParkedMotion(Point(310, 260))),
        TrackedObject(2, person, 14.0, 38.0, "red", 0, num_frames, ParkedMotion(Point(220, 390))),
    ]
    for start in range(200, num_frames, 600):
        tracks.append(
            TrackedObject(
                len(tracks), car, 44.0, 23.0, "black", start, min(start + 200, num_frames),
                ParkedMotion(Point(210, 140)),
            )
        )
    active = [
        [track.track_id for track in tracks if track.alive_at(index)]
        for index in range(num_frames)
    ]
    scene = Scene(config=config, tracks=tracks, active_tracks_per_frame=active)
    renderer = FrameRenderer(RendererConfig(output_size=112, seed=seed))
    return VideoStream(scene=scene, renderer=renderer, name="low-motion")


class TemporalLowMotion(Workload):
    name = "temporal_lowmotion"
    FULL = {"train": 240, "train_frames": 80, "test": 16, "frames": 1200}
    SMOKE = {"train": 60, "train_frames": 40, "test": 16, "frames": 500}
    TEMPORAL = TemporalConfig(
        delta_threshold=30.0, max_stride=16, keyframe_interval=24, exact=False
    )
    # The simulated detector's random misses are off here.  Approximate reuse
    # copies one keyframe verdict over hundreds of frames, so a single random
    # miss at a keyframe drops a whole event (6 of 32 seeds measured), and the
    # brute-force oracle's own 1 % flicker would read as false positives.
    NO_MISSES = DetectorErrorModel(box_jitter=0.02)

    def detector(self) -> ReferenceDetector:
        return ReferenceDetector(
            class_names=self.dataset.class_names,
            error_model=self.NO_MISSES,
            seed=self.seed + 300,
        )

    def setup(self) -> None:
        self._jackson()
        self.stream = build_low_motion_stream(self.size["frames"], self.seed)
        self.query = QueryBuilder("event").count("car").at_least(3).build()
        started = time.perf_counter()
        planner = QueryPlanner(
            {"od": self.od}, PlannerConfig(count_tolerance=1, location_dilation=1)
        )
        self.cascade = planner.plan(self.query)
        self.plan_s = time.perf_counter() - started

    def oracle(self) -> None:
        self.truth = self._brute(self.query, self.stream)

    def repetition(self, ops: Ops) -> Rep:
        result = ops.call(
            "execute temporal", self.executor().execute,
            self.query, self.stream, self.cascade, temporal=self.TEMPORAL,
        )
        wall, ref = ops.take_time()
        components: dict[str, float] = {}
        sim_ms = _add_cost(components, result.stats.simulated_cost) if result else 0.0
        out = {
            "matches": _matches(result),
            "temporal_stats": result.temporal if result else None,
            **_scan_counters([result]),
        }
        return Rep(
            wall, ref, len(self.stream), sim_ms, components, out, digest_of(out["matches"])
        )

    def check(self, rep: Rep, ops: Ops) -> None:
        quality = self.quality(rep)
        ops.check("recall >= 0.95", quality["recall"] >= 0.95, str(quality))
        ops.check("precision >= 0.95", quality["precision"] >= 0.95, str(quality))

    def quality(self, rep: Rep) -> dict[str, float]:
        recall, precision = pooled_accuracy([(rep.out["matches"], self.truth)])
        return {"recall": recall, "precision": precision}


# ----------------------------------------------------------------------
# Control-variate aggregate estimation
# ----------------------------------------------------------------------
class AggregateCV(Workload):
    name = "aggregate_cv"
    FULL = {"train": 240, "train_frames": 80, "test": 480, "samples": 60, "estimates": 3}
    SMOKE = {"train": 48, "train_frames": 24, "test": 40, "samples": 8, "estimates": 2}

    def setup(self) -> None:
        self._jackson()
        context = SimpleNamespace(dataset=self.dataset)
        specs = {spec.name: spec for spec in build_aggregate_specs()}
        self.queries = [specs[name].build(context) for name in ("a1", "a2")]
        self.specs = [
            AggregateQuerySpec.from_query(query, [query_indicator_control(query, tolerance=0)])
            for query in self.queries
        ]
        started = time.perf_counter()
        planner = QueryPlanner({"od": self.od})
        self.cascades = [planner.plan(query) for query in self.queries]
        self.plan_s = time.perf_counter() - started
        self.stream = self.dataset.test

    def oracle(self) -> None:
        self.exact = [
            len(matches) / len(self.stream)
            for matches in self._brute_shared(self.queries, self.stream)
        ]

    def repetition(self, ops: Ops) -> Rep:
        size = self.size
        # A fresh executor per spec: its clock then holds exactly that
        # spec's simulated cost.
        executors = [self.executor() for _ in self.specs]
        results = [
            ops.call(
                f"execute_aggregate {spec.name}", executor.execute_aggregate,
                spec, self.stream, cascade,
                sample_size=size["samples"], repetitions=size["estimates"], seed=self.seed,
            )
            for executor, spec, cascade in zip(executors, self.specs, self.cascades)
        ]
        wall, ref = ops.take_time()
        components: dict[str, float] = {}
        sim_ms = sum(
            _add_cost(components, executor.clock.breakdown)
            for executor, result in zip(executors, results)
            if result is not None
        )
        reports = [result.reports if result is not None else () for result in results]
        out = {
            "cv_means": [[r.control_variate.mean for r in group] for group in reports],
            "plain_var": [[r.plain.variance / r.num_samples for r in group] for group in reports],
            "cv_var": [[r.control_variate.variance for r in group] for group in reports],
        }
        # Each estimate beyond the call that carried it is an operation too.
        ops.count(sum(max(len(group) - 1, 0) for group in reports), 0, "estimates")
        sampled = sum(r.num_samples for group in reports for r in group)
        return Rep(wall, ref, sampled, sim_ms, components, out, digest_of(out["cv_means"]))

    def check(self, rep: Rep, ops: Ops) -> None:
        for spec, means in zip(self.specs, rep.out["cv_means"]):
            ops.check(
                f"{spec.name} estimates finite and near [0, 1]",
                len(means) == self.size["estimates"]
                and all(np.isfinite(m) and -0.5 <= m <= 1.5 for m in means),
                str(means),
            )

    def quality(self, rep: Rep) -> dict[str, float]:
        errors, reductions = [], []
        for means, plain, cv, exact in zip(
            rep.out["cv_means"], rep.out["plain_var"], rep.out["cv_var"], self.exact
        ):
            if not means:
                continue
            errors.append(abs(float(np.mean(means)) - exact))
            plain_var, cv_var = float(np.mean(plain)), float(np.mean(cv))
            # table4.run's convention: a control that explains everything
            # reports a large finite factor instead of infinity.
            if cv_var > 0:
                reductions.append(plain_var / cv_var)
            else:
                reductions.append(1.0 if plain_var <= 0 else 1000.0)
        return {
            "abs_error": float(np.mean(errors)) if errors else 0.0,
            "variance_reduction": float(np.mean(reductions)) if reductions else 0.0,
        }


# ----------------------------------------------------------------------
# Standing queries through QueryService
# ----------------------------------------------------------------------
class LatencyEmitter:
    """The benchmark's own emitter: stamps each emission with its arrival time.

    ``events`` holds ``(emit_time, last_frame_covered)`` per match or window
    emission; the harness turns them into ingest-to-emit latencies against
    the due time of that frame.
    """

    def __init__(self) -> None:
        self.events: list[tuple[float, int]] = []

    def emit(self, emission) -> None:
        now = time.perf_counter()
        if emission.kind == "matches":
            self.events.append((now, emission.matched_frames[-1]))
        elif emission.kind == "window" and emission.window.bounds.stop <= emission.watermark + 1:
            # Tail windows flushed at close cover frames that never arrived.
            self.events.append((now, emission.window.bounds.stop - 1))


class ServiceStanding(Workload):
    name = "service_standing"
    FULL = {"train": 240, "train_frames": 80, "test": 384, "rate": 300.0, "fast_rate": 600.0}
    SMOKE = {"train": 48, "train_frames": 24, "test": 48, "rate": 300.0, "fast_rate": 600.0}
    CONFIG = StreamConfig(chunk_size=BATCH, queue_chunks=8, policy="block")
    #: share of the measured seconds spent on the fixed-rate latency passes
    LATENCY_SHARE = 0.45

    def setup(self) -> None:
        self._jackson()
        context = SimpleNamespace(dataset=self.dataset)
        q5_spec = {spec.name: spec for spec in build_query_specs()}["q5"]
        car = QueryBuilder("car").count("car").at_least(1).build()
        both = (
            QueryBuilder("car_person").count("car").at_least(1).count("person").at_least(1).build()
        )
        q5 = q5_spec.build(context)
        windowed = QueryBuilder("car_w").count("car").at_least(1).window(32, 16).build()
        self.queries = [car, both, q5, windowed]
        started = time.perf_counter()
        exact = QueryPlanner({"od": self.od}, PlannerConfig(count_tolerance=0, location_dilation=0))
        spatial = QueryPlanner(
            {"od": self.od},
            PlannerConfig(
                count_tolerance=q5_spec.count_tolerance,
                location_dilation=q5_spec.location_dilation,
            ),
        )
        self.cascades = [exact.plan(car), exact.plan(both), spatial.plan(q5), exact.plan(windowed)]
        self.plan_s = time.perf_counter() - started
        self.stream = self.dataset.test
        # Frames arrive already decoded: rendering is the source's cost.
        self.frames = [self.stream.frame(index) for index in range(len(self.stream))]
        self.latencies_ms: list[float] = []
        self.late_ms: dict[float, float] = {}

    def oracle(self) -> None:
        multi = self.executor().execute_many(
            self.queries, self.stream, self.cascades, batch_size=BATCH
        )
        self.truth = [(_matches(r), _windows(r)) for r in multi.results]
        # The windowed query has the first query's predicate.
        brute = self._brute_shared(self.queries[:3], self.stream)
        self.brute = [*brute, brute[0]]

    def one_pass(self, ops: Ops, rate: float | None = None) -> tuple[Rep, list[float]]:
        """Feed every frame once through a fresh service stream.

        ``rate=None`` is the closed loop: feed as fast as ``block`` admits.
        Otherwise the open loop: frame ``i`` is due at ``t0 + (i + 1) / rate``
        and a 16-frame batch is fed when its last frame is due, however far
        behind the service is.  Returns the repetition and the ingest-to-emit
        latencies (ms, at reference host speed); how late the generator ran
        at worst is kept in ``late_ms``.
        """
        emitter = LatencyEmitter()
        service = QueryService(emitters=[emitter])
        service.attach_stream("cam", self.detector(), self.CONFIG)
        handles = [
            service.register("cam", query, cascade)
            for query, cascade in zip(self.queries, self.cascades)
        ]
        frames = self.frames
        fed = {"chunks": 0, "accepted": 0, "late": 0.0, "t0": 0.0}

        def feed_all() -> None:
            service.start()
            started = fed["t0"] = time.perf_counter()
            for start in range(0, len(frames), BATCH):
                batch = frames[start : start + BATCH]
                if rate is not None:
                    due = started + (batch[-1].index + 1) / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    fed["late"] = max(fed["late"], time.perf_counter() - due)
                fed["chunks"] += 1
                fed["accepted"] += service.feed("cam", batch)
            service.stop(drain=True)

        try:
            ops.call("service pass", feed_all)
            stats = service.stats().streams["cam"]
            report = service.shared_cost_report("cam")
        finally:
            results = service.close()
        wall, ref = ops.take_time()
        ops.count(
            fed["chunks"], fed["chunks"] - fed["accepted"] + stats.dropped_chunks, "fed chunks"
        )
        latencies: list[float] = []
        if rate is not None:
            slowdown = ops.clock.slowdown
            latencies = [
                (at - (fed["t0"] + (index + 1) / rate)) * 1000.0 / slowdown
                for at, index in emitter.events
            ]
            self.late_ms[rate] = max(self.late_ms.get(rate, 0.0), fed["late"] * 1000.0)
        final = [results.get(handle) for handle in handles]
        out = {
            "results": [(_matches(result), _windows(result)) for result in final],
            "dropped": stats.dropped_chunks,
            "emitter_errors": stats.emitter_errors,
            "high_water": stats.queue_high_water,
            "unique_steps": stats.unique_steps,
            "total_steps": stats.total_steps,
            **_scan_counters(final),
            # The detector runs once per frame on the union of survivors.
            "detector_frames": report.shared.per_component_calls.get("mask_rcnn", 0),
        }
        rep = Rep(
            wall, ref, len(frames), report.shared_ms, dict(report.shared.per_component_ms), out,
            digest_of(out["results"]),
        )
        return rep, latencies

    def repetition(self, ops: Ops) -> Rep:
        return self.one_pass(ops)[0]

    def measure(self, seconds: float, ops: Ops, min_reps: int = 3) -> list[Rep]:
        """Open-loop latency passes at the fixed rate, then closed-loop passes."""
        pass_s = len(self.frames) / self.size["rate"]
        deadline = time.perf_counter() + seconds * self.LATENCY_SHARE
        passes = 0
        while passes == 0 or time.perf_counter() + pass_s / 2 < deadline:
            rep, latencies = self.one_pass(ops, self.size["rate"])
            self.check(rep, ops)
            self.latencies_ms.extend(latencies)
            passes += 1
        # A closed-loop pass is short and two threads make it noisy: take more.
        return super().measure(seconds * (1.0 - self.LATENCY_SHARE), ops, min_reps + 2)

    def latency_ms(self, reps: list[Rep]) -> float:
        """Ingest-to-emit median over the pooled fixed-rate passes."""
        return statistics.median(self.latencies_ms)

    def trace_extras(self, ops: Ops) -> dict[str, float]:
        """Fixed-rate diagnostics: the latency tail, and one pass at the fast rate."""
        rate, fast_rate = self.size["rate"], self.size["fast_rate"]
        rep, fast = self.one_pass(ops, fast_rate)
        self.check(rep, ops)
        ordered = sorted(self.latencies_ms)
        p95 = int(0.95 * len(ordered))
        return {
            "service.emit_p95_ms": ordered[p95],
            "service.emit_samples": len(ordered),
            "service.emit_beyond_p95": len(ordered) - p95 - 1,
            "service.emit_p50_ms_600": statistics.median(fast),
            "service.late_max_ms_300": self.late_ms[rate],
            "service.late_max_ms_600": self.late_ms[fast_rate],
        }

    def check(self, rep: Rep, ops: Ops) -> None:
        out = rep.out
        for query, got, want, brute in zip(self.queries, out["results"], self.truth, self.brute):
            ops.check(f"{query.name} service == one-shot execute_many", got == want)
            ops.check(f"{query.name} precision", set(got[0]) <= set(brute))
        ops.check("zero dropped chunks", out["dropped"] == 0, str(out["dropped"]))
        ops.check("zero emitter errors", out["emitter_errors"] == 0, str(out["emitter_errors"]))

    def quality(self, rep: Rep) -> dict[str, float]:
        found = [matches for matches, _ in rep.out["results"]]
        recall, precision = pooled_accuracy(zip(found, self.brute))
        return {"recall": recall, "precision": precision}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        Table3Batched,
        Table3PerFrame,
        BruteforceDense,
        NeuralCascade,
        TemporalLowMotion,
        ServiceStanding,
        AggregateCV,
    )
}
