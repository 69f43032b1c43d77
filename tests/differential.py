"""The differential harness: every engine configuration against one reference.

A :class:`Scenario` unrolls into a ``VideoStream`` (``SceneConfig`` /
``SceneSimulator`` / ``FrameRenderer``, like a closed-loop simulation
unroll) and is crossed with :func:`build_queries` and the id-named
:data:`CONFIGS`.  :meth:`Harness.run` returns a config's *dump*, every
result record as nested dicts, and :func:`normalize` drops what legitimately
varies; DESIGN.md "Differential harness" states the relations.
``python -m tests.differential OUT [ID ...]`` (repository root, a tree's
``src`` on ``PYTHONPATH``) writes the normalized dumps of the named configs,
all by default, to ``OUT`` as JSON; ``tools/parity_dump.py`` runs it.
"""

from __future__ import annotations

import json
import pickle
import sys
import warnings
from contextlib import nullcontext
from dataclasses import asdict, replace
from typing import NamedTuple

from repro.aggregates import AggregateQuerySpec, query_indicator_control
from repro.aggregates.controls import class_count_control
from repro.cost import RETRY_BACKOFF_COMPONENT
from repro.detection import ReferenceDetector
from repro.faults import FaultInjector
from repro.query import (
    ParallelConfig, PlannerConfig, QueryBuilder, QueryPlanner,
    StreamingQueryExecutor, TemporalConfig, brute_force_execute,
)
from repro.service import QueryService, StreamConfig
from repro.video.datasets import JACKSON_PROFILE
from repro.video.renderer import FrameRenderer, RendererConfig
from repro.video.scene import SceneConfig, SceneSimulator
from repro.video.stream import VideoStream

#: ``tiny_jackson``'s seed in ``tests/conftest.py``: as the renderer seed it
#: is the camera background the session filters were trained on (at 112 px)
CAMERA_SEED = 3
CLASS_NAMES = ("car", "person")
DETECTOR_SEED = 77


class Scenario(NamedTuple):
    """Scene parameters of one stream; ``count_autocorrelation`` near 1
    holds the count steady (low motion), the rest of ``person_share`` are cars."""

    name: str
    num_frames: int
    mean_count: float
    std_count: float
    count_autocorrelation: float
    person_share: float
    pixel_noise: float
    seed: int

    def unroll(self) -> VideoStream:
        classes = {entry.class_name: entry for entry in JACKSON_PROFILE.classes}
        shares = {"car": 1.0 - self.person_share, "person": self.person_share}
        mix = tuple(replace(classes[name], frequency=f) for name, f in shares.items() if f > 0)
        scene = SceneSimulator(
            SceneConfig(448, 448, self.num_frames, self.mean_count, self.std_count,
                        self.count_autocorrelation, mix, max_count=8, seed=self.seed)
        ).simulate()
        renderer = FrameRenderer(
            RendererConfig(output_size=112, background_color=JACKSON_PROFILE.background_color,
                           background_texture=JACKSON_PROFILE.background_texture,
                           pixel_noise=self.pixel_noise, seed=CAMERA_SEED)
        )
        return VideoStream(scene=scene, renderer=renderer, name=self.name)


SCENARIOS = (
    Scenario("jackson", 32, 1.2, 0.5, 0.98, 0.2, 4.0, 5),
    Scenario("crowd", 32, 4.0, 2.0, 0.6, 0.4, 6.0, 8),
    Scenario("still", 32, 2.0, 0.0, 0.999, 0.3, 1.0, 13),
)


def build_queries() -> list:
    """Count comparisons (strict ones too), a spatial relation, a hopping
    window with and one without gaps, and a provably-empty query."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the contradiction lints at build
        return [
            QueryBuilder("cars").count("car").at_least(1).build(),
            QueryBuilder("two_plus_cars").count("car").greater_than(1).build(),
            QueryBuilder("few_people").count("person").less_than(2).count("car").at_least(1).build(),
            QueryBuilder("car_left_of_person").count("car").equals(1).count("person").equals(1)
            .spatial("car").left_of("person").build(),
            QueryBuilder("hopping").count("car").at_least(1).window(20, 10).build(),
            QueryBuilder("gapped").count("car").equals(1).window(8, 11).build(),
            QueryBuilder("never").count("car").at_least(3).count("car").at_most(1).build(),
        ]


#: unordered frame indices with repeats, as ``frame_indices`` may give them
UNORDERED = (7, 3, 7, 12, 3, 31, 7, 0, 29, 12, 25, 25, 1, 30)


class EngineConfig(NamedTuple):
    """One way to run the queries.

    ``entry``: ``many`` (``execute_many``), ``solo`` (``execute`` per
    query), ``aggregate`` (``execute_aggregate``) or ``service`` (a
    ``QueryService`` replay scanning ``chunk_size`` chunks, fed ``feed``
    frames at a time, synchronously or, ``started``, through the shard's
    queue and thread; with a ``cut``, checkpointed there and resumed in a
    fresh service; with a ``peer``, beside a second, idle stream, so an
    ungated shard filters inline rather than on its default pool).
    ``cascades``: ``planned`` or ``none``.  ``faults``: ``(site, key,
    count)`` of a recoverable schedule, or ``()``.
    """

    id: str
    entry: str = "many"
    batch_size: int | None = None
    parallel: ParallelConfig | None = None
    temporal: TemporalConfig | None = None
    cascades: str = "planned"
    frame_indices: tuple[int, ...] | None = None
    include_partial_windows: bool = True
    chunk_size: int = 16
    feed: int = 16
    cut: int = 0
    faults: tuple = ()
    started: bool = False
    peer: bool = False

    @property
    def exactness(self) -> str:
        """What R2 holds the config to: ``exact``; ``approximate`` (R4 only)."""
        if self.temporal is not None and not self.temporal.exact:
            return "approximate"
        return "exact"


THREADS = ParallelConfig(num_workers=2)
SUPERVISED = replace(THREADS, supervise=True, worker_timeout_seconds=0.2)
GATED = TemporalConfig(delta_threshold=30.0, keyframe_interval=10)
STRIDED = replace(GATED, max_stride=8)
APPROXIMATE = replace(GATED, exact=False, max_stride=4)
_C = EngineConfig

CONFIGS = (
    _C("inline"),
    _C("batch1", batch_size=1),
    _C("batch7", batch_size=7),
    _C("batch-whole", batch_size=64),
    _C("batch7-fixed-windows", batch_size=7, include_partial_windows=False),
    _C("thread2", parallel=THREADS, batch_size=5),
    _C("thread2-fixed-windows", parallel=THREADS, batch_size=5, include_partial_windows=False),
    _C("thread2-batch7", parallel=THREADS, batch_size=7),
    _C("temporal-exact", temporal=GATED),
    _C("temporal-exact-stride8", temporal=STRIDED),
    _C("temporal-approximate", temporal=APPROXIMATE),
    _C("unordered", frame_indices=UNORDERED),
    _C("unordered-batch7", frame_indices=UNORDERED, batch_size=7),
    _C("unordered-thread2", frame_indices=UNORDERED, parallel=THREADS, batch_size=5),
    _C("no-cascades", cascades="none"),
    _C("no-cascades-batch7", cascades="none", batch_size=7),
    _C("execute-batch7", "solo", batch_size=7),
    _C("execute-unordered-batch7", "solo", batch_size=7, frame_indices=UNORDERED),
    _C("aggregate", "aggregate"),
    _C("aggregate-temporal", "aggregate", temporal=GATED),
    _C("aggregate-temporal-approximate", "aggregate", temporal=replace(GATED, exact=False)),
    _C("service-7-by-13", "service", chunk_size=7, feed=13, peer=True),
    _C("service-16-by-50", "service", chunk_size=16, feed=50),
    _C("service-started-7-by-13", "service", chunk_size=7, feed=13, started=True),
    _C("service-thread2", "service", parallel=THREADS, chunk_size=5, feed=7),
    _C("service-temporal", "service", temporal=GATED, chunk_size=7, feed=13),
    _C("checkpoint-at-20", "service", chunk_size=10, feed=10, cut=20),
    _C("checkpoint-at-20-thread2", "service", parallel=THREADS, chunk_size=10, feed=10, cut=20),
    _C("checkpoint-at-22-temporal", "service", temporal=GATED, chunk_size=11, feed=11, cut=22),
    _C("checkpoint-at-22-temporal-approximate", "service", temporal=replace(GATED, exact=False),
       chunk_size=11, feed=11, cut=22),
    _C("supervised-thread2", parallel=SUPERVISED, batch_size=5),
)


def _faulted(base: str, site: str, key, count: int = 1) -> EngineConfig:
    """Config ``base`` under ``count`` recoverable faults at ``(site, key)``."""
    config = CONFIGS[[config.id for config in CONFIGS].index(base)]
    label = f"{base}+{site}@{key}" + (f"x{count}" if count > 1 else "")
    return config._replace(id=label, faults=(site, key, count))


CONFIGS += (
    _faulted("batch7", "decode", 3),
    _faulted("inline", "decode", 3, 2),
    _faulted("batch7", "filter", 7),
    _faulted("no-cascades-batch7", "detector", 5, 2),
    _faulted("no-cascades", "decode", 3),  # retried on a render-ahead thread
    _faulted("temporal-exact", "filter", 0),
    _faulted("temporal-approximate", "filter", 0),
    _faulted("service-7-by-13", "filter", 7),
    _faulted("service-7-by-13", "shard_crash", "cam:2"),
    _faulted("service-16-by-50", "filter", 16),
    _faulted("supervised-thread2", "worker_crash", 1),
    _faulted("supervised-thread2", "worker_stall", 2),  # 0.25 s, past the 0.2 s timeout
)
CONFIG_IDS = tuple(config.id for config in CONFIGS)


def reference_of(config: EngineConfig) -> EngineConfig:
    """What R2 holds ``config`` to: its queries, cascades and coverage run
    inline, one frame at a time, without faults."""
    if config.entry == "aggregate":
        return EngineConfig("aggregate", "aggregate")
    return EngineConfig("inline", batch_size=1, cascades=config.cascades,
                        frame_indices=config.frame_indices,
                        include_partial_windows=config.include_partial_windows)


def without_faults(config: EngineConfig) -> EngineConfig:
    """The config a fault schedule was added to: R4's fault-free twin."""
    return CONFIGS[CONFIG_IDS.index(config.id.split("+")[0])]


class Prefix:
    """The first ``length`` frames of a stream, each rendered once into
    ``rendered``: what a scan reads of one."""

    def __init__(self, stream: VideoStream, length: int, rendered: dict) -> None:
        self._stream, self._length, self._rendered = stream, length, rendered

    def __len__(self) -> int:
        return self._length

    def frame(self, index: int):
        if index not in self._rendered:
            self._rendered[index] = self._stream.frame(index)
        return self._rendered[index]


class Harness:
    """The planned queries over trained filters; runs configs and the oracle,
    and keeps one stream, dump and oracle answer per key."""

    def __init__(self, filters: dict) -> None:
        self.filters = filters
        self.queries = build_queries()
        planner = QueryPlanner(filters, PlannerConfig(count_tolerance=1, location_dilation=1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self._planned = [planner.plan(query) for query in self.queries]
        self._streams: dict = {}
        self._rendered: dict = {}
        self._dumps: dict = {}
        self._oracles: dict = {}

    def stream(self, scenario: Scenario) -> VideoStream:
        if scenario not in self._streams:
            self._streams[scenario] = scenario.unroll()
        return self._streams[scenario]

    def rendered(self, scenario: Scenario, length: int | None = None) -> Prefix:
        """The scenario's stream with each frame rendered once per harness,
        for the oracle; no config reads it, so decode faults keep their site."""
        frames = self._rendered.setdefault(scenario, {})
        return Prefix(self.stream(scenario), length or scenario.num_frames, frames)

    def dump(self, config: EngineConfig, scenario: Scenario = SCENARIOS[0]) -> dict:
        """:meth:`run`, once per config (its id aside) and scenario."""
        key = (config._replace(id=""), scenario)
        if key not in self._dumps:
            self._dumps[key] = self.run(config, scenario)
        return self._dumps[key]

    def oracle(self, scenario: Scenario, position: int, frame_indices) -> dict:
        """``brute_force_execute`` of query ``position``, once per key."""
        key = (scenario, position, frame_indices)
        if key not in self._oracles:
            self._oracles[key] = asdict(brute_force_execute(
                self.queries[position], self.rendered(scenario),
                ReferenceDetector(CLASS_NAMES, seed=DETECTOR_SEED),
                frame_indices=None if frame_indices is None else list(frame_indices),
            ))
        return self._oracles[key]

    def cascades(self, variant: str) -> list:
        if variant == "none":
            return [None] * len(self.queries)
        return list(self._planned)

    def executor(self) -> StreamingQueryExecutor:
        return StreamingQueryExecutor(ReferenceDetector(CLASS_NAMES, seed=DETECTOR_SEED))

    def run(self, config: EngineConfig, scenario: Scenario = SCENARIOS[0]) -> dict:
        """``config``'s dump over ``scenario``, not normalized."""
        stream, cascades = self.stream(scenario), self.cascades(config.cascades)
        injector = config.faults and FaultInjector(schedule={config.faults[:2]: config.faults[2]})
        with warnings.catch_warnings(), injector or nullcontext():
            warnings.simplefilter("ignore")  # window tail drops
            dump = getattr(self, "_" + config.entry)(config, stream, cascades)
        if injector and injector.unfired():
            raise RuntimeError(f"{config.id}: scheduled faults never fired {injector.unfired()}")
        return dump

    def _many(self, config, stream, cascades) -> dict:
        result = self.executor().execute_many(self.queries, stream, cascades, **_options(config))
        return {"queries": [asdict(single) for single in result], "shared": asdict(result.shared)}

    def _solo(self, config, stream, cascades) -> dict:
        return {"queries": [
            asdict(self.executor().execute(query, stream, cascade, **_options(config)))
            for query, cascade in zip(self.queries, cascades)
        ]}

    def _aggregate(self, config, stream, cascades) -> dict:
        runs = []
        # The plain count query and the hopping one; 20 samples span three of
        # the sampler's 8-frame filter tiles, the last one partial.
        for position in (0, 4):
            query = self.queries[position]
            spec = AggregateQuerySpec.from_query(
                query, [query_indicator_control(query), class_count_control("car")]
            )
            runs.append(_aggregate_dump(self.executor().execute_aggregate(
                spec, stream, cascades[position], sample_size=20, repetitions=2, seed=7,
                temporal=config.temporal,
            )))
        return {"aggregates": runs}

    def _service(self, config, stream, cascades) -> dict:
        frames = [stream.frame(index) for index in range(len(stream))]
        service, handles = self._attach(config, cascades)
        if config.cut:  # checkpoint at the cut and resume in a fresh service
            self._feed(service, config, frames[: config.cut])
            snapshot = pickle.loads(pickle.dumps(service.checkpoint("cam")))
            service.close()
            service, handles = self._attach(config, cascades)
            service.restore_stream("cam", snapshot)
        if config.started:
            service.start()
        self._feed(service, config, frames[config.cut :])
        results = service.close()
        return {"queries": [asdict(results[handle]) for handle in handles]}

    def _attach(self, config, cascades):
        service = QueryService()
        service.attach_stream(
            "cam", ReferenceDetector(CLASS_NAMES, seed=DETECTOR_SEED),
            StreamConfig(config.chunk_size, temporal=config.temporal, parallel=config.parallel),
        )
        if config.peer:
            service.attach_stream("peer", ReferenceDetector(CLASS_NAMES, seed=DETECTOR_SEED))
        return service, [service.register("cam", *pair) for pair in zip(self.queries, cascades)]

    @staticmethod
    def _feed(service, config, frames) -> None:
        for begin in range(0, len(frames), config.feed):
            service.feed("cam", frames[begin : begin + config.feed])


def _options(config: EngineConfig) -> dict:
    indices = config.frame_indices
    return dict(frame_indices=None if indices is None else list(indices),
                batch_size=config.batch_size, temporal=config.temporal, parallel=config.parallel,
                include_partial_windows=config.include_partial_windows)


def _aggregate_dump(result) -> dict:
    """``asdict(result)`` with each plain estimate's confidence interval, read
    explicitly: it is computed on first read, so it is no dataclass field."""
    dump = asdict(result)
    pairs = list(zip(result.reports, dump["reports"]))
    for window, entry in zip(result.windows or (), dump["windows"] or ()):
        pairs += zip(window.reports, entry["reports"])
    for report, entry in pairs:
        entry["plain"]["confidence_interval"] = report.plain.confidence_interval
    return dump


#: Fields that legitimately vary, dropped wherever they occur: the host's
#: wall clock, which worker thread took which chunk (``per_worker``, and
#: ``merged``, their sum by worker), and what a recovered run adds to a
#: clean one (the fault report, the respawns and re-dispatches a stall
#: causes).
DROPPED_FIELDS = frozenset(
    {"wall_clock_seconds", "per_worker", "merged", "faults", "respawns", "redispatches"}
)


def normalize(dump):
    """``dump`` without :data:`DROPPED_FIELDS` or the backoff a retry books
    on the scan clock (``RETRY_BACKOFF_COMPONENT``: the fault report's
    ``backoff_ms``, charged where the cost is); tuples become lists."""
    if isinstance(dump, dict):
        return {
            key: normalize(value) for key, value in dump.items()
            if key not in DROPPED_FIELDS and key != RETRY_BACKOFF_COMPONENT
        }
    if isinstance(dump, (list, tuple)):
        return [normalize(item) for item in dump]
    return dump


def first_difference(left, right, path: str = "") -> str | None:
    """The first field path at which two dumps differ (``None``: equal)."""
    if isinstance(left, dict) and isinstance(right, dict):
        if set(left) != set(right):
            return f"{path}.{min(set(left) ^ set(right), key=str)}".lstrip(".")
        pairs = [(f"{path}.{key}", left[key], right[key]) for key in sorted(left, key=str)]
    elif isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        if len(left) != len(right):
            return f"{path}.length".lstrip(".")
        pairs = [(f"{path}[{k}]", *pair) for k, pair in enumerate(zip(left, right))]
    else:
        same = left == right or (left != left and right != right)  # NaN equals NaN
        return None if same else (path.lstrip(".") or "<root>")
    found = (first_difference(mine, theirs, where) for where, mine, theirs in pairs)
    return next((where for where in found if where is not None), None)


def train_filters() -> dict:
    """The filters of ``tests/conftest.py``'s session fixtures, trained afresh."""
    from repro.filters import FilterTrainer
    from repro.video import build_jackson

    dataset = build_jackson(train_size=90, val_size=20, test_size=50, seed=CAMERA_SEED)
    trainer = FilterTrainer(dataset=dataset, max_train_frames=80, background_frames=20)
    return {"od": trainer.train_od_filter(), "od_cof": trainer.train_od_count_classifier()}


if __name__ == "__main__":
    harness, dumps = Harness(train_filters()), {}
    for config_id in sys.argv[2:] or CONFIG_IDS:
        try:
            dumps[config_id] = normalize(harness.run(CONFIGS[CONFIG_IDS.index(config_id)]))
        except Exception as error:  # a config that raises differs too
            dumps[config_id] = {"error": f"{type(error).__name__}: {error}"}
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(dumps, handle, sort_keys=True, default=str)
