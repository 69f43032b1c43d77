"""Span recorder and outside-in wrappers for the ledger's traced repetition.

The ledger measures layers from outside ``src/``: for the traced repetition
only, :func:`installed` replaces a fixed list of *public* ``repro`` methods
(:data:`TARGETS`) with thin wrappers at class level, and restores them on
exit.  Each wrapped call records one span: name, layer, start, end, the span
that caused it (a thread-local parent stack) and the thread.  Spans stay in
memory and are written as NDJSON when the benchmark ends.

A layer's *self time* is its span's duration minus the part its child spans
cover, so the self times of one thread sum to the duration of that thread's
root spans.  A target that no longer exists (renamed or removed by a
refactor) is skipped with a warning and every metric built on its span name
reads ``None`` instead of a silently smaller number.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

# A span is a list mutated in place when the call returns; the indices below
# name its fields.  CHILD accumulates the duration of direct child spans.
NAME, LAYER, THREAD, START, END, PARENT, CHILD, UNITS = range(8)


@dataclass(frozen=True)
class Target:
    """One public method the traced repetition wraps."""

    module: str
    owner: str
    attr: str
    #: span name, ``<layer>.<what>``
    span: str
    #: work units of one call (frames in a batch, samples of an estimate)
    units: Callable[[tuple, dict], int] | None = None
    #: queue bookkeeping run after the call: ``"enqueue"`` / ``"dequeue"``
    hook: str | None = None

    @property
    def layer(self) -> str:
        return self.span.split(".")[0]

    @property
    def label(self) -> str:
        return f"{self.module}.{self.owner}.{self.attr}"


def _batch_len(args: tuple, kwargs: dict) -> int:
    """Length of the first argument after ``self``, positional or keyword."""
    return len(args[1] if len(args) > 1 else next(iter(kwargs.values())))


def _sample_size(args: tuple, kwargs: dict) -> int:
    return int(kwargs["sample_size"] if "sample_size" in kwargs else args[3])


def _targets() -> tuple[Target, ...]:
    rows: list[tuple] = [
        ("repro.video.stream", "VideoStream", "frame", "video.frame"),
        ("repro.video.renderer", "FrameRenderer", "render", "video.render"),
        ("repro.detection.backbone", "FeatureBackbone", "extract", "detection.backbone"),
        ("repro.detection.backbone", "FeatureBackbone", "extract_batch", "detection.backbone",
         _batch_len),
        ("repro.detection.oracle", "ReferenceDetector", "detect", "detection.detect"),
    ]
    for module, owner in (
        ("repro.filters.branch", "LinearBranchFilter"),
        ("repro.filters.branch", "PooledCountFilter"),
        ("repro.filters.neural", "NeuralBranchFilter"),
    ):
        rows.append((module, owner, "predict", "filters.predict"))
        rows.append((module, owner, "predict_batch", "filters.predict", _batch_len))
    rows += [
        ("repro.nn.network", "MultiHeadNetwork", "forward", "nn.forward", _batch_len),
        ("repro.query.planner", "QueryPlanner", "plan", "query.plan"),
        ("repro.query.executor", "StreamingQueryExecutor", "execute", "query.execute"),
        ("repro.query.executor", "StreamingQueryExecutor", "execute_many", "query.execute"),
        ("repro.query.executor", "StreamingQueryExecutor", "execute_aggregate", "query.execute"),
        ("repro.query.session", "ScanSession", "push_chunk", "query.push_chunk", _batch_len),
        ("repro.aggregates.monitor", "AggregateMonitor", "estimate", "aggregates.estimate",
         _sample_size),
        ("repro.service.ingest", "IngestionQueue", "put", "service.put", None, "enqueue"),
        ("repro.service.ingest", "IngestionQueue", "get", "service.get", None, "dequeue"),
        # The benchmark's own emitter (ledger_workloads.py), not a repro name.
        ("ledger_workloads", "LatencyEmitter", "emit", "service.emit"),
    ]
    return tuple(Target(*row) for row in rows)


#: The public ``repro`` names the ledger pins (benchmarks/ledger/README.md
#: lists them for whoever collapses the executor).
TARGETS: tuple[Target, ...] = _targets()


class SpanRecorder:
    """In-memory span store with a thread-local parent stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: span names with at least one target that could not be wrapped
        self.missing: set[str] = set()
        #: seconds each dequeued chunk spent queued (enqueue end -> dequeue end)
        self.queue_waits: list[float] = []
        self._enqueued: dict[int, float] = {}
        self._local = threading.local()

    def wrap(self, original: Callable, target: Target) -> Callable:
        spans = self.spans
        local = self._local
        name, layer, units, hook = target.span, target.layer, target.units, target.hook
        clock = time.perf_counter
        ident = threading.get_ident

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [name, layer, ident(), clock(), 0.0, parent, 0.0,
                    units(args, kwargs) if units is not None else 1]
            stack.append(span)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = span[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += end - span[START]
                spans.append(span)
                if hook is not None:
                    self._queue_hook(hook, args, result, end)

        traced.__wrapped__ = original
        return traced

    def _queue_hook(self, hook: str, args: tuple, result: object, end: float) -> None:
        if hook == "enqueue":
            if result:
                self._enqueued[id(args[1])] = end
        elif result is not None:
            queued_at = self._enqueued.pop(id(result), None)
            if queued_at is not None:
                self.queue_waits.append(end - queued_at)

    # -- summaries -------------------------------------------------------
    def named(self, name: str) -> list[list] | None:
        """Spans called ``name``; ``None`` when one of its targets is missing."""
        if name in self.missing:
            return None
        return [span for span in self.spans if span[NAME] == name]

    def calls(self, name: str) -> int | None:
        spans = self.named(name)
        return None if spans is None else len(spans)

    def units(self, name: str) -> int | None:
        spans = self.named(name)
        return None if spans is None else sum(span[UNITS] for span in spans)

    def self_seconds(self, name: str) -> float | None:
        spans = self.named(name)
        if spans is None:
            return None
        return sum(span[END] - span[START] - span[CHILD] for span in spans)

    def total_seconds(self, name: str) -> float | None:
        spans = self.named(name)
        if spans is None:
            return None
        return sum(span[END] - span[START] for span in spans)

    def layer_self_seconds(self, layer: str) -> float | None:
        """Self time of every span of ``layer`` (``None`` if any is missing)."""
        if {target.span for target in TARGETS if target.layer == layer} & self.missing:
            return None
        return sum(
            span[END] - span[START] - span[CHILD]
            for span in self.spans
            if span[LAYER] == layer
        )

    def busiest_thread_root_seconds(self) -> float:
        """Root-span seconds of the thread that recorded the most of them."""
        per_thread: dict[int, float] = {}
        for span in self.spans:
            if span[PARENT] is None:
                per_thread[span[THREAD]] = (
                    per_thread.get(span[THREAD], 0.0) + span[END] - span[START]
                )
        return max(per_thread.values(), default=0.0)

    def write_ndjson(self, path) -> None:
        """One JSON object per span: id, name, layer, start, end, parent, thread."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                parent = span[PARENT]
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "layer": span[LAYER],
                            "start": span[START],
                            "end": span[END],
                            "parent": ids.get(id(parent)) if parent is not None else None,
                            "thread": span[THREAD],
                            "units": span[UNITS],
                        }
                    )
                    + "\n"
                )


def _resolve(target: Target) -> tuple[type, Callable] | None:
    """The class that owns ``target`` and its current attribute, if both exist."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    owner = getattr(module, target.owner, None)
    if not isinstance(owner, type):
        return None
    original = owner.__dict__.get(target.attr)
    if not callable(original):
        return None
    return owner, original


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every resolvable target of :data:`TARGETS` for the duration of the block.

    Wrapping is at class level, so instances created before the block are
    traced too.  Every wrapper is removed on exit, error or not.
    """
    restore: list[tuple[type, str, Callable]] = []
    try:
        for target in TARGETS:
            resolved = _resolve(target)
            if resolved is None:
                recorder.missing.add(target.span)
                warnings.warn(
                    f"ledger trace target {target.label} not found; metrics built "
                    f"on span {target.span!r} read null",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue
            owner, original = resolved
            setattr(owner, target.attr, recorder.wrap(original, target))
            restore.append((owner, target.attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
