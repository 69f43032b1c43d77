#!/usr/bin/env python3
"""Repo-specific invariant lint (stdlib only — runs before any dependency install).

Checks structural invariants the test suite cannot see but the engine relies
on.  Each rule prints ``INV0xx`` findings with file:line locations and the
script exits non-zero when any rule is violated.

* **INV001 — planner checks stay frozen dataclasses.**  Every ``*Check``
  class in ``repro/query/planner.py`` must be decorated
  ``@dataclass(frozen=True)``: every filter worker thread runs its own deep
  copy of the cascade, and deduped steps share one check's outcome across
  queries, so a check must hold no state a call could change — then every
  copy and every sharer decides alike.
* **INV002 — no lambda checks in planner-built cascades.**  A ``check=``
  keyword in ``repro/query/planner.py`` must not be a lambda: a lambda
  slips past INV001, closing over planner locals (a late-bound loop
  variable decides for the last predicate only) instead of holding its
  values frozen.
* **INV003 — no frame mutation in worker paths.**  In the executor /
  parallel / temporal modules, nothing may assign to attributes or elements
  of objects named ``frame`` / ``frames`` / ``images``: one rendered frame
  is shared by every query of a scan, and a chunk's frames are read by a
  filter worker thread while the merge thread and the decode-ahead window
  still hold them, so a mutation in one path corrupts every other reader.
* **INV004 — worker clocks are constructed in exactly one place.**  In
  ``repro/query/parallel.py``, ``SimulatedClock(...)`` may only be called
  inside ``WorkerSupervisor._build_pool``, which builds each pool worker
  with its private clock once: a clock constructed per chunk or inside a
  task function would silently drop simulated cost between merge points.
* **INV005 — diagnostic codes and the README table stay in sync.**  Every
  code registered in ``repro/query/diagnostics.py`` must appear in
  README.md (and no unregistered ``QA/PL`` code may appear in the
  registry section of the README).
* **INV006 — the shape-interpreter code family stays registered.**  The
  ``NN0xx`` (shape/dtype) codes that the analyzer emits must all exist in
  ``DIAGNOSTIC_CODES`` — an emitted-but-unregistered code raises
  ``ValueError`` at diagnostic construction, i.e. at the worst possible
  moment (mid-scan, inside a worker).  Combined with INV005 this also
  forces them into the README table.
* **INV007 — hook slots are zero-overhead when empty.**  In every module
  under ``src/repro/`` (except ``hooks.py`` and the module that owns the
  slot, ``faults/injector.py``), each read of ``hooks.injector`` is the
  test or sits in the body of an ``if hooks.injector is not None:`` — so
  with no fault injector installed the hot paths pay one attribute load
  per site and stay bit-identical to an engine without hooks.
  ``from repro.hooks import injector`` is rejected (a name bound at import
  time never sees an installation).  The rule
  finds the sites itself; there is no table of them to keep in step.
  (INV009 was this rule's copy for the fault layer; the number is retired.)
* **INV008 — registry membership is only mutated under the registry lock.**
  In ``repro/service/registry.py`` every mutation of ``self._entries`` /
  ``self._by_stream`` (assignment, ``del``, or a mutator method call) must
  sit inside a ``with self._lock:`` body (or ``__init__``): the standing-
  query service mutates membership from the caller thread while shard
  workers read it from ``_entry_for_sid``, so an unlocked mutation is a
  data race on live emission routing.
* **INV010 — one gate loop, one cascade walk.**  ``DeltaGate.decide`` /
  ``set_keyframe`` / ``replace_outcome`` may only be called inside
  ``repro/query/temporal.py`` (``TemporalScan`` is the one gate loop; its
  callers supply callbacks), and no module under ``src/repro/`` may call a
  filter's per-frame ``.predict(`` except ``FrameFilter.predict_batch``'s
  fallback in ``repro/filters/base.py``: a scan predicts through
  ``run_filter_chunk``'s ``predict_batch`` (a chunk of one included), and the
  experiments through ``ExperimentContext.predicted_chunks``.  A third gate
  loop, a second cascade walk or a second, per-frame way of scoring a filter
  fails CI here.
* **INV011 — decode-ahead pools are constructed in exactly one place.**
  Under ``src/repro/``, ``FramePrefetcher(...)`` may only be called inside
  ``decode_ahead``, the context manager that closes the pool on every exit
  path: a bare constructor is how a failed scan leaks decode-ahead threads.
  INV004's checker, one more row of ``SOLE_CONSTRUCTION_SITES``.
* **INV012 — the oracle imports nothing of the engine.**
  ``repro/query/oracle.py`` (``brute_force_execute``, what every engine
  configuration is tested against) may not import
  ``repro.query.{executor,session,parallel,temporal,planner}``, absolutely
  or relatively: an oracle that shares its window partition or its cascade
  description with the engine checks the engine against itself.
* **INV013 — nothing sets another object's clock.**  Under ``src/repro/``
  no code may assign ``<expr>.clock`` (or ``setattr(<expr>, "clock", ...)``)
  unless ``<expr>`` is ``self``: filters and detectors carry no clock, and
  the scan that schedules a call charges it to its own clock.  Swapping a
  clock into a shared object is how one stream's work used to land on
  another stream's clock.
* **INV014 — scipy only as ``scipy.special``, only for the t-interval.**
  Under ``src/repro/`` the one scipy import allowed is of ``scipy.special``
  (or a submodule of it), made directly in the body of
  ``SampleEstimate.confidence_interval`` in ``repro/aggregates/sampling.py``:
  the interval is computed when first read, so only a caller that reads it
  loads scipy.  Every other scipy module, ``import scipy`` itself, and a
  ``scipy.special`` import anywhere else (module or class level, another
  function, a function nested in the interval's) are rejected.  ``import
  repro`` loads whatever the package imports at module level:
  ``scipy.stats`` alone was ~43 MB of every process's resident memory, and
  any scipy submodule pulls in ``scipy._lib`` (~20 MB), for grid operations
  numpy does exactly (``repro.spatial.grid``).  ``scipy.special`` imported
  by every estimate was ~15 MB of the peak of a process that estimates
  aggregates but reads no interval.
* **INV015 — the scene simulator tests visibility with floats.**  No method
  of ``SceneSimulator`` (``repro/video/scene.py``) may call ``state_at``,
  ``Box(...)``, ``Box.from_center`` or ``.clipped(``: the simulator asks
  whether every live track overlaps the frame at every frame, and building an
  ``ObjectState`` and two ``Box`` objects to answer was more than half of
  every dataset build.  ``TrackedObject.visible_at`` answers with the same
  arithmetic in the same order.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

PLANNER = SRC / "query" / "planner.py"
DIAGNOSTICS = SRC / "query" / "diagnostics.py"
README = REPO / "README.md"
WORKER_PATH_MODULES = (
    SRC / "query" / "executor.py",
    SRC / "query" / "parallel.py",
    SRC / "query" / "temporal.py",
)
FRAME_NAMES = {"frame", "frames", "images"}

#: codes the shape interpreter emits (INV006); keep in sync with
#: repro/nn/shapes.py
ANALYZER_CODES = ("NN001", "NN002", "NN003", "NN004", "NN005")

#: constructors only one function may call (INV004, INV011):
#: (rule, constructor, that function, file or tree walked, why)
SOLE_CONSTRUCTION_SITES = (
    ("INV004", "SimulatedClock", "_build_pool", SRC / "query" / "parallel.py",
     "per-chunk clocks drop simulated cost between merge points"),
    ("INV011", "FramePrefetcher", "decode_ahead", SRC,
     "a bare constructor is how a failed scan leaks decode-ahead threads"),
)

#: the slots of repro/hooks.py (tests/test_lint_invariants.py holds the two
#: tuples equal), and the modules INV007 does not walk: the slot module and
#: each slot's owner, which hands it out unguarded (current_injector())
HOOK_SLOTS = ("injector",)
HOOK_OWNERS = (SRC / "hooks.py", SRC / "faults" / "injector.py")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_frozen_dataclass_decorator(node: ast.expr) -> bool:
    """``@dataclass(frozen=True)`` (possibly via ``dataclasses.dataclass``)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "dataclass":
        return False
    return any(
        keyword.arg == "frozen"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in node.keywords
    )


def check_planner_checks_frozen(findings: list[str]) -> None:
    tree = _parse(PLANNER)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not node.name.endswith("Check"):
            continue
        if not any(_is_frozen_dataclass_decorator(d) for d in node.decorator_list):
            findings.append(
                f"INV001 {PLANNER.relative_to(REPO)}:{node.lineno}: "
                f"{node.name} must be a @dataclass(frozen=True) — every "
                "worker's cascade copy and every deduped sharer must decide alike"
            )


def check_no_lambda_checks(findings: list[str]) -> None:
    tree = _parse(PLANNER)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for keyword in node.keywords:
            if keyword.arg == "check" and isinstance(keyword.value, ast.Lambda):
                findings.append(
                    f"INV002 {PLANNER.relative_to(REPO)}:{keyword.value.lineno}: "
                    "planner passes a lambda as check= — it closes over "
                    "planner locals; use a module-level frozen dataclass"
                )


def _assignment_targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.target is not None:
        return [node.target]
    return []


def check_no_frame_mutation(findings: list[str]) -> None:
    for path in WORKER_PATH_MODULES:
        tree = _parse(path)
        for node in ast.walk(tree):
            for target in _assignment_targets(node):
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                base = target.value
                if isinstance(base, ast.Name) and base.id in FRAME_NAMES:
                    findings.append(
                        f"INV003 {path.relative_to(REPO)}:{node.lineno}: "
                        f"mutation of {base.id!r} — frames are shared across "
                        "queries/workers and must stay immutable"
                    )


def construction_findings(tree: ast.Module, where: str, site: tuple) -> list[str]:
    """One row of ``SOLE_CONSTRUCTION_SITES`` over one parsed module."""
    rule, constructor, allowed, _, why = site
    allowed_spans = [
        (node.lineno, node.end_lineno or node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == allowed
    ]
    findings: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != constructor:
            continue
        if any(start <= node.lineno <= end for start, end in allowed_spans):
            continue
        findings.append(
            f"{rule} {where}:{node.lineno}: {constructor} constructed outside "
            f"{allowed} — {why}"
        )
    return findings


def check_sole_construction_sites(findings: list[str]) -> None:
    for site in SOLE_CONSTRUCTION_SITES:
        root = site[3]
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            findings.extend(
                construction_findings(_parse(path), str(path.relative_to(REPO)), site)
            )


def _registered_codes() -> list[str]:
    """The DIAGNOSTIC_CODES keys, read via ast (no package import needed)."""
    tree = _parse(DIAGNOSTICS)
    for node in ast.walk(tree):
        targets = _assignment_targets(node)
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "DIAGNOSTIC_CODES":
                value = node.value
                if isinstance(value, ast.Dict):
                    return [
                        key.value
                        for key in value.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ]
    return []


def check_readme_code_table(findings: list[str]) -> None:
    codes = _registered_codes()
    if not codes:
        findings.append(
            f"INV005 {DIAGNOSTICS.relative_to(REPO)}: DIAGNOSTIC_CODES "
            "registry not found (moved or renamed?)"
        )
        return
    readme = README.read_text(encoding="utf-8")
    for code in codes:
        if not re.search(rf"\b{re.escape(code)}\b", readme):
            findings.append(
                f"INV005 README.md: diagnostic code {code} is registered in "
                f"{DIAGNOSTICS.relative_to(REPO)} but undocumented in the "
                "README error-code table"
            )


def check_analyzer_codes_registered(findings: list[str]) -> None:
    registered = set(_registered_codes())
    for code in ANALYZER_CODES:
        if code not in registered:
            findings.append(
                f"INV006 {DIAGNOSTICS.relative_to(REPO)}: analyzer code "
                f"{code} is emitted by repro.nn.shapes but missing from "
                "DIAGNOSTIC_CODES — constructing it would raise mid-scan"
            )


def _hook_slot(node: ast.AST) -> str | None:
    """The slot name when ``node`` is the expression ``hooks.<slot>``."""
    if isinstance(node, ast.Attribute) and node.attr in HOOK_SLOTS:
        if ast.unparse(node) == f"hooks.{node.attr}":
            return node.attr
    return None


def hook_findings(tree: ast.Module, where: str) -> list[str]:
    """INV007 over one parsed module; ``where`` labels the findings."""
    findings: list[str] = []
    # Reads a guard covers: its own test and its body, not the else branch.
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare):
            slot = _hook_slot(node.test.left)
            if slot and ast.unparse(node.test) == f"hooks.{slot} is not None":
                for part in (node.test, *node.body):
                    guarded.update(
                        id(inner) for inner in ast.walk(part) if _hook_slot(inner) == slot
                    )
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "repro.hooks":
            for alias in node.names:
                if alias.name in HOOK_SLOTS:
                    findings.append(
                        f"INV007 {where}:{node.lineno}: `from repro.hooks import "
                        f"{alias.name}` binds the slot's value at import time "
                        f"and never sees an installation — read hooks.{alias.name}"
                    )
        slot = _hook_slot(node)
        if slot and id(node) not in guarded:
            findings.append(
                f"INV007 {where}:{node.lineno}: hooks.{slot} used outside an "
                f"`if hooks.{slot} is not None:` test or body — an unguarded "
                "use taxes (or crashes) the path with nothing installed"
            )
    return findings


def check_hooks_guarded(findings: list[str]) -> None:
    for path in sorted(SRC.rglob("*.py")):
        if path not in HOOK_OWNERS:
            findings.extend(hook_findings(_parse(path), str(path.relative_to(REPO))))


#: the registry containers whose mutations INV008 requires the lock around
REGISTRY = SRC / "service" / "registry.py"
REGISTRY_CONTAINERS = {"_entries", "_by_stream"}
#: container methods that mutate in place (reads like .get/.items need no lock
#: *here* — the registry's read methods take it anyway for consistency)
MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "setdefault", "update", "add", "discard",
}


def _is_registry_container(node: ast.expr) -> bool:
    """``self._entries`` / ``self._by_stream``, possibly via a subscript."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in REGISTRY_CONTAINERS
    )


def check_registry_mutation_locked(findings: list[str]) -> None:
    tree = _parse(REGISTRY)

    allowed_spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            allowed_spans.append((node.lineno, node.end_lineno or node.lineno))
        if isinstance(node, ast.With):
            for item in node.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and expr.attr == "_lock"
                ):
                    allowed_spans.append(
                        (node.body[0].lineno, node.body[-1].end_lineno or node.lineno)
                    )

    def _locked(lineno: int) -> bool:
        return any(start <= lineno <= end for start, end in allowed_spans)

    for node in ast.walk(tree):
        mutations: list[ast.expr] = []
        for target in _assignment_targets(node):
            if _is_registry_container(target):
                mutations.append(target)
        if isinstance(node, ast.Delete):
            mutations.extend(t for t in node.targets if _is_registry_container(t))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
            and _is_registry_container(node.func.value)
        ):
            mutations.append(node.func)
        for mutation in mutations:
            if _locked(node.lineno):
                continue
            findings.append(
                f"INV008 {REGISTRY.relative_to(REPO)}:{node.lineno}: registry "
                "membership mutated outside `with self._lock:` — shard "
                "workers read membership concurrently"
            )


#: the DeltaGate methods that make up the gate loop (INV010)
GATE_LOOP_METHODS = {"decide", "set_keyframe", "replace_outcome"}
TEMPORAL = SRC / "query" / "temporal.py"
#: the one module that may call ``.predict(`` (the base ``predict_batch`` fallback)
FILTER_BASE = SRC / "filters" / "base.py"


def gate_and_predict_findings(
    tree: ast.Module, where: str, gate_loop: bool = False, predict_fallback: bool = False
) -> list[str]:
    """INV010 over one parsed module; ``where`` labels the findings.

    ``gate_loop`` marks the module that may drive a ``DeltaGate``,
    ``predict_fallback`` the one that may call ``.predict(``.
    """
    findings: list[str] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        method = node.func.attr
        if method in GATE_LOOP_METHODS and not gate_loop:
            findings.append(
                f"INV010 {where}:{node.lineno}: .{method}() "
                "drives a DeltaGate outside repro/query/temporal.py — "
                "TemporalScan is the one gate loop; give it callbacks"
            )
        if method == "predict" and not predict_fallback:
            findings.append(
                f"INV010 {where}:{node.lineno}: per-frame .predict() under src/repro/ — "
                "predict chunks through predict_batch (run_filter_chunk in a scan, "
                "ExperimentContext.predicted_chunks in an experiment); a chunk of "
                "one is still a chunk"
            )
    return findings


def check_one_gate_loop_one_cascade_walk(findings: list[str]) -> None:
    for path in sorted(SRC.rglob("*.py")):
        findings.extend(
            gate_and_predict_findings(
                _parse(path),
                str(path.relative_to(REPO)),
                gate_loop=path == TEMPORAL,
                predict_fallback=path == FILTER_BASE,
            )
        )


ORACLE = SRC / "query" / "oracle.py"
ENGINE_MODULES = {"executor", "session", "parallel", "temporal", "planner"}


def oracle_import_findings(tree: ast.Module, where: str) -> list[str]:
    """INV012 over one parsed module; ``where`` labels the findings."""
    findings: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # A relative import inside repro/query/ is relative to repro.query.
            base = ".".join(filter(None, ["repro.query" if node.level else "", node.module]))
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[:2] == ["repro", "query"] and len(parts) > 2 and parts[2] in ENGINE_MODULES:
                findings.append(
                    f"INV012 {where}:{node.lineno}: the oracle imports "
                    f"repro.query.{parts[2]} — it is what the engine is checked "
                    "against and must share no code with it"
                )
                break
    return findings


def check_oracle_imports_nothing_of_the_engine(findings: list[str]) -> None:
    findings.extend(oracle_import_findings(_parse(ORACLE), str(ORACLE.relative_to(REPO))))


def clock_assignment_findings(tree: ast.Module, where: str) -> list[str]:
    """INV013 over one parsed module; ``where`` labels the findings."""
    findings: list[str] = []
    for node in ast.walk(tree):
        owners = [
            target.value
            for target in _assignment_targets(node)
            if isinstance(target, ast.Attribute) and target.attr == "clock"
        ]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "clock"
        ):
            owners.append(node.args[0])
        for owner in owners:
            if isinstance(owner, ast.Name) and owner.id == "self":
                continue
            findings.append(
                f"INV013 {where}:{node.lineno}: assigns {ast.unparse(owner)}.clock — "
                "filters and detectors carry no clock; charge the call to the "
                "scan's own clock (SimulatedClock.charge_calls)"
            )
    return findings


def check_no_foreign_clock_assignment(findings: list[str]) -> None:
    for path in sorted(SRC.rglob("*.py")):
        findings.extend(clock_assignment_findings(_parse(path), str(path.relative_to(REPO))))


#: the one scipy module src/repro/ may import (INV014)
SCIPY_ALLOWED = "scipy.special"
#: the one function that may import it: (file from the repo root, qualified name)
SCIPY_SITE = ("src/repro/aggregates/sampling.py", "SampleEstimate.confidence_interval")


def _imported_modules(node: ast.AST) -> list[str]:
    """The absolute modules an ``import`` / ``from ... import`` names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level and node.module:
        if node.module == "scipy":
            return [f"scipy.{alias.name}" for alias in node.names]
        return [node.module]
    return []


def scipy_import_findings(tree: ast.Module, where: str) -> list[str]:
    """INV014 over one parsed module; ``where`` is its path from the repo root."""
    findings: list[str] = []
    site_file, site_function = SCIPY_SITE

    # ``function``: the qualified name of the function whose body ``node`` is
    # directly in (``None`` at module or class level)
    def visit(node: ast.AST, scope: tuple[str, ...], function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            for module in _imported_modules(child):
                if module.split(".")[0] != "scipy":
                    continue
                allowed = module == SCIPY_ALLOWED or module.startswith(SCIPY_ALLOWED + ".")
                if allowed and where == site_file and function == site_function:
                    continue
                place = f" outside {site_function}" if allowed else ""
                findings.append(
                    f"INV014 {where}:{child.lineno}: imports {module}{place} — src/repro/ "
                    f"may import scipy only as {SCIPY_ALLOWED}, inside {site_function} "
                    f"({site_file}), because `import repro` loads every module-level "
                    "import into every process, and an estimate whose interval is "
                    "never read needs no scipy"
                )
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), ".".join(scope + (child.name,)))
            else:
                visit(child, scope, function)

    visit(tree, (), None)
    return findings


def check_scipy_imports(findings: list[str]) -> None:
    for path in sorted(SRC.rglob("*.py")):
        findings.extend(scipy_import_findings(_parse(path), str(path.relative_to(REPO))))


SCENE = SRC / "video" / "scene.py"
#: what building a state or a box to test visibility calls (INV015)
OBJECT_BUILDING_CALLS = {"state_at", "Box", "from_center", "clipped"}


def scene_simulator_findings(tree: ast.Module, where: str) -> list[str]:
    """INV015 over one parsed module; ``where`` labels the findings."""
    findings: list[str] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == "SceneSimulator"):
            continue
        calls = [call for call in ast.walk(node) if isinstance(call, ast.Call)]
        for call in sorted(calls, key=lambda call: (call.lineno, call.col_offset)):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in OBJECT_BUILDING_CALLS:
                findings.append(
                    f"INV015 {where}:{call.lineno}: SceneSimulator calls {ast.unparse(func)}() — "
                    "test visibility with TrackedObject.visible_at's float arithmetic; "
                    "building a state or a box per track per frame dominated every "
                    "dataset build"
                )
    return findings


def check_scene_simulator_builds_no_boxes(findings: list[str]) -> None:
    findings.extend(scene_simulator_findings(_parse(SCENE), str(SCENE.relative_to(REPO))))


def main() -> int:
    findings: list[str] = []
    check_planner_checks_frozen(findings)
    check_no_lambda_checks(findings)
    check_no_frame_mutation(findings)
    check_sole_construction_sites(findings)
    check_readme_code_table(findings)
    check_analyzer_codes_registered(findings)
    check_hooks_guarded(findings)
    check_registry_mutation_locked(findings)
    check_one_gate_loop_one_cascade_walk(findings)
    check_oracle_imports_nothing_of_the_engine(findings)
    check_no_foreign_clock_assignment(findings)
    check_scipy_imports(findings)
    check_scene_simulator_builds_no_boxes(findings)
    if findings:
        for finding in findings:
            print(finding)
        print(f"{len(findings)} invariant violation(s)")
        return 1
    print("lint_invariants: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
