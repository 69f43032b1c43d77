"""The invariant lint itself: clean on the tree, and INV007 / INV011 / INV012 / INV013 bite."""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

LINT = Path(__file__).resolve().parent.parent / "tools" / "lint_invariants.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_invariants", LINT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _inv007(lint, source: str) -> list[str]:
    return lint.hook_findings(ast.parse(textwrap.dedent(source)), "sample.py")


def test_the_tree_is_clean():
    done = subprocess.run(
        [sys.executable, str(LINT)], capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all invariants hold" in done.stdout


def test_the_lint_knows_every_slot(lint):
    from repro import hooks

    assert lint.HOOK_SLOTS == hooks.SLOTS


def test_inv007_accepts_the_guarded_site_shapes(lint):
    assert _inv007(
        lint,
        """
        from repro import hooks

        def decode(self, index):
            if hooks.injector is not None:
                return hooks.injector.with_retry("decode", index, None, self.render)
            return self.render(index)

        def task(self, chunk_id):
            if hooks.sanitizer is not None:
                window = hooks.sanitizer.worker_window(chunk_id)
            else:
                window = None
            return window
        """,
    ) == []


def test_inv007_reports_an_unguarded_use(lint):
    findings = _inv007(
        lint,
        """
        from repro import hooks

        def emit():
            hooks.injector.emitter_event()
        """,
    )
    assert len(findings) == 1
    assert findings[0].startswith("INV007 sample.py:5: hooks.injector used outside")


def test_inv007_reports_a_use_in_the_else_branch_and_under_the_other_slot(lint):
    findings = _inv007(
        lint,
        """
        from repro import hooks

        def emit():
            if hooks.injector is not None:
                pass
            else:
                hooks.injector.emitter_event()
            if hooks.sanitizer is not None:
                hooks.injector.emitter_event()
        """,
    )
    assert [finding.split(":")[1] for finding in findings] == ["8", "10"]
    assert all("hooks.injector used outside" in finding for finding in findings)


def test_inv007_reports_an_import_time_binding(lint):
    findings = _inv007(
        lint,
        """
        from repro import hooks
        from repro.hooks import injector

        def emit():
            if injector is not None:
                injector.emitter_event()
        """,
    )
    assert len(findings) == 1
    assert findings[0].startswith("INV007 sample.py:3: `from repro.hooks import injector`")


def _inv011(lint, source: str) -> list[str]:
    (site,) = [site for site in lint.SOLE_CONSTRUCTION_SITES if site[0] == "INV011"]
    return lint.construction_findings(ast.parse(textwrap.dedent(source)), "sample.py", site)


def test_inv011_accepts_the_one_construction_site(lint):
    assert _inv011(
        lint,
        """
        @contextmanager
        def decode_ahead(stream, indices, parallel, chunk_size=None):
            prefetcher = FramePrefetcher(stream, indices, depth=4, threads=1)
            try:
                yield prefetcher.frame
            finally:
                prefetcher.close()

        def scan(stream, indices, parallel):
            with decode_ahead(stream, indices, parallel) as render:
                return [render(index) for index in indices]
        """,
    ) == []


def test_inv011_reports_a_second_construction_site(lint):
    findings = _inv011(
        lint,
        """
        from repro.query import parallel

        def scan(stream, indices):
            prefetcher = parallel.FramePrefetcher(stream, indices, depth=4, threads=1)
            return [prefetcher.frame(index) for index in indices]
        """,
    )
    assert len(findings) == 1
    assert findings[0].startswith(
        "INV011 sample.py:5: FramePrefetcher constructed outside decode_ahead"
    )


def _inv013(lint, source: str) -> list[str]:
    (site,) = [site for site in lint.SOLE_CONSTRUCTION_SITES if site[0] == "INV013"]
    return lint.construction_findings(ast.parse(textwrap.dedent(source)), "sample.py", site)


def test_inv013_accepts_the_one_pool_building_method(lint):
    assert _inv013(
        lint,
        """
        class WorkerSupervisor:
            def __init__(self, config):
                self._pool = self._build_pool()

            def _build_pool(self):
                return ProcessPoolExecutor(max_workers=2, initializer=_init_worker)

            def _respawn(self):
                old, self._pool = self._pool, self._build_pool()
                old.shutdown(wait=False)
        """,
    ) == []


def test_inv013_reports_a_second_pool_build_site(lint):
    findings = _inv013(
        lint,
        """
        import concurrent.futures

        class WorkerSupervisor:
            def _respawn(self):
                self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=2)
        """,
    )
    assert len(findings) == 1
    assert findings[0].startswith(
        "INV013 sample.py:6: ProcessPoolExecutor constructed outside _build_pool"
    )



def _inv012(lint, source: str) -> list[str]:
    return lint.oracle_import_findings(ast.parse(textwrap.dedent(source)), "oracle.py")


def test_inv012_accepts_the_leaf_modules_the_oracle_reads(lint):
    assert _inv012(
        lint,
        """
        from repro.aggregates.windows import HoppingWindow
        from repro.query.ast import Query
        from repro.query.evaluation import evaluate_predicates_on_detections
        from repro.query.results import ExecutionStats, QueryExecutionResult
        from . import results
        """,
    ) == []


def test_inv012_reports_every_way_of_importing_the_engine(lint):
    findings = _inv012(
        lint,
        """
        import repro.query.session
        from repro.query.executor import StreamingQueryExecutor
        from repro.query import planner, ast
        from .temporal import clocks_detached
        from . import parallel
        """,
    )
    assert [finding.split(":")[1] for finding in findings] == ["2", "3", "4", "5", "6"]
    assert [finding.split("imports ")[1].split(" ")[0] for finding in findings] == [
        "repro.query.session",
        "repro.query.executor",
        "repro.query.planner",
        "repro.query.temporal",
        "repro.query.parallel",
    ]
