"""The invariant lint itself: clean on the tree, and INV007 / INV010-INV015 bite."""

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

        def dispatch(self, chunk_id):
            if hooks.injector is not None:
                directive = hooks.injector.worker_directive(chunk_id)
            else:
                directive = None
            return directive
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


def test_inv007_reports_a_use_in_the_else_branch_and_under_the_other_slot(
    lint, monkeypatch
):
    # A second slot, so that a guard on one is seen not to cover the other.
    monkeypatch.setattr(lint, "HOOK_SLOTS", ("injector", "probe"))
    findings = _inv007(
        lint,
        """
        from repro import hooks

        def emit():
            if hooks.injector is not None:
                pass
            else:
                hooks.injector.emitter_event()
            if hooks.probe is not None:
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


def _inv010(lint, source: str, **allowed) -> list[str]:
    return lint.gate_and_predict_findings(
        ast.parse(textwrap.dedent(source)), "sample.py", **allowed
    )


def test_inv010_accepts_batched_prediction_and_the_base_fallback(lint):
    assert _inv010(
        lint,
        """
        def score(context, frame_filter):
            for frames, batch in context.predicted_chunks(frame_filter):
                yield from frame_filter.predict_batch(frames)
        """,
    ) == []
    fallback = """
        def predict_batch(self, frames):
            return tuple(self.predict(frame) for frame in frames)
        """
    assert _inv010(lint, fallback, predict_fallback=True) == []
    assert len(_inv010(lint, fallback)) == 1


def test_inv010_reports_a_per_frame_predict_anywhere_in_src(lint):
    findings = _inv010(
        lint,
        """
        def check(stream, od_filter, indices):
            for index in indices:
                prediction = od_filter.predict(stream.frame(index))
                gate.decide(prediction)
        """,
    )
    assert [finding.split(" — ")[0] for finding in findings] == [
        "INV010 sample.py:4: per-frame .predict() under src/repro/",
        "INV010 sample.py:5: .decide() drives a DeltaGate outside repro/query/temporal.py",
    ]


def _inv011(lint, source: str) -> list[str]:
    (site,) = [site for site in lint.SOLE_CONSTRUCTION_SITES if site[0] == "INV011"]
    return lint.construction_findings(ast.parse(textwrap.dedent(source)), "sample.py", site)


def test_inv011_accepts_the_one_construction_site(lint):
    assert _inv011(
        lint,
        """
        @contextmanager
        def decode_ahead(stream, indices, chunk_size, threads):
            prefetcher = FramePrefetcher(stream, indices, depth=4, threads=1)
            try:
                yield prefetcher.frame
            finally:
                prefetcher.close()

        def scan(stream, indices):
            with decode_ahead(stream, indices, 4, 1) as render:
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
        from .temporal import TemporalScan
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


def _inv013(lint, source: str) -> list[str]:
    return lint.clock_assignment_findings(ast.parse(textwrap.dedent(source)), "sample.py")


def test_inv013_accepts_a_scan_setting_its_own_clock(lint):
    assert _inv013(
        lint,
        """
        class Scan:
            def __init__(self, clock):
                self.clock = clock

            def run(self, frame_filter, frames):
                batch = frame_filter.predict_batch(frames)
                self.clock.charge_calls(frame_filter, len(frames))
                return batch
        """,
    ) == []


def test_inv013_reports_a_clock_swapped_into_another_object(lint):
    findings = _inv013(
        lint,
        """
        def estimate(self, frames):
            previous = self.frame_filter.clock
            self.frame_filter.clock = self.clock
            try:
                return self.frame_filter.predict_batch(frames)
            finally:
                self.frame_filter.clock = previous

        def detach(detector):
            setattr(detector, "clock", None)
        """,
    )
    assert [finding.split(":")[1] for finding in findings] == ["4", "8", "11"]
    assert findings[0].startswith("INV013 sample.py:4: assigns self.frame_filter.clock")
    assert "assigns detector.clock" in findings[2]


SAMPLING = "src/repro/aggregates/sampling.py"


def _inv014(lint, source: str, where: str = "sample.py") -> list[str]:
    return lint.scipy_import_findings(ast.parse(textwrap.dedent(source)), where)


def test_inv014_accepts_scipy_special_inside_a_function(lint):
    """The one function allowed: SampleEstimate.confidence_interval, in
    sampling.py, with the import directly in its body."""
    assert _inv014(
        lint,
        """
        import numpy as np
        from .stats import helper

        class SampleEstimate:
            @cached_property
            def confidence_interval(self):
                from scipy import special
                import scipy.special as sc
                if self.num_samples > 1:
                    from scipy.special import stdtrit, _ufuncs
        """,
        SAMPLING,
    ) == []


def test_inv014_reports_every_other_scipy_import(lint):
    findings = _inv014(
        lint,
        """
        import scipy
        import scipy.stats
        from scipy import ndimage, stats
        from scipy.stats import t
        import numpy, scipy.optimize
        from scipy import special
        from scipy.special import stdtrit

        class Holder:
            import scipy.special

        def count(mask):
            from scipy import ndimage
            import scipy
        """,
    )
    assert [finding.split(" — ")[0] for finding in findings] == [
        "INV014 sample.py:2: imports scipy",
        "INV014 sample.py:3: imports scipy.stats",
        "INV014 sample.py:4: imports scipy.ndimage",
        "INV014 sample.py:4: imports scipy.stats",
        "INV014 sample.py:5: imports scipy.stats",
        "INV014 sample.py:6: imports scipy.optimize",
        "INV014 sample.py:7: imports scipy.special outside SampleEstimate.confidence_interval",
        "INV014 sample.py:8: imports scipy.special outside SampleEstimate.confidence_interval",
        "INV014 sample.py:11: imports scipy.special outside SampleEstimate.confidence_interval",
        "INV014 sample.py:14: imports scipy.ndimage",
        "INV014 sample.py:15: imports scipy",
    ]
    # scipy.special in any other function, or nested in the interval's own
    # body, is a finding too; so is the interval's body in another file.
    elsewhere = """
        def sample_mean_estimate(values):
            from scipy import special

        class SampleEstimate:
            @property
            def half_width(self):
                from scipy.special import stdtrit

            @cached_property
            def confidence_interval(self):
                def quantile(q):
                    from scipy import special

                class Local:
                    from scipy import special
        """
    assert [finding.split(" — ")[0] for finding in _inv014(lint, elsewhere, SAMPLING)] == [
        f"INV014 {SAMPLING}:{line}: imports scipy.special outside "
        "SampleEstimate.confidence_interval"
        for line in (3, 8, 13, 16)
    ]
    moved = """
        class SampleEstimate:
            def confidence_interval(self):
                from scipy import special
        """
    assert len(_inv014(lint, moved, "src/repro/aggregates/monitor.py")) == 1


def _inv015(lint, source: str) -> list[str]:
    return lint.scene_simulator_findings(ast.parse(textwrap.dedent(source)), "sample.py")


def test_inv015_accepts_float_visibility_and_boxes_outside_the_simulator(lint):
    assert _inv015(
        lint,
        """
        class Scene:
            def ground_truth(self, frame_index):
                return [track.state_at(frame_index) for track in self._tracks]

        class SceneSimulator:
            def simulate(self):
                width, height = self._config.frame_width, self._config.frame_height
                return [t for t in self._tracks if t.visible_at(0, width, height)]

        def clip(box, width, height):
            return Box.from_center(1.0, 1.0, 2.0, 2.0).clipped(width, height)
        """,
    ) == []


def test_inv015_reports_every_object_building_call_in_the_simulator(lint):
    findings = _inv015(
        lint,
        """
        class SceneSimulator:
            def _visible(self, track, frame_index):
                state = track.state_at(frame_index)
                return state.box.clipped(self.width, self.height) is not None

            def _frames_to_enter(self, track):
                box = Box.from_center(0.0, 0.0, track.width, track.height)
                return geometry.Box(0.0, 0.0, 1.0, 1.0)
        """,
    )
    assert [finding.split(" — ")[0] for finding in findings] == [
        "INV015 sample.py:4: SceneSimulator calls track.state_at()",
        "INV015 sample.py:5: SceneSimulator calls state.box.clipped()",
        "INV015 sample.py:8: SceneSimulator calls Box.from_center()",
        "INV015 sample.py:9: SceneSimulator calls geometry.Box()",
    ]
