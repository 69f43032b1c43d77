"""Parity tests: batched filter / executor paths vs the sequential paths.

The batched execution engine must be a pure optimisation: identical matched
frames, identical work counters and an identical simulated cost breakdown
(call counts exactly; milliseconds up to float rounding, because a batched
charge accumulates ``n * latency`` in one addition where the sequential path
adds ``latency`` ``n`` times).  Scan-level parity across chunk sizes is the
differential harness's (``tests/test_differential.py``); this module keeps
the filter and backbone batch paths.  Selectivity-aware ordering likewise
must not change which frames survive a conjunctive cascade.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.detection import ReferenceDetector
from repro.filters.base import FilterPrediction, FrameFilter
from repro.query import (
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    measure_cascade_selectivity,
    order_cascade_by_selectivity,
)
from repro.query.planner import CascadeStep, FilterCascade
from repro.query.session import ScanSession
from repro.spatial.grid import Grid
from repro.video.stream import Frame
from tests.conftest import reference_backbone_features


@pytest.fixture(scope="module")
def shared_filter_cascade(trained_od_filter, trained_od_cof):
    """A cascade whose CCF and CLF steps share one filter (plus OD-COF)."""
    filters = {"od": trained_od_filter, "od_cof": trained_od_cof}
    query = (
        QueryBuilder("mixed")
        .count("car").at_least(1)
        .count().at_least(1)
        .spatial("car").left_of("person")
        .build()
    )
    # analyze=False: this fixture exercises the raw three-step plan; the
    # analyzer would eliminate the tolerance-swallowed COUNT steps (PL002).
    cascade = QueryPlanner(filters, PlannerConfig(count_tolerance=1, location_dilation=2)).plan(query, analyze=False)
    assert len(cascade) == 3
    assert len(cascade.filters) == 2  # CCF and CLF share the OD filter
    return query, cascade


def _execute(query, cascade, stream, indices, class_names, batch_size=None):
    detector = ReferenceDetector(class_names=class_names, seed=77)
    executor = StreamingQueryExecutor(detector)
    return executor.execute(
        query, stream, cascade, frame_indices=indices, batch_size=batch_size
    )


def _assert_parity(sequential, batched):
    assert batched.matched_frames == sequential.matched_frames
    assert batched.stats.frames_scanned == sequential.stats.frames_scanned
    assert batched.stats.frames_passed_filters == sequential.stats.frames_passed_filters
    assert batched.stats.detector_invocations == sequential.stats.detector_invocations
    assert batched.stats.filter_invocations == sequential.stats.filter_invocations
    sequential_cost = sequential.stats.simulated_cost
    batched_cost = batched.stats.simulated_cost
    assert batched_cost.per_component_calls == sequential_cost.per_component_calls
    assert set(batched_cost.per_component_ms) == set(sequential_cost.per_component_ms)
    for component, milliseconds in sequential_cost.per_component_ms.items():
        # One batched charge of n * latency vs n sequential additions of
        # latency: equal up to float rounding.
        assert batched_cost.per_component_ms[component] == pytest.approx(
            milliseconds, rel=1e-12
        )


def test_batched_execution_parity_with_empty_cascade(tiny_jackson):
    query = QueryBuilder("q").count("car").at_least(1).build()
    sequential = _execute(query, FilterCascade(), tiny_jackson.test, range(10), tiny_jackson.class_names)
    batched = _execute(
        query, FilterCascade(), tiny_jackson.test, range(10), tiny_jackson.class_names,
        batch_size=4,
    )
    assert batched.stats.detector_invocations == 10
    _assert_parity(sequential, batched)


def test_batch_size_validation(tiny_jackson):
    query = QueryBuilder("q").count("car").at_least(1).build()
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=1)
    with pytest.raises(ValueError):
        StreamingQueryExecutor(detector).execute(
            query, tiny_jackson.test, batch_size=0
        )


def test_linear_filter_predict_batch_matches_predict(
    trained_od_filter, trained_ic_filter, trained_od_cof, tiny_jackson
):
    """One backbone kernel serves both paths, so equality is exact: for a
    frame alone in its batch and for the same frame inside a longer one."""
    frames = [tiny_jackson.test.frame(index) for index in range(12)]
    for frame_filter in (trained_od_filter, trained_ic_filter, trained_od_cof):
        sequential = [frame_filter.predict(frame) for frame in frames]
        batched = frame_filter.predict_batch(frames)
        assert batched.filter_name == frame_filter.name
        assert len(batched) == len(frames)
        singles = [frame_filter.predict_batch([frame])[0] for frame in frames]
        for seq, bat, single in zip(sequential, batched, singles):
            for other in (bat, single):
                assert other.frame_index == seq.frame_index
                assert other.class_counts == seq.class_counts
                assert other.class_scores == seq.class_scores
                assert set(other.location_scores) == set(seq.location_scores)
                for name in seq.location_scores:
                    assert np.array_equal(
                        other.location_scores[name], seq.location_scores[name]
                    )


@pytest.mark.parametrize("filter_fixture", ["trained_od_filter", "trained_od_cof"])
def test_predict_batch_rejects_mixed_frame_shapes(filter_fixture, tiny_jackson, request):
    """A ragged batch fails at the boundary, naming the frame and both shapes."""
    frame_filter = request.getfixturevalue(filter_fixture)
    frames = [tiny_jackson.test.frame(index) for index in range(3)]
    odd = Frame(index=41, image=frames[0].image[:56], ground_truth=None)
    with pytest.raises(ValueError) as excinfo:
        frame_filter.predict_batch([*frames, odd, frames[0]])
    message = str(excinfo.value)
    assert "frame 3 of the batch (stream index 41)" in message
    assert "(56, 112, 3)" in message and "(112, 112, 3)" in message


@pytest.mark.parametrize("filter_fixture", ["trained_od_filter", "trained_od_cof"])
def test_predict_batch_rejects_mixed_image_dtypes(filter_fixture, tiny_jackson, request):
    """One float frame among uint8 ones fails at the boundary, naming the
    frame and both dtypes.  Stacked, it would upcast the whole tile onto the
    backbone's float kernel and change its neighbours' predictions."""
    frame_filter = request.getfixturevalue(filter_fixture)
    frames = [tiny_jackson.test.frame(index) for index in range(3)]
    odd = Frame(index=42, image=frames[1].image.astype(np.float64), ground_truth=None)
    with pytest.raises(ValueError) as excinfo:
        frame_filter.predict_batch([frames[0], odd, frames[2]])
    message = str(excinfo.value)
    assert "frame 1 of the batch (stream index 42)" in message
    assert "float64" in message and "uint8" in message


def _pass_all_session(frame_filter, tiny_jackson) -> ScanSession:
    """A live session scanning one query through one pass-all ``frame_filter`` step."""
    session = ScanSession(ReferenceDetector(class_names=tiny_jackson.class_names, seed=1))
    step = CascadeStep(name="all", frame_filter=frame_filter, check=lambda prediction: True)
    query = QueryBuilder("q").count("car").at_least(0).build()
    session.add_query(query, FilterCascade(steps=[step]))
    return session


def test_predict_batch_empty_and_charging(trained_od_filter, tiny_jackson):
    """An empty batch predicts nothing.  Charging is the scan's: a 5-frame
    chunk charges the session clock 5 calls of the filter's latency."""
    empty = trained_od_filter.predict_batch([])
    assert len(empty) == 0 and empty.frame_indices == ()

    with _pass_all_session(trained_od_filter, tiny_jackson) as session:
        session.push_chunk([tiny_jackson.test.frame(index) for index in range(5)])
    breakdown = session.clock.breakdown
    assert breakdown.per_component_calls[trained_od_filter.name] == 5
    assert breakdown.per_component_ms[trained_od_filter.name] == pytest.approx(
        5 * trained_od_filter.latency_ms
    )


@pytest.mark.parametrize("odd_kind", ["shape", "dtype"])
@pytest.mark.parametrize("filter_fixture", ["trained_od_filter", "trained_od_cof"])
def test_a_chunk_whose_predict_batch_raises_leaves_the_session_clock_unchanged(
    filter_fixture, odd_kind, tiny_jackson, request
):
    """A mixed chunk is rejected by ``predict_batch`` before the scan charges
    it: the session clock reads what the chunks before it charged."""
    frame_filter = request.getfixturevalue(filter_fixture)
    frames = [tiny_jackson.test.frame(index) for index in range(5)]
    image = frames[4].image
    odd_image = image[:56] if odd_kind == "shape" else image.astype(np.float64)
    odd = Frame(index=4, image=odd_image, ground_truth=None)
    session = _pass_all_session(frame_filter, tiny_jackson)
    with pytest.raises(ValueError, match=r"frame 1 of the batch \(stream index 4\)"):
        with session:
            session.push_chunk(frames[:3])
            before = session.clock.snapshot()
            session.push_chunk([frames[3], odd])
    assert before.per_component_calls[frame_filter.name] == 3
    assert session.clock.snapshot() == before


def _synthetic_frames(count: int, size: int) -> np.ndarray:
    """Deterministic uint8 frames from integer arithmetic alone (no RNG
    stream that could drift between numpy versions under the digests)."""
    values = np.arange(count * size * size * 3, dtype=np.uint64)
    values = (values * np.uint64(2654435761)) >> np.uint64(11)
    return (values & np.uint64(0xFF)).astype(np.uint8).reshape(count, size, size, 3)


def _fit(backbone, images):
    backbone.fit_background(
        Frame(index=index, image=image, ground_truth=None)
        for index, image in enumerate(images)
    )
    return backbone


def test_backbone_extract_batch_matches_extract(tiny_jackson):
    """``extract`` and ``extract_batch`` against the naive float oracle."""
    from repro.detection.backbone import classification_backbone, detection_backbone

    train = [tiny_jackson.train.frame(index).image for index in range(0, 40, 2)]
    background = np.median(np.stack(train).astype(np.float32), axis=0)
    images = np.stack([tiny_jackson.test.frame(index).image for index in range(8)])
    for make in (detection_backbone, classification_backbone):
        backbone = _fit(make(56), train)
        reference = np.stack(
            [
                reference_backbone_features(image, backbone.config, background)
                for image in images
            ]
        )
        batched = backbone.extract_batch(images)
        assert batched.shape == reference.shape and batched.dtype == np.float64
        np.testing.assert_allclose(batched, reference, atol=1e-6)
        assert reference[..., 5].max() > 0.05  # the background channels are live
        for image, expected in zip(images, batched):
            assert np.array_equal(backbone.extract(image), expected)
        # The float fallback (here: non-uint8 input) serves the same features.
        np.testing.assert_allclose(
            backbone.extract_batch(images.astype(np.float64)), reference, atol=1e-6
        )


def test_extract_batch_large_pooling_blocks_no_overflow():
    """Regression: int32 block sums of gray^2 overflowed for blocks >= 61,
    silently zeroing intensity_std in the batched path."""
    from repro.detection.backbone import BackboneConfig, FeatureBackbone

    backbone = FeatureBackbone(BackboneConfig(grid_size=8, use_background_model=False))
    image = np.random.default_rng(0).integers(
        0, 256, size=(512, 512, 3), dtype=np.uint8
    )
    reference = reference_backbone_features(image, backbone.config)
    assert reference[..., 3].max() > 0  # intensity_std is non-trivial
    np.testing.assert_allclose(backbone.extract(image), reference, atol=1e-6)
    np.testing.assert_allclose(
        backbone.extract_batch(image[None])[0], reference, atol=1e-6
    )


def test_extract_float_fallback_on_frames_the_grid_does_not_divide():
    from repro.detection.backbone import BackboneConfig, FeatureBackbone

    images = _synthetic_frames(7, 112)
    backbone = _fit(FeatureBackbone(BackboneConfig(grid_size=10, pool_factor=2)), images[:4])
    background = np.median(images[:4].astype(np.float32), axis=0)
    batched = backbone.extract_batch(images[4:])
    assert batched.shape == (3, 10, 10, backbone.num_features)
    for image, features in zip(images[4:], batched):
        np.testing.assert_allclose(
            features,
            reference_backbone_features(image, backbone.config, background),
            atol=1e-6,
        )


@pytest.mark.parametrize("flavour", ["detection", "classification"])
def test_backbone_features_are_tile_boundary_invariant(flavour):
    """A frame's features are the same bits whichever batch size and
    position it is extracted at, across every tile boundary."""
    from repro.detection import backbone as backbone_module

    size = 112
    tile = backbone_module._tile_length(size, size)
    assert tile >= 2  # otherwise the sizes below straddle nothing
    images = _synthetic_frames(3 * tile + 2 + 4, size)
    make = getattr(backbone_module, f"{flavour}_backbone")
    backbone = _fit(make(56), images[:4])
    images = images[4:]
    whole = backbone.extract_batch(images)
    for length in (1, tile - 1, tile, tile + 1):
        for start in range(0, len(images) - length + 1, max(length - 1, 1)):
            part = backbone.extract_batch(images[start : start + length])
            assert np.array_equal(part, whole[start : start + length]), (length, start)


@pytest.mark.parametrize(
    "flavour, digest",
    [
        ("detection", "e04dcdebb65e0c5a798e119a39973198aa2effe9406534ea5baa4aebe1b99788"),
        ("classification", "5528571d92c8704263382d0d8436b8dc334fc83ee209de1d931158d546cae241"),
    ],
)
def test_extract_batch_is_bit_identical_to_the_pinned_integer_path(flavour, digest):
    """The digests were taken from ``extract_batch`` before the tiled kernel
    replaced the whole-batch integer path (PR 13's commit): integer steps
    are exact and every float step keeps its operands and their order, so a
    kernel rewrite must reproduce them to the bit."""
    import hashlib

    from repro.detection import backbone as backbone_module

    images = _synthetic_frames(19, 112)
    make = getattr(backbone_module, f"{flavour}_backbone")
    backbone = _fit(make(56), images[:6])
    features = backbone.extract_batch(images[6:])
    assert hashlib.sha256(features.tobytes()).hexdigest() == digest


# ----------------------------------------------------------------------
# Selectivity-aware cascade ordering
# ----------------------------------------------------------------------
class _StubFilter(FrameFilter):
    """Deterministic filter stub for ordering tests (no pixels involved)."""

    def __init__(self, name: str, latency_ms: float) -> None:
        super().__init__()
        self.name = name
        self.latency_ms = latency_ms
        self._grid = Grid(rows=2, cols=2, frame_width=8, frame_height=8)

    def predict(self, frame: Frame) -> FilterPrediction:
        return FilterPrediction(
            frame_index=frame.index,
            filter_name=self.name,
            grid=self._grid,
            class_counts={},
            class_scores={},
            location_scores={},
            threshold=0.5,
            latency_ms=self.latency_ms,
        )


class _StubStream:
    def __init__(self, num_frames: int) -> None:
        self._num_frames = num_frames
        self._image = np.zeros((8, 8, 3), dtype=np.uint8)

    def __len__(self) -> int:
        return self._num_frames

    def frame(self, index: int) -> Frame:
        return Frame(index=index, image=self._image, ground_truth=None)


def _stub_step(name, latency_ms, passes_when):
    return CascadeStep(
        name=name,
        frame_filter=_StubFilter(name, latency_ms),
        check=lambda prediction, rule=passes_when: rule(prediction.frame_index),
    )


def test_order_cascade_by_selectivity_prefers_cheap_rejectors():
    cascade = FilterCascade(
        steps=[
            _stub_step("pass-all", 1.0, lambda index: True),
            _stub_step("cheap-selective", 1.0, lambda index: index % 5 == 0),
            _stub_step("pricey-selective", 10.0, lambda index: index % 5 == 0),
            _stub_step("mild", 1.0, lambda index: index % 2 == 0),
        ]
    )
    ordered = order_cascade_by_selectivity(cascade, _StubStream(20), sample_size=20)
    assert [step.name for step in ordered.steps] == [
        "cheap-selective",  # 1.0 ms / 0.8 rejection = 1.25
        "mild",             # 1.0 / 0.5 = 2.0
        "pricey-selective", # 10.0 / 0.8 = 12.5
        "pass-all",         # rejects nothing -> inf, last
    ]
    by_name = {step.name: step for step in ordered.steps}
    assert by_name["cheap-selective"].measured_pass_rate == pytest.approx(0.2)
    assert by_name["mild"].measured_cost_ms == 1.0
    assert math.isinf(by_name["pass-all"].cost_per_rejection)


def test_measure_cascade_selectivity_on_planned_cascade(
    shared_filter_cascade, tiny_jackson
):
    _, cascade = shared_filter_cascade
    measured = measure_cascade_selectivity(cascade, tiny_jackson.test, sample_size=16)
    assert [step.name for step in measured.steps] == [step.name for step in cascade.steps]
    for step in measured.steps:
        assert 0.0 <= step.measured_pass_rate <= 1.0
        assert step.measured_cost_ms == step.frame_filter.latency_ms


def test_selectivity_ordering_preserves_query_results(
    shared_filter_cascade, tiny_jackson
):
    query, cascade = shared_filter_cascade
    ordered = order_cascade_by_selectivity(cascade, tiny_jackson.test, sample_size=16)
    assert sorted(step.name for step in ordered.steps) == sorted(
        step.name for step in cascade.steps
    )
    indices = list(range(0, 50, 2))
    static = _execute(query, cascade, tiny_jackson.test, indices, tiny_jackson.class_names)
    reordered = _execute(query, ordered, tiny_jackson.test, indices, tiny_jackson.class_names)
    # Conjunctive steps: ordering can change filter work, never the answers.
    assert reordered.matched_frames == static.matched_frames
    assert reordered.stats.detector_invocations == static.stats.detector_invocations
    # And batched execution of the reordered cascade agrees with itself.
    batched = _execute(
        query, ordered, tiny_jackson.test, indices, tiny_jackson.class_names, batch_size=8
    )
    _assert_parity(reordered, batched)


def test_planner_selectivity_ordering_config(
    trained_od_filter, trained_od_cof, tiny_jackson
):
    filters = {"od": trained_od_filter, "od_cof": trained_od_cof}
    query = (
        QueryBuilder("q").count("car").equals(1).count().at_least(1).build()
    )
    config = PlannerConfig(cascade_ordering="selectivity", ordering_sample_size=12)
    planner = QueryPlanner(filters, config)
    with pytest.raises(ValueError):
        planner.plan(query)  # needs a sample stream to measure on
    # analyze=False keeps the dead total-count step so the ordering has two
    # measured steps to rank.
    cascade = planner.plan(query, sample_stream=tiny_jackson.test, analyze=False)
    ranks = [step.cost_per_rejection for step in cascade.steps]
    assert ranks == sorted(ranks)
    for step in cascade.steps:
        assert step.measured_pass_rate is not None
    with pytest.raises(ValueError):
        PlannerConfig(cascade_ordering="alphabetical")
    with pytest.raises(ValueError):
        PlannerConfig(ordering_sample_size=0)
