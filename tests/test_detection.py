"""Tests for the detector simulators, feature backbone and annotation pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost import MASK_RCNN_MS, SimulatedClock
from repro.query import QueryBuilder, brute_force_execute
from repro.detection import (
    DetectorErrorModel,
    ReferenceDetector,
    annotate_frames,
    annotate_stream,
    classification_backbone,
    detection_backbone,
)
from repro.detection.annotation import annotate_frame
from repro.detection.base import Detection, FrameDetections
from repro.spatial.geometry import Box
from repro.video.stream import Frame


def test_detection_validation():
    with pytest.raises(ValueError):
        Detection(class_name="car", box=Box(0, 0, 1, 1), score=1.5)


def test_frame_detections_counts_and_masks(tiny_jackson):
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=1)
    frame = tiny_jackson.test.frame(5)
    detections = detector.detect(frame)
    assert detections.count == len(detections.detections)
    counts = detections.counts_by_class()
    assert sum(counts.values()) == detections.count
    grid = tiny_jackson.grid(28)
    for name in tiny_jackson.class_names:
        mask = detections.location_mask(grid, name)
        assert (mask.count > 0) == (detections.count_of(name) > 0)
    filtered = detections.filtered(min_score=0.99)
    assert filtered.count <= detections.count


def test_reference_detector_matches_ground_truth_closely(tiny_jackson):
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=1)
    total_error = 0
    frames = 0
    for index in range(0, 40, 4):
        frame = tiny_jackson.test.frame(index)
        detections = detector.detect(frame)
        total_error += abs(detections.count - frame.ground_truth.count)
        frames += 1
    assert total_error / frames < 0.5  # near-perfect, as Mask R-CNN effectively is


def test_detector_is_deterministic_per_frame(tiny_jackson):
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=1)
    frame = tiny_jackson.test.frame(7)
    a = detector.detect(frame)
    b = detector.detect(frame)
    assert a.counts_by_class() == b.counts_by_class()


def _pinned_digest(detector, stream, frames=64):
    """``(sha256, detections, clamped scores, relabelled, spurious)`` over
    ``frames`` frames: every field of ``FrameDetections``, floats in hex."""
    import hashlib

    sha = hashlib.sha256()
    count = clamped = relabelled = spurious = 0
    for index in range(frames):
        frame = stream.frame(index)
        truth = {state.track_id: state.class_name for state in frame.ground_truth.objects}
        found = detector.detect(frame)
        sha.update(repr((found.frame_index, found.latency_ms, found.detector_name)).encode())
        for det in found.detections:
            assert type(det.score) is float
            count += 1
            clamped += det.score == 1.0
            if det.track_id is None:
                spurious += 1
            else:
                relabelled += truth[det.track_id] != det.class_name
            fields = (
                det.class_name,
                [value.hex() for value in det.box.as_tuple()],
                det.score.hex(),
                det.color_name,
                det.track_id,
            )
            sha.update(repr(fields).encode())
    return sha.hexdigest(), count, clamped, relabelled, spurious


def test_reference_detections_keep_their_pinned_values(tiny_detrac):
    """Every field of ``FrameDetections`` over 64 dense frames, floats in hex:
    the digest was taken while ``_score`` still went through ``np.clip``, and
    55 of the 1110 scores sit on the upper bound, so the plain ``min``/``max``
    clamp and the RNG consumption around it are both covered."""
    detector = ReferenceDetector(class_names=tiny_detrac.class_names, seed=42)
    digest, count, clamped, _, _ = _pinned_digest(detector, tiny_detrac.train)
    assert (count, clamped) == (1110, 55)
    assert digest == "fa6f5f160371a9816016435539f312592e2815ee05bd7f1367861e2d6140aff9"


#: the error-model branches the default model leaves out: no box draws at
#: all, misses on most objects (and boxes jittered off the frame), and
#: relabelled plus spurious detections, whose draws sit between the box
#: and score draws and after the last object
PINNED_ERROR_MODELS = {
    "no-jitter": (
        DetectorErrorModel(miss_rate=0.01, small_object_miss_rate=0.05),
        ("ea26c093f1e3b945f34ff6d38da2ba42aaeae3707b9ba2d8553fde9c78b1067f", 1112, 62, 0, 0),
    ),
    "high-miss": (
        DetectorErrorModel(
            miss_rate=0.5, small_object_miss_rate=0.4, small_object_area=2000.0,
            box_jitter=0.3,
        ),
        ("f38297ade9006fd06cc5653e53b76eeffac164b5e612663e45b7a2efab87ceb2", 162, 11, 0, 0),
    ),
    "confusion-fp": (
        DetectorErrorModel(
            miss_rate=0.01, small_object_miss_rate=0.05, box_jitter=0.02,
            confusion_rate=0.2, false_positive_rate=1.5,
        ),
        ("6cc6defb4d01bb2d2985c261310d98379060a753f3ad015a2a713244b55a065b", 1215, 54, 223, 103),
    ),
}


@pytest.mark.parametrize("model", PINNED_ERROR_MODELS)
def test_reference_detections_keep_their_pinned_values_per_error_model(tiny_detrac, model):
    """The pinned digest above, for the branches of ``detect`` the default
    error model never takes; each digest was taken before ``detect`` drew its
    jitter as one four-normal vector, so draw order and float arithmetic are
    both held."""
    error_model, pinned = PINNED_ERROR_MODELS[model]
    detector = ReferenceDetector(
        class_names=tiny_detrac.class_names, error_model=error_model, seed=42
    )
    assert _pinned_digest(detector, tiny_detrac.train) == pinned


def test_detector_charges_latency(tiny_jackson):
    """The detector carries the paper's latency and the scan charges it: a
    brute-force scan of N frames charges N detector calls to its clock."""
    query = QueryBuilder("q").count("car").at_least(1).build()
    detector = ReferenceDetector(class_names=tiny_jackson.class_names)
    clock = SimulatedClock()
    brute_force_execute(query, tiny_jackson.test, detector, frame_indices=range(3), clock=clock)
    assert clock.breakdown.per_component_calls == {detector.name: 3}
    assert clock.elapsed_ms == pytest.approx(3 * MASK_RCNN_MS)


def test_error_model_validation():
    with pytest.raises(ValueError):
        DetectorErrorModel(miss_rate=1.5)
    with pytest.raises(ValueError):
        DetectorErrorModel(box_jitter=-0.1)


def test_backbone_feature_shapes(tiny_jackson):
    for backbone in (detection_backbone(56), classification_backbone(56)):
        backbone.fit_background(tiny_jackson.train.iter_range(0, 20, 2))
        features = backbone.extract_frame(tiny_jackson.test.frame(0))
        assert features.shape == (56, 56, backbone.num_features)
        assert np.isfinite(features).all()
    with pytest.raises(ValueError):
        detection_backbone(56).extract(np.zeros((112, 112)))


def test_extract_tiled_equals_extract_per_image(tiny_jackson):
    backbone = detection_backbone(56)
    backbone.fit_background(tiny_jackson.train.iter_range(0, 20, 2))
    # 9 frames: two full 4-frame tiles at 112x112 and a one-frame remainder.
    images = [tiny_jackson.test.frame(index).image for index in range(9)]
    tiles = list(backbone.extract_tiled(iter(images)))
    assert [len(tile) for tile in tiles] == [4, 4, 1]
    for image, features in zip(images, np.concatenate(tiles)):
        assert np.array_equal(features, backbone.extract(image))
    assert list(backbone.extract_tiled([])) == []


def test_backbone_background_subtraction_highlights_objects(tiny_jackson):
    backbone = detection_backbone(56)
    backbone.fit_background(tiny_jackson.train.iter_range(0, 30, 2))
    # Find a frame with at least one object and check the background-difference
    # channel is stronger on object cells than off them.
    for index in range(len(tiny_jackson.test)):
        frame = tiny_jackson.test.frame(index)
        if frame.ground_truth.count > 0:
            break
    features = backbone.extract_frame(frame)
    diff = features[:, :, 5]
    grid = tiny_jackson.grid(56)
    object_mask = np.zeros((56, 56), dtype=bool)
    for state in frame.ground_truth.objects:
        for row, col in grid.cells_overlapping_box(state.box):
            object_mask[row, col] = True
    assert diff[object_mask].mean() > diff[~object_mask].mean() * 2


@pytest.mark.parametrize(
    "start, stop, max_frames",
    [(0, 40, 20), (0, 21, 60), (10, 40, 15)],
    ids=["even", "odd", "max-frames-cut"],
)
def test_uint8_background_median_equals_the_float32_median(tiny_jackson, start, stop, max_frames):
    frames = [tiny_jackson.train.frame(index) for index in range(start, stop)]
    backbone = detection_backbone(56)
    backbone.fit_background(iter(frames), max_frames=max_frames)

    used = np.stack([frame.image.astype(np.float32) for frame in frames[:max_frames]])
    expected = np.moveaxis(np.median(used, axis=0), -1, 0)
    assert backbone._background.dtype == np.float32
    assert np.array_equal(backbone._background, expected)
    assert np.array_equal(backbone._background_doubled, np.rint(2.0 * expected).astype(np.int16))


def test_a_non_uint8_frame_keeps_the_float_background_path(tiny_jackson):
    frames = [tiny_jackson.train.frame(index) for index in range(5)]
    frames[2] = Frame(
        index=2, image=frames[2].image + 0.3, ground_truth=frames[2].ground_truth
    )
    backbone = detection_backbone(56)
    backbone.fit_background(frames)

    stack = np.stack([frame.image.astype(np.float32) for frame in frames])
    assert np.array_equal(backbone._background, np.moveaxis(np.median(stack, axis=0), -1, 0))
    assert backbone._background_doubled is None


def test_annotate_frames_equals_annotate_stream(tiny_jackson):
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=9)
    grid = tiny_jackson.grid(56)
    stream = tiny_jackson.train
    indices = [7, 3, 3, 12, 0, 7]
    by_stream = annotate_stream(
        stream, detector, tiny_jackson.class_names, grid, frame_indices=indices
    )
    by_frames = annotate_frames(
        [stream.frame(index) for index in indices],
        detector,
        tiny_jackson.class_names,
        grid,
        stream.name,
    )
    assert (by_frames.stream_name, by_frames.class_names, by_frames.grid) == (
        by_stream.stream_name,
        by_stream.class_names,
        by_stream.grid,
    )
    assert [a.frame_index for a in by_frames] == [a.frame_index for a in by_stream] == indices
    np.testing.assert_array_equal(by_frames.counts_matrix(), by_stream.counts_matrix())
    for ours, theirs in zip(by_frames, by_stream):
        assert ours.counts == theirs.counts
        assert ours.location_grids.keys() == theirs.location_grids.keys()
        for name, cells in ours.location_grids.items():
            assert np.array_equal(cells, theirs.location_grids[name])


def test_annotation_pipeline(tiny_jackson):
    detector = ReferenceDetector(class_names=tiny_jackson.class_names, seed=9)
    grid = tiny_jackson.grid(56)
    annotations = annotate_stream(
        tiny_jackson.train, detector, tiny_jackson.class_names, grid, frame_indices=range(0, 20, 2)
    )
    assert len(annotations) == 10
    matrix = annotations.counts_matrix()
    assert matrix.shape == (10, len(tiny_jackson.class_names))
    totals = annotations.total_counts()
    np.testing.assert_allclose(totals, matrix.sum(axis=1))
    tensor = annotations.location_tensor("car")
    assert tensor.shape == (10, 56, 56)
    frequencies = annotations.class_frequencies()
    assert all(0.0 <= value <= 1.0 for value in frequencies.values())
    # Counts and grids are consistent per frame.
    for annotated in annotations:
        for name in tiny_jackson.class_names:
            if annotated.count_of(name) == 0:
                assert annotated.grid_of(name).sum() == 0


def test_annotate_frame_unknown_class():
    detections = FrameDetections(
        frame_index=0,
        detections=(Detection("car", Box(0, 0, 10, 10), 0.9),),
        latency_ms=1.0,
        detector_name="test",
    )
    from repro.spatial.grid import Grid

    grid = Grid(rows=8, cols=8, frame_width=80, frame_height=80)
    annotated = annotate_frame(detections, ["car", "bus"], grid)
    assert annotated.count_of("car") == 1
    assert annotated.count_of("bus") == 0
    assert annotated.grid_of("bus").sum() == 0
