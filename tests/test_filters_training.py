"""Integration tests: filter training, prediction and evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost import IC_BRANCH_MS, OD_BRANCH_MS
from repro.detection import ReferenceDetector
from repro.detection.annotation import AnnotatedFrame, AnnotationSet
from repro.filters import (
    calibrate_threshold,
    count_accuracy,
    evaluate_count_filter,
    evaluate_localization,
    score_predictions,
)
from repro.filters.base import CountTolerance, FilterPrediction
from repro.query import QueryBuilder, StreamingQueryExecutor
from repro.query.planner import CascadeStep, FilterCascade
from repro.spatial.grid import Grid


def test_count_accuracy_metric():
    predicted = [1, 2, 3, 5]
    actual = [1, 3, 3, 9]
    assert count_accuracy(predicted, actual, 0) == pytest.approx(0.5)
    assert count_accuracy(predicted, actual, 1) == pytest.approx(0.75)
    assert count_accuracy(predicted, actual, 4) == pytest.approx(1.0)
    assert count_accuracy([], [], 0) == 0.0
    with pytest.raises(ValueError):
        count_accuracy([1], [1, 2], 0)
    with pytest.raises(ValueError):
        count_accuracy([1], [1], -1)


def test_score_predictions_localization_tolerance():
    """One car predicted one cell off, scored at Manhattan tolerances 0-2."""
    grid = Grid(rows=6, cols=6, frame_width=60, frame_height=60)

    def cells(*occupied):
        values = np.zeros((6, 6), dtype=bool)
        for cell in occupied:
            values[cell] = True
        return values

    def scored(predicted, actual):
        prediction = FilterPrediction(
            frame_index=0, filter_name="f", grid=grid,
            class_counts={"car": int(predicted.sum())},
            class_scores={"car": float(predicted.sum())},
            location_scores={"car": predicted.astype(float)}, threshold=0.5, latency_ms=0.0,
        )
        annotated = AnnotatedFrame(0, {"car": int(actual.sum())}, {"car": actual})
        annotations = AnnotationSet("s", ("car",), grid, [annotated])
        report = score_predictions([prediction], annotations)[1][None]
        return [
            report.per_class_f1["car"],
            report.per_class_f1_manhattan_1["car"],
            report.per_class_f1_manhattan_2["car"],
        ]

    assert scored(cells((2, 2)), cells((2, 2))) == [1.0, 1.0, 1.0]
    # A one-cell shift misses exactly and hits within one cell.
    assert scored(cells((2, 3)), cells((2, 2))) == [0.0, 1.0, 1.0]
    # Two empty masks count as perfect.
    assert scored(cells(), cells()) == [1.0, 1.0, 1.0]


def _predictions(frame_filter, stream, annotations):
    """``frame_filter``'s predictions of the annotated frames, in one batch."""
    return frame_filter.predict_batch([stream.frame(item.frame_index) for item in annotations])


def test_trained_od_filter_predicts_reasonably(trained_od_filter, tiny_jackson, jackson_test_annotations):
    predictions = _predictions(trained_od_filter, tiny_jackson.test, jackson_test_annotations)
    report = evaluate_count_filter(predictions, jackson_test_annotations)
    assert report.num_frames == len(jackson_test_annotations)
    assert report.within_1 >= 0.7
    assert 0.0 <= report.exact <= report.within_1 <= report.within_2 <= 1.0
    localization = evaluate_localization(predictions, jackson_test_annotations)
    assert localization.micro_f1_manhattan_1 >= localization.micro_f1


def test_metrics_reject_predictions_misaligned_with_their_annotations(
    trained_od_filter, tiny_jackson, jackson_test_annotations
):
    """Predictions are checked against the annotations at the boundary: a short
    run and a run shifted by one frame each fail naming the first position
    where the two part."""
    annotations = jackson_test_annotations
    predictions = list(_predictions(trained_od_filter, tiny_jackson.test, annotations))
    frames = [item.frame_index for item in annotations]
    short = predictions[:-1]
    with pytest.raises(ValueError, match=(
        f"differ at position {len(short)}: the predictions have ended, "
        f"the annotations are of frame {frames[-1]}"
    )):
        evaluate_count_filter(short, annotations)
    shifted = predictions[1:]
    with pytest.raises(ValueError, match=(
        f"differ at position 0: the predictions are of frame {frames[1]}, "
        f"the annotations are of frame {frames[0]}"
    )):
        evaluate_localization(shifted, annotations)
    with pytest.raises(ValueError, match=f"differ at position {len(frames)}: .* past their end"):
        calibrate_threshold(predictions + predictions[-1:], annotations)
    assert evaluate_count_filter(predictions, annotations).num_frames == len(frames)


def test_prediction_contents(trained_od_filter, tiny_jackson):
    frame = tiny_jackson.test.frame(3)
    prediction = trained_od_filter.predict(frame)
    assert prediction.frame_index == 3
    assert prediction.total_count == sum(prediction.class_counts.values())
    assert set(prediction.location_scores) == set(tiny_jackson.class_names)
    mask = prediction.location_mask("car")
    assert mask.grid.shape == (56, 56)
    dilated = prediction.location_mask("car", dilation=1)
    assert dilated.count >= mask.count
    assert prediction.location_mask("unknown-class").count == 0
    # Tolerance helpers used by the query planner.
    car_count = prediction.count_of("car")
    assert prediction.count_matches("car", car_count, CountTolerance.EXACT)
    assert prediction.count_matches("car", car_count + 1, CountTolerance.WITHIN_1)
    assert prediction.count_at_least("car", car_count, CountTolerance.EXACT)


def test_filters_charge_their_latency(trained_od_filter, trained_ic_filter, tiny_jackson):
    """Filters carry the paper's latencies and the scan charges them: an
    N-frame scan through a pass-all OD step and a pass-all IC step charges N
    calls of each filter."""
    steps = [
        CascadeStep(name=frame_filter.name, frame_filter=frame_filter, check=lambda p: True)
        for frame_filter in (trained_od_filter, trained_ic_filter)
    ]
    query = QueryBuilder("q").count("car").at_least(0).build()
    executor = StreamingQueryExecutor(
        ReferenceDetector(class_names=tiny_jackson.class_names, seed=1)
    )
    result = executor.execute(
        query, tiny_jackson.test, FilterCascade(steps=steps),
        frame_indices=range(6), batch_size=4,
    )
    cost = result.stats.simulated_cost
    for frame_filter, latency in (
        (trained_od_filter, OD_BRANCH_MS),
        (trained_ic_filter, IC_BRANCH_MS),
    ):
        assert cost.per_component_calls[frame_filter.name] == 6
        assert cost.per_component_ms[frame_filter.name] == pytest.approx(6 * latency)


def test_od_cof_reports_total_count_only(trained_od_cof, tiny_jackson, jackson_test_annotations):
    prediction = trained_od_cof.predict(tiny_jackson.test.frame(0))
    assert list(prediction.class_counts) == ["object"]
    assert prediction.location_scores == {}
    report = evaluate_count_filter(
        _predictions(trained_od_cof, tiny_jackson.test, jackson_test_annotations),
        jackson_test_annotations,
        total_only=True,
    )
    assert report.within_2 >= 0.6


def test_ic_and_od_filters_share_interface(trained_ic_filter, trained_od_filter, tiny_jackson):
    frame = tiny_jackson.test.frame(10)
    for frame_filter in (trained_ic_filter, trained_od_filter):
        prediction = frame_filter.predict(frame)
        assert prediction.filter_name == frame_filter.name
        assert prediction.latency_ms == frame_filter.latency_ms
    assert trained_ic_filter.family == "IC"
    assert trained_od_filter.family == "OD"


def test_threshold_calibration(trained_od_filter, tiny_jackson, jackson_test_annotations):
    predictions = _predictions(trained_od_filter, tiny_jackson.test, jackson_test_annotations)
    calibration = calibrate_threshold(
        predictions, jackson_test_annotations, thresholds=(0.1, 0.2, 0.4)
    )
    assert calibration.best_threshold in (0.1, 0.2, 0.4)
    assert len(calibration.as_rows()) == 3
    assert max(calibration.micro_f1) == calibration.best_f1
    with pytest.raises(ValueError):
        calibrate_threshold(predictions, jackson_test_annotations, thresholds=())


def test_trainer_annotations_are_cached(jackson_trainer):
    first = jackson_trainer.annotations()
    second = jackson_trainer.annotations()
    assert first is second
    assert len(first) > 0


def test_trainer_renders_each_frame_once_and_trains_the_pinned_weights(
    tiny_jackson, counted_renders
):
    """``train_all`` holds the frames it revisits, and holding them changes
    no weight: the digest was taken at the commit before the trainer held
    anything (689 renders of 83 distinct frames at this size then; now one
    render per distinct frame)."""
    import hashlib

    from repro.filters import FilterTrainer

    trainer = FilterTrainer(dataset=tiny_jackson, max_train_frames=80, background_frames=20)
    filters = trainer.train_all()

    # Every distinct frame (training frames and background picks) is rendered
    # exactly once, annotation included, for all three filters.
    assert set(counted_renders) >= set(trainer.train_indices())
    assert len(counted_renders) == len(set(counted_renders))

    digest = hashlib.sha256()
    for branch in (filters["ic"], filters["od"]):
        for array in (
            branch.grid_head.weights,
            branch.grid_head.bias,
            branch.count_calibration.weights,
            branch.count_calibration.offset,
        ):
            digest.update(array.tobytes())
    digest.update(filters["od_cof"].count_head.weights.tobytes())
    digest.update(np.float64(filters["od_cof"].count_head.bias).tobytes())
    assert digest.hexdigest() == (
        "1248bb87c1caa028129a273a50f3104bf6bcecc07c4204c853010827b3319706"
    )


def test_trainer_calls_the_backbone_kernel_one_tile_at_a_time(tiny_jackson, monkeypatch):
    """The linear branches run the kernel on tile-sized batches: no call is
    larger than a tile (features live one tile at a time, so the memory peak
    stays flat), every pass still sees each of its frames once, and the
    call count is one per started tile of each pass."""
    import math

    from repro.detection.backbone import FeatureBackbone, _tile_length
    from repro.filters import FilterTrainer

    calls: list[tuple[int, int, int]] = []
    features = FeatureBackbone._features

    def counting_features(self, images):
        calls.append(images.shape[:3])
        return features(self, images)

    monkeypatch.setattr(FeatureBackbone, "_features", counting_features)
    trainer = FilterTrainer(dataset=tiny_jackson, max_train_frames=80, background_frames=20)
    trainer.train_all()

    frames = len(trainer.train_indices())
    height, width = calls[0][1:]
    tile = _tile_length(height, width)
    # ic and od: grid fit, recalibration (every frame below 240), count
    # calibration; od_cof: one pooled pass.
    passes = 7
    assert frames == 80 and tile == 4
    assert max(n for n, _, _ in calls) <= tile
    assert sum(n for n, _, _ in calls) == passes * frames
    assert len(calls) == passes * math.ceil(frames / tile) == 140
