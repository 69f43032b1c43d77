"""Tests for frame rendering and the stream abstraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.video.renderer import FrameRenderer, RendererConfig
from repro.video.scene import FrameGroundTruth
from repro.video.objects import default_class_registry, ObjectState
from repro.spatial.geometry import Box


def _truth_with_car(frame_index: int = 0) -> FrameGroundTruth:
    car = default_class_registry()["car"]
    state = ObjectState(
        track_id=0,
        object_class=car,
        box=Box.from_center(224, 224, 80, 40),
        color_name="blue",
    )
    return FrameGroundTruth(
        frame_index=frame_index, objects=(state,), frame_width=448, frame_height=448
    )


def test_render_produces_uint8_rgb():
    renderer = FrameRenderer(RendererConfig(output_size=64, seed=1))
    image = renderer.render(_truth_with_car())
    assert image.shape == (64, 64, 3)
    assert image.dtype == np.uint8


def test_rendering_is_deterministic_per_frame():
    renderer = FrameRenderer(RendererConfig(output_size=64, seed=1))
    a = renderer.render(_truth_with_car(frame_index=5))
    b = renderer.render(_truth_with_car(frame_index=5))
    assert np.array_equal(a, b)
    c = renderer.render(_truth_with_car(frame_index=6))
    assert not np.array_equal(a, c)  # per-frame sensor noise differs


def test_object_changes_pixels_at_its_location():
    renderer = FrameRenderer(RendererConfig(output_size=112, pixel_noise=0.0, seed=2))
    empty = FrameGroundTruth(frame_index=0, objects=(), frame_width=448, frame_height=448)
    background_only = renderer.render(empty)
    with_car = renderer.render(_truth_with_car())
    # The car's area (center of the frame, scaled to 112) must differ from background.
    region = (slice(50, 62), slice(46, 66))
    assert np.abs(with_car[region].astype(int) - background_only[region].astype(int)).mean() > 10
    # Far corners are untouched background.
    assert np.abs(with_car[:10, :10].astype(int) - background_only[:10, :10].astype(int)).mean() < 2


def test_stream_iteration_and_access(single_object_stream):
    stream = single_object_stream
    assert len(stream) == 40
    assert stream.duration_seconds == pytest.approx(40 / 30)
    frame = stream.frame(3)
    assert frame.index == 3
    assert frame.image.dtype == np.uint8 and frame.image.shape[2] == 3
    assert frame.ground_truth.count >= 0
    frames = list(stream.iter_range(0, 6, 2))
    assert [f.index for f in frames] == [0, 2, 4]
    counts = stream.count_series()
    assert counts.shape == (40,)


def test_stream_sampling(single_object_stream, rng):
    indices = single_object_stream.sample_indices(10, rng)
    assert len(indices) == 10
    assert len(set(indices.tolist())) == 10
    assert all(0 <= i < 40 for i in indices)


def test_stream_rejects_bad_fps(single_object_stream):
    from repro.video.stream import VideoStream

    with pytest.raises(ValueError):
        VideoStream(scene=single_object_stream.scene, renderer=single_object_stream.renderer, fps=0)


def test_repeated_frame_renders_equal_pixels(single_object_stream):
    stream = single_object_stream
    for index in (0, 7, 39):
        first, again = stream.frame(index), stream.frame(index)
        # The stream holds nothing: a new Frame each call, the same pixels.
        assert again is not first
        assert np.array_equal(first.image, again.image)


# ----------------------------------------------------------------------
# frame_indices validation
# ----------------------------------------------------------------------
def test_checked_frame_indices_accepts_integers_in_range(single_object_stream):
    from repro.video.stream import checked_frame_indices

    stream = single_object_stream
    assert checked_frame_indices(None, stream) == list(range(40))
    # Order and duplicates are the caller's; numpy integers are integers.
    checked = checked_frame_indices([5, np.int64(3), 3, 39], stream)
    assert checked == [5, 3, 3, 39]
    assert all(type(index) is int for index in checked)
    assert checked_frame_indices(iter(range(2)), stream) == [0, 1]


@pytest.mark.parametrize(
    "indices, error, message",
    [
        ([0, 1, 40], IndexError, r"frame_indices\[2\] = 40 is out of range \[0, 40\)"),
        ([-1], IndexError, r"frame_indices\[0\] = -1 is out of range \[0, 40\)"),
        ([1.0, 2.0], TypeError, r"frame_indices\[0\] = 1.0 is not an integer .*40 frames"),
        ([0, "1"], TypeError, r"frame_indices\[1\] = '1' is not an integer"),
    ],
)
def test_checked_frame_indices_names_the_first_offender(
    single_object_stream, indices, error, message
):
    from repro.video.stream import checked_frame_indices

    with pytest.raises(error, match=message):
        checked_frame_indices(indices, single_object_stream)
