"""Tests for frame rendering and the stream abstraction."""

from __future__ import annotations

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import reference_render
from repro.video import build_coral, build_detrac, build_jackson
from repro.video.renderer import FrameRenderer, RendererConfig
from repro.video.scene import FrameGroundTruth
from repro.video.objects import NAMED_COLORS, default_class_registry, ObjectState
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


# ----------------------------------------------------------------------
# The rendered pixels are the repo's "decoded video": the slice-fill kernel
# must reproduce the pre-rewrite renderer (``reference_render``) exactly.
# ----------------------------------------------------------------------
_BUILDERS = {"coral": build_coral, "jackson": build_jackson, "detrac": build_detrac}


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("profile", sorted(_BUILDERS))
def test_render_matches_the_reference_renderer_on_every_profile(profile, seed):
    stream = _BUILDERS[profile](train_size=48, val_size=4, test_size=4, seed=seed).train
    config = stream.renderer.config
    for index in range(len(stream)):
        truth = stream.ground_truth(index)
        assert np.array_equal(
            stream.renderer.render(truth), reference_render(config, truth)
        ), f"{profile} seed {seed} frame {index}"


@pytest.mark.parametrize(
    "profile, digest",
    [
        ("coral", "7876c9f3b5848da4a7c61d027a39663914eeb754c7016e4bfcf7f14e6bf9b6a5"),
        ("jackson", "46b99582ef02c71abcf586d55a91324948be774117481a905e30af94f1ebf74b"),
        ("detrac", "6a86b4cd2a4e162c5820048c556427e174d7e530946b8b3715d7d0dd1a2c512f"),
    ],
)
def test_first_frames_of_each_profile_keep_their_pinned_pixels(profile, digest):
    """Digests of ``train.frame(0..7).image`` taken before the slice-fill
    kernel: a change that moves the decoded video has to re-pin them."""
    stream = _BUILDERS[profile](train_size=8, val_size=4, test_size=4, seed=3).train
    sha = hashlib.sha256()
    for index in range(8):
        sha.update(stream.frame(index).image.tobytes())
    assert sha.hexdigest() == digest


_CLASSES = default_class_registry()


@st.composite
def _object_states(draw, size: int, frame_width: int, frame_height: int, track_id: int):
    """One object, its box chosen in output pixels from a named edge case."""
    kind = draw(
        st.sampled_from(
            ["inside", "left", "right", "top", "bottom", "outside", "subpixel", "thin", "small"]
        )
    )
    extent = st.floats(0.5, size * 0.7)
    w, h = draw(extent), draw(extent)
    if kind == "subpixel":
        w, h = draw(st.floats(0.01, 0.9)), draw(st.floats(0.01, 0.9))
    elif kind == "thin":  # one side under the 4-pixel border threshold
        if draw(st.booleans()):
            w = draw(st.floats(0.5, 3.9))
        else:
            h = draw(st.floats(0.5, 3.9))
    elif kind == "small":  # around the 6-pixel windshield threshold
        w, h = draw(st.floats(3.0, 7.0)), draw(st.floats(3.0, 7.0))
    anywhere = st.floats(0.0, float(size))
    cx, cy = draw(anywhere), draw(anywhere)
    if kind == "left":
        cx = draw(st.floats(-w / 2, w / 2))
    elif kind == "right":
        cx = size + draw(st.floats(-w / 2, w / 2))
    elif kind == "top":
        cy = draw(st.floats(-h / 2, h / 2))
    elif kind == "bottom":
        cy = size + draw(st.floats(-h / 2, h / 2))
    elif kind == "outside":
        cx = draw(st.sampled_from([-w, size + w]))
    to_x, to_y = frame_width / size, frame_height / size
    return ObjectState(
        track_id=track_id,
        object_class=_CLASSES[draw(st.sampled_from(sorted(_CLASSES)))],
        box=Box.from_center(cx * to_x, cy * to_y, w * to_x, h * to_y),
        color_name=draw(st.sampled_from(sorted(NAMED_COLORS))),
    )


@st.composite
def _render_cases(draw):
    config = RendererConfig(
        output_size=draw(st.integers(16, 128)),
        background_texture=draw(st.sampled_from([0.0, 6.0])),
        pixel_noise=draw(st.sampled_from([0.0, 4.0, 11.5])),
        draw_borders=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )
    frame_width, frame_height = draw(st.integers(64, 640)), draw(st.integers(64, 640))
    count = draw(st.integers(0, 8))
    objects = tuple(
        draw(_object_states(config.output_size, frame_width, frame_height, track_id))
        for track_id in range(count)
    )
    truth = FrameGroundTruth(
        frame_index=draw(st.integers(0, 10_000)),
        objects=objects,
        frame_width=frame_width,
        frame_height=frame_height,
    )
    return config, truth


@settings(max_examples=150, deadline=None)
@given(_render_cases())
def test_render_matches_the_reference_renderer_on_generated_scenes(case):
    """Boxes straddling each edge, outside the frame, sub-pixel, under the
    border and windshield thresholds, overlapping rectangles and ellipses,
    non-square source frames, borders / noise / texture switched off."""
    config, truth = case
    assert np.array_equal(FrameRenderer(config).render(truth), reference_render(config, truth))


def test_concurrent_first_renders_equal_the_single_threaded_result():
    """The background and the ellipse masks are built on first use, with no
    lock: threads racing through a fresh renderer must all get the pixels a
    single thread gets (coral: the profile whose frames are all ellipses)."""
    stream = build_coral(train_size=24, val_size=4, test_size=4, seed=5).train
    config = stream.renderer.config
    truths = [stream.ground_truth(index) for index in range(len(stream))]
    expected = [FrameRenderer(config).render(truth) for truth in truths]

    shared = FrameRenderer(config)
    barrier = threading.Barrier(4)
    results: list[list[np.ndarray]] = [[] for _ in range(4)]

    def work(slot: int) -> None:
        barrier.wait(timeout=10)
        results[slot] = [shared.render(truth) for truth in truths]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for rendered in results:
        assert len(rendered) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(rendered, expected))


@pytest.mark.parametrize(
    "field, value",
    [
        ("output_size", 0),
        ("output_size", -4),
        ("pixel_noise", -1.0),
        ("pixel_noise", float("nan")),
        ("background_texture", -0.5),
        ("background_color", (90, 95, 256)),
        ("background_color", (-1, 95, 100)),
        ("background_color", (90, 95)),
    ],
)
def test_renderer_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        RendererConfig(**{field: value})


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
