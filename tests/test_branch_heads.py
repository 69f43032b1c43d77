"""The linear branch filters against their pre-tiling oracle.

``LinearBranchFilter.predict_batch`` scores each backbone tile as it comes
and runs one count head per batch; ``PooledCountFilter`` pools per tile.
Both must reproduce ``tests/conftest.py::reference_branch_predictions`` (one
chunk-sized feature tensor, the head class by class and frame by frame)
exactly, at every batch size around the 4-frame tile of 112x112 frames, and
when two threads share one filter object.  The IC filter's backbone has
``pool_factor`` 2, so its cases run the up-sampled grid.
"""

from __future__ import annotations

import threading

import pytest

from tests.conftest import assert_same_predictions, reference_branch_predictions

FILTERS = ["trained_od_filter", "trained_ic_filter", "trained_od_cof"]


@pytest.fixture(scope="module")
def test_frames(tiny_jackson):
    return [tiny_jackson.test.frame(index) for index in range(40)]


@pytest.mark.parametrize("batch_size", [1, 3, 4, 5, 16, 17])
@pytest.mark.parametrize("filter_fixture", FILTERS)
def test_predict_batch_equals_the_whole_batch_oracle(
    filter_fixture, batch_size, test_frames, request
):
    frame_filter = request.getfixturevalue(filter_fixture)
    for start in (0, 21):
        frames = test_frames[start : start + batch_size]
        assert_same_predictions(
            frame_filter.predict_batch(frames),
            reference_branch_predictions(frame_filter, frames),
        )


@pytest.mark.parallel
@pytest.mark.parametrize("filter_fixture", FILTERS)
def test_two_threads_share_one_filter_object(filter_fixture, test_frames, request):
    """Concurrent ``predict_batch`` calls on *one* filter each get the
    oracle's predictions: the per-tile path keeps no per-filter scratch."""
    frame_filter = request.getfixturevalue(filter_fixture)
    batches = [test_frames[0:16], test_frames[16:33]]
    expected = [reference_branch_predictions(frame_filter, batch) for batch in batches]
    rounds = 6
    barrier = threading.Barrier(len(batches))
    results: list[list] = [[] for _ in batches]
    errors: list[BaseException] = []

    def run(slot: int) -> None:
        try:
            for _ in range(rounds):
                barrier.wait()
                results[slot].append(frame_filter.predict_batch(batches[slot]))
        except BaseException as error:  # surfaced below, on the test thread
            errors.append(error)
            barrier.abort()

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(len(batches))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for slot, want in enumerate(expected):
        assert len(results[slot]) == rounds
        for got in results[slot]:
            assert_same_predictions(got, want)
