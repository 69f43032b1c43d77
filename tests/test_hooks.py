"""The two hook slots in ``repro.hooks``.

The subscriber-side behaviour (a session or an injector is visible at its
sites while installed) is covered by ``test_sanitizers.py`` and
``test_faults.py``; this file holds the slot mechanics and the worker-side
reset.
"""

from __future__ import annotations

import pickle
import queue
import sys
import threading

import pytest

from repro import hooks
from repro.query import parallel


@pytest.fixture(autouse=True)
def _slots_start_and_end_empty():
    assert hooks.sanitizer is None and hooks.injector is None
    yield
    leaked = (hooks.sanitizer, hooks.injector)
    hooks.reset()
    assert leaked == (None, None)


def test_install_refuses_to_stack_and_uninstall_ignores_a_stale_handle():
    first, second = object(), object()
    assert hooks.install("injector", first) is True
    try:
        assert hooks.injector is first and hooks.sanitizer is None
        assert hooks.install("injector", second) is False
        assert hooks.injector is first
        hooks.uninstall("injector", second)  # stale handle
        assert hooks.injector is first
    finally:
        hooks.uninstall("injector", first)
    assert hooks.injector is None
    hooks.uninstall("injector")  # idempotent on an empty slot


def test_unknown_slot_is_rejected():
    with pytest.raises(ValueError, match="unknown hook slot"):
        hooks.install("probe", object())
    with pytest.raises(ValueError, match="unknown hook slot"):
        hooks.uninstall("_LOCK")


def test_a_pool_worker_consults_neither_slot():
    """A forked worker inherits copies of both slots; the one pool
    initializer empties them when it installs a process worker (only the
    injector used to be cleared, so a worker under ``sanitize="determinism"``
    ran the parent's session on every charge) and leaves them alone for a
    thread worker, which shares the parent's."""
    clones: queue.SimpleQueue = queue.SimpleQueue()
    clone = parallel._Worker("thread-0", [], [])
    clones.put(clone)
    sanitizer, injector = object(), object()
    assert hooks.install("sanitizer", sanitizer)
    assert hooks.install("injector", injector)
    try:
        parallel._init_worker(clones)
        assert parallel._SLOT.worker is clone
        assert hooks.sanitizer is sanitizer and hooks.injector is injector
        parallel._init_worker(pickle.dumps(([], [])))
        assert parallel._SLOT.worker.label.startswith("pid-")
        assert hooks.sanitizer is None and hooks.injector is None
    finally:
        hooks.reset()
        del parallel._SLOT.worker


def test_concurrent_installs_have_exactly_one_winner():
    """Check-and-set is one step: more installers than cores, a short switch
    interval, and still one winner per round with the slot holding it."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            barrier = threading.Barrier(8)
            won: list[object] = []

            def contend():
                mine = object()
                barrier.wait(timeout=10)
                if hooks.install("sanitizer", mine):
                    won.append(mine)

            threads = [threading.Thread(target=contend) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(won) == 1 and hooks.sanitizer is won[0]
            hooks.uninstall("sanitizer", won[0])
    finally:
        sys.setswitchinterval(interval)
        hooks.reset()
