"""The engine's zero-overhead hook slot.

Whatever instruments the hot paths from outside hangs off the module
attribute below: ``injector`` holds the live
:class:`repro.faults.FaultInjector`.  A slot is ``None`` when nothing is
installed, and every site reads it as ``hooks.<slot>`` behind
``if hooks.<slot> is not None:``, so the uninstrumented engine pays one
attribute load per site and stays bit-identical to an engine without
hooks (``tools/lint_invariants.py`` INV007 holds the guard at every site
under ``src/repro/``).

This module imports nothing from ``repro``, so any module may import it.
"""

from __future__ import annotations

import threading
from typing import Any

injector: Any = None

SLOTS = ("injector",)

_LOCK = threading.Lock()


def _check(slot: str) -> None:
    if slot not in SLOTS:
        raise ValueError(f"unknown hook slot {slot!r}: expected one of {SLOTS}")


def install(slot: str, value: object) -> bool:
    """Put ``value`` into ``slot``; ``False`` (slot untouched) if it is taken.

    A slot never stacks, and check and assignment are one step under the
    lock: of two concurrent installers exactly one wins.
    """
    _check(slot)
    with _LOCK:
        if globals()[slot] is not None:
            return False
        globals()[slot] = value
        return True


def uninstall(slot: str, value: object = None) -> None:
    """Empty ``slot`` (idempotent); with ``value``, only if the slot still
    holds that object, so a stale handle is a no-op."""
    _check(slot)
    with _LOCK:
        if value is None or globals()[slot] is value:
            globals()[slot] = None


def reset() -> None:
    """Empty every slot, whoever installed it (a test's teardown)."""
    with _LOCK:
        for slot in SLOTS:
            globals()[slot] = None
