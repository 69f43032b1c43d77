"""Fault injection, retry/backoff, quarantine and supervision records.

See :mod:`repro.faults.injector` for the full vocabulary.  The worker
supervisor itself lives in :mod:`repro.query.parallel` (it owns the
worker pool); this package holds everything both sides of a fault share.
"""

from repro.faults.injector import (
    FAULT_SITES,
    FaultError,
    FaultExhausted,
    FaultInjector,
    FaultLog,
    FaultReport,
    InjectedFault,
    QuarantineRecord,
    RetryPolicy,
    current_injector,
    current_report,
    install,
    maybe_install_from_env,
    parse_fault_spec,
    uninstall,
)

__all__ = [
    "FAULT_SITES",
    "FaultError",
    "FaultExhausted",
    "FaultInjector",
    "FaultLog",
    "FaultReport",
    "InjectedFault",
    "QuarantineRecord",
    "RetryPolicy",
    "current_injector",
    "current_report",
    "install",
    "maybe_install_from_env",
    "parse_fault_spec",
    "uninstall",
]
