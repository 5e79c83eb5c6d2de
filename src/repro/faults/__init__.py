"""repro.faults — deterministic, seedable fault injection.

See :mod:`repro.faults.injector` for the fault model and plan syntax, and
``docs/RELIABILITY.md`` for how the execution engine recovers from each
injected failure mode.
"""

from repro.faults.injector import (
    CRASH_EXIT_CODE,
    ENV_VAR,
    SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    corrupt_segment,
    fire_task,
    install,
    installed,
    uninstall,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_VAR",
    "SITES",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "corrupt_segment",
    "fire_task",
    "install",
    "installed",
    "uninstall",
]
