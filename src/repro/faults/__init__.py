"""Deterministic fault injection (plans, runtime state, statistics).

See :mod:`repro.faults.plan` for the model and
the root ``DESIGN.md`` §7 for the recovery semantics built on top of
it.
"""

from .plan import (CORRUPT, DELAY, DROP, OK, FaultPlan, FaultState,
                   FaultStats, LinkFaults)

__all__ = ["FaultPlan", "FaultState", "FaultStats", "LinkFaults",
           "OK", "DROP", "CORRUPT", "DELAY"]
