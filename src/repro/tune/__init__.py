"""Adaptive protocol tuning: closing the loop on the observability
metrics (see :mod:`repro.tune.controller` for the design).

Entry points:

* :class:`AdaptiveController` — the per-rank, per-peer controller; its
  bounds and cadence are constants in :mod:`repro.tune.controller`.
* :data:`NULL_TUNER` — the stand-in every static design carries.

Run the adaptive stack with ``run_mpi(n, prog, design="adaptive")``.
"""

from .controller import (NULL_TUNER, PROTO_READ, PROTO_WRITE,
                         THRESHOLD_OFF, AdaptiveController, NullTuner)

__all__ = ["AdaptiveController", "NullTuner",
           "NULL_TUNER", "PROTO_WRITE", "PROTO_READ", "THRESHOLD_OFF"]
