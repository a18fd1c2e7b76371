"""Differential conformance checking of the channel designs.

The paper's claim is that all the channel designs implement the *same*
MPI semantics with different transports (§4–§5).  This package turns
that claim into an executable property:

- :mod:`~repro.check.spec` — replayable randomized workload specs;
- :mod:`~repro.check.generate` — seeded, boundary-heavy generation;
- :mod:`~repro.check.oracle` — the expected-delivery model and the
  canonical per-source stream comparison that absorbs legal wildcard
  and schedule nondeterminism;
- :mod:`~repro.check.differ` — run one spec on every design (plus
  schedule-perturbation seeds and recoverable fault plans) and diff;
- :mod:`~repro.check.shrink` — minimize a failing case to a small
  replay file;
- :mod:`~repro.check.mutations` — known-dangerous protocol mutations
  that the harness must catch; ``python -m repro.check mutate`` runs
  each through the oracle, the linter, the model checker and the
  shadow sanitizer (:mod:`repro.analysis.mutcheck`).
- :mod:`~repro.check.pins` — the corpus, design and transport pins:
  one record format and one check (``python -m repro.check pin``).

``python -m repro.check`` is the command-line front end.
"""

from .differ import (DEFAULT_DESIGNS, Observation, Report,
                     differential, run_spec)
from .generate import generate_fault_plan, generate_spec
from .oracle import check, compare, expected_ranks, observation_digest
from .shrink import load_replay, shrink, write_replay
from .spec import (CollectivePhase, ComputePhase, DatatypePhase,
                   OneSidedPhase, P2PMessage, P2PPhase, RmaOp,
                   WorkloadSpec)

__all__ = [
    "WorkloadSpec", "P2PMessage", "P2PPhase", "CollectivePhase",
    "DatatypePhase", "OneSidedPhase", "RmaOp", "ComputePhase",
    "generate_spec", "generate_fault_plan", "run_spec",
    "differential", "Observation", "Report", "DEFAULT_DESIGNS",
    "check", "compare", "expected_ranks", "observation_digest",
    "shrink", "write_replay", "load_replay",
]
