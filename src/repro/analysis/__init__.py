"""Static + dynamic correctness tooling for the repro tree.

Three prongs:

* :mod:`repro.analysis.lint` — an AST linter enforcing the paper's
  protocol contracts (§4.3 single-write ring chunks, §5 deregister-
  after-ACK), simulator determinism rules, and repo API hygiene.
* :mod:`repro.analysis.model` — an explicit-state model checker over
  hand-transcribed credit, handshake and rendezvous state machines.
* :mod:`repro.analysis.shadow` — an opt-in shadow-memory sanitizer
  over the simulated fabric (per-byte registration/write epochs,
  use-after-deregister, out-of-bounds RDMA, write-write races),
  enabled under any entry point with ``REPRO_SHADOW=1``.

``python -m repro.analysis {lint,modelcheck}`` is the CLI.
:mod:`repro.analysis.mutcheck` runs every bug in the
``repro.check.mutations`` catalogue through these prongs and the
differential oracle; ``python -m repro.check mutate`` prints that
matrix.
"""

from __future__ import annotations

from .core import Finding, LintReport, lint_paths, lint_source, lint_tree
from .shadow import ShadowFabric, ShadowViolation, install_shadow

__all__ = [
    "Finding",
    "LintReport",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "ShadowFabric",
    "ShadowViolation",
    "install_shadow",
]
