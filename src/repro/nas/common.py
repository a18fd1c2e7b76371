"""Shared infrastructure for the NAS Parallel Benchmark kernels.

Two modes exist (see the root DESIGN.md):

* **real mode** — the kernels in this package do genuine parallel math
  over the simulated MPI at reduced problem sizes (class "T" for tiny,
  "S"-like), and their results are verified against serial references
  in the test suite;
* **skeleton mode** (:mod:`repro.nas.skeleton`) — class A/B runs replay
  each benchmark's communication pattern with class-correct message
  sizes and a modelled compute time per iteration, which is what the
  Fig. 16/17 reproductions use (running real class A data through a
  pure-Python simulator would be compute-bound noise, not signal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

import numpy as np

__all__ = ["NasResult", "nas_rng", "verify_close", "block_range",
           "factor_2d"]


@dataclass
class NasResult:
    """Outcome of one kernel run on one rank."""
    benchmark: str
    verified: bool
    value: float            # benchmark-specific figure of merit
    elapsed: float          # simulated seconds (rank-local)
    iterations: int = 0
    extra: Optional[dict] = None


def nas_rng(seed: int) -> np.random.Generator:
    """Deterministic per-test RNG (stands in for the NAS LCG)."""
    return np.random.default_rng(seed)


def verify_close(value: float, reference: float,
                 epsilon: float = 1e-8) -> bool:
    denom = max(abs(reference), 1e-300)
    return abs(value - reference) / denom <= epsilon


def block_range(n: int, p: int, r: int) -> Tuple[int, int]:
    """Contiguous block partition of ``n`` items over ``p`` ranks:
    returns [lo, hi) for rank ``r``; remainders spread over the first
    ranks."""
    base, rem = divmod(n, p)
    lo = r * base + min(r, rem)
    hi = lo + base + (1 if r < rem else 0)
    return lo, hi


def factor_2d(p: int) -> Tuple[int, int]:
    """Most-square 2D factorization of ``p`` (rows, cols)."""
    best = (1, p)
    for a in range(1, int(p ** 0.5) + 1):
        if p % a == 0:
            best = (a, p // a)
    return best
