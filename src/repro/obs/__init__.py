"""Unified observability layer: counters, timelines, reports, gates.

The stack explains its performance the way the paper does — through
per-layer operation counts and overlap timelines — and this package is
where those observations live:

* :mod:`repro.obs.metrics` — hierarchical counter/gauge/histogram
  registry threaded through the HCA, CQs, registration cache, every
  channel design and CH3;
* :mod:`repro.obs.timeline` — span recorder with Chrome-trace export
  (one track per rank, one per HCA);
* :mod:`repro.obs.msgtrace` — message-lifecycle tracer, also
  tracking per-rank vector clocks;
* :mod:`repro.obs.waitgraph` — wait-for-graph deadlock diagnosis:
  converts a drained-queue hang into a ``DeadlockError`` naming the
  wait cycle and the last causal message per edge;
* :mod:`repro.obs.report` — snapshot/diff/format helpers;
* :mod:`repro.obs.gate` — machine-readable benchmark results
  (``BENCH_*.json``) and the regression gate against a committed
  baseline.

Everything is disabled by default: components hold the
:data:`NULL_OBS` hub whose registry and timeline are no-ops, and no
instrumentation point yields into the simulator, so the fault-free
event sequence is bit-for-bit identical whether observability is on
or off.  Enable it per run::

    from repro.obs import Observability
    from repro.mpi import run_mpi

    obs = Observability()
    run_mpi(2, prog, design="piggyback", obs=obs)
    print(obs.metrics.total("rdma_write_ops"))
    obs.timeline.dump("trace.json")   # open in chrome://tracing
"""

from __future__ import annotations

from typing import Optional

from .metrics import (NULL_METRICS, Counter, Gauge, Histogram,
                      MetricsRegistry, NullMetrics, Scope)
from .timeline import (NULL_TIMELINE, NullTimeline, Span, Timeline,
                       spans_overlap, total_overlap)

__all__ = ["Observability", "NullObservability", "NULL_OBS",
           "MetricsRegistry", "NullMetrics", "NULL_METRICS",
           "Counter", "Gauge", "Histogram", "Scope",
           "Timeline", "NullTimeline", "NULL_TIMELINE", "Span",
           "spans_overlap", "total_overlap"]


class Observability:
    """The hub a cluster carries: one metrics registry + one timeline.

    Pass an instance to :func:`repro.mpi.run_mpi`,
    :func:`repro.mpi.runner.build_world` or
    :func:`repro.cluster.build_cluster` to record that run.
    """

    enabled = True

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 timeline: Optional[Timeline] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timeline = timeline if timeline is not None else Timeline()

    def scope(self, prefix: str) -> Scope:
        """Shorthand for ``self.metrics.scope(prefix)``."""
        return self.metrics.scope(prefix)


class NullObservability(Observability):
    """The default hub: no-op registry, no-op timeline."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(NULL_METRICS, NULL_TIMELINE)


NULL_OBS = NullObservability()
