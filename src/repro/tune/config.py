"""Configuration of the adaptive protocol tuner.

The paper fixes every protocol knob statically — 16 KB chunks (§4.4),
a hard 32 KB eager/rendezvous crossover (§6), tail-pointer updates at
a quarter-ring threshold (§4.3) — and its own Fig. 15 shows the best
protocol *changes with message size and workload*.  ``TuneConfig``
bounds what the runtime controller (:mod:`repro.tune.controller`) may
do about that.

The default constructed ``TuneConfig()`` is *enabled*; the stack-wide
default is :meth:`TuneConfig.off`, under which every simulation is
bit-for-bit identical to a build without the tuner (the same guarantee
the fault-injection and observability layers uphold).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import KB, _ConfigMixin

__all__ = ["TuneConfig"]


@dataclass(frozen=True, kw_only=True)
class TuneConfig(_ConfigMixin):
    """Bounds and cadence for the adaptive controller.

    Instances are immutable; derive variants with ``replace()`` (from
    the shared config mixin idiom) or construct keyword-only.
    """

    #: master switch.  False = the stack never consults the tuner and
    #: behaves exactly as the static configuration dictates.
    enabled: bool = True
    #: messages per peer between controller re-evaluations (one
    #: "window"); decisions only change at window boundaries, so the
    #: decision stream is a deterministic function of the workload.
    sample_every: int = 16
    #: relative margin a recomputed threshold must move by before the
    #: controller adopts it (prevents flapping between adjacent
    #: operating points; thresholds also move at most one power-of-two
    #: step per window, so convergence is monotone under a steady
    #: workload).
    hysteresis: float = 0.25
    #: a window whose maximum send-queue depth reaches this many
    #: outstanding messages is classified as *streaming* (bandwidth
    #: bound); below it the peer is latency bound (ping-pong-like).
    streaming_depth: int = 2
    #: bounds on the tuned eager/rendezvous crossover (the §6
    #: threshold the controller moves per peer).
    min_crossover: int = 4 * KB
    max_crossover: int = 256 * KB
    #: completions drained per progress-engine sweep through one CQ
    #: (the bounded poll budget of the batched drain path).
    cq_poll_budget: int = 8
    #: allow coalescing tail-pointer/credit updates when a
    #: connection's ring traffic is control-dominated (§4.3 delayed
    #: updates, pushed further at runtime).
    coalesce_credits: bool = True
    #: allow moving the per-peer eager/rendezvous crossover.
    tune_crossover: bool = True
    #: allow switching the large-message protocol per peer
    #: (CH3-style RDMA write vs zero-copy RDMA read).
    tune_protocol: bool = True
    #: allow capping the ring chunk payload below the configured
    #: chunk size (finer pipelining for latency-bound peers).
    tune_chunk: bool = True

    def __post_init__(self):
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if not (0.0 <= self.hysteresis < 1.0):
            raise ValueError("hysteresis must be in [0, 1)")
        if self.streaming_depth < 1:
            raise ValueError("streaming_depth must be >= 1")
        if self.min_crossover < 1 or self.max_crossover < self.min_crossover:
            raise ValueError("need 1 <= min_crossover <= max_crossover")
        if self.cq_poll_budget < 1:
            raise ValueError("cq_poll_budget must be >= 1")

    # -- the stack-wide default ----------------------------------------
    @classmethod
    def off(cls) -> "TuneConfig":
        """The disabled configuration: adaptive machinery present but
        never consulted — simulations are bit-for-bit identical to the
        static stack."""
        return cls(enabled=False)
