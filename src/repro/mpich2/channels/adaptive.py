"""Adaptive channel: the zero-copy ring machinery (§4.4 pipelining +
§5 RDMA read) with a per-peer runtime controller deciding which
protocol each peer actually gets.

The paper picks one protocol per *build*; its own measurements show the
best choice changes with message size and workload (Fig. 14/15: the
CH3-level RDMA-write rendezvous wins streaming bandwidth at
32 KB–256 KB, the RDMA-read zero-copy channel wins ping-pong latency
in the same band).  This design carries both state machines and lets
:class:`repro.tune.AdaptiveController` route per peer:

* eager traffic streams through the pipelined ring;
* a peer classified *streaming* gets the CH3 rendezvous RDMA write
  (driven by :class:`repro.mpich2.ch3_rdma.adaptive.Ch3AdaptiveDevice`
  above this channel);
* a peer classified *latency-bound* gets the channel-level zero-copy
  RDMA read (the controller re-arms ``conn.zc_threshold``).

The controller is always on; the same machinery with fixed knobs is
:class:`ZeroCopyChannel` (design ``zerocopy``).
"""

from __future__ import annotations

from ...tune import AdaptiveController
from .chunked import ChunkedChannel, ChunkedConnection

__all__ = ["AdaptiveChannel"]


class AdaptiveChannel(ChunkedChannel):
    PIPELINED = True
    ZEROCOPY = True

    def _zc_check_put(self, conn: ChunkedConnection) -> bool:
        # while the controller marks this peer fast-path (the RDMA-read
        # machinery cannot start new operations — rendezvous-write
        # protocol, or no large elements ever sent) the zero-copy
        # branch is compiled out of put/get: no threshold check, no §5
        # overhead — one of the wins a per-peer runtime choice buys
        # over a build-time one.  The check comes back while an
        # operation is still in flight.
        return not conn.zc_fastpath or conn.zc_send is not None

    def _zc_check_get(self, conn: ChunkedConnection) -> bool:
        return not conn.zc_fastpath or conn.zc_read is not None

    def __init__(self, **kw):
        super().__init__(**kw)
        self.tuner = AdaptiveController(
            rank=self.rank, hw=self.cfg, ch_cfg=self.ch_cfg,
            metrics=self.obs.metrics.scope(f"rank{self.rank}.tune"),
            regcache=self.regcache)

    @classmethod
    def establish(cls, a: "AdaptiveChannel", b: "AdaptiveChannel"
                  ) -> None:
        super().establish(a, b)
        # hand each side's connection to its controller so retunes can
        # write the per-connection knobs (zc_threshold, credit
        # threshold, soft chunk cap)
        a.tuner.attach(b.rank, a.conns[b.rank])
        b.tuner.attach(a.rank, b.conns[a.rank])
