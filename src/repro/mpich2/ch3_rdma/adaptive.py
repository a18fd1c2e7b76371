"""CH3 device for the adaptive design.

Extends the §6 rendezvous device with the controller consult/feed
points:

* every send consults ``tuner.rndv_threshold(peer)`` instead of the
  static §6 threshold, and feeds the controller the message size and
  the send-queue depth (its streaming/latency classifier input);
* the base device's completion drain charges one poll cost per batch
  of ``tuner.cq_budget`` CQEs (``repro.tune.controller.CQ_POLL_BUDGET``
  here), and this device hands zero-copy read completions back to
  the channel's state machine (both protocols share the send CQ).
"""

from __future__ import annotations

from typing import Generator

from ...ib.types import Opcode, WcStatus
from ...tune.controller import CH3_RNDV_THRESHOLD
from ..adi3 import MpiError
from .device import Ch3RdmaDevice

__all__ = ["Ch3AdaptiveDevice"]


class Ch3AdaptiveDevice(Ch3RdmaDevice):
    """Rendezvous device wired to the channel's adaptive controller."""

    def _use_rndv(self, live, size, dest) -> bool:
        threshold = self.tuner.rndv_threshold(dest, CH3_RNDV_THRESHOLD)
        use = size >= threshold and len(live) == 1
        # feed the controller: size, queue depth (the streaming
        # detector input: packets still queued on the connection plus
        # rendezvous handshakes in flight to this peer — back-to-back
        # windowed sends pile up here, ping-pong never exceeds one),
        # and which path this send takes
        depth = len(self.conn_state[dest].sendq) + sum(
            1 for s in self.rndv_sends.values() if s.peer == dest)
        self.tuner.on_send(dest, size, depth=depth, rndv=use)
        return use

    def _reap_completion(self, peer: int, st, cqe
                         ) -> Generator[None, None, bool]:
        if cqe.opcode is Opcode.RDMA_READ:
            # a channel-level zero-copy read shares our send CQ: mark
            # it done so the channel's next get() completes it
            zc = getattr(st.conn, "zc_read", None)
            if zc is None or cqe.wr_id != zc.wr_id:
                raise MpiError(f"unexpected completion {cqe}")
            if cqe.status is not WcStatus.SUCCESS:
                raise MpiError(
                    f"rank {self.rank}: zero-copy read from rank "
                    f"{peer} failed: {cqe.status}")
            zc.done = True
            return True
        return (yield from super()._reap_completion(peer, st, cqe))
