"""Shared receive queues (IBA SRQ).

The paper's all-to-all RC layout dedicates a receive ring to every
peer, so pinned receive memory grows O(N) per rank — O(N²) across the
world.  An SRQ decouples receive buffers from connections: many QPs
attach to one shared pool of receive WQEs on the same HCA, and an
inbound SEND on *any* of them consumes the next WQE from the pool.
Buffer memory then scales with the *traffic* a rank actually absorbs,
not with the number of peers (the standard fix catalogued by RDMAvisor
and Taranov et al.; see docs/SIMULATOR.md).

Backpressure when the pool runs dry follows IB's RNR (receiver not
ready) NAK semantics, adapted to the simulator's two delivery paths:

* on the no-fault fast path, delivery blocks FIFO until a buffer is
  replenished (the requester's completion — and therefore its next
  send — is delayed exactly as an RNR retry loop would delay it,
  without simulating the NAK exchange event-by-event);
* on the fault-injected RC path the packet is silently discarded
  before consuming a PSN, so the requester's stop-and-wait machinery
  retransmits it — a literal RNR NAK minus the explicit NAK packet.

Both paths count ``rnr_stalls`` so protocol layers (and the tests) can
observe pool exhaustion.  A QP created with ``srq=`` rejects
``post_recv``: its owner must feed the shared pool instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..sim.sync import Store
from .types import QPError, RecvRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .hca import Hca

__all__ = ["SharedReceiveQueue"]


class SharedReceiveQueue:
    """A pool of receive WQEs shared by every QP attached to it.

    Credit-conservation invariant (property-tested): at any instant,

        posted_total - consumed_total == outstanding >= 0

    where *posted* counts successful :meth:`post` calls (initial fills
    and replenishes alike) and *consumed* counts WQEs handed to an
    inbound SEND.  ``rnr_stalls`` counts deliveries that found the
    pool empty.
    """

    def __init__(self, hca: "Hca", max_wr: int = 4096,
                 name: str = "", metrics: Any = None) -> None:
        if max_wr < 1:
            raise QPError("SRQ max_wr must be >= 1")
        self.hca = hca
        self.max_wr = max_wr
        # lint: allow(falsy-or-default, empty name means auto-name)
        self.name = name or f"srq[{hca.node_id}]"
        self._pool: Store = Store(hca.sim, capacity=max_wr)
        self.posted_total = 0
        self.consumed_total = 0
        self.rnr_stalls = 0
        m = metrics if metrics is not None else hca.mscope.scope("srq")
        self._m_posted = m.counter("srq_posted")
        self._m_consumed = m.counter("srq_consumed")
        self._m_stalls = m.counter("srq_rnr_stalls")

    @property
    def outstanding(self) -> int:
        """Receive WQEs currently available in the pool."""
        return len(self._pool)

    # -- consumer side (protocol layers) --------------------------------
    def post(self, rr: RecvRequest) -> None:
        """Add one receive WQE to the shared pool.

        Raises :class:`QPError` when the pool already holds ``max_wr``
        WQEs (like a real SRQ's ENOMEM on overflow).
        """
        # Validate lkeys eagerly, matching QueuePair.post_recv: real
        # HCAs check on placement, but eager checking surfaces
        # protocol bugs at the post site.
        for sge in rr.sges:
            self.hca.pd.lookup_lkey(sge.lkey).check_local(sge.addr,
                                                          sge.length)
        # A blocked delivery counts as a getter, which try_put hands
        # the item to directly — that still "fits", so gate on the
        # visible pool depth only when nobody is waiting.
        if not self._pool.try_put(rr):
            raise QPError(f"SRQ {self.name} full at max_wr={self.max_wr}")
        self.posted_total += 1
        self._m_posted.inc()
        if self.hca.shadow is not None:
            self.hca.shadow.on_srq_post(self, rr)

    # -- HCA delivery side ----------------------------------------------
    def try_consume(self) -> Optional[RecvRequest]:
        """Pop the next WQE, or None (and count an RNR stall) when the
        pool is dry — the fault path's discard-and-let-retransmit
        primitive."""
        ok, rr = self._pool.try_get()
        if not ok:
            self.rnr_stalls += 1
            self._m_stalls.inc()
            return None
        self.consumed_total += 1
        self._m_consumed.inc()
        if self.hca.shadow is not None:
            self.hca.shadow.on_srq_consume(self, rr)
        return rr

    def consume(self) -> Generator:
        """Pop the next WQE, blocking FIFO until one is replenished —
        the no-fault path's backpressure primitive.  FIFO ordering of
        the blocked deliveries preserves per-QP arrival order."""
        ok, rr = self._pool.try_get()
        if not ok:
            self.rnr_stalls += 1
            self._m_stalls.inc()
            rr = yield self._pool.get()
        self.consumed_total += 1
        self._m_consumed.inc()
        if self.hca.shadow is not None:
            self.hca.shadow.on_srq_consume(self, rr)
        return rr
