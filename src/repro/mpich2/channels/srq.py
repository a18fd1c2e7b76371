"""Connection-scaling channel designs: ``srq`` and ``mux``.

The paper's eager channels pin a dedicated receive ring per peer, so
receive memory per rank grows linearly with the world and quadratically
across it.  The ``srq`` design replaces every per-peer ring with one
shared pool of fixed-size receive slots fed to a :class:`~repro.ib.srq.
SharedReceiveQueue`: a rank's pinned receive memory is then sized by
the traffic it absorbs, not by its peer count.  The ``mux`` design
additionally multiplexes the logical peer flows of a node pair onto a
bounded pool of QPs, bounding QP state the same way.

Wire protocol (IB SEND/receive, not RDMA write):

* every message is ``<iiQ`` header (src rank, dst rank, piggybacked
  cumulative credit) + payload, at most ``srq_slot_size`` total;
* the sender stages each message in one of ``srq_credits`` registered
  send slots and may have at most ``srq_credits`` messages outstanding
  (unacknowledged by credit) per peer — the receiver posts enough pool
  slots that well-credited flows rarely hit the SRQ dry (and when many
  peers burst at once, SRQ RNR backpressure delays delivery instead of
  dropping anything);
* the receiver returns credits two ways: piggybacked on reverse data
  traffic, and — when ``srq_credits // 2`` messages are consumed with
  no reverse traffic — by an explicit unsignaled RDMA write of its
  cumulative consumed count into an 8-byte replica at the sender.

Credits are cumulative counters, so both paths are idempotent and
monotonic; the sender takes the max of the replica and any piggybacked
value.  FIFO per flow holds because a flow maps to exactly one RC QP
(hash-selected under ``mux``), the HCA delivers per-QP in order, pool
CQEs preserve delivery order, and the demultiplexer appends to per-flow
queues in CQE order.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ...hw.memory import Buffer
from ...ib.types import RecvRequest, Sge, WcStatus
from ...sim.sync import Fifo
from .base import (ChannelBrokenError, ChannelError, Connection, IovCursor,
                   RdmaChannel, iov_total)
from .parts import CreditReturn, CreditWindow, Replica, copy_iov, pinned

__all__ = ["SrqChannel", "MuxChannel", "SrqConnection"]

#: wire header: src rank, dst rank, piggybacked cumulative credit
_HDR_FMT = "<iiQ"
_HDR_SIZE = struct.calcsize(_HDR_FMT)

#: bounded QP pool per node pair in the ``mux`` design; peer flows hash
#: onto the pool deterministically.
QP_POOL_SIZE = 4


class _RecvPool:
    """One shared receive pool: the slot arena, its SRQ, the CQ all
    attached QPs complete into, and the per-flow demultiplexer.

    ``srq`` owns one per rank; ``mux`` shares one per node.  The pool
    registers which channel serves each destination rank so piggybacked
    credits can be absorbed into the right connection at drain time.
    """

    def __init__(self, node, slots: int, slot_size: int, name: str):
        self.node = node
        self.slots = slots
        self.slot_size = slot_size
        self.recv_cq = node.hca.create_cq(depth=max(4096, slots + 1),
                                          name=f"{name}.rcq")
        self.srq = node.hca.create_srq(max_wr=slots, name=name)
        buf, self.mr = pinned(node, slots * slot_size, f"{name}.pool")
        self.base = buf.addr
        for i in range(slots):
            self.srq.post(self.make_rr(i))
        #: (src rank, dst rank) -> Fifo of [slot, offset, remaining]
        self.flows: Dict[Tuple[int, int], Fifo] = {}
        #: dst rank -> owning channel (for credit absorption)
        self.channels: Dict[int, "SrqChannel"] = {}

    def slot_addr(self, i: int) -> int:
        return self.base + i * self.slot_size

    def make_rr(self, i: int) -> RecvRequest:
        return RecvRequest([Sge(self.slot_addr(i), self.slot_size,
                                self.mr.lkey)], wr_id=i)

    def flow(self, src: int, dst: int) -> Fifo:
        q = self.flows.get((src, dst))
        if q is None:
            q = self.flows[(src, dst)] = Fifo()
        return q

    def drain(self) -> None:
        """Demultiplex every pending pool CQE into its flow queue and
        absorb piggybacked credits.  Yield-free by construction: safe
        to call from an empty ``get`` sweep."""
        while True:
            cqe = self.recv_cq.poll()
            if cqe is None:
                return
            if cqe.status is not WcStatus.SUCCESS:
                raise ChannelBrokenError(
                    f"SRQ pool receive failed: {cqe.status.name}")
            slot = cqe.wr_id
            src, dst, credit = struct.unpack(
                _HDR_FMT, self.node.mem.read(self.slot_addr(slot),
                                             _HDR_SIZE))
            chan = self.channels.get(dst)
            if chan is None:
                raise ChannelError(
                    f"SRQ pool on node {self.node.node_id} received a "
                    f"message for unregistered rank {dst}")
            conn = chan.conns.get(src)
            if conn is not None:
                conn.window.absorb(credit)
            self.flow(src, dst).append(
                [slot, _HDR_SIZE, cqe.byte_len - _HDR_SIZE])


class _SendEndpoint:
    """Send-side state multiplexed onto one send CQ: the wr_id ->
    (connection, staging slot) ledger that routes send completions
    back to the flow that posted them, plus (under ``mux``) the QP
    pool a node pair shares."""

    __slots__ = ("cq", "qps", "ledger")

    def __init__(self, cq, nqps: int = 0):
        self.cq = cq
        self.qps: List = [None] * nqps
        self.ledger: Dict[int, Tuple["SrqConnection", int]] = {}


class SrqConnection(Connection):
    """Per-peer flow state: send slots and the two halves of the
    credit window — ``window`` over my messages to the peer,
    ``credits`` over the peer's messages I consumed."""

    def __init__(self, channel: "SrqChannel", peer_rank: int):
        super().__init__(channel, peer_rank)
        self.ep: Optional[_SendEndpoint] = None
        self.send_slots: Optional[Buffer] = None
        self.send_slots_mr = None
        self.slot_busy: List[bool] = []
        self.window: Optional[CreditWindow] = None
        self.credits: Optional[CreditReturn] = None


class SrqChannel(RdmaChannel):
    """Shared-receive-pool eager channel (one pool + SRQ per rank)."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self._pool: Optional[_RecvPool] = None
        m = self.node.hca.mscope.scope(f"chan.srq[{self.rank}]")
        self._m_msgs = m.counter("data_msgs")
        self._m_bytes = m.counter("data_bytes")
        self._m_credit_stalls = m.counter("credit_stalls")
        self._m_slot_stalls = m.counter("send_slot_stalls")
        self._m_explicit_credits = m.counter("explicit_credit_writes")

    # -- lifecycle ---------------------------------------------------------
    def initialize(self, world_size: int) -> None:
        super().initialize(world_size)
        self._pool = self._make_pool()
        self._pool.channels[self.rank] = self

    def _make_pool(self) -> _RecvPool:
        return _RecvPool(self.node, self.ch_cfg.srq_pool_slots,
                         self.ch_cfg.srq_slot_size, f"srq[{self.rank}]")

    @classmethod
    def _wire_qps(cls, a: "SrqChannel", b: "SrqChannel"):
        """One dedicated QP pair per connection, receive side attached
        to each rank's shared pool."""
        ep_a = _SendEndpoint(
            a.node.hca.create_cq(name=f"srq.scq[{a.rank}->{b.rank}]"))
        ep_b = _SendEndpoint(
            b.node.hca.create_cq(name=f"srq.scq[{b.rank}->{a.rank}]"))
        qp_a = a.node.hca.create_qp(ep_a.cq, a._pool.recv_cq,
                                    srq=a._pool.srq)
        qp_b = b.node.hca.create_qp(ep_b.cq, b._pool.recv_cq,
                                    srq=b._pool.srq)
        qp_a.connect(qp_b)
        return qp_a, ep_a, qp_b, ep_b

    @classmethod
    def establish(cls, a: "SrqChannel", b: "SrqChannel") -> None:
        if a.rank == b.rank:
            raise ChannelError("cannot connect a rank to itself")
        if a._pool is None or b._pool is None:
            raise ChannelError("initialize() must run before establish()")
        qp_a, ep_a, qp_b, ep_b = cls._wire_qps(a, b)
        conn_a = SrqConnection(a, b.rank)
        conn_b = SrqConnection(b, a.rank)
        conn_a.qp, conn_a.ep = qp_a, ep_a
        conn_b.qp, conn_b.ep = qp_b, ep_b
        ends = []
        for src, dst, conn in ((a, b, conn_a), (b, a, conn_b)):
            k = src.ch_cfg.srq_credits
            conn.send_slots, conn.send_slots_mr = pinned(
                src.node, k * src.ch_cfg.srq_slot_size,
                f"srq.send[{src.rank}->{dst.rank}]")
            conn.slot_busy = [False] * k
            # the credit replica the peer writes, and the staging word
            # for my own explicit credit writes to the peer
            ends += [pinned(src.node, 8, f"srq.crep[{src.rank}<-{dst.rank}]"),
                     pinned(src.node, 8, f"srq.cout[{src.rank}->{dst.rank}]")]
        rep_a, out_a, rep_b, out_b = ends
        to_a, to_b = Replica(rep_a, out_b), Replica(rep_b, out_a)
        for conn, mine, theirs in ((conn_a, to_a, to_b),
                                   (conn_b, to_b, to_a)):
            chan, k = conn.channel, conn.channel.ch_cfg.srq_credits
            conn.window = CreditWindow(k, mine)
            # replenish at half the window (the paper's threshold
            # heuristic: amortize the credit write without letting the
            # sender run dry)
            conn.credits = CreditReturn(chan.ctx, conn.qp, theirs,
                                        max(1, k // 2),
                                        chan._m_explicit_credits)
        # pre-create the flow queues so demux never allocates mid-drain
        a._pool.flow(b.rank, a.rank)
        b._pool.flow(a.rank, b.rank)
        a.conns[b.rank] = conn_a
        b.conns[a.rank] = conn_b

    # -- send side ---------------------------------------------------------
    def _drain_sends(self, ep: _SendEndpoint) -> None:
        while True:
            cqe = ep.cq.poll()
            if cqe is None:
                return
            if cqe.status is not WcStatus.SUCCESS:
                raise ChannelBrokenError(
                    f"SRQ send failed: {cqe.status.name}")
            owner = ep.ledger.pop(cqe.wr_id, None)
            if owner is not None:
                conn, slot = owner
                conn.slot_busy[slot] = False

    def put(self, conn: SrqConnection, iov: Sequence[Buffer]
            ) -> Generator[object, object, int]:
        self._drain_sends(conn.ep)
        self._pool.drain()  # absorb piggybacked credits promptly
        if not conn.window.is_open():
            self._m_credit_stalls.inc()
            return 0
        slot = next((i for i, busy in enumerate(conn.slot_busy)
                     if not busy), None)
        if slot is None:
            self._m_slot_stalls.inc()
            return 0
        n = min(iov_total(iov), self.ch_cfg.srq_slot_size - _HDR_SIZE)
        if n <= 0:
            return 0
        base = conn.send_slots.addr + slot * self.ch_cfg.srq_slot_size
        self.node.mem.write(base, struct.pack(
            _HDR_FMT, self.rank, conn.peer_rank, conn.credits.piggyback()))
        yield from copy_iov(self.node, IovCursor(iov), base + _HDR_SIZE, n,
                            into_iov=False)
        wr = yield from self.ctx.send(
            conn.qp,
            [(base, _HDR_SIZE + n, conn.send_slots_mr.lkey)],
            signaled=True)
        conn.ep.ledger[wr.wr_id] = (conn, slot)
        conn.slot_busy[slot] = True
        conn.window.sent += 1
        self._m_msgs.inc()
        self._m_bytes.inc(n)
        return n

    # -- receive side ------------------------------------------------------
    def recv_ready(self, conn: SrqConnection) -> bool:
        # a pool CQE not yet demultiplexed (it may be this flow's), or
        # bytes already queued on this flow
        return bool(self._pool.recv_cq.pending()
                    or self._pool.flow(conn.peer_rank, self.rank))

    def get(self, conn: SrqConnection, iov: Sequence[Buffer]
            ) -> Generator[object, object, int]:
        if not self.recv_ready(conn):
            return 0
        self._pool.drain()
        q = self._pool.flow(conn.peer_rank, self.rank)
        room = iov_total(iov)
        if room <= 0 or not q:
            return 0
        cur = IovCursor(iov)
        done = 0
        while q and done < room:
            seg = q[0]  # [slot, offset, remaining]
            take = min(seg[2], room - done)
            yield from copy_iov(self.node, cur,
                                self._pool.slot_addr(seg[0]) + seg[1],
                                take, into_iov=True)
            seg[1] += take
            seg[2] -= take
            done += take
            if seg[2] == 0:
                q.popleft()
                shadow = self.node.hca.shadow
                if shadow is not None:
                    shadow.on_srq_release(
                        self._pool.srq, self._pool.slot_addr(seg[0]))
                yield from self.ctx.post_srq(self._pool.srq,
                                             self._pool.make_rr(seg[0]))
                conn.credits.consumed += 1
                if conn.credits.credit_due():
                    yield from conn.credits.send_explicit_credit()
        return done

    # -- deadlock diagnosis ------------------------------------------------
    def stall_edges(self) -> list:
        """Post-mortem only: a peer whose credit window is exhausted
        (even counting the unread replica) can never accept another
        eager message until that peer consumes and replenishes."""
        edges = []
        for peer, conn in self.conns.items():
            win = conn.window
            if not win.is_open():
                edges.append((
                    self.rank, peer,
                    f"SRQ credit window starved: sent={win.sent} "
                    f"acked={win.acked} window={win.window}, "
                    "no replenish in flight"))
        return edges


class MuxChannel(SrqChannel):
    """``srq`` with node-level sharing: one receive pool per node and a
    bounded QP pool per node pair.  A flow (src rank, dst rank) hashes
    to one QP slot, so per-flow FIFO order is preserved while QP count
    scales with node pairs x ``QP_POOL_SIZE`` instead of rank pairs."""

    def _make_pool(self) -> _RecvPool:
        state = self.node.channel_state
        pool = state.get("mux.pool")
        if pool is None:
            pool = state["mux.pool"] = _RecvPool(
                self.node, self.ch_cfg.srq_pool_slots,
                self.ch_cfg.srq_slot_size,
                f"mux[node{self.node.node_id}]")
        return pool

    @staticmethod
    def _flow_slot(src: int, dst: int, nqps: int) -> int:
        return (src * 1000003 + dst * 7919 + 17) % nqps

    @staticmethod
    def _endpoint(chan: "MuxChannel", remote_node) -> _SendEndpoint:
        key = ("mux.ep", remote_node.node_id)
        ep = chan.node.channel_state.get(key)
        if ep is None:
            cq = chan.node.hca.create_cq(
                name=f"mux.scq[{chan.node.node_id}->"
                     f"{remote_node.node_id}]")
            ep = chan.node.channel_state[key] = _SendEndpoint(
                cq, nqps=QP_POOL_SIZE)
        return ep

    @classmethod
    def _wire_qps(cls, a: "MuxChannel", b: "MuxChannel"):
        if a.node is b.node:
            # Co-located ranks get a dedicated loopback pair attached
            # to the node pool; hashing both directions of a same-node
            # flow into one endpoint would alias the pool slots.
            return super()._wire_qps(a, b)
        ep_a = cls._endpoint(a, b.node)
        ep_b = cls._endpoint(b, a.node)
        ia = cls._flow_slot(a.rank, b.rank, QP_POOL_SIZE)
        ib = cls._flow_slot(b.rank, a.rank, QP_POOL_SIZE)
        for idx in ((ia,) if ia == ib else (ia, ib)):
            if ep_a.qps[idx] is None:
                qa = a.node.hca.create_qp(ep_a.cq, a._pool.recv_cq,
                                          srq=a._pool.srq)
                qb = b.node.hca.create_qp(ep_b.cq, b._pool.recv_cq,
                                          srq=b._pool.srq)
                qa.connect(qb)
                ep_a.qps[idx] = qa
                ep_b.qps[idx] = qb
        return ep_a.qps[ia], ep_a, ep_b.qps[ib], ep_b
