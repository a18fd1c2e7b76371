"""Basic design (§4.2): shared-memory emulation over RDMA writes.

A byte-granular ring lives in the receiver's memory.  Head and tail
pointers are replicated — "for the tail pointer, a master copy is kept
at the receiver, and a replica at the sender; for the head pointer, a
master copy at the sender, and a replica at the receiver" — and every
update of a replica is a separate RDMA write.  A matching send/receive
therefore costs **three** RDMA writes (data, head update, tail
update), and the implementation waits for each write's completion
before proceeding (the conservative behaviour whose cost §4.3's
piggybacking and delayed updates remove).  Measured result in the
paper: 18.6 µs latency, 230 MB/s peak bandwidth.
"""

from __future__ import annotations

import struct
from typing import Generator, Optional, Sequence

from ...hw.memory import Buffer
from ...ib.types import WcStatus
from .base import (ChannelBrokenError, ChannelError, Connection,
                   IovCursor, RdmaChannel,
                   iov_total)
from .registry import register

__all__ = ["BasicChannel", "BasicConnection"]

_PTR_SIZE = 8


class BasicConnection(Connection):
    """State for one direction pair of the basic design."""

    def __init__(self, channel: "BasicChannel", peer_rank: int):
        super().__init__(channel, peer_rank)
        # --- sending side (this rank -> peer) ---
        self.staging: Optional[Buffer] = None       # preregistered copy buf
        self.staging_mr = None
        self.remote_ring_addr = 0                   # ring in peer memory
        self.remote_ring_rkey = 0
        self.head = 0                               # master head (bytes)
        self.head_slot: Optional[Buffer] = None     # local 8B to RDMA out
        self.head_slot_mr = None
        self.remote_head_addr = 0                   # replica at receiver
        self.remote_head_rkey = 0
        self.tail_replica: Optional[Buffer] = None  # peer writes here
        self.tail_replica_mr = None
        # --- receiving side (peer -> this rank) ---
        self.ring: Optional[Buffer] = None
        self.ring_mr = None
        self.tail = 0                               # master tail (bytes)
        self.tail_slot: Optional[Buffer] = None
        self.tail_slot_mr = None
        self.remote_tail_addr = 0
        self.remote_tail_rkey = 0
        self.head_replica: Optional[Buffer] = None
        self.head_replica_mr = None

    # pointer helpers (u64 little-endian in simulated memory) ----------
    def read_tail_replica(self) -> int:
        return struct.unpack("<Q", self.tail_replica.read())[0]

    def read_head_replica(self) -> int:
        return struct.unpack("<Q", self.head_replica.read())[0]


@register("basic")
class BasicChannel(RdmaChannel):

    def __init__(self, **kw):
        super().__init__(**kw)
        m = self.metrics
        self._m_data_writes = m.counter("data_writes")
        self._m_data_bytes = m.counter("data_bytes")
        self._m_head_updates = m.counter("head_updates")
        self._m_tail_updates = m.counter("tail_updates")
        self._m_wire_bytes = m.counter("wire_bytes")

    def recv_watch_addr(self, conn: BasicConnection) -> int:
        # The peer announces data by RDMA-writing the head replica —
        # always after the data writes have landed (same QP, in
        # order) — and an empty `get` returns after one local head
        # read with no yields, so the basic design satisfies both
        # conditions for receive gating.
        return conn.head_replica.addr

    @classmethod
    def establish(cls, a: "BasicChannel", b: "BasicChannel") -> None:
        if a.rank == b.rank:
            raise ChannelError("cannot connect a rank to itself")
        cq_a = a.node.hca.create_cq()
        cq_b = b.node.hca.create_cq()
        qp_a = a.node.hca.create_qp(cq_a)
        qp_b = b.node.hca.create_qp(cq_b)
        qp_a.connect(qp_b)

        conn_a = BasicConnection(a, b.rank)
        conn_b = BasicConnection(b, a.rank)
        conn_a.qp, conn_b.qp = qp_a, qp_b

        for src, dst, cs, cd in ((a, b, conn_a, conn_b),
                                 (b, a, conn_b, conn_a)):
            size = src.ch_cfg.ring_size
            # ring + head replica at the receiver
            ring = dst.node.alloc(size, f"bring[{src.rank}->{dst.rank}]")
            ring_mr = dst.node.hca.pd.register(ring.addr, size)
            head_rep = dst.node.alloc(_PTR_SIZE, "head_replica")
            head_rep_mr = dst.node.hca.pd.register(head_rep.addr, _PTR_SIZE)
            # staging + head master + tail replica at the sender
            staging = src.node.alloc(size, "bstaging")
            staging_mr = src.node.hca.pd.register(staging.addr, size)
            head_slot = src.node.alloc(_PTR_SIZE, "head_slot")
            head_slot_mr = src.node.hca.pd.register(head_slot.addr,
                                                    _PTR_SIZE)
            tail_rep = src.node.alloc(_PTR_SIZE, "tail_replica")
            tail_rep_mr = src.node.hca.pd.register(tail_rep.addr,
                                                   _PTR_SIZE)
            # tail master slot at the receiver (RDMA'd back to sender)
            tail_slot = dst.node.alloc(_PTR_SIZE, "tail_slot")
            tail_slot_mr = dst.node.hca.pd.register(tail_slot.addr,
                                                    _PTR_SIZE)

            cs.staging, cs.staging_mr = staging, staging_mr
            cs.remote_ring_addr, cs.remote_ring_rkey = ring.addr, \
                ring_mr.rkey
            cs.head_slot, cs.head_slot_mr = head_slot, head_slot_mr
            cs.remote_head_addr, cs.remote_head_rkey = head_rep.addr, \
                head_rep_mr.rkey
            cs.tail_replica, cs.tail_replica_mr = tail_rep, tail_rep_mr

            cd.ring, cd.ring_mr = ring, ring_mr
            cd.head_replica, cd.head_replica_mr = head_rep, head_rep_mr
            cd.tail_slot, cd.tail_slot_mr = tail_slot, tail_slot_mr
            cd.remote_tail_addr, cd.remote_tail_rkey = tail_rep.addr, \
                tail_rep_mr.rkey

        a.conns[b.rank] = conn_a
        b.conns[a.rank] = conn_b

    # ------------------------------------------------------------------
    def _sync_write(self, conn: BasicConnection, sges, raddr, rkey
                    ) -> Generator:
        """Post one RDMA write and spin for its completion — the basic
        design's conservative step-by-step behaviour."""
        wr = yield from self.ctx.rdma_write(conn.qp, sges, raddr, rkey,
                                            signaled=True)
        cqe = yield from self.ctx.wait_cq(conn.qp.send_cq)
        if cqe.status is not WcStatus.SUCCESS:
            raise ChannelBrokenError(
                f"basic-design write failed: {cqe.status}")
        if cqe.wr_id != wr.wr_id:
            raise ChannelError(
                f"expected completion of wr {wr.wr_id}, got {cqe.wr_id}")
        return None

    def put(self, conn: BasicConnection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        ring_size = self.ch_cfg.ring_size
        # 1. "Use local copies of head and tail pointers to decide how
        #    much empty space is available."
        tail = conn.read_tail_replica()
        free = ring_size - (conn.head - tail)
        n = min(free, iov_total(iov))
        if n <= 0:
            return 0

        # 2. "Copy user buffer to the preregistered buffer."  The copy
        #    lands at the ring offset so one (or two, on wraparound)
        #    RDMA writes transfer it contiguously.
        cur = IovCursor(iov)
        start = conn.head % ring_size
        copied = 0
        t0 = self.ctx.sim.now
        while copied < n:
            pos = (start + copied) % ring_size
            run = min(n - copied, ring_size - pos)
            piece = cur.current(run)
            run = min(run, len(piece))
            yield from self.node.membus.memcpy(
                self.node.mem, conn.staging.addr + pos, piece.addr, run,
                working_set=None)
            cur.advance(run)
            copied += run
        self.timeline.span(f"rank{self.rank}", "copy_to_staging",
                           t0, self.ctx.sim.now, cat="memcpy",
                           args={"bytes": n})

        # 3. "Use RDMA write operation to write the data to the buffer
        #    at the receiver side."  (two writes when wrapping)
        first = min(n, ring_size - start)
        yield from self._sync_write(
            conn,
            [(conn.staging.addr + start, first, conn.staging_mr.lkey)],
            conn.remote_ring_addr + start, conn.remote_ring_rkey)
        self._m_data_writes.inc()
        if n - first > 0:
            yield from self._sync_write(
                conn,
                [(conn.staging.addr, n - first, conn.staging_mr.lkey)],
                conn.remote_ring_addr, conn.remote_ring_rkey)
            self._m_data_writes.inc()
        self._m_data_bytes.inc(n)
        self._m_wire_bytes.inc(n)

        # 4. "Adjust the head pointer based on the amount of data
        #    written."
        conn.head += n
        conn.head_slot.write(struct.pack("<Q", conn.head))

        # 5. "Use another RDMA write to update the remote copy of head
        #    pointer."
        yield from self._sync_write(
            conn,
            [(conn.head_slot.addr, _PTR_SIZE, conn.head_slot_mr.lkey)],
            conn.remote_head_addr, conn.remote_head_rkey)
        self._m_head_updates.inc()
        self._m_wire_bytes.inc(_PTR_SIZE)

        # 6. "Return the number of bytes written."
        return n

    def get(self, conn: BasicConnection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        ring_size = self.ch_cfg.ring_size
        # 1. "Check local copies of head and tail pointers to see
        #    whether there is new data available."
        head = conn.read_head_replica()
        avail = head - conn.tail
        n = min(avail, iov_total(iov))
        if n <= 0:
            return 0

        # 2. "Copy the data from the shared memory buffer to user
        #    buffer."
        cur = IovCursor(iov)
        start = conn.tail % ring_size
        copied = 0
        t0 = self.ctx.sim.now
        while copied < n:
            pos = (start + copied) % ring_size
            run = min(n - copied, ring_size - pos)
            piece = cur.current(run)
            run = min(run, len(piece))
            yield from self.node.membus.memcpy(
                self.node.mem, piece.addr, conn.ring.addr + pos, run,
                working_set=None)
            cur.advance(run)
            copied += run
        self.timeline.span(f"rank{self.rank}", "copy_from_ring",
                           t0, self.ctx.sim.now, cat="memcpy",
                           args={"bytes": n})

        # 3. "Adjust the tail pointer."
        conn.tail += n
        conn.tail_slot.write(struct.pack("<Q", conn.tail))

        # 4. "Use an RDMA write to update the remote copy of tail
        #    pointer."  The get returns as soon as the update is
        #    posted (the §4.2 text returns right after issuing it) —
        #    the tail-slot value is monotonic, so a later overwrite of
        #    an in-flight update is harmless.
        yield from self.ctx.rdma_write(
            conn.qp,
            [(conn.tail_slot.addr, _PTR_SIZE, conn.tail_slot_mr.lkey)],
            conn.remote_tail_addr, conn.remote_tail_rkey,
            signaled=False)
        self._m_tail_updates.inc()
        self._m_wire_bytes.inc(_PTR_SIZE)

        # 5. "Return the number of bytes successfully read."
        return n
