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

from typing import Generator, Optional, Sequence

from ...hw.memory import Buffer
from .base import Connection, IovCursor, RdmaChannel, iov_total
from .parts import Replica, copy_iov, pinned, rc_pair, wrapped, write_done

__all__ = ["BasicChannel", "BasicConnection"]

_PTR_SIZE = 8


class BasicConnection(Connection):
    """State for one direction pair of the basic design.  The ``tx_``
    pointer replicas belong to the direction this rank sends on, the
    ``rx_`` ones to the direction it receives on."""

    def __init__(self, channel: "BasicChannel", peer_rank: int):
        super().__init__(channel, peer_rank)
        # --- sending side (this rank -> peer) ---
        self.staging: Optional[Buffer] = None       # preregistered copy buf
        self.staging_lkey = 0
        self.remote_ring_addr = 0                   # ring in peer memory
        self.remote_ring_rkey = 0
        self.head = 0                               # master head (bytes)
        self.tx_head: Optional[Replica] = None      # replica at receiver
        self.tx_tail: Optional[Replica] = None      # peer writes here
        # --- receiving side (peer -> this rank) ---
        self.ring: Optional[Buffer] = None
        self.tail = 0                               # master tail (bytes)
        self.rx_head: Optional[Replica] = None
        self.rx_tail: Optional[Replica] = None


class BasicChannel(RdmaChannel):

    def __init__(self, **kw):
        super().__init__(**kw)
        m = self.metrics
        self._m_data_writes = m.counter("data_writes")
        self._m_data_bytes = m.counter("data_bytes")
        self._m_head_updates = m.counter("head_updates")
        self._m_tail_updates = m.counter("tail_updates")
        self._m_wire_bytes = m.counter("wire_bytes")

    @classmethod
    def establish(cls, a: "BasicChannel", b: "BasicChannel") -> None:
        conn_a, conn_b = rc_pair(BasicConnection, a, b)
        for src, dst, cs, cd in ((a, b, conn_a, conn_b),
                                 (b, a, conn_b, conn_a)):
            size = src.ch_cfg.ring_size
            # ring + head replica at the receiver
            cd.ring, ring_mr = pinned(dst.node, size,
                                      f"bring[{src.rank}->{dst.rank}]")
            head_replica = pinned(dst.node, _PTR_SIZE, "head_replica")
            # staging + head master at the sender
            cs.staging, staging_mr = pinned(src.node, size, "bstaging")
            cs.staging_lkey = staging_mr.lkey
            cs.remote_ring_addr = cd.ring.addr
            cs.remote_ring_rkey = ring_mr.rkey
            cs.tx_head = cd.rx_head = Replica(
                head_replica, pinned(src.node, _PTR_SIZE, "head_slot"))
            # tail replica at the sender; the tail master slot at the
            # receiver is RDMA'd back to it
            cs.tx_tail = cd.rx_tail = Replica(
                pinned(src.node, _PTR_SIZE, "tail_replica"),
                pinned(dst.node, _PTR_SIZE, "tail_slot"))

    # ------------------------------------------------------------------
    def put(self, conn: BasicConnection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        ring_size = self.ch_cfg.ring_size
        # 1. "Use local copies of head and tail pointers to decide how
        #    much empty space is available."
        free = ring_size - (conn.head - conn.tx_tail.read())
        n = min(free, iov_total(iov))
        if n <= 0:
            return 0

        # 2. "Copy user buffer to the preregistered buffer."  The copy
        #    lands at the ring offset so one (or two, on wraparound)
        #    RDMA writes transfer it contiguously.
        runs = wrapped(conn.head % ring_size, n, ring_size)
        cur = IovCursor(iov)
        t0 = self.ctx.sim.now
        for pos, run in runs:
            yield from copy_iov(self.node, cur, conn.staging.addr + pos,
                                run, into_iov=False)
        self.timeline.span(f"rank{self.rank}", "copy_to_staging",
                           t0, self.ctx.sim.now, cat="memcpy",
                           args={"bytes": n})

        # 3. "Use RDMA write operation to write the data to the buffer
        #    at the receiver side."  (two writes when wrapping)
        for pos, run in runs:
            wr = yield from self.ctx.rdma_write(
                conn.qp, [(conn.staging.addr + pos, run, conn.staging_lkey)],
                conn.remote_ring_addr + pos, conn.remote_ring_rkey,
                signaled=True)
            # the basic design's conservative step-by-step behaviour:
            # spin for each write's completion before the next step
            yield from write_done(self.ctx, conn.qp, wr, "basic-design")
            self._m_data_writes.inc()
        self._m_data_bytes.inc(n)
        self._m_wire_bytes.inc(n)

        # 4. "Adjust the head pointer based on the amount of data
        #    written."
        conn.head += n

        # 5. "Use another RDMA write to update the remote copy of head
        #    pointer."
        wr = yield from conn.tx_head.publish(self.ctx, conn.qp, conn.head,
                                             signaled=True)
        yield from write_done(self.ctx, conn.qp, wr, "basic-design")
        self._m_head_updates.inc()
        self._m_wire_bytes.inc(_PTR_SIZE)

        # 6. "Return the number of bytes written."
        return n

    def recv_ready(self, conn: BasicConnection) -> bool:
        # 1. "Check local copies of head and tail pointers to see
        #    whether there is new data available."
        return conn.rx_head.read() != conn.tail

    def get(self, conn: BasicConnection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        if not self.recv_ready(conn):
            return 0
        ring_size = self.ch_cfg.ring_size
        avail = conn.rx_head.read() - conn.tail
        n = min(avail, iov_total(iov))
        if n <= 0:
            return 0

        # 2. "Copy the data from the shared memory buffer to user
        #    buffer."
        cur = IovCursor(iov)
        t0 = self.ctx.sim.now
        for pos, run in wrapped(conn.tail % ring_size, n, ring_size):
            yield from copy_iov(self.node, cur, conn.ring.addr + pos, run,
                                into_iov=True)
        self.timeline.span(f"rank{self.rank}", "copy_from_ring",
                           t0, self.ctx.sim.now, cat="memcpy",
                           args={"bytes": n})

        # 3. "Adjust the tail pointer."
        conn.tail += n

        # 4. "Use an RDMA write to update the remote copy of tail
        #    pointer."  The get returns as soon as the update is
        #    posted (the §4.2 text returns right after issuing it) —
        #    the tail-slot value is monotonic, so a later overwrite of
        #    an in-flight update is harmless.
        yield from conn.rx_tail.publish(self.ctx, conn.qp, conn.tail)
        self._m_tail_updates.inc()
        self._m_wire_bytes.inc(_PTR_SIZE)

        # 5. "Return the number of bytes successfully read."
        return n
