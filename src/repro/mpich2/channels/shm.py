"""Globally-shared-memory reference implementation (paper Fig. 3).

This is the scheme the basic design *emulates* over RDMA: a ring
buffer in (actually) shared memory with head and tail pointers, put
copying in and adjusting head, get copying out and adjusting tail.
Both ranks must be placed on the same node.  It exists as the
semantics reference for the FIFO-pipe property tests and to measure
what the emulation costs relative to true shared memory.
"""

from __future__ import annotations

import struct
from typing import Generator, Sequence

from ...hw.memory import Buffer
from ...sim.engine import Event, FirstOf
from ...sim.sync import Gate
from .base import (ChannelBrokenError, ChannelError, Connection,
                   IovCursor, RdmaChannel, iov_total)
from .parts import copy_iov, wrapped

__all__ = ["ShmChannel", "ShmConnection"]

_PTR_SIZE = 8


class _SharedRing:
    """One direction: ring + head + tail words in shared memory."""

    def __init__(self, node, size: int):
        self.size = size
        #: set by either end's finalize; a put/get on a closed ring is
        #: a use-after-teardown race and raises ChannelBrokenError
        self.closed = False
        self.ring = node.alloc(size, "shm.ring")
        self.head_word = node.alloc(_PTR_SIZE, "shm.head")
        self.tail_word = node.alloc(_PTR_SIZE, "shm.tail")
        self.head_word.write(struct.pack("<Q", 0))
        self.tail_word.write(struct.pack("<Q", 0))

    def head(self) -> int:
        return struct.unpack("<Q", self.head_word.read())[0]

    def tail(self) -> int:
        return struct.unpack("<Q", self.tail_word.read())[0]

    def set_head(self, v: int) -> None:
        self.head_word.write(struct.pack("<Q", v))

    def set_tail(self, v: int) -> None:
        self.tail_word.write(struct.pack("<Q", v))


class ShmConnection(Connection):
    def __init__(self, channel, peer_rank, out_ring, in_ring, gate):
        super().__init__(channel, peer_rank)
        self.out_ring: _SharedRing = out_ring
        self.in_ring: _SharedRing = in_ring
        self.gate: Gate = gate


class ShmChannel(RdmaChannel):
    @classmethod
    def establish(cls, a: "ShmChannel", b: "ShmChannel") -> None:
        if a.node is not b.node:
            raise ChannelError(
                "the shared-memory channel requires both ranks on the "
                "same node")
        ring_ab = _SharedRing(a.node, a.ch_cfg.ring_size)
        ring_ba = _SharedRing(a.node, a.ch_cfg.ring_size)
        gate = Gate(a.node.cluster.sim)
        a.conns[b.rank] = ShmConnection(a, b.rank, ring_ab, ring_ba, gate)
        b.conns[a.rank] = ShmConnection(b, a.rank, ring_ba, ring_ab, gate)

    def wakeup(self) -> Event:
        return FirstOf(self.node.cluster.sim,
                       [conn.gate.wait() for conn in self.conns.values()])

    def put(self, conn: ShmConnection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        ring = conn.out_ring
        if ring.closed:
            raise ChannelBrokenError(
                f"shared-memory segment to rank {conn.peer_rank} was "
                f"torn down (peer finalized); put raced with teardown")
        free = ring.size - (ring.head() - ring.tail())
        n = min(free, iov_total(iov))
        if n <= 0:
            return 0
        cur = IovCursor(iov)
        head = ring.head()
        for pos, run in wrapped(head % ring.size, n, ring.size):
            yield from copy_iov(self.node, cur, ring.ring.addr + pos, run,
                                into_iov=False)
        ring.set_head(head + n)
        conn.gate.open()
        return n

    def recv_ready(self, conn: ShmConnection) -> bool:
        ring = conn.in_ring
        # lint: allow(falsy-or-default, boolean-valued result)
        return ring.closed or ring.head() != ring.tail()

    def get(self, conn: ShmConnection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        if not self.recv_ready(conn):
            return 0
        ring = conn.in_ring
        if ring.closed:
            raise ChannelBrokenError(
                f"shared-memory segment from rank {conn.peer_rank} was "
                f"torn down (peer finalized); get raced with teardown")
        avail = ring.head() - ring.tail()
        n = min(avail, iov_total(iov))
        if n <= 0:
            return 0
        cur = IovCursor(iov)
        tail = ring.tail()
        for pos, run in wrapped(tail % ring.size, n, ring.size):
            yield from copy_iov(self.node, cur, ring.ring.addr + pos, run,
                                into_iov=True)
        ring.set_tail(tail + n)
        conn.gate.open()
        return n

    def finalize(self) -> Generator:
        """Tear down the shared segments.  Both directions' rings are
        marked closed so a peer still inside put/get fails loudly with
        :class:`ChannelBrokenError` instead of copying through freed
        memory; the gates open so a peer sleeping in the progress
        engine wakes up to observe the teardown."""
        if not self.finalized:
            for conn in self.conns.values():
                conn.out_ring.closed = True
                conn.in_ring.closed = True
                conn.gate.open()
        self.finalized = True
        return None
        yield  # pragma: no cover - makes this a generator; lint: allow(silent-generator, intentional empty generator)
