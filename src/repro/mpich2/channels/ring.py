"""Chunked ring-buffer machinery shared by the piggyback, pipeline and
zero-copy designs (§4.3–§5).

Wire format of one chunk (the "combine data and the new value of head
pointer into a single message" layout of §4.3):

====== ======= ====================================================
offset  size    field
====== ======= ====================================================
0       1       seq — leading polling flag
1       1       kind (DATA / RTS / ACK / CREDIT)
2       2       payload length (u16 LE)
4       8       credit (u64 LE): chunks of the *reverse* direction
                the sender of this chunk has consumed (the
                piggybacked tail-pointer update)
12      4       aux (u32 LE): zero-copy operation id
16      len     payload
16+len  1       seq again — trailing polling flag ("bottom fill")
====== ======= ====================================================

The receiver detects arrival by polling both flags: the chunk at ring
position ``c`` is valid when both equal ``seq(c) = (c % 251) + 1``.
251 is prime, so a slot's previous generation always carries a
different seq as long as the slot count is not a multiple of 251
(asserted at setup); a partially-stale read can never be mistaken for
a fresh chunk.

One RDMA write per chunk carries header+payload+trailer contiguously —
exactly one operation per message, which is the whole point of §4.3.
"""

from __future__ import annotations

import struct
from typing import Generator, Optional, Tuple

import numpy as np

from ...hw.memory import Buffer, _Region
from ...ib.mr import MemoryRegion
from ...ib.types import WorkRequest
from ...obs import NULL_METRICS
from .parts import CreditReturn, CreditWindow, Replica

__all__ = ["HDR_SIZE", "TRAILER_SIZE", "SEQ_MOD", "KIND_DATA", "KIND_RTS",
           "KIND_ACK", "KIND_CREDIT", "KIND_NAK", "RingSender",
           "RingReceiver", "pack_rts", "unpack_rts", "seq_of"]

HDR_SIZE = 16
TRAILER_SIZE = 1
SEQ_MOD = 251  # prime; seq bytes are 1..251, 0 = never written

KIND_DATA = 1
KIND_RTS = 2
KIND_ACK = 3
KIND_CREDIT = 4
#: zero-copy negative-ack: the receiver could not register the
#: destination buffer — the sender must fall back to streaming the
#: advertised element through the ring (aux = the refused op id).
KIND_NAK = 5

#: the header after its leading flag: kind, payload length, credit, aux
_HDR = struct.Struct("<BHQI")

_RTS_FMT = "<QQQ"  # addr, size, rkey
RTS_PAYLOAD = struct.calcsize(_RTS_FMT)


def seq_of(chunk_index: int) -> int:
    return (chunk_index % SEQ_MOD) + 1


def pack_rts(addr: int, size: int, rkey: int) -> bytes:
    return struct.pack(_RTS_FMT, addr, size, rkey)


def unpack_rts(payload: bytes) -> Tuple[int, int, int]:
    return struct.unpack(_RTS_FMT, payload)


class RingSender(CreditWindow):
    """Sender-side view of one direction: the preregistered staging
    ring plus the remote ring's address/rkey.  Its credit window is
    the slot count: ``sent`` is the next chunk index, ``acked`` the
    peer-consumed chunk count, ``replica`` the tail-pointer replica
    (§4.2/§4.3) the receiver writes when it returns credit explicitly.
    """

    def __init__(self, ctx, qp, staging: Buffer, staging_mr: MemoryRegion,
                 remote_base: int, remote_rkey: int, nslots: int,
                 chunk_size: int, tail: Replica, metrics=None):
        assert nslots % SEQ_MOD != 0, "slot count aliases the seq space"
        self.ctx = ctx
        self.qp = qp
        self.staging = staging
        self.staging_mr = staging_mr
        self.remote_base = remote_base
        self.remote_rkey = remote_rkey
        self.nslots = nslots
        self.chunk_size = chunk_size
        self.max_payload = chunk_size - HDR_SIZE - TRAILER_SIZE
        m = metrics if metrics is not None else NULL_METRICS
        self._m_chunks_sent = m.counter("chunks_sent")
        self._m_bytes_posted = m.counter("bytes_posted")
        self._m_ring_wraps = m.counter("ring_wraps")
        super().__init__(nslots, tail, m.gauge("chunks_in_flight"))

    def build_chunk(self, kind: int, payload_len: int, credit: int,
                    aux: int = 0) -> Tuple[int, Buffer]:
        """Reserve the next chunk index, write its header+trailer into
        the staging slot, and return ``(chunk_index, payload_buffer)``
        for the caller to fill before :meth:`post`-ing it.

        Reserving and posting are separate so the piggyback design can
        copy *all* chunks first and only then issue the RDMA writes
        (the §4.2/§4.3 copy-then-write serialization that §4.4's
        pipelining removes)."""
        if not self.is_open():
            raise RuntimeError("build_chunk without a free slot")
        if payload_len > self.max_payload:
            raise ValueError(f"payload {payload_len} exceeds chunk "
                             f"capacity {self.max_payload}")
        index = self.sent
        self.sent += 1
        slot = index % self.nslots
        base = slot * self.chunk_size
        seq = seq_of(index)
        view = self.staging.view()
        view[base] = seq
        view[base + 1] = kind
        view[base + 2:base + 4] = memoryview(
            struct.pack("<H", payload_len))
        view[base + 4:base + 12] = memoryview(struct.pack("<Q", credit))
        view[base + 12:base + 16] = memoryview(struct.pack("<I", aux))
        view[base + HDR_SIZE + payload_len] = seq
        return index, self.staging.sub(base + HDR_SIZE, payload_len)

    def post(self, chunk_index: int, payload_len: int,
             signaled: bool = False
             ) -> Generator[None, None, WorkRequest]:
        """RDMA-write a built chunk to the peer's ring."""
        slot = chunk_index % self.nslots
        base = slot * self.chunk_size
        nbytes = HDR_SIZE + payload_len + TRAILER_SIZE
        wr = yield from self.ctx.rdma_write(
            self.qp,
            [(self.staging.addr + base, nbytes, self.staging_mr.lkey)],
            self.remote_base + base, self.remote_rkey,
            signaled=signaled)
        self._m_chunks_sent.inc()
        self._m_bytes_posted.inc(nbytes)
        if chunk_index and slot == 0:
            self._m_ring_wraps.inc()
        self._in_flight.set(self.sent - self.acked)
        return wr


class RingReceiver(CreditReturn):
    """Receiver-side view of one direction: the local ring, the read
    cursor, and the consumption/credit bookkeeping (``consumed`` is the
    tail pointer, in chunks)."""

    def __init__(self, ring: Buffer, nslots: int, chunk_size: int,
                 credit_threshold: int, ctx, qp, tail: Replica,
                 piggybacked, metrics=None):
        assert nslots % SEQ_MOD != 0
        self.ring = ring
        self.nslots = nslots
        self.chunk_size = chunk_size
        #: next chunk index expected (monotonic)
        self.next_chunk = 0
        #: bytes of the current chunk's payload already delivered
        self.payload_off = 0
        self.chunks_received = 0
        #: the ring's memory region, looked up on the first poll, and
        #: its bytes, viewed on the first poll after something landed
        #: (rings are never freed, so both stay valid)
        self._region: Optional[_Region] = None
        self._ring_view: Optional[np.ndarray] = None
        m = metrics if metrics is not None else NULL_METRICS
        self._m_chunks_received = m.counter("chunks_received")
        # explicit tail updates (§4.3's "extra message") go into the
        # sender's tail replica
        super().__init__(ctx, qp, tail, credit_threshold,
                         m.counter("explicit_tail_updates"), piggybacked)

    def ready(self) -> bool:
        """Whether the next chunk has fully arrived (``peek() is not
        None``): its two polling flags only — no header unpacking, no
        shadow hook."""
        view = self._ring_view
        if view is None:
            region = self._region
            if region is None:
                region = self._region = self.ring.mem.region_of(
                    self.ring.addr, self.ring.nbytes)
            # a ring nobody wrote reads as zeros, and a seq byte is
            # never 0: nothing has landed, and the poll must not give
            # the ring backing it does not need yet
            if region.data is None:
                return False
            view = self._ring_view = self.ring.view()
        base = self.next_chunk % self.nslots * self.chunk_size
        seq = seq_of(self.next_chunk)
        if view[base] != seq:
            return False
        # header landed, trailer maybe not yet (torn write)
        payload_len = int(view[base + 2]) | int(view[base + 3]) << 8
        return bool(view[base + HDR_SIZE + payload_len] == seq)

    def peek(self) -> Optional[Tuple[int, int, int, int]]:
        """If the next chunk has fully arrived, return
        (kind, payload_len, credit, aux) without consuming it."""
        if not self.ready():
            return None
        view = self._ring_view
        assert view is not None  # taken by ready()
        base = self.next_chunk % self.nslots * self.chunk_size
        kind, payload_len, credit, aux = _HDR.unpack_from(view, base + 1)
        shadow = getattr(self.ctx.hca, "shadow", None)
        if shadow is not None:
            shadow.on_ring_consume(
                self.ctx.hca, self.ring.addr + base,
                HDR_SIZE + payload_len + TRAILER_SIZE)
        return kind, payload_len, credit, aux

    def payload_buffer(self, payload_len: int) -> Buffer:
        """The unread remainder of the current chunk's payload."""
        slot = self.next_chunk % self.nslots
        base = slot * self.chunk_size
        return self.ring.sub(base + HDR_SIZE + self.payload_off,
                             payload_len - self.payload_off)

    def consume_chunk(self) -> None:
        """Mark the current chunk fully processed."""
        self.next_chunk += 1
        self.payload_off = 0
        self.consumed += 1
        self.chunks_received += 1
        self._m_chunks_received.inc()
