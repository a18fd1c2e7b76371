"""The chunked ring-buffer channels: piggyback (§4.3), pipeline
(§4.4) and zero-copy (§5), one shared implementation.

The three designs differ only in two flags:

* ``PIPELINED``: whether put() copies all chunks and then posts the
  RDMA writes, waiting for their completion (the §4.2/§4.3
  copy-then-write serialization), or copies/posts chunk-by-chunk with
  no completion wait so memcpy overlaps RDMA (§4.4);
* ``ZEROCOPY``: whether iov elements at least ``zerocopy_threshold``
  long are advertised via an RTS control chunk and pulled by the
  receiver with RDMA read (§5), instead of streamed through the ring.

Connection state machines for zero-copy (paper Fig. 10):

* sender: ``put`` registers the user buffer (through the registration
  cache), sends the RTS chunk and returns 0 for those bytes;
  subsequent puts return 0 until the ACK chunk arrives, then the byte
  count;
* receiver: ``get`` finds the RTS at the stream head, registers the
  destination (the caller's iov — CH3 hands the actual user buffer
  down, so this is a true zero-copy), posts the RDMA read and returns
  0; once the read completes, the next ``get`` emits the ACK and
  returns the byte count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from ...config import KB
from ...hw.memory import Buffer
from ...ib.types import Opcode, RegistrationError, WcStatus
from ..regcache import RegistrationCache
from .base import (ChannelBrokenError, ChannelError, Connection, IovCursor,
                   RdmaChannel)
from .parts import Replica, copy_iov, pinned, rc_pair, write_done
from .ring import (HDR_SIZE, KIND_ACK, KIND_CREDIT, KIND_DATA, KIND_NAK,
                   KIND_RTS, RTS_PAYLOAD, RingReceiver, RingSender,
                   pack_rts, unpack_rts)

__all__ = ["ChunkedChannel", "ChunkedConnection", "PiggybackChannel",
           "PipelineChannel", "ZeroCopyChannel"]

_zc_ids = itertools.count(1)


@dataclass
class ZcopySend:
    """Sender-side in-flight zero-copy operation."""
    op_id: int
    addr: int
    nbytes: int
    mr: object
    acked: bool = False


@dataclass
class ZcopyRead:
    """Receiver-side in-flight RDMA read."""
    op_id: int
    nbytes: int
    wr_id: int
    mrs: List[object] = field(default_factory=list)
    done: bool = False


class ChunkedConnection(Connection):
    def __init__(self, channel: "ChunkedChannel", peer_rank: int):
        super().__init__(channel, peer_rank)
        self.sender: Optional[RingSender] = None
        self.receiver: Optional[RingReceiver] = None
        self.zc_send: Optional[ZcopySend] = None
        self.zc_read: Optional[ZcopyRead] = None
        #: per-connection zero-copy cut-over; starts at the static
        #: configuration and is moved at runtime by the adaptive
        #: controller (THRESHOLD_OFF disables the RDMA-read path for
        #: this peer entirely)
        self.zc_threshold = channel.ch_cfg.zerocopy_threshold
        #: when True, the adaptive channel elides the §5 per-call
        #: threshold-check overhead (the RDMA-read path cannot start
        #: new operations for this peer right now); static channels
        #: ignore it
        self.zc_fastpath = False
        #: optional runtime cap on the DATA-chunk payload (finer
        #: pipelining for latency-bound peers); None = full chunks,
        #: values above the chunk capacity or below one byte are
        #: clamped at use (progress is guaranteed for any setting)
        self.soft_max_payload: Optional[int] = None
        #: bytes of the outgoing stream to force through the ring path
        #: after a zero-copy registration failure (ours or, via NAK,
        #: the receiver's) — prevents an RTS/fail livelock.
        self.zc_suppress = 0


class ChunkedChannel(RdmaChannel):
    """Base class; see module docstring.  Subclasses set PIPELINED /
    ZEROCOPY."""

    PIPELINED = False
    ZEROCOPY = False

    def __init__(self, **kw):
        super().__init__(**kw)
        self.regcache = RegistrationCache(
            self.ctx, enabled=self.ch_cfg.registration_cache,
            metrics=self.obs.metrics.scope(f"rank{self.rank}.regcache"))
        self.nslots = self.ch_cfg.ring_size // self.ch_cfg.chunk_size
        #: zero-copy sends downgraded to the ring path because *our*
        #: registration failed
        self.zc_fallbacks = 0
        #: RTS advertisements we refused (receiver-side registration
        #: failure) with a NAK chunk
        self.zc_nak_sent = 0
        m = self.metrics
        self._m_piggy_tail = m.counter("piggybacked_tail_updates")
        self._m_bytes_streamed = m.counter("bytes_streamed")
        self._m_bytes_delivered = m.counter("bytes_delivered")
        self._m_zc_rts = m.counter("zc_rts_sent")
        self._m_zc_ack = m.counter("zc_ack_sent")
        self._m_zc_nak = m.counter("zc_nak_sent")
        self._m_zc_fallbacks = m.counter("zc_fallbacks")
        self._m_zc_bytes_read = m.counter("zc_bytes_read")
        self._m_credit_stalls = m.counter("credit_stalls")

    def stall_edges(self) -> list:
        """Post-mortem only: a ring with zero free slots blocks the
        sender until the receiver consumes chunks and publishes the
        tail (credit) update."""
        edges = []
        for peer, conn in self.conns.items():
            sender = conn.sender
            if sender is not None and not sender.is_open():
                edges.append((
                    self.rank, peer,
                    f"ring full: {self.nslots} chunk slot(s) "
                    "outstanding, no tail update from the receiver"))
        return edges

    # ------------------------------------------------------------------
    # establish: rings, staging, QPs, out-of-band exchange
    # ------------------------------------------------------------------
    @classmethod
    def establish(cls, a: "ChunkedChannel", b: "ChunkedChannel") -> None:
        conn_a, conn_b = rc_pair(ChunkedConnection, a, b)
        # one ring per direction, placed at the receiver (§4.2: "We put
        # the shared-memory buffer in the receiver's main memory"),
        # plus a tail-pointer replica at the sender for explicit
        # credit returns (§4.3's "extra message" path)
        for src, dst, conn_s, conn_d in ((a, b, conn_a, conn_b),
                                         (b, a, conn_b, conn_a)):
            ring_size = src.ch_cfg.ring_size
            chunk = src.ch_cfg.chunk_size
            nslots = src.nslots
            ring, ring_mr = pinned(dst.node, ring_size,
                                   f"ring[{src.rank}->{dst.rank}]")
            staging, staging_mr = pinned(
                src.node, ring_size, f"staging[{src.rank}->{dst.rank}]")
            # tail replica at the sender, written by the receiver
            tail = Replica(pinned(src.node, 8, "tail_replica"),
                           pinned(dst.node, 8, "tail_staging"))
            threshold = max(1, int(nslots * src.ch_cfg.tail_update_fraction))
            conn_s.sender = RingSender(src.ctx, conn_s.qp, staging,
                                       staging_mr, ring.addr, ring_mr.rkey,
                                       nslots, chunk, tail,
                                       metrics=src.metrics)
            conn_d.receiver = RingReceiver(
                ring, nslots, chunk, threshold, dst.ctx, conn_d.qp, tail,
                dst._m_piggy_tail, metrics=dst.metrics)

    # ------------------------------------------------------------------
    # put
    # ------------------------------------------------------------------
    def _control_sweep(self, conn: ChunkedConnection) -> Generator:
        """Process CREDIT/ACK/NAK chunks at the stream head, so a
        sender that is only put()-ing still sees tail-pointer updates
        and zero-copy acknowledgements.  Returns the first other
        chunk's ``peek()`` (DATA/RTS belong to get()), or None."""
        while True:
            info = conn.receiver.peek()
            if info is None or info[0] not in (KIND_CREDIT, KIND_ACK,
                                               KIND_NAK):
                return info
            kind, _plen, credit, aux = info
            conn.sender.absorb(credit)
            yield from self.ctx.cpu.work(self.cfg.chunk_overhead_cpu)
            if kind == KIND_ACK:
                if conn.zc_send is None or conn.zc_send.op_id != aux:
                    raise ChannelError(f"stray zero-copy ACK {aux}")
                conn.zc_send.acked = True
            elif kind == KIND_NAK:
                yield from self._handle_zc_nak(conn, aux)
            conn.receiver.consume_chunk()

    def _zc_check_put(self, conn: "ChunkedConnection") -> bool:
        """Whether put() pays the §5 threshold-check/state-machine
        overhead.  Static designs always do; the adaptive channel
        skips it while its controller has the RDMA-read path disarmed
        for this peer."""
        return self.ZEROCOPY

    def _zc_check_get(self, conn: "ChunkedConnection") -> bool:
        return self.ZEROCOPY

    def put(self, conn: ChunkedConnection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        cur = IovCursor(iov)
        if self._zc_check_put(conn):
            # §5: "the extra overhead in the implementation" — the
            # threshold check and zero-copy state machine slightly
            # increase small-message latency (7.4 -> 7.6 us)
            yield from self.ctx.cpu.work(self.cfg.zerocopy_check_cpu)
        yield from self._control_sweep(conn)

        # 1. a pending zero-copy send gates the stream head
        if conn.zc_send is not None:
            zc = conn.zc_send
            if not zc.acked:
                return 0
            if cur.remaining() < zc.nbytes:
                raise ChannelError(
                    "put retried with a shorter iov than the pending "
                    "zero-copy operation")
            yield from self.regcache.release(zc.mr)
            conn.zc_send = None
            cur.advance(zc.nbytes)
            # fall through: more of the iov may be sendable now

        pending_posts: List = []  # (chunk_index, payload_len) batches
        while not cur.exhausted:
            elem = cur.element_remaining()
            if (self.ZEROCOPY and cur.at_element_start()
                    and conn.zc_suppress <= 0
                    and elem >= conn.zc_threshold):
                # flush any batched chunks so stream order is kept
                yield from self._flush(conn, pending_posts)
                pending_posts = []
                started = yield from self._start_zcopy_send(conn, cur)
                if started or conn.zc_suppress <= 0:
                    # zero-copy in flight (bytes complete later via
                    # ACK), or no free slot to send the RTS yet
                    break
                continue  # registration failed: stream via the ring
            if not conn.sender.is_open():
                # back-pressured: out of ring credits mid-message
                self._m_credit_stalls.inc()
                self.tuner.on_credit_stall(conn.peer_rank)
                break
            yield from self._emit_data_chunk(conn, cur, pending_posts)
        yield from self._flush(conn, pending_posts)
        return cur.consumed

    def _emit_data_chunk(self, conn: ChunkedConnection, cur: IovCursor,
                         pending_posts: List) -> Generator:
        """Copy up to one chunk's worth of stream bytes into staging.
        In pipelined mode the chunk is posted immediately (so the next
        chunk's copy overlaps this chunk's RDMA write); otherwise it is
        batched for a copy-all-then-write-all flush."""
        sender = conn.sender
        payload_cap = sender.max_payload
        if conn.soft_max_payload is not None:
            # clamp below at one byte: a degenerate (zero or negative)
            # soft cap would otherwise emit zero-payload DATA chunks
            # forever without advancing the cursor — a livelock that
            # burns ring slots and simulated time but moves no data
            payload_cap = min(payload_cap, max(1, conn.soft_max_payload))
        take = min(cur.remaining(), payload_cap)
        # never pack the head of a would-be zero-copy element behind
        # other bytes in the same chunk
        if self.ZEROCOPY:
            limit = self._bytes_until_zcopy_element(
                cur, conn.zc_suppress, conn.zc_threshold)
            if limit == 0:  # pragma: no cover - caller checks first
                return None
            take = min(take, limit)
        index, payload = sender.build_chunk(
            KIND_DATA, take, credit=conn.receiver.piggyback())
        yield from self.ctx.cpu.work(self.cfg.chunk_overhead_cpu)
        t0 = self.ctx.sim.now
        yield from copy_iov(
            self.node, cur, payload.addr, take, into_iov=False,
            # lint: allow(falsy-or-default, hint 0 means unhinted)
            working_set=conn.put_ws_hint or None)
        self.timeline.span(f"rank{self.rank}", "copy_to_staging",
                           t0, self.ctx.sim.now, cat="memcpy",
                           args={"bytes": take})
        self._m_bytes_streamed.inc(take)
        if conn.zc_suppress > 0:
            conn.zc_suppress = max(0, conn.zc_suppress - take)
        if self.PIPELINED:
            yield from sender.post(index, take, signaled=False)
        else:
            pending_posts.append((index, take))
        return None

    def _bytes_until_zcopy_element(self, cur: IovCursor,
                                   suppress: int = 0,
                                   threshold: Optional[int] = None) -> int:
        """Stream bytes before the next element that will go zero-copy
        (so a DATA chunk never swallows its head).  Elements whose
        start falls within the first ``suppress`` stream bytes are not
        zero-copy candidates (post-registration-failure fallback)."""
        if threshold is None:
            threshold = self.ch_cfg.zerocopy_threshold
        total = 0
        # walk the remaining elements without disturbing the cursor
        first = True
        i, off = cur._i, cur._off
        while i < len(cur._bufs):
            size = len(cur._bufs[i]) - (off if first else 0)
            at_start = (off == 0) if first else True
            if (at_start and size >= threshold
                    and total >= suppress):
                return total
            total += size
            first = False
            i += 1
            off = 0
        return total

    def _flush(self, conn: ChunkedConnection, pending_posts: List
               ) -> Generator:
        """Non-pipelined mode: issue the batched RDMA writes and wait
        for their completion (the serialization the paper's §4.4 calls
        out)."""
        if not pending_posts:
            return None
        last_i = len(pending_posts) - 1
        wr = None
        for k, (index, take) in enumerate(pending_posts):
            wr = yield from conn.sender.post(index, take,
                                             signaled=(k == last_i))
        yield from write_done(self.ctx, conn.qp, wr, "ring")
        return None

    def _start_zcopy_send(self, conn: ChunkedConnection, cur: IovCursor
                          ) -> Generator[None, None, bool]:
        """Register the element and advertise it with an RTS chunk
        (paper Fig. 10, left side)."""
        sender = conn.sender
        if not sender.is_open():
            return False
        elem = cur.current()  # whole element (cursor at element start)
        try:
            mr = yield from self.regcache.register(elem.addr, len(elem))
        except RegistrationError:
            # cannot pin the source: downgrade this element to the
            # ring (pipelined) path instead of failing the send
            conn.zc_suppress = len(elem)
            self.zc_fallbacks += 1
            self._m_zc_fallbacks.inc()
            return False
        op_id = next(_zc_ids)
        index, payload = sender.build_chunk(
            KIND_RTS, RTS_PAYLOAD, credit=conn.receiver.piggyback(),
            aux=op_id)
        yield from self.ctx.cpu.work(self.cfg.chunk_overhead_cpu)
        payload.write(pack_rts(elem.addr, len(elem), mr.rkey))
        yield from sender.post(index, RTS_PAYLOAD, signaled=False)
        conn.zc_send = ZcopySend(op_id, elem.addr, len(elem), mr)
        self._m_zc_rts.inc()
        return True

    def _handle_zc_nak(self, conn: ChunkedConnection, aux: int
                       ) -> Generator:
        """The receiver refused our RTS (it could not register the
        destination): release the advertised region and force the
        element through the ring path on the next put."""
        zc = conn.zc_send
        if zc is None or zc.op_id != aux:
            raise ChannelError(f"stray zero-copy NAK {aux}")
        yield from self.regcache.release(zc.mr)
        conn.zc_send = None
        conn.zc_suppress = zc.nbytes
        self.zc_fallbacks += 1
        self._m_zc_fallbacks.inc()
        return None

    # ------------------------------------------------------------------
    # get
    # ------------------------------------------------------------------
    def recv_ready(self, conn: ChunkedConnection) -> bool:
        # a read in flight, a chunk landed, or a credit owed: without
        # one of them the body of get returns 0 without a yield
        return (conn.zc_read is not None or conn.receiver.ready()
                or conn.receiver.credit_due())

    def get(self, conn: ChunkedConnection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        if not self.recv_ready(conn):
            return 0
        if self._zc_check_get(conn):
            # §5's check sits on the message path: a poll that finds
            # nothing has no message to check (docs/MODEL.md §5)
            yield from self.ctx.cpu.work(
                self.cfg.zerocopy_check_cpu / 2)
        cur = IovCursor(iov)

        # 1. an in-flight RDMA read gates the stream head
        if conn.zc_read is not None:
            finished = yield from self._poll_zcopy_read(conn)
            if not finished:
                yield from self._maybe_credit(conn)
                return 0
            zc = conn.zc_read
            if cur.remaining() < zc.nbytes:
                raise ChannelError(
                    "get retried with a shorter iov than the pending "
                    "zero-copy read")
            # paper: "calling the get function leads to an
            # acknowledgment packet being sent to the sender"
            if not conn.sender.is_open():
                return 0  # cannot ACK yet; retry
            yield from self._emit_control(conn, KIND_ACK, aux=zc.op_id)
            for mr in zc.mrs:
                yield from self.regcache.release(mr)
            conn.zc_read = None
            cur.advance(zc.nbytes)

        while True:
            info = yield from self._control_sweep(conn)
            if info is None:
                break
            kind, plen, credit, aux = info
            conn.sender.absorb(credit)
            yield from self.ctx.cpu.work(self.cfg.chunk_overhead_cpu)
            if kind == KIND_DATA:
                if cur.exhausted:
                    break
                n = yield from self._drain_data_chunk(conn, cur, plen)
                if n == 0:
                    break
            elif kind == KIND_RTS:
                if cur.exhausted:
                    break
                yield from self._start_zcopy_read(conn, cur, aux)
                break
            else:
                raise ChannelError(f"bad chunk kind {kind}")
        yield from self._maybe_credit(conn)
        return cur.consumed

    def _drain_data_chunk(self, conn: ChunkedConnection, cur: IovCursor,
                          plen: int) -> Generator[None, None, int]:
        recv = conn.receiver
        moved = min(plen - recv.payload_off, cur.remaining())
        t0 = self.ctx.sim.now
        yield from copy_iov(
            self.node, cur, recv.payload_buffer(plen).addr, moved,
            into_iov=True,
            # lint: allow(falsy-or-default, hint 0 means unhinted)
            working_set=conn.get_ws_hint or None)
        if moved:
            self.timeline.span(f"rank{self.rank}", "copy_from_ring",
                               t0, self.ctx.sim.now, cat="memcpy",
                               args={"bytes": moved})
        self._m_bytes_delivered.inc(moved)
        recv.payload_off += moved
        if recv.payload_off == plen:
            recv.consume_chunk()
        return moved

    def _start_zcopy_read(self, conn: ChunkedConnection, cur: IovCursor,
                          op_id: int) -> Generator:
        """Paper Fig. 10, right side: register the destination and pull
        the data with RDMA read."""
        recv = conn.receiver
        payload = recv.payload_buffer(RTS_PAYLOAD).read()
        raddr, size, rkey = unpack_rts(payload)
        if cur.remaining() < size:
            raise ChannelError(
                f"zero-copy RTS of {size} bytes but the get iov only "
                f"has {cur.remaining()} — the caller must supply the "
                f"full destination buffer")
        sges = []
        mrs = []
        left = size
        mark = cur.mark()
        try:
            while left > 0:
                piece = cur.current(left)
                mr = yield from self.regcache.register(piece.addr,
                                                       len(piece))
                mrs.append(mr)
                sges.append((piece.addr, len(piece), mr.lkey))
                cur.advance(len(piece))
                left -= len(piece)
        except RegistrationError:
            # cannot pin the destination: rewind and NAK the RTS so
            # the sender streams the element through the ring instead
            for mr in mrs:
                yield from self.regcache.release(mr)
            cur.reset(mark)
            if not conn.sender.is_open():
                return None  # cannot NAK yet; leave the RTS, retry
            yield from self._emit_control(conn, KIND_NAK, aux=op_id)
            recv.consume_chunk()
            self.zc_nak_sent += 1
            self._m_zc_nak.inc()
            return None
        # the advanced bytes are NOT counted as consumed yet: they
        # complete when the read finishes (tracked by zc_read)
        cur.consumed -= size
        wr = yield from self.ctx.rdma_read(
            conn.qp, sges, raddr, rkey, signaled=True)
        conn.zc_read = ZcopyRead(op_id, size, wr.wr_id, mrs)
        self._m_zc_bytes_read.inc(size)
        recv.consume_chunk()
        return None

    def _poll_zcopy_read(self, conn: ChunkedConnection
                         ) -> Generator[None, None, bool]:
        zc = conn.zc_read
        if zc.done:
            return True
        while True:
            cqe = self.ctx.poll_cq(conn.qp.send_cq)
            if cqe is None:
                return False
            yield from self.ctx.cpu.work(self.cfg.cq_poll_cpu)
            if cqe.status is not WcStatus.SUCCESS:
                # error completions (retry exhaustion, flushes) may
                # belong to any posted op: the connection is dead
                raise ChannelBrokenError(
                    f"completion error during zero-copy read: "
                    f"{cqe.status}")
            if cqe.opcode is Opcode.RDMA_READ and cqe.wr_id == zc.wr_id:
                zc.done = True
                return True
            # successful completions of other ops would land here
            raise ChannelError(f"unexpected completion {cqe}")

    def _emit_control(self, conn: ChunkedConnection, kind: int,
                      aux: int = 0) -> Generator:
        index, _payload = conn.sender.build_chunk(
            kind, 0, credit=conn.receiver.piggyback(), aux=aux)
        yield from self.ctx.cpu.work(self.cfg.chunk_overhead_cpu)
        yield from conn.sender.post(index, 0, signaled=False)
        if kind == KIND_ACK:
            self._m_zc_ack.inc()
        return None

    def _maybe_credit(self, conn: ChunkedConnection) -> Generator:
        """§4.3: 'If no messages are sent from the receiver to the
        sender, eventually we will explicitly send the updates by using
        an extra message.'  The extra message is an RDMA write into
        the sender's tail-pointer replica — it needs no ring slot, so
        credits flow even when both directions' rings are full."""
        if conn.receiver.credit_due():
            yield from conn.receiver.send_explicit_credit()
        return None

    # ------------------------------------------------------------------
    def finalize(self) -> Generator:
        if not self.finalized:
            yield from self.regcache.flush()
        self.finalized = True
        return None


class PiggybackChannel(ChunkedChannel):
    """Piggyback design (§4.3).

    One RDMA write per message: the head-pointer update travels inside
    the data chunk (flags + length + piggybacked credit), and
    tail-pointer updates are delayed/piggybacked on reverse traffic.
    Copies and RDMA writes are still serialized within a put (§4.4
    identifies that as the remaining bottleneck)."""


class PipelineChannel(ChunkedChannel):
    """Pipelining design (§4.4).

    Large messages are chunked; each chunk's RDMA write is posted
    immediately after its copy so the copy of chunk *n+1* overlaps the
    transfer of chunk *n*.  The memory bus (shared by the CPU copy and
    the HCA's DMA) becomes the bottleneck, capping bandwidth near
    ``membus_bandwidth / 3`` — the paper's ">500 MB/s but well short of
    870 MB/s" result."""

    PIPELINED = True


class ZeroCopyChannel(ChunkedChannel):
    """Zero-copy design (§5) — the paper's headline RDMA Channel
    design.

    Small messages use the pipelined ring (one RDMA write, piggybacked
    pointers).  Elements of at least ``zerocopy_threshold`` bytes are
    advertised with a special RTS packet through the ring; the receiver
    registers the destination user buffer (via the registration cache)
    and *pulls* the data with RDMA read, then acknowledges so the
    sender can release its registration.  No intermediate copies touch
    large payloads, so peak bandwidth approaches the raw RDMA read
    limit (857 MB/s on the paper's testbed) at the cost of a slightly
    higher small-message latency (7.6 µs vs 7.4 µs) from the threshold
    check and state machinery."""

    PIPELINED = True
    ZEROCOPY = True
