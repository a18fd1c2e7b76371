"""CH3 over the RDMA Channel interface.

This is the layer the paper's Fig. 1 shows between ADI3 and the
channel: it packetizes MPI messages into the channel's FIFO byte pipe
and runs the progress engine.

Every message — small or large — travels as one EAGER packet (a 32-byte
header followed by the payload bytes) written into the stream with
``put`` and parsed out with ``get``.  Large-message optimization is
*inside* the channel (the §5 zero-copy design intercepts big iov
elements), which is exactly the property the paper highlights: the
layers above the RDMA Channel interface did not change between the
basic and zero-copy designs.

The CH3-level comparator of §6, which instead handles large messages
at this layer with a rendezvous handshake and direct RDMA writes,
lives in :mod:`repro.mpich2.ch3_rdma`.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, Sequence

from ..config import HardwareConfig
from ..hw.memory import Buffer
from ..sim.sync import Fifo
from ..ib.types import QPError
from .adi3 import (ANY_SOURCE, ANY_TAG, Adi3Device, MpiError, Request,
                   TruncateError)
from .channels.base import (ChannelBrokenError, Connection, RdmaChannel,
                            advance_iov, clamp_iov, iov_total)

__all__ = ["Ch3Device", "PKT_SIZE", "PKT_EAGER", "PKT_RNDV_RTS",
           "PKT_RNDV_CTS", "PKT_RNDV_FIN", "PKT_RNDV_NAK", "pack_header",
           "unpack_header"]

#: CH3 packet header: kind u8, pad, src i32, tag i32, context i32,
#: size i64, req i64 (sender request id, used by rendezvous)
_HDR_FMT = "<Bxxxiiiqq"
PKT_SIZE = struct.calcsize(_HDR_FMT)
assert PKT_SIZE == 32

PKT_EAGER = 1
PKT_RNDV_RTS = 2
PKT_RNDV_CTS = 3
PKT_RNDV_FIN = 4
PKT_RNDV_NAK = 5


def pack_header(kind: int, src: int, tag: int, context: int, size: int,
                req: int = 0) -> bytes:
    return struct.pack(_HDR_FMT, kind, src, tag, context, size, req)


def unpack_header(data: bytes):
    return struct.unpack(_HDR_FMT, data)


class _SendOp:
    __slots__ = ("req", "iov", "offset", "total", "payload_size",
                 "on_complete")

    def __init__(self, req: Optional[Request], iov: List[Buffer],
                 payload_size: int, on_complete=None):
        self.req = req
        #: the packet header buffer first, then the payload
        self.iov = iov
        self.offset = 0
        self.total = iov_total(iov)
        self.payload_size = payload_size
        #: optional callback fired when the op drains into the channel
        self.on_complete = on_complete


class _PostedRecv:
    __slots__ = ("req", "iov", "source", "tag", "context")

    def __init__(self, req: Request, iov: List[Buffer], source: int,
                 tag: int, context: int):
        self.req = req
        self.iov = iov
        self.source = source
        self.tag = tag
        self.context = context


class _Unexpected:
    """An eager message that arrived before its receive was posted."""

    __slots__ = ("env", "buf", "complete", "req", "iov")

    def __init__(self, env, buf: Optional[Buffer]):
        self.env = env                    # (src, tag, context, size)
        self.buf = buf                    # temp storage
        self.complete = False
        #: a late-posted receive that claimed this in-flight message
        self.req: Optional[Request] = None
        self.iov: Optional[List[Buffer]] = None


class _Inflight:
    """An incoming message currently being pulled from the stream."""

    __slots__ = ("env", "iov", "received", "req", "u", "on_done")

    def __init__(self, env, iov: List[Buffer],
                 req: Optional[Request] = None,
                 u: Optional[_Unexpected] = None,
                 on_done=None):
        self.env = env
        self.iov = iov
        self.received = 0
        self.req = req
        self.u = u
        #: generator-function hook fired when the payload has fully
        #: arrived (used for control packets carrying payloads)
        self.on_done = on_done


class _ConnState:
    """Per-connection CH3 progress state."""

    __slots__ = ("conn", "sendq", "hdr_buf", "hdr_off", "inflight")

    def __init__(self, conn: Connection, hdr_buf: Buffer):
        self.conn = conn
        self.sendq: Fifo = Fifo()
        self.hdr_buf = hdr_buf
        self.hdr_off = 0
        self.inflight: Optional[_Inflight] = None


class Ch3Device(Adi3Device):
    """ADI3 implemented over any :class:`RdmaChannel` design."""

    def __init__(self, rank: int, size: int, channel: RdmaChannel):
        super().__init__(rank, size)
        self.channel = channel
        self.node = channel.node
        self.cfg: HardwareConfig = channel.cfg
        self.conn_state: Dict[int, _ConnState] = {}
        self.posted: List[_PostedRecv] = []
        self.unexpected: List[_Unexpected] = []
        #: on-demand connection machinery (None = eager full mesh);
        #: set by the runner for lazy designs
        self.connector = None
        #: the channel's adaptive controller (NULL_TUNER on every
        #: static design: all feeds/queries are no-ops)
        self.tuner = channel.tuner
        m = channel.obs.metrics.scope(f"rank{rank}.ch3")
        self._m_eager = m.counter("eager_decisions")
        self._m_rndv = m.counter("rndv_decisions")
        self._m_unexpected = m.counter("unexpected_arrivals")
        self._m_unexpected_depth = m.gauge("unexpected_depth")

    def attach_connections(self) -> None:
        """Wire up per-connection state once the channel mesh exists."""
        for peer in self.channel.conns:
            self.attach_connection(peer)

    def attach_connection(self, peer: int) -> None:
        """Wire up CH3 state for one established connection (called
        per-peer by the lazy connector, in bulk by the eager path)."""
        conn = self.channel.conns[peer]
        hdr = self.node.alloc(PKT_SIZE, f"ch3.hdr[{peer}]")
        self.conn_state[peer] = _ConnState(conn, hdr)

    # ------------------------------------------------------------------
    # ADI3: isend / irecv / iprobe
    # ------------------------------------------------------------------
    def isend(self, iov: Sequence[Buffer], dest: int, tag: int,
              context: int) -> Generator[None, None, Request]:
        if dest == self.rank:
            raise MpiError("self-sends are handled by the MPI layer")
        if dest not in self.conn_state:
            if self.connector is None:
                raise MpiError(f"rank {self.rank} has no connection to "
                               f"rank {dest}")
            yield from self.connector.connect(self.rank, dest)
        yield from self.channel.ctx.cpu.work(self.cfg.ch3_packet_overhead)
        req = Request("send")
        size = iov_total(iov)
        self._m_eager.inc()
        yield from self._send_packet(dest, PKT_EAGER, tag, context, size,
                                     [b for b in iov if len(b)], req=req)
        return req

    def _send_packet(self, dest: int, kind: int, tag: int, context: int,
                     size: int, payload_iov: List[Buffer],
                     req: Optional[Request] = None, sreq: int = 0,
                     on_complete=None) -> Generator:
        """Queue a CH3 packet (header + payload) on a connection and
        push as much of that connection's queue as the channel takes."""
        hdr = self.node.alloc(PKT_SIZE, "ch3.shdr")
        hdr.write(pack_header(kind, self.rank, tag, context, size, sreq))
        st = self.conn_state[dest]
        st.sendq.append(_SendOp(req, [hdr] + payload_iov,
                                size if kind == PKT_EAGER else 0,
                                on_complete=on_complete))
        yield from self._progress_send(st)
        return None

    def irecv(self, iov: Sequence[Buffer], source: int, tag: int,
              context: int) -> Generator[None, None, Request]:
        yield from self.channel.ctx.cpu.work(self.cfg.ch3_packet_overhead)
        req = Request("recv")
        iov = [b for b in iov if len(b)]
        # 1. search the unexpected queue in arrival order
        for idx, u in enumerate(self.unexpected):
            src, utag, uctx, usize = u.env
            if u.req is None and _match(source, tag, context,
                                        src, utag, uctx):
                if u.complete:
                    self.unexpected.pop(idx)
                    yield from self._deliver(u, req, iov)
                else:
                    u.req = req
                    u.iov = iov
                return req
        # 2. post for future arrivals
        self.posted.append(_PostedRecv(req, iov, source, tag, context))
        return req

    def iprobe(self, source: int, tag: int, context: int):
        for u in self.unexpected:
            src, utag, uctx, usize = u.env
            if u.req is None and u.complete and _match(
                    source, tag, context, src, utag, uctx):
                return src, utag, usize
        return None

    def _deliver(self, u: _Unexpected, req: Request,
                 iov: List[Buffer]) -> Generator:
        """Hand a message that arrived into a temp buffer to the
        receive that claimed it.  The one truncation rule: a receive
        too small for its message consumes it, then fails."""
        src, tag, _context, size = u.env
        room = iov_total(iov)
        if size <= room:
            yield from self._copy_out(u.buf, iov, size)
        if u.buf is not None:
            self.node.mem.free(u.buf.addr)
        if size > room:
            req.fail(TruncateError(
                f"message of {size} bytes into a {room}-byte receive"))
        else:
            req.complete(src, tag, size)
        return None

    def _copy_out(self, src_buf: Optional[Buffer], iov: List[Buffer],
                  size: int) -> Generator:
        """Unexpected-path copy: temp buffer -> user buffer (a real,
        charged copy — the cost of not pre-posting receives)."""
        if size == 0 or src_buf is None:
            return None
        off = 0
        for b in iov:
            n = min(len(b), size - off)
            if n <= 0:
                break
            yield from self.node.membus.memcpy(
                self.node.mem, b.addr, src_buf.addr + off, n,
                working_set=size)
            off += n
        return None

    # ------------------------------------------------------------------
    # progress engine
    # ------------------------------------------------------------------
    def progress(self, block: bool) -> Generator[None, None, bool]:
        while True:
            # Arm the wakeup BEFORE sweeping: the sweep itself yields
            # (copy/CPU costs), so an arrival during it would otherwise
            # pulse the gate with nobody listening and the subsequent
            # sleep would never wake (lost-wakeup race).
            wake = self.channel.wakeup() if block else None
            moved = False
            # list(): the lazy connector may attach a connection while
            # a sweep is parked inside a charged copy
            for st in list(self.conn_state.values()):
                # While the channel says a connection is not ready,
                # its get is an empty poll (no yield, no side effect):
                # skipping it, like skipping an empty sendq, costs no
                # simulated time.
                if self.channel.recv_ready(st.conn):
                    moved |= yield from self._progress_recv(st)
                if st.sendq:
                    moved |= yield from self._progress_send(st)
            moved |= yield from self._extra_progress()
            if moved or not block:
                return moved
            yield wake
            yield from self.channel.ctx.cpu.work(self.cfg.cq_poll_cpu)

    def _extra_progress(self) -> Generator[None, None, bool]:
        """Subclass hook (the CH3-RDMA device advances rendezvous
        here)."""
        return False
        yield  # pragma: no cover; lint: allow(silent-generator, intentional empty generator)

    def _progress_send(self, st: _ConnState
                       ) -> Generator[None, None, bool]:
        moved = False
        while st.sendq:
            op = st.sendq[0]
            st.conn.put_ws_hint = op.payload_size
            remaining = advance_iov(op.iov, op.offset)
            n = yield from self._transport(
                st, self.channel.put(st.conn, remaining))
            if n == 0:
                break
            moved = True
            op.offset += n
            if op.offset >= op.total:
                st.sendq.popleft()
                self.node.mem.free(op.iov[0].addr)
                self._send_op_complete(st, op)
            else:
                break
        return moved

    def _transport(self, st: _ConnState, call: Generator
                   ) -> Generator[None, None, int]:
        """Run one channel put or get; an unrecoverable transport
        failure surfaces as an MPI error instead of hanging the
        rank."""
        try:
            return (yield from call)
        except (QPError, ChannelBrokenError) as exc:
            raise MpiError(
                f"rank {self.rank}: connection to rank "
                f"{st.conn.peer_rank} failed: {exc}") from exc

    def _send_op_complete(self, st: _ConnState, op: _SendOp) -> None:
        if op.req is not None:
            op.req.complete(count=op.payload_size)
        if op.on_complete is not None:
            op.on_complete()

    def _progress_recv(self, st: _ConnState
                       ) -> Generator[None, None, bool]:
        # One get per step, into the rest of the header or of the
        # payload.  The sweep asked recv_ready before calling us, which
        # serves the first get.  After each step the predicate is asked
        # again before any further get, but never before
        # _finish_inflight: a header whose payload is empty must
        # complete even when nothing else is left to read.
        ready = self.channel.recv_ready
        moved = False
        while True:
            msg = st.inflight
            if msg is None:
                want = PKT_SIZE - st.hdr_off
                iov = [st.hdr_buf.sub(st.hdr_off, want)]
            else:
                want = msg.env[3] - msg.received
                if want:
                    st.conn.get_ws_hint = msg.env[3]
                iov = clamp_iov(advance_iov(msg.iov, msg.received), want)
            if want:
                n = yield from self._transport(
                    st, self.channel.get(st.conn, iov))
                if n == 0:
                    return moved
                moved = True
                want -= n
                if msg is None:
                    st.hdr_off += n
                else:
                    msg.received += n
            if not want:
                if msg is not None:
                    yield from self._finish_inflight(st)
                else:
                    st.hdr_off = 0
                    yield from self.channel.ctx.cpu.work(
                        self.cfg.ch3_packet_overhead)
                    yield from self._dispatch_header(st,
                                                     st.hdr_buf.read())
            msg = st.inflight
            get_next = msg is None or msg.received < msg.env[3]
            if get_next and not ready(st.conn):
                return moved

    def _dispatch_header(self, st: _ConnState, raw: bytes) -> Generator:
        kind, src, tag, context, size, sreq = unpack_header(raw)
        if kind == PKT_EAGER:
            self._begin_eager(st, src, tag, context, size)
        else:
            yield from self._handle_control_packet(
                st, kind, src, tag, context, size, sreq)
        return None

    def _handle_control_packet(self, st, kind, src, tag, context, size,
                               sreq) -> Generator:
        raise MpiError(f"unexpected CH3 packet kind {kind}")
        yield  # pragma: no cover; lint: allow(silent-generator, intentional empty generator)

    def _begin_eager(self, st: _ConnState, src: int, tag: int,
                     context: int, size: int) -> None:
        self.tuner.on_recv(src, size, rndv=False)
        env = (src, tag, context, size)
        pr = self._match_posted(src, tag, context)
        if pr is not None and size <= iov_total(pr.iov):
            st.inflight = _Inflight(env, pr.iov, req=pr.req)
            return
        buf = self.node.alloc(size, "ch3.unexpected") if size else None
        u = _Unexpected(env, buf)
        self.unexpected.append(u)
        if pr is not None:
            # posted too small: claimed while arriving, like a receive
            # posted late, and failed once the message is drained
            u.req, u.iov = pr.req, pr.iov
        else:
            self._m_unexpected.inc()
            self._m_unexpected_depth.set(len(self.unexpected))
        st.inflight = _Inflight(env, [buf] if buf else [], u=u)

    def _match_posted(self, src: int, tag: int,
                      context: int) -> Optional[_PostedRecv]:
        for i, pr in enumerate(self.posted):
            if _match(pr.source, pr.tag, pr.context, src, tag, context):
                return self.posted.pop(i)
        return None

    def _finish_inflight(self, st: _ConnState) -> Generator:
        msg = st.inflight
        st.inflight = None
        src, tag, context, size = msg.env
        if msg.on_done is not None:
            yield from msg.on_done(st, msg)
        elif msg.req is not None:
            msg.req.complete(src, tag, size)
        elif msg.u is not None:
            u = msg.u
            u.complete = True
            if u.req is not None:
                # a receive claimed this message while it was arriving
                self.unexpected.remove(u)
                yield from self._deliver(u, u.req, u.iov)
        return None

    def finalize(self) -> Generator:
        yield from self.channel.finalize()
        return None


def _match(want_src: int, want_tag: int, want_ctx: int, src: int,
           tag: int, ctx: int) -> bool:
    return (want_ctx == ctx and want_src in (src, ANY_SOURCE)
            and want_tag in (tag, ANY_TAG))
