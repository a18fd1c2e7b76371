"""The CH3-level comparator design (§6 of the paper).

Small messages travel eagerly through the ring channel exactly like
the RDMA-Channel designs.  Messages of at least ``CH3_RNDV_THRESHOLD``
bytes use a rendezvous protocol handled *at the CH3 layer* (paper
Fig. 12):

1. sender -> receiver: RTS control packet (through the ring);
2. receiver registers the matched user buffer, replies with a CTS
   packet carrying its address and rkey;
3. sender registers its user buffer and transfers the data with one
   **RDMA write** directly user-buffer-to-user-buffer;
4. sender -> receiver: FIN control packet; both sides release their
   registrations (kept warm by the registration cache).

A side that cannot register its buffer (step 2 or 3) fails its own
request and sends the peer a NAK, which fails the peer's request too.
A receive too small for the message answers its RTS with a NAK the
same way, and fails with ``TruncateError``.

Because the data leg is an RDMA write, this design inherits the raw
write bandwidth curve of Fig. 15 — which is why it outperforms the
RDMA-*read*-based zero-copy channel for 32 KB–256 KB messages
(Fig. 14) even though both are zero-copy.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, Tuple

from ...hw.memory import Buffer
from ...ib.types import Opcode, RegistrationError, WcStatus
from ...tune.controller import CH3_RNDV_THRESHOLD
from ..adi3 import MpiError, Request, TruncateError
from ..ch3 import (PKT_RNDV_CTS, PKT_RNDV_FIN, PKT_RNDV_NAK, PKT_RNDV_RTS,
                   Ch3Device, _Inflight, _Unexpected, _match)
from ..channels.base import iov_total

__all__ = ["Ch3RdmaDevice"]

_CTS_FMT = "<QQ"  # raddr, rkey
_CTS_SIZE = struct.calcsize(_CTS_FMT)


class _UnexpectedRts(_Unexpected):
    """An RTS whose receive has not been posted yet."""

    __slots__ = ("sreq", "peer")

    def __init__(self, env, sreq: int, peer: int):
        super().__init__(env, None)
        #: an RTS is all envelope: it has arrived, and Probe may match it
        self.complete = True
        self.sreq = sreq
        self.peer = peer


class _RndvSend:
    __slots__ = ("req", "buf", "size", "peer", "mr", "wr_id")

    def __init__(self, req: Request, buf: Buffer, size: int, peer: int):
        self.req = req
        self.buf = buf
        self.size = size
        self.peer = peer
        self.mr = None
        self.wr_id: Optional[int] = None


class _RndvRecv:
    __slots__ = ("req", "mr", "env")

    def __init__(self, req: Request, mr, env):
        self.req = req
        self.mr = mr
        self.env = env


class Ch3RdmaDevice(Ch3Device):
    """CH3 with large-message rendezvous over direct RDMA writes."""

    def __init__(self, rank: int, size: int, channel):
        super().__init__(rank, size, channel)
        #: sender side, keyed by our request id
        self.rndv_sends: Dict[int, _RndvSend] = {}
        #: sends whose RDMA write is in flight, keyed by wr_id per peer
        self.rndv_inflight: Dict[Tuple[int, int], _RndvSend] = {}
        #: receiver side, keyed by (peer, sender request id)
        self.rndv_recvs: Dict[Tuple[int, int], _RndvRecv] = {}

    def _use_rndv(self, live: List[Buffer], size: int, dest: int
                  ) -> bool:
        """The protocol consult point: True routes this send through
        the rendezvous RDMA-write path.  The static rule is the §6
        threshold; the adaptive device overrides this to ask its
        per-peer controller."""
        return size >= CH3_RNDV_THRESHOLD

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def isend(self, iov, dest, tag, context
              ) -> Generator[None, None, Request]:
        size = iov_total(iov)
        live = [b for b in iov if len(b)]
        if not self._use_rndv(live, size, dest):
            req = yield from super().isend(iov, dest, tag, context)
            return req
        iov = live
        if len(iov) != 1:
            raise MpiError("rendezvous sends need one contiguous buffer")
        yield from self.channel.ctx.cpu.work(self.cfg.ch3_packet_overhead)
        req = Request("send")
        state = _RndvSend(req, iov[0], size, dest)
        self.rndv_sends[req.req_id] = state
        self._m_rndv.inc()
        yield from self._send_packet(dest, PKT_RNDV_RTS, tag, context,
                                     size, [], sreq=req.req_id)
        return req

    # ------------------------------------------------------------------
    # receive path: claim RTSes before the base eager logic
    # ------------------------------------------------------------------
    def irecv(self, iov, source, tag, context
              ) -> Generator[None, None, Request]:
        iov = [b for b in iov if len(b)]
        # find the first matching unclaimed unexpected entry; if it is
        # an RTS, handle the rendezvous here, otherwise defer to the
        # base implementation (which will find the same entry first —
        # arrival order is preserved).
        for u in self.unexpected:
            src, utag, uctx, usize = u.env
            if u.req is None and _match(source, tag, context,
                                        src, utag, uctx):
                if isinstance(u, _UnexpectedRts):
                    yield from self.channel.ctx.cpu.work(
                        self.cfg.ch3_packet_overhead)
                    req = Request("recv")
                    self.unexpected.remove(u)
                    yield from self._accept_rts(u.peer, u.env, u.sreq,
                                                iov, req)
                    return req
                break
        req = yield from super().irecv(iov, source, tag, context)
        return req

    def _accept_rts(self, peer: int, env, sreq: int, iov: List[Buffer],
                    req: Request) -> Generator:
        src, tag, context, size = env
        if size > iov_total(iov):
            # too small: the NAK consumes the message, and fails the
            # sender's half as well
            yield from self._refuse(peer, sreq, req, TruncateError(
                f"rendezvous message of {size} bytes into a "
                f"{iov_total(iov)}-byte receive"))
            return None
        if len(iov) != 1:
            raise MpiError("rendezvous receives need one contiguous "
                           "buffer")
        self.tuner.on_recv(peer, size, rndv=True)
        target = iov[0].sub(0, size)
        try:
            mr = yield from self.channel.regcache.register(target.addr,
                                                           size)
        except RegistrationError as exc:
            yield from self._refuse(peer, sreq, req,
                                    self._unpinned(peer, exc))
            return None
        self.rndv_recvs[(peer, sreq)] = _RndvRecv(req, mr, env)
        cts = self.node.alloc(_CTS_SIZE, "ch3.cts")
        cts.write(struct.pack(_CTS_FMT, target.addr, mr.rkey))
        yield from self._send_packet(
            peer, PKT_RNDV_CTS, tag, context, _CTS_SIZE, [cts], sreq=sreq,
            on_complete=lambda: self.node.mem.free(cts.addr))
        return None

    def _unpinned(self, peer: int, exc: RegistrationError) -> MpiError:
        """Our side of a rendezvous with ``peer`` could not be pinned,
        and this layer has no ring to fall back on."""
        return MpiError(f"rank {self.rank}: rendezvous with rank {peer} "
                        f"could not register its buffer: {exc}")

    def _refuse(self, peer: int, sreq: int, req: Request,
                error: MpiError) -> Generator:
        """NAK rendezvous ``sreq``: the peer's half fails when the NAK
        arrives, and ``req`` fails with ``error`` once the NAK is in
        the channel.  Until then ``req`` stays open, so a rank that
        stops after its failure still keeps progressing while the NAK
        waits behind a full ring."""
        yield from self._send_packet(peer, PKT_RNDV_NAK, 0, 0, 0, [],
                                     sreq=sreq,
                                     on_complete=lambda: req.fail(error))
        return None

    # ------------------------------------------------------------------
    # control packets
    # ------------------------------------------------------------------
    def _handle_control_packet(self, st, kind, src, tag, context, size,
                               sreq) -> Generator:
        if kind == PKT_RNDV_RTS:
            env = (src, tag, context, size)
            pr = self._match_posted(src, tag, context)
            if pr is not None:
                yield from self._accept_rts(src, env, sreq, pr.iov,
                                            pr.req)
            else:
                self.unexpected.append(_UnexpectedRts(env, sreq, src))
                self._m_unexpected.inc()
                self._m_unexpected_depth.set(len(self.unexpected))
            return None
        if kind == PKT_RNDV_CTS:
            # the 16-byte payload follows in the stream
            ctl = self.node.alloc(_CTS_SIZE, "ch3.cts_in")

            def on_done(st2, msg):
                raddr, rkey = struct.unpack(_CTS_FMT, ctl.read())
                self.node.mem.free(ctl.addr)
                yield from self._launch_rndv_write(st2, sreq, raddr,
                                                   rkey)

            st.inflight = _Inflight((src, tag, context, _CTS_SIZE),
                                    [ctl], on_done=on_done)
            return None
        if kind == PKT_RNDV_FIN:
            key = (src, sreq)
            state = self.rndv_recvs.pop(key, None)
            if state is None:
                raise MpiError(f"FIN for unknown rendezvous {key}")
            yield from self.channel.regcache.release(state.mr)
            esrc, etag, _ectx, esize = state.env
            state.req.complete(esrc, etag, esize)
            return None
        if kind == PKT_RNDV_NAK:
            # sreq names the sender's request, and request ids are
            # unique across ranks: we hold one half, the receive (the
            # sender refused) or the send (the receiver refused)
            error = MpiError(f"rank {self.rank}: rank {src} could not "
                             f"register its side of the rendezvous, or "
                             f"had no room for it")
            recv = self.rndv_recvs.pop((src, sreq), None)
            if recv is not None:
                yield from self.channel.regcache.release(recv.mr)
                recv.req.fail(error)
                return None
            send = self.rndv_sends.pop(sreq, None)
            if send is None:
                raise MpiError(f"NAK for unknown rendezvous {sreq}")
            send.req.fail(error)
            return None
        yield from super()._handle_control_packet(
            st, kind, src, tag, context, size, sreq)
        return None

    def _launch_rndv_write(self, st, sreq: int, raddr: int, rkey: int
                           ) -> Generator:
        state = self.rndv_sends.get(sreq)
        if state is None:
            raise MpiError(f"CTS for unknown rendezvous send {sreq}")
        try:
            state.mr = yield from self.channel.regcache.register(
                state.buf.addr, state.size)
        except RegistrationError as exc:
            del self.rndv_sends[sreq]
            yield from self._refuse(state.peer, sreq, state.req,
                                    self._unpinned(state.peer, exc))
            return None
        conn = self.conn_state[state.peer].conn
        wr = yield from self.channel.ctx.rdma_write(
            conn.qp,
            [(state.buf.addr, state.size, state.mr.lkey)],
            raddr, rkey, signaled=True)
        state.wr_id = wr.wr_id
        self.rndv_inflight[(state.peer, wr.wr_id)] = state
        return None

    # ------------------------------------------------------------------
    # progress: reap completed RDMA writes, send FIN
    # ------------------------------------------------------------------
    def _extra_progress(self) -> Generator[None, None, bool]:
        moved = False
        # one poll cost per batch: the static designs' budget is one
        # CQE, the adaptive controller's is CQ_POLL_BUDGET
        budget = self.tuner.cq_budget(1)
        for peer, st in self.conn_state.items():
            cq = st.conn.qp.send_cq
            while cq.pending():
                batch = self.channel.ctx.poll_cq_many(cq, budget)
                yield from self.channel.ctx.cpu.work(
                    self.cfg.cq_poll_cpu)
                for cqe in batch:
                    moved |= yield from self._reap_completion(
                        peer, st, cqe)
        return moved

    def _reap_completion(self, peer: int, st, cqe
                         ) -> Generator[None, None, bool]:
        """Retire one send-CQ entry; returns whether it moved a
        message forward."""
        if cqe.opcode is not Opcode.RDMA_WRITE:
            raise MpiError(f"unexpected completion {cqe}")
        state = self.rndv_inflight.pop((peer, cqe.wr_id), None)
        if state is None:
            raise MpiError(f"completion for unknown rendezvous "
                           f"write {cqe.wr_id}")
        if cqe.status is not WcStatus.SUCCESS:
            state.req.fail(MpiError(
                f"rendezvous write failed: {cqe.status}"))
            return False
        yield from self.channel.regcache.release(state.mr)
        del self.rndv_sends[state.req.req_id]
        # FIN tells the receiver the data is in place.  The send
        # completes only once the FIN is in the channel: a FIN still
        # queued behind a full ring needs the sender to keep
        # progressing, and an open request is what keeps it there.
        yield from self._send_packet(
            state.peer, PKT_RNDV_FIN, 0, 0, 0, [], sreq=state.req.req_id,
            on_complete=lambda: state.req.complete(count=state.size))
        return True
