"""Message-lifecycle tracer.

Hooks the CH3 devices of a world and records every point-to-point
message's (posted, sent, delivered) times plus whether it arrived
unexpected — the MPE/jumpshot-style instrumentation that makes the
eager/rendezvous and unexpected-queue behaviour visible.

When the world carries an enabled :class:`repro.obs.Observability`
hub (or a timeline is passed explicitly), each delivered message also
lands on the Chrome-trace timeline as an async span on the sender's
``rank{src}`` track, so message lifetimes appear alongside the
memcpy/RDMA spans the channels record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .timeline import NULL_TIMELINE, Timeline

__all__ = ["MessageTracer", "MessageRecord"]


@dataclass
class MessageRecord:
    src: int
    dst: int
    tag: int
    context: int
    size: int
    t_posted: float          # sender: isend entered the device
    t_sent: Optional[float] = None      # send request completed
    t_delivered: Optional[float] = None  # receive request completed
    unexpected: bool = False  # arrived before its receive was posted
    #: sender's vector clock snapshot at post time (happens-before
    #: witness for deadlock diagnosis); None when clocks are off
    vc_send: Optional[Tuple[int, ...]] = None
    #: receiver's vector clock right after the delivery merge
    vc_deliver: Optional[Tuple[int, ...]] = None

    @property
    def latency(self) -> Optional[float]:
        if self.t_delivered is None:
            return None
        return self.t_delivered - self.t_posted

    def __repr__(self) -> str:
        lat = f"{self.latency * 1e6:.2f}us" if self.latency else "?"
        flag = " (unexpected)" if self.unexpected else ""
        return (f"<msg {self.src}->{self.dst} tag={self.tag} "
                f"{self.size}B lat={lat}{flag}>")


class MessageTracer:
    """Hooks the CH3 devices of a world (idempotent per world)."""

    def __init__(self, world: Any,
                 timeline: Optional[Timeline] = None) -> None:
        self.world = world
        if timeline is None:
            obs = getattr(world, "obs", None)
            timeline = obs.timeline if obs is not None else NULL_TIMELINE
        self.timeline = timeline
        self.messages: List[MessageRecord] = []
        #: (src, dst, tag, context) -> FIFO of unmatched send records
        self._open: Dict[tuple, List[MessageRecord]] = {}
        #: per-rank vector clocks: rank -> component per rank.  A
        #: send ticks the sender's own component and snapshots; a
        #: delivery merges (elementwise max) then ticks the receiver.
        self.vc: Dict[int, List[int]] = {
            dev.rank: [0] * world.nranks for dev in world.devices}

    @classmethod
    def attach(cls, world: Any, timeline: Optional[Timeline] = None
               ) -> "MessageTracer":
        tracer = cls(world, timeline)
        for dev in world.devices:
            tracer._wrap_device(dev)
        return tracer

    def _now(self) -> float:
        return self.world.sim.now

    def _delivered_rec(self, rec: MessageRecord) -> None:
        rec.t_delivered = self._now()
        clock = self.vc.get(rec.dst)
        if clock is not None and rec.vc_send is not None:
            for i, v in enumerate(rec.vc_send):
                if v > clock[i]:
                    clock[i] = v
            clock[rec.dst] += 1
            rec.vc_deliver = tuple(clock)
        self.timeline.async_span(
            f"rank{rec.src}", f"msg->{rec.dst} tag={rec.tag}",
            aid=len(self.messages), t0=rec.t_posted,
            t1=rec.t_delivered, cat="msg",
            args={"bytes": rec.size,
                  "unexpected": rec.unexpected})

    def _wrap_device(self, dev: Any) -> None:
        tracer = self
        orig_isend = dev.isend
        orig_begin_eager = dev._begin_eager
        orig_finish = dev._finish_inflight
        orig_send_done = dev._send_op_complete
        by_req: Dict[int, MessageRecord] = {}

        def isend(iov: Any, dest: int, tag: int,
                  context: int) -> Any:
            from ..mpich2.channels.base import iov_total
            rec = MessageRecord(dev.rank, dest, tag, context,
                                iov_total(iov), tracer._now())
            clock = tracer.vc.get(dev.rank)
            if clock is not None:
                clock[dev.rank] += 1
                rec.vc_send = tuple(clock)
            tracer.messages.append(rec)
            key = (dev.rank, dest, tag, context)
            tracer._open.setdefault(key, []).append(rec)
            req = yield from orig_isend(iov, dest, tag, context)
            if req.done:           # fast path already completed
                rec.t_sent = tracer._now()
            else:
                by_req[req.req_id] = rec
            return req

        def _send_op_complete(st: Any, op: Any) -> Any:
            if op.req is not None:
                rec = by_req.pop(op.req.req_id, None)
                if rec is not None:
                    rec.t_sent = tracer._now()
            return orig_send_done(st, op)

        dev._send_op_complete = _send_op_complete

        def _begin_eager(st: Any, src: int, tag: int, context: int,
                         size: int) -> Any:
            result = orig_begin_eager(st, src, tag, context, size)
            msg = st.inflight
            if msg is not None and msg.u is not None:
                key = (src, dev.rank, tag, context)
                fifo = tracer._open.get(key)
                if fifo:
                    fifo[0].unexpected = True
            return result

        def _finish_inflight(st: Any) -> Any:
            msg = st.inflight
            if msg is not None:
                src, tag, context, _size = msg.env
                key = (src, dev.rank, tag, context)
                fifo = tracer._open.get(key)
                if fifo:
                    tracer._delivered_rec(fifo.pop(0))
            result = yield from orig_finish(st)
            return result

        dev.isend = isend
        dev._begin_eager = _begin_eager
        dev._finish_inflight = _finish_inflight

    # -- analysis helpers --------------------------------------------------
    def last_causal(self, src: int, dst: int
                    ) -> Optional[MessageRecord]:
        """The most recent delivered message ``src -> dst`` — the
        last causal edge between the two ranks, used to annotate
        wait-for-graph edges in deadlock diagnoses."""
        for rec in reversed(self.messages):
            if (rec.src == src and rec.dst == dst
                    and rec.t_delivered is not None):
                return rec
        return None

    def delivered(self) -> List[MessageRecord]:
        return [m for m in self.messages if m.t_delivered is not None]

    def unexpected_fraction(self) -> float:
        d = self.delivered()
        if not d:
            return 0.0
        return sum(1 for m in d if m.unexpected) / len(d)

    def summary(self) -> str:
        d = self.delivered()
        if not d:
            return "no delivered messages traced"
        lats = sorted(m.latency for m in d)
        total = sum(m.size for m in d)
        mid = lats[len(lats) // 2]
        return (f"{len(d)} messages, {total} bytes; latency "
                f"min={lats[0] * 1e6:.2f}us median={mid * 1e6:.2f}us "
                f"max={lats[-1] * 1e6:.2f}us; "
                f"{self.unexpected_fraction():.0%} unexpected")
