"""Mutation-testing smoke mode: known-dangerous protocol edits.

Each :class:`Mutation` monkey-patches one protocol site with a bug of
a class the paper's designs must guard against — publishing the head
pointer before the data (§4.3's single-write invariant), skipping the
explicit tail update (§4.3's flow-control escape hatch), releasing a
registration before the peer's RDMA read, acknowledging rendezvous
data before the read completed (Fig. 10's completion rules), matching
violations, unexpected-path copy bugs, and the shared-receive-pool
hazards the ``srq`` design introduces (leaked credits, receive slots
recycled before copy-out).  The smoke runner applies
each mutation, runs a small tailored spec through the conformance
check, and verifies the harness *catches* it (expected-model
mismatch, matching-rules violation, hang, or error).

This is the harness testing itself: if a refactor ever weakens the
oracle to the point that these canned bugs slide through, the smoke
tier fails before the fuzzer silently goes blind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..config import KB
from . import oracle
from .differ import run_spec
from .spec import (ComputePhase, P2PMessage, P2PPhase, WorkloadSpec)

__all__ = ["Mutation", "MutationResult", "CATALOG", "run_smoke"]


@dataclass
class Mutation:
    name: str
    description: str
    design: str
    spec: WorkloadSpec
    #: installs the bug; returns the undo callable.
    apply: Callable[[], Callable[[], None]] = field(repr=False,
                                                    default=None)


@dataclass
class MutationResult:
    name: str
    detected: bool
    failures: List[str]


# ---------------------------------------------------------------------
# tailored smoke specs
# ---------------------------------------------------------------------

#: ring-path geometry: 4 slots, zero-copy effectively disabled, so
#: a 24 KB one-way stream must wrap the ring and consume credits.
_RING_CFG = {"ring_size": 16 * KB, "chunk_size": 4 * KB,
             "zerocopy_threshold": 1 << 30}
#: zero-copy geometry: a 32 KB element goes through RTS/read/ACK.
_ZC_CFG = {"ring_size": 16 * KB, "chunk_size": 4 * KB,
           "zerocopy_threshold": 8 * KB}


def _stream_spec(n: int = 6, size: int = 4000,
                 blocking: bool = True) -> WorkloadSpec:
    msgs = tuple(P2PMessage(src=0, dst=1, tag=0, size=size)
                 for _ in range(n))
    return WorkloadSpec(seed=0, nranks=2,
                        phases=(P2PPhase(messages=msgs,
                                         blocking=blocking),),
                        ch_cfg=dict(_RING_CFG), time_cap=0.2)


def _zcopy_spec(n: int = 1) -> WorkloadSpec:
    msgs = tuple(P2PMessage(src=0, dst=1, tag=0, size=32 * KB)
                 for _ in range(n))
    return WorkloadSpec(seed=0, nranks=2,
                        phases=(P2PPhase(messages=msgs,
                                         blocking=True),),
                        ch_cfg=dict(_ZC_CFG), time_cap=0.2)


def _unexpected_spec() -> WorkloadSpec:
    """Force the unexpected path: rank 1 spends phase 0 blocked on a
    long streamed message from rank 0, and while its progress engine
    waits it drains rank 2's phase-1 eager message — whose receive is
    not posted yet."""
    return WorkloadSpec(
        seed=0, nranks=3,
        phases=(P2PPhase(messages=(
                    P2PMessage(src=0, dst=1, tag=0, size=24 * KB),)),
                P2PPhase(messages=(
                    P2PMessage(src=2, dst=1, tag=1, size=1000),))),
        ch_cfg=dict(_RING_CFG), time_cap=0.2)


#: shared-pool geometry: 4 one-KB slots and a 2-message credit window,
#: so a 6-message one-way stream must recycle pool slots and can only
#: advance on explicit credit writes (no reverse traffic to piggyback).
_SRQ_CFG = {"srq_pool_slots": 4, "srq_credits": 2,
            "srq_slot_size": 1 * KB}


def _srq_spec(n: int = 6, size: int = 500) -> WorkloadSpec:
    msgs = tuple(P2PMessage(src=0, dst=1, tag=0, size=size)
                 for _ in range(n))
    return WorkloadSpec(seed=0, nranks=2,
                        phases=(P2PPhase(messages=msgs,
                                         blocking=True),),
                        ch_cfg=dict(_SRQ_CFG), time_cap=0.2)


def _lazy_spec(bidir: bool = False) -> WorkloadSpec:
    """On-demand establishment traffic.  ``bidir`` puts a message in
    each direction in the same phase, so both ranks race to connect
    the same pair and one of them *coalesces* on the pair event — the
    geometry the lost-wakeup mutation needs."""
    msgs = [P2PMessage(src=0, dst=1, tag=0, size=500)]
    if bidir:
        msgs.append(P2PMessage(src=1, dst=0, tag=1, size=500))
    return WorkloadSpec(seed=0, nranks=2,
                        phases=(P2PPhase(messages=tuple(msgs),
                                         blocking=True),),
                        ch_cfg=dict(_SRQ_CFG), time_cap=0.2)


def _permuted_spec() -> WorkloadSpec:
    """Receives posted in reverse of the send order, same source and
    distinct tags: correct matching must skip the first posted slot;
    matching that ignores tags pairs them wrongly."""
    msgs = (P2PMessage(src=0, dst=1, tag=0, size=500),
            P2PMessage(src=0, dst=1, tag=1, size=900))
    return WorkloadSpec(
        seed=0, nranks=2,
        phases=(P2PPhase(messages=msgs, post_reversed=True),),
        ch_cfg=dict(_RING_CFG), time_cap=0.2)


# ---------------------------------------------------------------------
# the patches
# ---------------------------------------------------------------------

def _patch(obj, name, replacement) -> Callable[[], None]:
    orig = getattr(obj, name)
    setattr(obj, name, replacement)
    return lambda: setattr(obj, name, orig)


def _mut_header_before_payload():
    """Post only the chunk header: the §4.3 layout exists precisely so
    header+payload+trailer land in ONE write; splitting them reverts
    to the unsafe head-pointer-first protocol."""
    from ..mpich2.channels import ring

    def bad_post(self, chunk_index, payload_len, signaled=False):
        slot = chunk_index % self.nslots
        base = slot * self.chunk_size
        wr = yield from self.ctx.rdma_write(
            self.qp,
            [(self.staging.addr + base, ring.HDR_SIZE,
              self.staging_mr.lkey)],
            self.remote_base + base, self.remote_rkey,
            signaled=signaled)
        return wr

    return _patch(ring.RingSender, "post", bad_post)


def _mut_credit_marked_sent():
    """Mark explicit credits as sent without the RDMA write.  The ring
    (tail-pointer update) and the SRQ pool (credit message) return
    credits through the same part, so one patch serves both rows: on
    a one-way stream there is no reverse traffic to piggyback credits
    on, and the sender starves at its window."""
    from ..mpich2.channels import parts

    def bad(self):
        self.credit_sent = self.consumed
        return None
        yield  # pragma: no cover - makes this a generator

    return _patch(parts.CreditReturn, "send_explicit_credit", bad)


def _mut_ignore_credits():
    """Drop every credit update the sender hears about."""
    from ..mpich2.channels import parts

    def bad(self, credit):
        return None

    return _patch(parts.CreditWindow, "absorb", bad)


def _mut_early_deregister():
    """Deregister the advertised zero-copy source right after the
    RTS, while the receiver's RDMA read is still coming."""
    from ..mpich2.channels import chunked

    orig = chunked.ChunkedChannel._start_zcopy_send

    def bad(self, conn, cur):
        started = yield from orig(self, conn, cur)
        if started and conn.zc_send is not None:
            yield from self.ctx.dereg_mr(conn.zc_send.mr)
        return started

    return _patch(chunked.ChunkedChannel, "_start_zcopy_send", bad)


def _mut_ack_before_read():
    """Send the rendezvous ACK when the RTS is seen, before the RDMA
    read is even posted (Fig. 10 requires read completion first).
    The sender legitimately retires the operation on the first ACK,
    so the completion-time ACK arrives as a stray duplicate."""
    from ..mpich2.channels import chunked
    from ..mpich2.channels.ring import KIND_ACK

    orig = chunked.ChunkedChannel._start_zcopy_read

    def bad(self, conn, cur, op_id):
        if conn.sender.is_open():
            yield from self._emit_control(conn, KIND_ACK, aux=op_id)
        result = yield from orig(self, conn, cur, op_id)
        return result

    return _patch(chunked.ChunkedChannel, "_start_zcopy_read", bad)


def _mut_corrupt_payload():
    """Flip the first payload byte of every DATA chunk."""
    from ..mpich2.channels import ring

    orig = ring.RingSender.post

    def bad(self, chunk_index, payload_len, signaled=False):
        if payload_len:
            base = (chunk_index % self.nslots) * self.chunk_size
            v = self.staging.view()
            v[base + ring.HDR_SIZE] = int(v[base + ring.HDR_SIZE]) ^ 0xFF
        return orig(self, chunk_index, payload_len, signaled)

    return _patch(ring.RingSender, "post", bad)


def _mut_wrong_tag():
    """Corrupt the tag in every CH3 packet header."""
    from ..mpich2 import ch3

    orig = ch3.pack_header

    def bad(kind, src, tag, context, size, req=0):
        return orig(kind, src, tag + 1, context, size, req)

    return _patch(ch3, "pack_header", bad)


def _mut_wrong_source():
    """Corrupt the source rank in every CH3 packet header."""
    from ..mpich2 import ch3

    orig = ch3.pack_header

    def bad(kind, src, tag, context, size, req=0):
        return orig(kind, src + 1, tag, context, size, req)

    return _patch(ch3, "pack_header", bad)


def _mut_skip_unexpected_copy():
    """Never copy unexpected-path data into the user buffer."""
    from ..mpich2 import ch3

    def bad(self, src_buf, iov, size):
        return None
        yield  # pragma: no cover - makes this a generator

    return _patch(ch3.Ch3Device, "_copy_out", bad)


def _mut_match_ignores_tag():
    """Message matching that forgets to compare tags."""
    from ..mpich2 import ch3
    from ..mpich2.adi3 import ANY_SOURCE

    def bad_match(want_src, want_tag, want_ctx, src, tag, ctx):
        return (want_ctx == ctx and want_src in (src, ANY_SOURCE))

    def bad_matches(self, src, tag, context):
        return (self.context == context
                and self.source in (src, ANY_SOURCE))

    undo1 = _patch(ch3, "_match", bad_match)
    undo2 = _patch(ch3._PostedRecv, "matches", bad_matches)

    def undo():
        undo1()
        undo2()

    return undo


def _mut_srq_pool_write_race():
    """Recycle each shared-pool receive slot at CQE time, before the
    consumer copies the payload out (the classic repost-too-early SRQ
    bug): in-flight traffic may land in a slot whose previous message
    is still queued unread, and the duplicate repost at consume time
    breaks the pool's WQE accounting."""
    from ..mpich2.channels import srq as srq_chan

    orig = srq_chan._RecvPool.drain

    def bad(self):
        orig(self)
        for q in self.flows.values():
            for seg in q:
                if len(seg) == 3:  # not yet recycled early
                    self.srq.post(self.make_rr(seg[0]))
                    seg.append(True)

    return _patch(srq_chan._RecvPool, "drain", bad)


def _mut_srq_replenish_off_by_one():
    """Replenish condition off by one: fire only when the unreported
    consumption *exceeds the whole window*.  The gap can never exceed
    the window (the sender stalls first), so the explicit credit is
    never written and a one-way stream starves permanently."""
    from ..mpich2.channels import parts

    window = _SRQ_CFG["srq_credits"]

    def bad(self):
        return self.consumed - self.credit_sent > window

    return _patch(parts.CreditReturn, "credit_due", bad)


def _mut_lazy_drop_rep():
    """Drop the REP leg of the on-demand handshake and give the
    initiator no REP-leg timer: it blocks in connect() forever
    (the model's ``lazy-connect[drop-rep-no-retry]``)."""
    from ..mpich2 import connect as lazy

    def bad(self, src, dest):
        sim, cfg = self.sim, self.cfg
        na = self.channels[src].node.node_id
        nb = self.channels[dest].node.node_id
        one_way = cfg.wire_latency + cfg.pci_latency
        # REQ leg arrives at the peer...
        yield sim.timeout(self.cluster.fabric.latency(na, nb)
                          + one_way)
        # ...but the REP is dropped and no retry timer was armed
        yield sim.event()

    return _patch(lazy.LazyConnector, "_handshake", bad)


def _mut_lazy_lost_wakeup():
    """The established handshake forgets to signal the pair event:
    any rank that coalesced on a concurrent connect sleeps forever
    (the model's ``lazy-connect[lost-wakeup]``)."""
    from ..mpich2 import connect as lazy
    from ..mpich2.adi3 import MpiError

    def bad(self, src, dest):
        key = (src, dest) if src < dest else (dest, src)
        state = self._pairs.get(key)
        while state is not None and state is not True:
            yield state
            state = self._pairs.get(key)
        if state is True:
            return
        ev = self.sim.event()
        self._pairs[key] = ev
        try:
            yield from self._handshake(src, dest)
            self._establish(key)
        except MpiError:
            del self._pairs[key]
            raise
        self._pairs[key] = True
        self.connects += 1
        # bug: ev.succeed(None) forgotten — waiters never wake

    return _patch(lazy.LazyConnector, "connect", bad)


CATALOG: List[Mutation] = [
    Mutation("header-before-payload",
             "chunk header posted without payload+trailer "
             "(head pointer updated before the data)",
             "pipeline", _stream_spec(),
             _mut_header_before_payload),
    Mutation("skip-tail-update",
             "explicit tail-pointer update marked sent but never "
             "written",
             "pipeline", _stream_spec(),
             _mut_credit_marked_sent),
    Mutation("ignore-credits",
             "sender discards all flow-control credits",
             "pipeline", _stream_spec(),
             _mut_ignore_credits),
    Mutation("early-deregister",
             "zero-copy source deregistered right after the RTS",
             "zerocopy", _zcopy_spec(),
             _mut_early_deregister),
    Mutation("ack-before-read",
             "rendezvous ACK sent before the RDMA read completed "
             "(two messages: the duplicate completion-time ACK hits "
             "the sender while the second operation is in flight)",
             "zerocopy", _zcopy_spec(n=2),
             _mut_ack_before_read),
    Mutation("corrupt-payload",
             "first payload byte of each DATA chunk flipped",
             "pipeline", _stream_spec(),
             _mut_corrupt_payload),
    Mutation("wrong-tag",
             "CH3 header carries tag+1",
             "pipeline", _stream_spec(n=2, size=1000,
                                      blocking=False),
             _mut_wrong_tag),
    Mutation("wrong-source",
             "CH3 header carries src+1",
             "pipeline", _stream_spec(n=2, size=1000,
                                      blocking=False),
             _mut_wrong_source),
    Mutation("skip-unexpected-copy",
             "unexpected-path payload never copied to the user "
             "buffer",
             "pipeline", _unexpected_spec(),
             _mut_skip_unexpected_copy),
    Mutation("match-ignores-tag",
             "message matching ignores the tag",
             "pipeline", _permuted_spec(),
             _mut_match_ignores_tag),
    Mutation("srq-credit-leak",
             "explicit SRQ credit marked sent but never written "
             "(sender starves at the credit window)",
             "srq", _srq_spec(),
             _mut_credit_marked_sent),
    Mutation("srq-pool-write-race",
             "shared receive slot recycled at CQE time, before "
             "copy-out (arriving data can overwrite unread slots)",
             "srq", _srq_spec(),
             _mut_srq_pool_write_race),
    Mutation("srq-replenish-off-by-one",
             "explicit-credit threshold off by one: the replenish "
             "never fires and the sender starves",
             "srq", _srq_spec(),
             _mut_srq_replenish_off_by_one),
    Mutation("lazy-drop-rep",
             "on-demand connect REP leg dropped with no retry timer "
             "(initiator blocks in connect() forever)",
             "srq-lazy", _lazy_spec(),
             _mut_lazy_drop_rep),
    Mutation("lazy-lost-wakeup",
             "established handshake never signals the pair event "
             "(coalesced connector sleeps forever)",
             "srq-lazy", _lazy_spec(bidir=True),
             _mut_lazy_lost_wakeup),
]


def run_smoke(catalog: Optional[List[Mutation]] = None
              ) -> List[MutationResult]:
    """Apply each mutation, run its spec, and record whether the
    conformance check caught the bug."""
    results = []
    for mut in (catalog if catalog is not None else CATALOG):
        undo = mut.apply()
        try:
            obs = run_spec(mut.spec, mut.design)
            failures = oracle.check(mut.spec, obs)
        finally:
            undo()
        results.append(MutationResult(mut.name, bool(failures),
                                      failures))
    return results
