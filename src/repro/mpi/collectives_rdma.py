"""RDMA-based collective operations.

The paper's §9: "We are also working on how to support efficient
collective communication on top of InfiniBand", citing the RDMA-based
collectives of Gupta et al. [21].  This module implements that idea:
collective operations that bypass the whole CH3/channel stack and use
direct RDMA writes into pre-exchanged per-peer buffers, with flag
polling for arrival detection — the same technique the channels use
internally, but without per-message packet headers, matching, or
progress-engine overhead.

Provided: a dissemination **barrier** and a binomial **broadcast** for
small payloads.  ``benchmarks/test_ablation_rdma_collectives.py``
measures what they buy over the point-to-point implementations.

Correctness note: the HCA gathers source data when a descriptor
*executes*, not when it is posted, so outgoing flag lines are
double-buffered by epoch parity and rewritten only after every write
gathered from them has completed (reaped from the CQ).  The writes of
one epoch carry the same bytes, so they may share a line in flight.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..hw.memory import Buffer
from ..ib.types import WcStatus
from ..mpich2.adi3 import MpiError

__all__ = ["RdmaCollectives"]

_SLOT = 64        # one cache line per round/peer
_MAX_ROUNDS = 24
_BCAST_MAX = 4095


class RdmaCollectives:
    """Direct-RDMA collectives bound to one communicator.

    Create collectively with :meth:`create`; the setup registers a
    small signal region per rank and exchanges addresses/rkeys, after
    which barriers and broadcasts cost exactly the RDMA writes they
    issue.
    """

    # region layout (offsets within the signal buffer)
    _IN_BARRIER = 0                                  # _SLOT * rounds
    _IN_BCAST = _SLOT * _MAX_ROUNDS                  # 1 + payload
    _OUT_BASE = _IN_BCAST + 1 + _BCAST_MAX           # scratch lines

    def __init__(self, comm):
        self.comm = comm
        self._qps: Dict[int, object] = {}
        self._remote: Dict[int, tuple] = {}
        self.signals: Optional[Buffer] = None
        self._mr = None
        self._barrier_epoch = 0
        self._bcast_epoch = 0
        #: scratch line -> (qp, wr_id) of each write gathered from it
        #: that has not been reaped
        self._line_pending: Dict[int, List[Tuple[object, int]]] = {}

    @classmethod
    def create(cls, comm) -> Generator[None, None, "RdmaCollectives"]:
        self = cls(comm)
        device = comm.device
        ctx = device.channel.ctx
        # out area: double-buffered barrier lines + bcast staging x2
        out_size = _SLOT * _MAX_ROUNDS * 2 + 2 * (1 + _BCAST_MAX)
        size = self._OUT_BASE + out_size
        self.signals = device.node.alloc(size, "rcoll.signals")
        self.signals.view()[:] = 0
        self._mr = yield from ctx.reg_mr(self.signals.addr, size)

        world = comm.mpi.world
        me = device.rank
        for peer_local in range(comm.size):
            peer_world = comm.group[peer_local]
            if peer_world == me:
                continue
            if me < peer_world:
                peer_dev = world.devices[peer_world]
                cq_a = device.node.hca.create_cq()
                cq_b = peer_dev.node.hca.create_cq()
                qp_a = device.node.hca.create_qp(cq_a)
                qp_b = peer_dev.node.hca.create_qp(cq_b)
                qp_a.connect(qp_b)
                self._qps[peer_local] = qp_a
                _pending_qps.setdefault((peer_world, me), []).append(qp_b)
            else:
                bucket = _pending_qps.get((me, peer_world))
                if not bucket:
                    raise MpiError("RdmaCollectives.create must be "
                                   "called collectively")
                self._qps[peer_local] = bucket.pop(0)
        infos = yield from comm.allgather(
            (self.signals.addr, self._mr.rkey))
        for r, info in enumerate(infos):
            self._remote[r] = tuple(info)
        yield from comm.Barrier()
        return self

    # ------------------------------------------------------------------
    # low-level write/poll with scratch-line lifecycle
    # ------------------------------------------------------------------
    def _reap_line(self, src_off: int) -> Generator:
        """Ensure every write gathered from this scratch line has
        executed (drain each one's CQ up to its wr_id)."""
        ctx = self.comm.device.channel.ctx
        for qp, wr_id in self._line_pending.pop(src_off, ()):
            while True:
                cqe = ctx.poll_cq(qp.send_cq)
                if cqe is None:
                    # nothing reaped yet: wait for the next completion
                    yield qp.send_cq.wait_event()
                    continue
                if cqe.status is not WcStatus.SUCCESS:
                    raise MpiError(f"RDMA collective write failed: "
                                   f"{cqe.status}")
                if cqe.wr_id == wr_id:
                    break
                # a completion for some other scratch line on this QP:
                # retire it there too, or that line's reap would hang
                # waiting for a CQE we just drained
                for writes in self._line_pending.values():
                    if (qp, cqe.wr_id) in writes:
                        writes.remove((qp, cqe.wr_id))
                        break
        return None

    def _post_from_line(self, target: int, src_off: int, length: int,
                        dst_off: int) -> Generator:
        ctx = self.comm.device.channel.ctx
        addr, rkey = self._remote[target]
        wr = yield from ctx.rdma_write(
            self._qps[target],
            [(self.signals.addr + src_off, length, self._mr.lkey)],
            addr + dst_off, rkey, signaled=True)
        self._line_pending.setdefault(src_off, []).append(
            (self._qps[target], wr.wr_id))
        return None

    def _poll_flag(self, offset: int, value: int) -> Generator:
        ctx = self.comm.device.channel.ctx
        hca = self.comm.device.node.hca
        view = self.signals.view()
        slept = False
        while view[offset] != value:
            slept = True
            yield hca.inbound_gate.wait()
        if slept:
            yield ctx.sim.timeout(ctx.cfg.poll_detect_latency)
        yield from ctx.cpu.work(ctx.cfg.cq_poll_cpu)
        return None

    # ------------------------------------------------------------------
    def barrier(self) -> Generator:
        """Dissemination barrier over direct RDMA writes: log2(p)
        rounds, each one write + one local memory poll."""
        p, r = self.comm.size, self.comm.rank
        if p == 1:
            return None
        self._barrier_epoch += 1
        seq = (self._barrier_epoch % 250) + 1
        parity = self._barrier_epoch % 2
        k = 0
        step = 1
        while step < p:
            if k >= _MAX_ROUNDS:
                raise MpiError("too many barrier rounds")
            dest = (r + step) % p
            src_off = (self._OUT_BASE + _SLOT * (2 * k + parity))
            yield from self._reap_line(src_off)
            self.signals.view()[src_off] = seq
            yield from self._post_from_line(dest, src_off, 1,
                                            self._IN_BARRIER + _SLOT * k)
            yield from self._poll_flag(self._IN_BARRIER + _SLOT * k, seq)
            step <<= 1
            k += 1
        return None

    def bcast(self, buf: Buffer, root: int = 0) -> Generator:
        """Binomial broadcast of a small payload (<= 4 KB) via direct
        RDMA writes carrying a trailing flag."""
        p, r = self.comm.size, self.comm.rank
        n = len(buf)
        if n > _BCAST_MAX:
            raise MpiError(f"rdma bcast payload limited to {_BCAST_MAX}")
        if p == 1:
            return None
        self._bcast_epoch += 1
        seq = (self._bcast_epoch % 250) + 1
        parity = self._bcast_epoch % 2
        in_off = self._IN_BCAST
        out_off = (self._OUT_BASE + _SLOT * _MAX_ROUNDS * 2
                   + parity * (1 + _BCAST_MAX))
        vr = (r - root) % p
        mask = 1
        while mask < p and not (vr & mask):
            mask <<= 1
        if vr:
            # flag byte lands after the payload (bottom fill)
            yield from self._poll_flag(in_off + n, seq)
            buf.view()[:] = self.signals.view()[in_off:in_off + n]
        mask >>= 1
        view = self.signals.view()
        if mask > 0:
            yield from self._reap_line(out_off)
            view[out_off:out_off + n] = buf.view()
            view[out_off + n] = seq
        while mask > 0:
            if vr + mask < p:
                dest = (vr + mask + root) % p
                # every forward gathers the same bytes from the one
                # staging line: post them back to back
                yield from self._post_from_line(dest, out_off, n + 1,
                                                in_off)
            mask >>= 1
        return None


_pending_qps: Dict[tuple, list] = {}
