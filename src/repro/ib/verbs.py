"""VAPI-like consumer interface.

The paper programs the HCA through Mellanox VAPI; this module is the
equivalent consumer-facing API in the simulation.  It is where
*software* costs are charged: posting descriptors costs
``post_wqe_cpu``, registration costs the pin-down time, and the
polling helpers charge detection/poll costs — so higher layers never
talk to :mod:`repro.ib.hca` directly and every code path pays the same
tolls the paper's implementation did.

All methods that consume simulated time are generators (call with
``yield from``); the non-blocking ones (``poll_cq``) are plain calls.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple, Union

from ..config import HardwareConfig
from ..hw.cpu import Cpu
from ..sim.engine import Simulator
from .cq import CompletionQueue
from .hca import Hca, QueuePair
from .mr import MemoryRegion
from .srq import SharedReceiveQueue
from .types import (Access, Completion, Opcode, RecvRequest,
                    RegistrationError, Sge, WcStatus, WorkRequest)

__all__ = ["VapiContext"]


class VapiContext:
    """Per-process handle to one HCA (the VAPI ``hca_hndl``)."""

    def __init__(self, hca: Hca, cpu: Cpu) -> None:
        self.hca = hca
        self.cpu = cpu
        self.sim: Simulator = hca.sim
        self.cfg: HardwareConfig = hca.cfg

    # -- memory registration ----------------------------------------------
    def reg_mr(self, addr: int, length: int,
               access: Access = Access.all_access()
               ) -> Generator[None, None, MemoryRegion]:
        """Register (pin) a buffer; charges the pin-down cost.

        Raises :class:`RegistrationError` when fault injection says the
        pin-down fails (the cost is still paid: the OS walked the pages
        before refusing).  Only this charged, user-buffer path is
        injectable — establish-time ring registrations go through the
        protection domain directly.
        """
        yield from self.cpu.work(self.cfg.registration_cost(length))
        if self.hca.faults.take_reg_failure(self.hca.node_id):
            raise RegistrationError(
                f"node {self.hca.node_id}: injected registration "
                f"failure for [{addr:#x}, +{length})")
        mr = self.hca.pd.register(addr, length, access)
        self.hca.stats.registrations += 1
        return mr

    def dereg_mr(self, mr: MemoryRegion) -> Generator:
        yield from self.cpu.work(self.cfg.deregistration_cost(mr.length))
        self.hca.pd.deregister(mr)
        self.hca.stats.deregistrations += 1
        return None

    # -- posting -------------------------------------------------------------
    def post_send(self, qp: QueuePair, wr: WorkRequest) -> Generator:
        yield from self.cpu.work(self.cfg.post_wqe_cpu)
        qp.post_send(wr)
        return None

    def post_recv(self, qp: QueuePair, rr: RecvRequest) -> Generator:
        yield from self.cpu.work(self.cfg.post_wqe_cpu)
        qp.post_recv(rr)
        return None

    def post_srq(self, srq: SharedReceiveQueue,
                 rr: RecvRequest) -> Generator:
        """Post a receive WQE to a shared receive queue; same
        descriptor-post CPU toll as a per-QP post."""
        yield from self.cpu.work(self.cfg.post_wqe_cpu)
        srq.post(rr)
        return None

    # Convenience builders ---------------------------------------------------
    def rdma_write(self, qp: QueuePair, local: Sequence[Tuple[int, int, int]],
                   remote_addr: int, rkey: int,
                   signaled: bool = True) -> Generator:
        """Post an RDMA write; ``local`` is [(addr, len, lkey), ...].
        Returns the WorkRequest (its wr_id matches the completion)."""
        wr = WorkRequest(
            opcode=Opcode.RDMA_WRITE,
            sges=[Sge(a, n, k) for a, n, k in local],
            remote_addr=remote_addr, rkey=rkey, signaled=signaled)
        yield from self.post_send(qp, wr)
        return wr

    def rdma_read(self, qp: QueuePair, local: Sequence[Tuple[int, int, int]],
                  remote_addr: int, rkey: int,
                  signaled: bool = True) -> Generator:
        wr = WorkRequest(
            opcode=Opcode.RDMA_READ,
            sges=[Sge(a, n, k) for a, n, k in local],
            remote_addr=remote_addr, rkey=rkey, signaled=signaled)
        yield from self.post_send(qp, wr)
        return wr

    def fetch_add(self, qp: QueuePair, local_addr: int, lkey: int,
                  remote_addr: int, rkey: int, add: int,
                  signaled: bool = True) -> Generator:
        """Atomic fetch-and-add on a remote 8-byte value; the old
        value lands at ``local_addr``."""
        wr = WorkRequest(
            opcode=Opcode.FETCH_ADD, sges=[Sge(local_addr, 8, lkey)],
            remote_addr=remote_addr, rkey=rkey, signaled=signaled,
            compare_add=add)
        yield from self.post_send(qp, wr)
        return wr

    def cmp_swap(self, qp: QueuePair, local_addr: int, lkey: int,
                 remote_addr: int, rkey: int, compare: int, swap: int,
                 signaled: bool = True) -> Generator:
        """Atomic compare-and-swap on a remote 8-byte value."""
        wr = WorkRequest(
            opcode=Opcode.CMP_SWAP, sges=[Sge(local_addr, 8, lkey)],
            remote_addr=remote_addr, rkey=rkey, signaled=signaled,
            compare_add=compare, swap=swap)
        yield from self.post_send(qp, wr)
        return wr

    def send(self, qp: QueuePair, local: Sequence[Tuple[int, int, int]],
             signaled: bool = True) -> Generator:
        wr = WorkRequest(
            opcode=Opcode.SEND,
            sges=[Sge(a, n, k) for a, n, k in local],
            signaled=signaled)
        yield from self.post_send(qp, wr)
        return wr

    # -- completion handling ---------------------------------------------------
    def poll_cq(self, cq: CompletionQueue) -> Optional[Completion]:
        """Non-blocking poll (zero simulated cost; spin loops should use
        :meth:`wait_cq`, which charges realistic detection costs)."""
        return cq.poll()

    def poll_cq_many(self, cq: CompletionQueue,
                     budget: int) -> List[Completion]:
        """Bounded batch drain of up to ``budget`` CQEs (zero simulated
        cost — the caller charges one poll cost for the batch, the
        amortization the adaptive progress engine exploits)."""
        return cq.poll_many(budget)

    def wait_cq(self, cq: CompletionQueue) -> Generator:
        """Spin on ``cq`` until a completion arrives; charges poll CPU
        plus the detection latency of seeing a fresh CQE over PCI."""
        first = True
        while True:
            cqe = cq.poll()
            if cqe is not None:
                if not first:
                    # CQE arrived while we slept: detection delay.
                    yield self.sim.timeout(self.cfg.poll_detect_latency)
                yield from self.cpu.work(self.cfg.cq_poll_cpu)
                return cqe
            first = False
            yield cq.wait_event()

    def wait_wr(self, cq: CompletionQueue, wr: WorkRequest) -> Generator:
        """Wait for the completion of one specific work request;
        completions for other WRs polled meanwhile are an error here
        (protocol layers that multiplex keep their own ledgers)."""
        cqe = yield from self.wait_cq(cq)
        if cqe.wr_id != wr.wr_id:
            raise RuntimeError(
                f"expected completion of wr {wr.wr_id}, got {cqe.wr_id}"
            )
        return cqe
