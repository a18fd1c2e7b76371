"""Host channel adapter and queue pairs (reliable connection service).

This models the Mellanox InfiniHost MT23108 at the level the paper's
analysis needs:

* per-QP in-order WQE execution — the send engine launches the next
  descriptor only after the previous message's data has drained, which
  bounds small-message throughput by per-descriptor costs (the Fig. 15
  write curve's ramp);
* RDMA reads are fully serialized per QP through the *responder's*
  read engine with a substantial turnaround (``hca_read_response``) —
  the InfiniHost read path pipelines poorly, which is exactly the raw
  read-vs-write gap of Fig. 15 that makes the CH3 write-based design
  beat the RDMA-read zero-copy design for mid-size messages (§6);
* DMA crosses the PCI-X bus (a fluid resource capping end-to-end peak
  at ~880 MB/s) and the host memory bus (shared with CPU copies);
* data are *really moved*: gather at launch, scatter at delivery, with
  rkey/bounds/access validation at the responder;
* under fault injection (see :mod:`repro.faults`) the RC transport's
  recovery machinery is modelled explicitly: per-QP packet sequence
  numbers, ack/timeout retransmission with exponential backoff,
  CRC-checked delivery, duplicate suppression at the responder, and a
  bounded retry count after which the QP enters the error state and
  completes the WQE with ``WcStatus.RETRY_EXC_ERR`` (subsequently
  queued WQEs flush with ``WR_FLUSH_ERR``).  The recovery path is a
  *stop-and-wait* per WQE — a deliberate simplification of IB's
  go-back-N that preserves the observable semantics (in-order
  delivery, no duplication, bounded retry) at far fewer events.  With
  no link faults configured the legacy single-shot path below runs
  unchanged, so the no-fault event sequence — and therefore every
  benchmark figure — is bit-for-bit identical.

Two transports, one responder.  The two are different clocks — the
fault-free engine starts the next WQE once the data has drained and
lets the ack overlap it, stop-and-wait holds the engine until the ack
or the timer — so both event sequences stay, selected once per QP
from ``FaultState.transport_active``.  Everything that is not a point
on the simulated clock exists once.  The sharing rule: a helper is
shared iff it never yields, or it yields the same awaitables in the
same order at every call site.  Side effects that do not yield may be
regrouped inside one step (nothing can run between them), except the
shadow-sanitizer hooks, which can raise: ``on_remote_access`` stays
before the rkey lookup, ``on_rdma_write`` before the memory write.
Three differences are behaviour, not drift: a dry SRQ blocks the
fault-free delivery (RNR backpressure) but makes the recovery
transport discard, send no ack and retransmit; an empty private
receive queue or a short receive WQE completes the error CQE at once
fault-free but travels back on the ack leg, cached under the PSN,
under recovery; and recovery carries ``bytes`` (CRC, ``faults.corrupt``)
where fault-free keeps the gathered ndarray.  One difference *is*
drift and is pinned, not fixed, here: a read or atomic with a bad
remote key is refused after the request leg fault-free and up front
under recovery (pinned by ``repro.check.pins``' transport suite; the
ROADMAP item "One protocol definition for the runtime and the model
checker, the RC transport first" closes it).

Simulation shortcut (semantics-preserving): instead of spin-polling
loops generating millions of events, inbound placements open the HCA's
``inbound_gate`` so pollers can sleep; observers still pay the
``poll_detect_latency``/``cq_poll_cpu`` costs a real spin loop would,
and they can only act on what the placed bytes/flags say.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from typing import (Any, Callable, Dict, Generator, List, Optional,
                    Tuple, Union)

import numpy as np
import numpy.typing as npt

from ..config import US, HardwareConfig
from ..hw.membus import MemBus
from ..hw.memory import NodeMemory, Zeros
from ..obs import NULL_OBS
from ..sim.engine import Event, Simulator
from ..sim.fluid import FluidNetwork, FluidResource, Route
from ..sim.sync import Fifo, Gate, Resource, Store
from .cq import CompletionQueue
from .fabric import Fabric
from .mr import MemoryRegion, ProtectionDomain
from .srq import SharedReceiveQueue
from .types import (Access, AccessError, Completion, IBError, Opcode,
                    QPError, RecvRequest, RnrError, Sge, WcStatus,
                    WorkRequest)

__all__ = ["Hca", "QueuePair", "HcaStats", "SharedReceiveQueue",
           "ack_timeout", "RC_RETRY_CNT"]

_qpn_counter = itertools.count(0x40)

# RC recovery schedule (consulted only under fault injection; the
# fault-free transport never arms a timer).
#: initial ack timeout before the first retransmission.
RC_TIMEOUT = 60 * US
#: extra timeout allowance per payload byte: covers the data drain
#: (and, for reads, the responder turnaround + response drain) of large
#: messages at well below nominal link bandwidth, so congestion alone
#: cannot exhaust the retry budget.
RC_TIMEOUT_PER_BYTE = 5e-9
#: exponential backoff factor applied to the timeout per retry.
RC_RETRY_BACKOFF = 2.0
#: bounded transport retry count (IB "retry_cnt"): after this many
#: retransmissions the QP enters the error state and the WQE completes
#: with ``WcStatus.RETRY_EXC_ERR``.
RC_RETRY_CNT = 7


def ack_timeout(attempt: int, nbytes: int = 0) -> float:
    """The timer armed for try ``attempt`` (0 = first transmission) of
    an exchange carrying ``nbytes``.  Also the on-demand connect's
    handshake retry schedule (:mod:`repro.mpich2.connect`)."""
    return (RC_TIMEOUT * RC_RETRY_BACKOFF ** attempt
            + nbytes * RC_TIMEOUT_PER_BYTE)

#: sentinel distinguishing "every attempt's timer fired" from any
#: response value
_TIMED_OUT = object()

#: what a write, send or read response carries: the gathered ndarray
#: fault-free, immutable bytes under recovery, and ``Zeros`` (no
#: storage) whenever every byte came from memory nobody wrote
_Payload = Union[bytes, npt.NDArray[np.uint8], Zeros]


class HcaStats:
    """Operation counters for one HCA."""

    def __init__(self) -> None:
        self.rdma_writes = 0
        self.rdma_reads = 0
        self.sends = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.bytes_sent = 0
        self.registrations = 0
        self.deregistrations = 0
        self.atomics = 0
        #: QPs created on this HCA over its lifetime — with connections
        #: never torn down mid-run, also the live-QP count the
        #: memory-footprint gate tracks.
        self.qps_created = 0
        self.srqs_created = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


class QueuePair:
    """An RC queue pair: a send queue and a receive queue."""

    def __init__(self, hca: "Hca", send_cq: CompletionQueue,
                 recv_cq: CompletionQueue, max_send: int = 4096,
                 max_recv: int = 4096,
                 srq: Optional[SharedReceiveQueue] = None) -> None:
        if srq is not None and srq.hca is not hca:
            raise QPError("SRQ belongs to a different HCA")
        self.hca = hca
        self.qpn = next(_qpn_counter)
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.max_send = max_send
        self.max_recv = max_recv
        #: shared receive queue; when set, inbound SENDs consume WQEs
        #: from the pool instead of this QP's private receive queue.
        self.srq = srq
        self.remote: Optional["QueuePair"] = None
        self.error: bool = False
        self._sq: Store = Store(hca.sim, capacity=max_send)
        self._rq: Fifo = Fifo()
        self._engine = None  # lazily started send-engine process
        self.outstanding_send_wqes = 0
        # -- per-QP observability (no-ops unless the cluster carries
        # an enabled registry; never yields into the simulator) -------
        m = hca.mscope.scope(f"qp{self.qpn}")
        self._m_send_ops = m.counter("send_ops")
        self._m_send_bytes = m.counter("send_bytes")
        self._m_recv_ops = m.counter("recv_ops")
        self._m_recv_bytes = m.counter("recv_bytes")
        self._m_write_ops = m.counter("rdma_write_ops")
        self._m_write_bytes = m.counter("rdma_write_bytes")
        self._m_read_ops = m.counter("rdma_read_ops")
        self._m_read_bytes = m.counter("rdma_read_bytes")
        self._m_atomic_ops = m.counter("atomic_ops")
        self._m_retrans = m.counter("retransmissions")
        self._m_flushes = m.counter("flushes")
        # -- RC recovery state (used only under fault injection) -------
        #: next packet sequence number this QP assigns to a WQE.
        self.psn = 0
        #: next PSN expected from the peer (stop-and-wait: anything
        #: below is a retransmit duplicate).
        self.expected_psn = 0
        #: responder cache of the last delivery's (psn, response) so a
        #: duplicate retransmit re-acks the original outcome without
        #: re-executing (essential for atomics: exactly-once RMW).
        self._resp_cache: Optional[Tuple[int, Any]] = None

    # -- wiring -----------------------------------------------------------
    def connect(self, remote: "QueuePair") -> None:
        """Transition both QPs to RTS against each other (the
        out-of-band QPN exchange the paper does at init time)."""
        if self.remote is not None or remote.remote is not None:
            raise QPError("QP already connected")
        if remote.hca is self.hca and remote is self:
            raise QPError("cannot connect a QP to itself")
        self.remote = remote
        remote.remote = self
        self._start_engine()
        remote._start_engine()

    def _start_engine(self) -> None:
        if self._engine is None:
            self._engine = self.hca.sim.spawn(
                self._send_engine(), name=f"qp{self.qpn}.send_engine",
                daemon=True,
            )

    # -- posting ------------------------------------------------------------
    def post_send(self, wr: WorkRequest) -> None:
        """Enqueue a send-queue descriptor (CPU cost is charged by the
        verbs layer)."""
        if self.remote is None:
            raise QPError(f"QP {self.qpn} not connected")
        if self.error:
            raise QPError(f"QP {self.qpn} in error state")
        if self.outstanding_send_wqes >= self.max_send:
            raise QPError(f"QP {self.qpn} send queue full")
        self.outstanding_send_wqes += 1
        ok = self._sq.try_put(wr)
        assert ok, "store capacity must match max_send"

    def post_recv(self, rr: RecvRequest) -> None:
        if self.srq is not None:
            raise QPError(
                f"QP {self.qpn} is attached to an SRQ; post receive "
                f"WQEs to the shared pool instead")
        if len(self._rq) >= self.max_recv:
            raise QPError(f"QP {self.qpn} receive queue full")
        # Validate lkeys eagerly (real HCAs check on placement; eager
        # checking surfaces protocol bugs at the post site).
        self._check_local(rr.sges)
        self._rq.append(rr)

    # -- send engine ---------------------------------------------------------
    def _send_engine(self) -> Generator:
        sim, cfg = self.hca.sim, self.hca.cfg
        faults = self.hca.faults
        remote = self.remote
        assert remote is not None, "the engine starts at connect()"
        # the one place the transport is chosen, from what the fault
        # plan says about the links and nothing else
        if faults.transport_active:
            write_or_send = self._execute_write_or_send_rc
            read, atomic = self._execute_read_rc, self._execute_atomic_rc
        else:
            write_or_send = self._execute_write_or_send
            read, atomic = self._execute_read, self._execute_atomic
        while True:
            wr: WorkRequest = yield self._sq.get()
            if self.error:
                # QP in error state: flush queued descriptors without
                # executing them (IB semantics after a fatal error).
                self._m_flushes.inc()
                self._complete(wr, WcStatus.WR_FLUSH_ERR, 0)
                self.outstanding_send_wqes -= 1
                continue
            yield sim.timeout(cfg.hca_send_processing)
            try:
                if faults.take_wc_error(self.hca.node_id):
                    # injected local completion error: the HCA gives up
                    # on this WQE and the QP transitions to error.
                    self.error = True
                    self._complete(wr, WcStatus.RETRY_EXC_ERR, 0)
                elif wr.opcode in (Opcode.RDMA_WRITE, Opcode.SEND):
                    yield from write_or_send(wr, remote)
                elif wr.opcode is Opcode.RDMA_READ:
                    yield from read(wr, remote)
                elif wr.opcode in (Opcode.FETCH_ADD, Opcode.CMP_SWAP):
                    yield from atomic(wr, remote)
                else:  # pragma: no cover - defensive
                    raise IBError(f"bad opcode {wr.opcode}")
            except AccessError:
                self._complete(wr, WcStatus.REM_ACCESS_ERR, 0)
            except RnrError:
                self._complete(wr, WcStatus.RNR_RETRY_EXC_ERR, 0)
            self.outstanding_send_wqes -= 1

    # -- what both transports share (the sharing rule is in the module
    # -- docstring: nothing below puts a transport-specific point on the
    # -- simulated clock) ------------------------------------------------------
    def _check_local(self, sges: List[Sge]) -> None:
        """lkey, bounds and access check of local scatter/gather
        elements."""
        for sge in sges:
            self.hca.pd.lookup_lkey(sge.lkey).check_local(sge.addr,
                                                          sge.length)

    def _check_remote(self, wr: WorkRequest, remote: "QueuePair",
                      nbytes: int, access: Access, kind: str) -> None:
        """The responder's validation of an RDMA target: rkey, bounds,
        access rights.  The shadow sanitizer looks first — it can
        raise, and must see the access before the rkey lookup does."""
        shadow = remote.hca.shadow
        if shadow is not None:
            shadow.on_remote_access(remote.hca, wr.rkey, wr.remote_addr,
                                    nbytes, kind)
        remote.hca.pd.lookup_rkey(wr.rkey).check_remote(
            wr.remote_addr, nbytes, access)

    def _gather(self, wr: WorkRequest) -> Union[npt.NDArray[np.uint8],
                                                Zeros]:
        """Snapshot the local SGEs into one contiguous payload.

        A single copy is required (not full zero-copy): senders reuse
        staging buffers as soon as the descriptor is queued, so the
        payload must be captured at gather time.  Returning an ndarray
        instead of ``bytes`` makes every downstream scatter a slice
        assignment with no further conversions.  SGEs nobody wrote
        snapshot as ``Zeros``: if all of them do, so does the payload,
        and a mixed gather zero-fills only those pieces.
        """
        pieces = []
        for sge in wr.sges:
            mr = self.hca.pd.lookup_lkey(sge.lkey)
            mr.check_local(sge.addr, sge.length)
            pieces.append(self.hca.mem.snapshot(sge.addr, sge.length))
        if len(pieces) == 1:
            return pieces[0]
        if all(isinstance(p, Zeros) for p in pieces):
            return Zeros(sum(len(p) for p in pieces))
        return np.concatenate([
            np.zeros(len(p), dtype=np.uint8) if isinstance(p, Zeros)
            else p for p in pieces])

    def _admit_write_or_send(self, wr: WorkRequest, remote: "QueuePair",
                             nbytes: int) -> None:
        """Validate an RDMA write's target and count the operation."""
        stats = self.hca.stats
        if wr.opcode is Opcode.RDMA_WRITE:
            # Validate the remote target *before* moving data, like the
            # responder would on the first packet.
            self._check_remote(wr, remote, nbytes, Access.REMOTE_WRITE,
                               "write")
            stats.rdma_writes += 1
            stats.bytes_written += nbytes
            self._m_write_ops.inc()
            self._m_write_bytes.inc(nbytes)
        else:
            stats.sends += 1
            stats.bytes_sent += nbytes
            self._m_send_ops.inc()
            self._m_send_bytes.inc(nbytes)

    def _drain(self, wr: WorkRequest, remote: "QueuePair", nbytes: int,
               attempt: Optional[int] = None) -> Generator:
        """DMA setup + data drain out of this HCA (serializes this QP's
        next WQE: RC ordering on the wire).  ``attempt`` labels the
        span of a recovery-transport (re)transmission."""
        sim = self.hca.sim
        t0 = sim.now
        yield sim.timeout(self.hca.cfg.pci_latency)
        if nbytes:
            route = self.hca.dma_route_to(remote.hca)
            yield self.hca.net.transfer(
                nbytes, route, label=f"qp{self.qpn}.{wr.opcode.value}")
        args = {"bytes": nbytes, "qp": self.qpn}
        if attempt is not None:
            args["attempt"] = attempt
        self.hca.timeline.span(
            f"node{self.hca.node_id}.hca", wr.opcode.value, t0, sim.now,
            cat="rdma", args=args)

    def _place_write(self, wr: WorkRequest, payload: _Payload,
                     remote: "QueuePair") -> None:
        """Land an RDMA write in the responder's memory."""
        nbytes = len(payload)
        if nbytes:
            rhca = remote.hca
            if rhca.shadow is not None:
                rhca.shadow.on_rdma_write(rhca, wr.remote_addr, nbytes,
                                          self.qpn)
            rhca.mem.write(wr.remote_addr, payload)

    def _place_send(self, payload: _Payload, remote: "QueuePair",
                    rr: Optional[RecvRequest]) -> WcStatus:
        """Scatter an inbound SEND into receive WQE ``rr`` and raise
        its receive completion.  No WQE (``None``: the private receive
        queue ran empty) or one too short for the message errors the
        responder QP instead; the returned status is the requester's."""
        if rr is None:
            remote.error = True
            return WcStatus.RNR_RETRY_EXC_ERR
        nbytes = len(payload)
        if rr.total_length < nbytes:
            remote.error = True
            return WcStatus.LOC_LEN_ERR
        shadow = remote.hca.shadow
        off = 0
        for sge in rr.sges:
            take = min(sge.length, nbytes - off)
            if take <= 0:
                break
            if shadow is not None:
                shadow.on_rdma_write(remote.hca, sge.addr, take,
                                     self.qpn, op="send")
            remote.hca.mem.write(sge.addr, payload[off:off + take])
            off += take
        remote._m_recv_ops.inc()
        remote._m_recv_bytes.inc(nbytes)
        remote.recv_cq.push(Completion(
            wr_id=rr.wr_id, status=WcStatus.SUCCESS,
            opcode=Opcode.RECV, byte_len=nbytes, qp_num=remote.qpn))
        return WcStatus.SUCCESS

    def _serve_read(self, wr: WorkRequest, remote: "QueuePair",
                    nbytes: int) -> Generator:
        """The responder's half of an RDMA read, serialized through its
        read engine: turnaround, snapshot, then the data drains back
        towards the requester.  Returns the snapshot."""
        sim, cfg = self.hca.sim, self.hca.cfg
        yield remote.hca.read_engine.acquire()
        try:
            yield sim.timeout(cfg.hca_read_response)
            payload = remote.hca.mem.snapshot(wr.remote_addr, nbytes)
            yield sim.timeout(cfg.pci_latency)
            if nbytes:
                route = remote.hca.dma_route_to(self.hca)
                yield self.hca.net.transfer(nbytes, route,
                                            label=f"qp{self.qpn}.read")
        finally:
            remote.hca.read_engine.release()
        return payload

    def _land_read(self, wr: WorkRequest, payload: _Payload,
                   t0: float) -> None:
        """Scatter read data into the requester's SGEs and complete."""
        nbytes = len(payload)
        if nbytes:
            off = 0
            local_shadow = self.hca.shadow
            for sge in wr.sges:
                if local_shadow is not None:
                    local_shadow.on_rdma_write(self.hca, sge.addr,
                                               sge.length, self.qpn,
                                               op="read-landing")
                self.hca.mem.write(sge.addr, payload[off:off + sge.length])
                off += sge.length
        self.hca.stats.rdma_reads += 1
        self.hca.stats.bytes_read += nbytes
        self._m_read_ops.inc()
        self._m_read_bytes.inc(nbytes)
        self.hca.timeline.span(
            f"node{self.hca.node_id}.hca", "rdma_read", t0,
            self.hca.sim.now, cat="rdma",
            args={"bytes": nbytes, "qp": self.qpn})
        self.hca.inbound_gate.open()
        self._complete(wr, WcStatus.SUCCESS, nbytes)

    def _atomic_sge(self, wr: WorkRequest) -> Sge:
        """The single local SGE an atomic returns its old value into."""
        if len(wr.sges) != 1 or wr.sges[0].length != 8:
            raise IBError("atomics need exactly one 8-byte local SGE")
        self._check_local(wr.sges)
        return wr.sges[0]

    def _check_atomic_target(self, wr: WorkRequest,
                             remote: "QueuePair") -> None:
        self._check_remote(wr, remote, 8, Access.REMOTE_ATOMIC, "atomic")
        if wr.remote_addr % 8:
            raise AccessError("atomic target must be 8-byte aligned")

    def _atomic_rmw(self, wr: WorkRequest, remote: "QueuePair") -> bytes:
        """The responder's 8-byte read-modify-write; returns the old
        value's bytes."""
        rhca = remote.hca
        old_raw = rhca.mem.read(wr.remote_addr, 8)
        old = struct.unpack("<Q", old_raw)[0]
        if wr.opcode is Opcode.FETCH_ADD:
            new = (old + wr.compare_add) & 0xFFFFFFFFFFFFFFFF
        else:  # CMP_SWAP stores only on a match
            new = wr.swap if old == wr.compare_add else None
        if new is not None:
            if rhca.shadow is not None:
                rhca.shadow.on_rdma_write(rhca, wr.remote_addr, 8,
                                          self.qpn, op="atomic")
            rhca.mem.write(wr.remote_addr, struct.pack("<Q", new))
        rhca.inbound_gate.open()
        return old_raw

    def _land_atomic(self, wr: WorkRequest, sge: Sge,
                     old_raw: bytes) -> None:
        local_shadow = self.hca.shadow
        if local_shadow is not None:
            local_shadow.on_rdma_write(self.hca, sge.addr, 8, self.qpn,
                                       op="atomic-landing")
        self.hca.mem.write(sge.addr, old_raw)
        self.hca.stats.atomics += 1
        self._m_atomic_ops.inc()
        self.hca.inbound_gate.open()
        self._complete(wr, WcStatus.SUCCESS, 8)

    # -- fault-free transport: single shot, the ack overlaps the next WQE --
    def _execute_write_or_send(self, wr: WorkRequest,
                               remote: "QueuePair") -> Generator:
        nbytes = wr.total_length
        payload = self._gather(wr)
        self._admit_write_or_send(wr, remote, nbytes)
        yield from self._drain(wr, remote, nbytes)
        # Remote landing: propagation + PCI + placement happen after the
        # drain and overlap the next WQE.
        self.hca.sim.spawn(self._deliver(wr, payload, remote),
                           name=f"qp{self.qpn}.deliver")

    def _deliver(self, wr: WorkRequest, payload: _Payload,
                 remote: "QueuePair") -> Generator:
        sim, cfg = self.hca.sim, self.hca.cfg
        yield sim.timeout(self.hca.fabric.latency(self.hca.node_id,
                                                  remote.hca.node_id))
        yield sim.timeout(cfg.pci_latency + cfg.hca_recv_processing)
        if wr.opcode is Opcode.RDMA_WRITE:
            self._place_write(wr, payload, remote)
        else:  # SEND consumes a receive WQE
            if remote.srq is not None:
                # Pool dry = RNR backpressure: block FIFO until the
                # consumer replenishes (delaying this requester's
                # completion like an RNR retry loop would).
                rr = yield from remote.srq.consume()
            else:
                rr = remote._rq.popleft() if remote._rq else None
            status = self._place_send(payload, remote, rr)
            if status is not WcStatus.SUCCESS:
                self._complete(wr, status, 0)
                return
        # a write is transparent to remote software; still pulse the
        # gate so simulated pollers can re-check their flags.
        remote.hca.inbound_gate.open()
        # RC ack back to the requester.
        yield sim.timeout(self.hca.fabric.latency(remote.hca.node_id,
                                                  self.hca.node_id))
        self._complete(wr, WcStatus.SUCCESS, len(payload))

    def _execute_read(self, wr: WorkRequest,
                      remote: "QueuePair") -> Generator:
        """RDMA read: request leg, responder turnaround, data leg.

        Fully serialized per QP (the engine does not start the next
        WQE until the data lands) — the InfiniHost behaviour behind
        Fig. 15's read curve.
        """
        sim, cfg = self.hca.sim, self.hca.cfg
        nbytes = wr.total_length
        t0 = sim.now
        self._check_local(wr.sges)  # the scatter target
        # request leg
        yield sim.timeout(self.hca.fabric.latency(self.hca.node_id,
                                                  remote.hca.node_id))
        # responder: validate, then serialize through the read engine
        self._check_remote(wr, remote, nbytes, Access.REMOTE_READ, "read")
        payload = yield from self._serve_read(wr, remote, nbytes)
        # landing at the requester
        yield sim.timeout(self.hca.fabric.latency(remote.hca.node_id,
                                                  self.hca.node_id))
        yield sim.timeout(cfg.pci_latency + cfg.hca_recv_processing)
        self._land_read(wr, payload, t0)

    def _execute_atomic(self, wr: WorkRequest,
                        remote: "QueuePair") -> Generator:
        """IB atomics: an 8-byte remote read-modify-write, serialized
        through the responder's atomic unit (shared with the read
        engine on the InfiniHost), returning the old value into the
        requester's single SGE.  Timing matches a small RDMA read —
        a full round trip plus responder turnaround."""
        sim, cfg = self.hca.sim, self.hca.cfg
        sge = self._atomic_sge(wr)
        # request leg
        yield sim.timeout(self.hca.fabric.latency(self.hca.node_id,
                                                  remote.hca.node_id))
        self._check_atomic_target(wr, remote)
        yield remote.hca.read_engine.acquire()
        try:
            yield sim.timeout(cfg.hca_read_response)
            old_raw = self._atomic_rmw(wr, remote)
        finally:
            remote.hca.read_engine.release()
        # response leg carrying the old value
        yield sim.timeout(self.hca.fabric.latency(remote.hca.node_id,
                                                  self.hca.node_id))
        yield sim.timeout(cfg.pci_latency + cfg.hca_recv_processing)
        self._land_atomic(wr, sge, old_raw)

    # -- recovery transport (any link fault configured) ---------------------
    #
    # Stop-and-wait per WQE: one PSN, transmit, wait for the ack with
    # an exponentially backed-off timeout, retransmit up to
    # ``RC_RETRY_CNT`` times, then error the QP.  The responder keeps
    # ``expected_psn`` plus a one-entry response cache so duplicate
    # retransmits (lost acks, spurious timeouts) are suppressed and
    # re-acked with the original outcome — writes/sends place bytes at
    # most once, atomics execute their RMW exactly once.

    def _stop_and_wait(self, wr: WorkRequest, remote: "QueuePair",
                       trip: Callable[[Event], Generator], budget: int,
                       drain: Optional[int] = None) -> Generator:
        """The requester's retry loop.  Each attempt spawns
        ``trip(resp)`` — one journey to the responder and back, which
        fires ``resp`` if it survives the links — and waits for it
        under a timer sized for ``budget`` bytes.  Writes and sends
        carry their data on the request leg: ``drain`` is how many
        bytes (0 counts) leave this HCA before each attempt.  Returns
        the response value, or ``_TIMED_OUT`` once the retry count is
        exceeded: the QP is then in error with an error CQE (never a
        hang) for the consumer to observe."""
        sim = self.hca.sim
        fstats = self.hca.faults.stats
        for attempt in range(RC_RETRY_CNT + 1):
            if attempt:
                fstats.retransmissions += 1
                self._m_retrans.inc()
            if drain is not None:
                yield from self._drain(wr, remote, drain, attempt)
            resp = sim.event()
            sim.spawn(trip(resp), name=f"qp{self.qpn}.{wr.opcode.value}_rc")
            timer = sim.event()
            handle = sim.call_in(ack_timeout(attempt, budget),
                                 timer.succeed)
            if (yield sim.any_of([resp, timer])) is resp:
                handle.cancel()
                return resp._value
            fstats.timeouts += 1
        self.error = True
        fstats.retry_exhaustions += 1
        self._complete(wr, WcStatus.RETRY_EXC_ERR, 0)
        return _TIMED_OUT

    def _lossy_leg(self, src: int, dst: int,
                   fragile: bool = True) -> Generator:
        """One packet crossing ``src -> dst`` under the fault plan.
        Returns its verdict, or None when it never arrives: dropped,
        or ``fragile`` and corrupted (the receiver's CRC discards it
        like a lost one).  A packet that is not fragile hands a
        ``"corrupt"`` verdict to the caller, who has the payload to
        check."""
        sim, faults = self.hca.sim, self.hca.faults
        verdict, extra = faults.packet_verdict(src, dst, sim.now)
        if verdict == "drop":
            return None
        if fragile and verdict == "corrupt":
            faults.stats.crc_detected += 1
            return None
        if extra:
            yield sim.timeout(extra)
        yield sim.timeout(self.hca.fabric.latency(src, dst))
        return verdict

    def _execute_write_or_send_rc(self, wr: WorkRequest,
                                  remote: "QueuePair") -> Generator:
        nbytes = wr.total_length
        # the recovery path CRCs and fault-corrupts the payload, both
        # of which operate on immutable bytes
        payload = self._gather(wr).tobytes()
        self._admit_write_or_send(wr, remote, nbytes)
        psn = self.psn
        self.psn += 1
        crc = zlib.crc32(payload)
        status = yield from self._stop_and_wait(
            wr, remote, lambda ack: self._deliver_rc(
                wr, payload, crc, remote, psn, ack),
            nbytes, drain=nbytes)
        if status is not _TIMED_OUT:
            self._complete(wr, status,
                           nbytes if status is WcStatus.SUCCESS else 0)

    def _deliver_rc(self, wr: WorkRequest, payload: bytes, crc: int,
                    remote: "QueuePair", psn: int, ack: Event
                    ) -> Generator:
        sim, cfg = self.hca.sim, self.hca.cfg
        faults = self.hca.faults
        src, dst = self.hca.node_id, remote.hca.node_id
        verdict = yield from self._lossy_leg(src, dst, fragile=False)
        if verdict is None:
            return  # no ack: the requester times out and retransmits
        yield sim.timeout(cfg.pci_latency + cfg.hca_recv_processing)
        if verdict == "corrupt":
            # a byte flipped in transit; the responder's invariant CRC
            # rejects the packet (silent discard -> requester timeout).
            if zlib.crc32(faults.corrupt(payload, src, dst)) != crc:
                faults.stats.crc_detected += 1
                return
            # empty payloads have nothing to flip; fall through

        if psn < remote.expected_psn:
            # duplicate retransmit: do NOT place again, just re-ack the
            # cached outcome so the requester can complete.
            faults.stats.duplicates += 1
            cache = remote._resp_cache
            status = (cache[1] if cache and cache[0] == psn
                      else WcStatus.SUCCESS)
        else:
            if wr.opcode is Opcode.RDMA_WRITE:
                self._place_write(wr, payload, remote)
                status = WcStatus.SUCCESS
            else:  # SEND consumes a receive WQE
                if remote.srq is not None:
                    rr = remote.srq.try_consume()
                    if rr is None:
                        # RNR NAK: discard before consuming a PSN and
                        # send no ack — the requester's stop-and-wait
                        # machinery retransmits after its timeout, by
                        # which time the consumer may have replenished
                        # the pool.
                        return
                else:
                    rr = remote._rq.popleft() if remote._rq else None
                # an error status travels back on the ack leg and is
                # cached under the PSN like a success
                status = self._place_send(payload, remote, rr)
            remote._resp_cache = (psn, status)
            remote.expected_psn = psn + 1
            remote.hca.inbound_gate.open()
        # ack leg back to the requester, itself subject to link faults
        # (a corrupted ack is discarded like a lost one).
        if (yield from self._lossy_leg(dst, src)) and not ack.triggered:
            ack.succeed(status)

    def _execute_read_rc(self, wr: WorkRequest,
                         remote: "QueuePair") -> Generator:
        nbytes = wr.total_length
        # validate both ends up front (first-packet NAK semantics)
        self._check_local(wr.sges)
        self._check_remote(wr, remote, nbytes, Access.REMOTE_READ, "read")
        self.psn += 1
        t0 = self.hca.sim.now
        # a read is idempotent: on timeout the whole request/response
        # exchange is simply reissued — no dedup needed at the
        # responder, and the timeout budget covers both legs plus the
        # serialized responder turnaround.
        payload = yield from self._stop_and_wait(
            wr, remote, lambda done: self._read_exchange_rc(
                wr, remote, nbytes, done), 2 * nbytes)
        if payload is not _TIMED_OUT:
            self._land_read(wr, payload, t0)

    def _read_exchange_rc(self, wr: WorkRequest, remote: "QueuePair",
                          nbytes: int, done: Event) -> Generator:
        sim, cfg = self.hca.sim, self.hca.cfg
        src, dst = self.hca.node_id, remote.hca.node_id
        if not (yield from self._lossy_leg(src, dst)):
            return
        payload = yield from self._serve_read(wr, remote, nbytes)
        # the requester's CRC rejects a corrupted response — unless it
        # is empty, with nothing to flip
        if not (yield from self._lossy_leg(dst, src, fragile=bool(nbytes))):
            return
        yield sim.timeout(cfg.pci_latency + cfg.hca_recv_processing)
        if not done.triggered:
            done.succeed(payload)

    def _execute_atomic_rc(self, wr: WorkRequest,
                           remote: "QueuePair") -> Generator:
        sge = self._atomic_sge(wr)
        self._check_atomic_target(wr, remote)
        psn = self.psn
        self.psn += 1
        old_raw = yield from self._stop_and_wait(
            wr, remote, lambda done: self._atomic_exchange_rc(
                wr, remote, psn, done), 16)
        if old_raw is not _TIMED_OUT:
            self._land_atomic(wr, sge, old_raw)

    def _atomic_exchange_rc(self, wr: WorkRequest, remote: "QueuePair",
                            psn: int, done: Event) -> Generator:
        sim, cfg = self.hca.sim, self.hca.cfg
        src, dst = self.hca.node_id, remote.hca.node_id
        if not (yield from self._lossy_leg(src, dst)):
            return
        yield remote.hca.read_engine.acquire()
        try:
            yield sim.timeout(cfg.hca_read_response)
            if psn < remote.expected_psn:
                # duplicate retransmit: return the cached old value —
                # the RMW must not run twice.
                self.hca.faults.stats.duplicates += 1
                cache = remote._resp_cache
                if not cache or cache[0] != psn:
                    return  # stale beyond the cache: no response
                old_raw = cache[1]
            else:
                old_raw = self._atomic_rmw(wr, remote)
                remote._resp_cache = (psn, old_raw)
                remote.expected_psn = psn + 1
        finally:
            remote.hca.read_engine.release()
        if not (yield from self._lossy_leg(dst, src)):
            return
        yield sim.timeout(cfg.pci_latency + cfg.hca_recv_processing)
        if not done.triggered:
            done.succeed(old_raw)

    def _complete(self, wr: WorkRequest, status: WcStatus,
                  nbytes: int) -> None:
        if wr.signaled or status is not WcStatus.SUCCESS:
            self.send_cq.push(Completion(
                wr_id=wr.wr_id, status=status, opcode=wr.opcode,
                byte_len=nbytes, qp_num=self.qpn))
            # a fresh CQE is observable by local pollers
            self.hca.inbound_gate.open()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        peer = self.remote.qpn if self.remote else None
        return f"<QP {self.qpn} node={self.hca.node_id} peer={peer}>"


class Hca:
    """One host channel adapter: PD, PCI DMA engine, QPs, CQs."""

    def __init__(self, sim: Simulator, net: FluidNetwork, fabric: Fabric,
                 cfg: HardwareConfig, node_id: int, mem: NodeMemory,
                 membus: MemBus, faults: Any = None,
                 obs: Any = None) -> None:
        self.sim = sim
        self.net = net
        self.fabric = fabric
        self.cfg = cfg
        self.node_id = node_id
        self.mem = mem
        self.membus = membus
        #: observability hub; counters/spans are pure bookkeeping that
        #: never yields, so the event sequence is identical on or off.
        self.obs = obs if obs is not None else NULL_OBS
        self.mscope = self.obs.metrics.scope(f"ib.node{node_id}")
        self.timeline = self.obs.timeline
        self._cq_counter = itertools.count()
        if faults is None:
            # local import: repro.faults is import-light, but importing
            # it at module scope would cycle through repro.ib.__init__.
            from ..faults import FaultState
            faults = FaultState()
        #: shared, cluster-wide fault-injection state (disabled by
        #: default — every hook short-circuits on an empty plan).
        self.faults = faults
        #: optional shadow-memory sanitizer (repro.analysis.shadow);
        #: None = hooks compile to a single attribute test.
        self.shadow = None
        self.pd = ProtectionDomain(mem, node_id)
        self.pci = FluidResource(f"pci[{node_id}]", cfg.pci_dma_bandwidth)
        #: DMA routes by remote node id (see dma_route_to)
        self._routes: Dict[int, Route] = {}
        #: serializes RDMA-read responses (InfiniHost read engine)
        self.read_engine = Resource(sim, capacity=1)
        #: pulsed on any inbound placement so pollers can re-check flags
        self.inbound_gate = Gate(sim)
        self.stats = HcaStats()
        fabric.attach(node_id)

    def create_cq(self, depth: int = 4096, name: str = "") -> CompletionQueue:
        return CompletionQueue(
            # lint: allow(falsy-or-default, empty name = auto-name)
            self.sim, depth, name or f"cq[{self.node_id}]",
            metrics=self.mscope.scope(f"cq{next(self._cq_counter)}"))

    def create_qp(self, send_cq: CompletionQueue,
                  recv_cq: Optional[CompletionQueue] = None,
                  **kw) -> QueuePair:
        self.stats.qps_created += 1
        # identity check, not truthiness: an empty CQ is len()==0/falsy
        return QueuePair(
            self, send_cq,
            send_cq if recv_cq is None else recv_cq, **kw)

    def create_srq(self, max_wr: int = 4096,
                   name: str = "") -> SharedReceiveQueue:
        """Create a shared receive queue; pass it to :meth:`create_qp`
        via ``srq=`` to attach QPs."""
        self.stats.srqs_created += 1
        return SharedReceiveQueue(
            # lint: allow(falsy-or-default, empty name = auto-name)
            self, max_wr, name or f"srq[{self.node_id}]")

    def dma_route_to(self, remote: "Hca") -> Route:
        """Fluid route for payload DMA from this node's memory to
        ``remote``'s: local bus + PCI, the wire, remote PCI + bus.
        Built on the first DMA to that node, then reused."""
        route = self._routes.get(remote.node_id)
        if route is None:
            cost = self.cfg.dma_bus_cost
            route = self._routes[remote.node_id] = Route(
                [(self.membus.bus, cost), (self.pci, 1.0),
                 *self.fabric.path(self.node_id, remote.node_id),
                 (remote.pci, 1.0), (remote.membus.bus, cost)])
        return route
