"""RDMA shadow-memory sanitizer — ASan + happens-before for the
simulated fabric.

An opt-in :class:`ShadowFabric` observes every registration,
deregistration, and RDMA placement in a cluster and keeps per-byte
shadow state for each node's memory:

* an **epoch** array — the simulated time each byte was last placed
  by the fabric (``-inf`` = never RDMA-written);
* a **writer** array — the QPN that placed it.

From that it detects, at the moment of the offending operation:

``use-after-deregister``
    a remote access names an rkey whose MR was deregistered (the §5
    zero-copy ownership bug: the sender released its registration
    while the receiver's RDMA read was still in flight);
``out-of-bounds``
    a placement outside any *live* registered region — including the
    validate-then-deregister race the verbs layer's one-shot check at
    post time cannot see;
``write-race``
    two different QPs place the same byte at the same simulated
    timestamp with no QP-ordering edge between them;
``read-before-write``
    a ring receiver consumes a chunk whose bytes were never placed by
    the fabric (torn/forged chunk — §4.3's trailer guard bypassed);
``srq-early-recycle`` / ``srq-double-post``
    SRQ pool-slot lifecycle races: a receive slot reposted to the
    pool while it still holds an unread message (the next inbound
    SEND would overwrite data the receiver has not copied out), or
    posted twice without an intervening consume.  Tracked per slot
    with a recycle epoch — post must follow release, consume must
    follow post.

Hooks are plain function calls (never ``yield``), so enabling the
sanitizer cannot change simulated time or event order: a clean run is
bit-for-bit identical with and without it.  With ``REPRO_SHADOW``
unset nothing is installed and the hooks are never reached.

Enable under any entry point with ``REPRO_SHADOW=1`` (see
:class:`repro.cluster.Cluster`) or programmatically via
:func:`install_shadow`.  In ``strict`` mode (default) a violation
raises :class:`ShadowViolation` inside the offending QP engine, which
surfaces through the simulator as a crashed process; in lax mode
violations are only recorded in :attr:`ShadowFabric.violations`
(``install_shadow(cluster, strict=False)``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..hw.memory import MemoryError_, NodeMemory

__all__ = ["ShadowFabric", "ShadowViolation", "install_shadow",
           "last_shadow"]

_NEVER = -np.inf
_NO_WRITER = -1


class ShadowViolation(RuntimeError):
    """A protocol-contract violation caught by the shadow fabric."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"[{kind}] {message}")
        self.kind = kind


class _NodeShadow:
    """Shadow state for one node: MR lifecycle + per-byte epochs."""

    def __init__(self, node_id: int, mem: NodeMemory) -> None:
        self.node_id = node_id
        self.mem = mem
        #: rkey -> live MemoryRegion
        self.live: Dict[int, Any] = {}
        #: rkey -> (addr, length, dereg_time) for dead registrations
        self.dead: Dict[int, Tuple[int, int, float]] = {}
        #: allocation-region start -> (epoch array, writer array)
        self._shadow: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def arrays(self, addr: int, nbytes: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Epoch/writer slices for ``[addr, addr+nbytes)`` (the range
        must lie inside one allocation region, like any real access)."""
        region = self.mem.region_of(addr, nbytes)
        pair = self._shadow.get(region.start)
        if pair is None:
            epochs = np.full(region.length, _NEVER, dtype=np.float64)
            writers = np.full(region.length, _NO_WRITER, dtype=np.int64)
            pair = (epochs, writers)
            self._shadow[region.start] = pair
        off = addr - region.start
        return pair[0][off:off + nbytes], pair[1][off:off + nbytes]

    def covered_live(self, addr: int, nbytes: int) -> bool:
        return any(mr.covers(addr, nbytes) for mr in self.live.values())


class ShadowFabric:
    """Cluster-wide shadow state; one instance watches every HCA."""

    def __init__(self, cluster: Any = None, strict: bool = True,
                 sim: Any = None) -> None:
        self.strict = strict
        self.sim = sim if sim is not None else (
            cluster.sim if cluster is not None else None)
        self.violations: List[ShadowViolation] = []
        self._nodes: Dict[int, _NodeShadow] = {}
        #: SRQ slot lifecycle: (node_id, srq name) -> slot addr ->
        #: [state, recycle_epoch] with state in posted/filled/released
        self._srq: Dict[Tuple[int, str], Dict[int, List[Any]]] = {}
        if cluster is not None:
            for node in cluster.nodes:
                self._nodes[node.hca.node_id] = _NodeShadow(
                    node.hca.node_id, node.hca.mem)

    # -- plumbing ------------------------------------------------------
    def node(self, node_id: int, mem: Optional[NodeMemory] = None
             ) -> _NodeShadow:
        ns = self._nodes.get(node_id)
        if ns is None:
            if mem is None:
                raise KeyError(f"no shadow state for node {node_id}")
            ns = self._nodes[node_id] = _NodeShadow(node_id, mem)
        return ns

    def _now(self) -> float:
        return float(self.sim.now) if self.sim is not None else 0.0

    def _violate(self, kind: str, message: str) -> None:
        v = ShadowViolation(kind, message)
        self.violations.append(v)
        if self.strict:
            raise v

    # -- MR lifecycle (called from ProtectionDomain) -------------------
    def on_register(self, pd: Any, mr: Any) -> None:
        ns = self.node(pd.node_id, pd.mem)
        ns.live[mr.rkey] = mr
        # an rkey is never reused (global counter), so a dead entry
        # with the same key cannot exist; keep the map tidy anyway.
        ns.dead.pop(mr.rkey, None)

    def on_deregister(self, pd: Any, mr: Any) -> None:
        ns = self.node(pd.node_id, pd.mem)
        ns.live.pop(mr.rkey, None)
        ns.dead[mr.rkey] = (mr.addr, mr.length, self._now())

    # -- fabric hooks (called from QueuePair engines) ------------------
    def on_remote_access(self, hca: Any, rkey: int, addr: int,
                         nbytes: int, op: str) -> None:
        """A requester names ``rkey`` on ``hca``'s node for ``op``."""
        ns = self.node(hca.node_id, hca.mem)
        if rkey in ns.dead:
            daddr, dlen, when = ns.dead[rkey]
            self._violate(
                "use-after-deregister",
                f"{op} names rkey {rkey:#x} on node {hca.node_id} "
                f"([{daddr:#x},+{dlen}), deregistered at t={when:.9f}) "
                f"at t={self._now():.9f} — §5 requires deregistration "
                "only after the peer's ACK")

    def on_rdma_write(self, hca: Any, addr: int, nbytes: int,
                      qpn: int, op: str = "rdma_write") -> None:
        """The fabric is about to place ``nbytes`` at ``addr``."""
        if nbytes <= 0:
            return
        ns = self.node(hca.node_id, hca.mem)
        try:
            epochs, writers = ns.arrays(addr, nbytes)
        except MemoryError_ as exc:
            self._violate(
                "out-of-bounds",
                f"{op} places [{addr:#x},+{nbytes}) outside allocated "
                f"memory on node {hca.node_id}: {exc}")
            return
        if not ns.covered_live(addr, nbytes):
            self._violate(
                "out-of-bounds",
                f"{op} places [{addr:#x},+{nbytes}) on node "
                f"{hca.node_id} with no live registration covering it "
                "(registered-then-deregistered target?)")
            return
        now = self._now()
        racy = (epochs == now) & (writers != qpn) & (writers != _NO_WRITER)
        if bool(racy.any()):
            other = int(writers[racy][0])
            self._violate(
                "write-race",
                f"{op} from qp{qpn} places [{addr:#x},+{nbytes}) on "
                f"node {hca.node_id} at t={now:.9f}, overlapping a "
                f"same-timestamp placement by qp{other} with no "
                "QP-ordering edge")
        epochs[:] = now
        writers[:] = qpn

    def on_ring_consume(self, hca: Any, addr: int, nbytes: int) -> None:
        """A ring receiver is consuming ``[addr,addr+nbytes)`` as a
        complete chunk: every byte must have been fabric-placed."""
        if nbytes <= 0:
            return
        ns = self.node(hca.node_id, hca.mem)
        try:
            epochs, _writers = ns.arrays(addr, nbytes)
        except MemoryError_ as exc:
            self._violate(
                "read-before-write",
                f"ring consume of [{addr:#x},+{nbytes}) outside "
                f"allocated memory on node {hca.node_id}: {exc}")
            return
        stale = epochs == _NEVER
        if bool(stale.any()):
            first = addr + int(np.argmax(stale))
            self._violate(
                "read-before-write",
                f"ring consume of [{addr:#x},+{nbytes}) on node "
                f"{hca.node_id} reads byte {first:#x} never placed by "
                "the fabric (torn or forged chunk)")

    # -- SRQ pool-slot lifecycle (called from SharedReceiveQueue and
    #    the srq/mux channels) --------------------------------------------
    def _srq_slots(self, srq: Any) -> Dict[int, List[Any]]:
        key = (srq.hca.node_id, srq.name)
        slots = self._srq.get(key)
        if slots is None:
            slots = self._srq[key] = {}
        return slots

    def on_srq_post(self, srq: Any, rr: Any) -> None:
        """A receive WQE enters the pool.  Legal only when its slot
        is fresh or has been released by the consumer's copy-out."""
        addr = rr.sges[0].addr
        slots = self._srq_slots(srq)
        entry = slots.get(addr)
        if entry is None:
            slots[addr] = ["posted", 0]
            return
        state, epoch = entry
        if state == "filled":
            self._violate(
                "srq-early-recycle",
                f"SRQ {srq.name} slot {addr:#x} reposted at "
                f"t={self._now():.9f} (recycle epoch {epoch}) while "
                "it still holds an unread message — the next inbound "
                "SEND would overwrite data the receiver has not "
                "copied out")
            return
        if state == "posted":
            self._violate(
                "srq-double-post",
                f"SRQ {srq.name} slot {addr:#x} posted twice with no "
                f"intervening consume (recycle epoch {epoch}) at "
                f"t={self._now():.9f}")
            return
        entry[0] = "posted"

    def on_srq_consume(self, srq: Any, rr: Any) -> None:
        """An inbound SEND claimed the WQE: the slot now holds a
        message until the channel releases it after copy-out."""
        addr = rr.sges[0].addr
        slots = self._srq_slots(srq)
        entry = slots.get(addr)
        if entry is None:
            # pool filled before the shadow attached; adopt the slot
            slots[addr] = ["filled", 0]
            return
        entry[0] = "filled"

    def on_srq_release(self, srq: Any, addr: int) -> None:
        """The consumer finished copying the slot out: recycling it
        back into the pool is legal again."""
        slots = self._srq_slots(srq)
        entry = slots.get(addr)
        if entry is None:
            slots[addr] = ["released", 1]
            return
        entry[0] = "released"
        entry[1] += 1

    # -- reporting -----------------------------------------------------
    def report(self) -> str:
        if not self.violations:
            return "shadow: no violations"
        lines = [f"shadow: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


#: the most recently installed shadow (for harnesses that build the
#: cluster indirectly, e.g. the mutation checker via run_spec)
_LAST: Optional[ShadowFabric] = None


def install_shadow(cluster: Any, strict: bool = True) -> ShadowFabric:
    """Attach a :class:`ShadowFabric` to every HCA/PD in ``cluster``.

    Must run before any MR is registered (e.g. from
    ``Cluster.__init__`` via ``REPRO_SHADOW=1``)."""
    global _LAST
    shadow = ShadowFabric(cluster, strict=strict)
    cluster.shadow = shadow
    for node in cluster.nodes:
        node.hca.shadow = shadow
        node.hca.pd.shadow = shadow
    _LAST = shadow
    return shadow


def last_shadow() -> Optional[ShadowFabric]:
    return _LAST
