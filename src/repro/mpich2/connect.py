"""On-demand (lazy) connection establishment.

The paper's process-manager exchange wires a fully connected RC mesh
at ``MPI_Init`` — N² QPs and receive rings for a world where most rank
pairs never exchange a byte.  MVAPICH's on-demand mode (and every
scalable successor) defers that cost: a connection is built the first
time a rank actually sends to a peer, over an out-of-band REQ/REP
exchange.  Nearest-neighbour workloads then materialize O(N)
connections instead of O(N²).

:class:`LazyConnector` is that mechanism for the simulation.  The
runner builds one per world (design ``srq-lazy``) instead of running
the eager full-mesh loop; :meth:`Ch3Device.isend` calls
:meth:`connect` when it finds no connection state for the destination.

The handshake is simulated as one REQ and one REP leg (wire latency +
PCI crossing each way), each subject to the fault plan's per-link
packet verdicts: a dropped or corrupted leg times out and the
initiator retries on the RC layer's schedule
(:func:`repro.ib.hca.ack_timeout`), up to ``RC_RETRY_CNT`` times.
Concurrent connects of the same unordered pair coalesce on a
pair-keyed event, so the handshake runs exactly once no matter which
side initiates first — or whether both do — and the resulting state
is independent of the engine's tie-break seed.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple, Union

from ..faults import DELAY, OK
from ..ib.hca import RC_RETRY_CNT, ack_timeout
from .adi3 import MpiError

__all__ = ["LazyConnector"]


class LazyConnector:
    """Builds channel connections on first use.

    Shared by every rank of one world.  ``channels`` maps rank ->
    channel (all the same registered design); ``devices`` maps rank ->
    :class:`Ch3Device` and is filled in by the runner after device
    construction.
    """

    def __init__(self, cluster, channel_cls, channels: Dict[int, object]):
        self.cluster = cluster
        self.sim = cluster.sim
        self.cfg = cluster.cfg
        self.channel_cls = channel_cls
        self.channels = channels
        self.devices: Dict[int, object] = {}
        #: (lo, hi) -> True (established) | Event (handshake running)
        self._pairs: Dict[Tuple[int, int], Union[bool, object]] = {}
        #: completed handshakes (the O(N) the scale tier gates on)
        self.connects = 0

    def connect(self, src: int, dest: int) -> Generator:
        """Ensure the ``src``/``dest`` connection exists; yields until
        the (single) handshake for the pair completes."""
        key = (src, dest) if src < dest else (dest, src)
        state = self._pairs.get(key)
        while state is not None and state is not True:
            # a handshake is in flight (ours or the peer's): coalesce
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
            # let coalesced waiters retry the handshake themselves
            del self._pairs[key]
            ev.succeed(None)
            raise
        self._pairs[key] = True
        self.connects += 1
        ev.succeed(None)

    def stall_edges(self) -> list:
        """Post-mortem only (see :mod:`repro.obs.waitgraph`): a pair
        whose entry is still an Event has a handshake that never
        resolved, so both ranks wait on each other — the initiator on
        the peer's REP, any coalesced rank on the wakeup."""
        edges = []
        for (lo, hi), state in self._pairs.items():
            if state is not True:
                reason = (f"lazy-connect handshake for pair "
                          f"({lo}, {hi}) never completed")
                edges.append((lo, hi, reason))
                edges.append((hi, lo, reason))
        return edges

    def _handshake(self, src: int, dest: int) -> Generator:
        """REQ/REP exchange with bounded, backed-off retries."""
        sim, cfg = self.sim, self.cfg
        fabric = self.cluster.fabric
        faults = self.cluster.faults
        na = self.channels[src].node.node_id
        nb = self.channels[dest].node.node_id
        one_way = cfg.wire_latency + cfg.pci_latency
        for attempt in range(RC_RETRY_CNT + 1):
            lost = False
            for s, d in ((na, nb), (nb, na)):  # REQ leg, then REP leg
                verdict, extra = faults.packet_verdict(s, d, sim.now)
                if verdict == DELAY:
                    yield sim.timeout(extra)
                elif verdict != OK:
                    lost = True  # drop and corrupt both force a retry
                    break
                yield sim.timeout(fabric.latency(s, d) + one_way)
            if not lost:
                return
            yield sim.timeout(ack_timeout(attempt))
        raise MpiError(
            f"rank {src}: on-demand connect to rank {dest} failed "
            f"after {RC_RETRY_CNT + 1} attempts")

    def _establish(self, key: Tuple[int, int]) -> None:
        lo, hi = key
        a, b = self.channels[lo], self.channels[hi]
        self.channel_cls.establish(a, b)
        self.devices[lo].attach_connection(hi)
        self.devices[hi].attach_connection(lo)
        # wake progress engines sleeping with no (or other) connections
        a.node.hca.inbound_gate.open()
        b.node.hca.inbound_gate.open()
