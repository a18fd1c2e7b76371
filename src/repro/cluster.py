"""Cluster bring-up: nodes, HCAs, the switch, and rank launching.

A :class:`Cluster` owns one simulator, one fluid network, one fabric,
and N nodes (memory + memory bus + CPUs + HCA).  :func:`build_cluster`
is the one-stop constructor used by tests, examples and benchmarks.

Rank programs are generator functions ``prog(rank_ctx, *args)``; the
MPI layer (see :mod:`repro.mpi`) provides the high-level runner
:func:`repro.mpi.run_mpi` on top of this module.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Generator, List, Optional

from .config import PAGE_SIZE, HardwareConfig
from .faults import FaultPlan, FaultState
from .hw.cpu import Cpu
from .hw.membus import MemBus
from .hw.memory import Buffer, NodeMemory
from .ib.fabric import Fabric
from .ib.hca import Hca, QueuePair
from .ib.verbs import VapiContext
from .obs import NULL_OBS, Observability
from .sim.engine import Process, Simulator
from .sim.fluid import FluidNetwork

__all__ = ["Node", "Cluster", "build_cluster"]


class Node:
    """One cluster node: memory, memory bus, CPUs, one HCA."""

    def __init__(self, cluster: "Cluster", node_id: int, ncpus: int = 2):
        self.cluster = cluster
        self.node_id = node_id
        sim, net, cfg = cluster.sim, cluster.net, cluster.cfg
        self.mem = NodeMemory(node_id)
        self.membus = MemBus(sim, net, cfg, node_id)
        self.cpus = [Cpu(sim, node_id, i) for i in range(ncpus)]
        self.hca = Hca(sim, net, cluster.fabric, cfg, node_id,
                       self.mem, self.membus, faults=cluster.faults,
                       obs=cluster.obs)
        #: scratch space for channel designs that share state across
        #: the co-located ranks of one node (e.g. ``mux`` pools)
        self.channel_state: Dict = {}

    def vapi(self, cpu_index: int = 0) -> VapiContext:
        """Open a VAPI context bound to one of this node's CPUs."""
        return VapiContext(self.hca, self.cpus[cpu_index])

    def alloc(self, nbytes: int, name: str = "") -> Buffer:
        return Buffer.alloc(self.mem, nbytes, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id}>"


class Cluster:
    """The whole testbed."""

    def __init__(self, nnodes: int, cfg: Optional[HardwareConfig] = None,
                 ncpus_per_node: int = 2,
                 faults: Optional[FaultPlan] = None,
                 obs: Optional[Observability] = None,
                 tie_seed: Optional[int] = None):
        if nnodes < 1:
            raise ValueError("need at least one node")
        self.cfg = HardwareConfig() if cfg is None else cfg
        #: ``tie_seed`` selects the engine's same-timestamp tie-break
        #: policy (None = insertion order, bit-for-bit the historical
        #: schedule; see :class:`repro.sim.engine.Simulator`).
        self.sim = Simulator(tie_seed=tie_seed)
        self.net = FluidNetwork(self.sim)
        self.fabric = Fabric(self.sim, self.net, self.cfg)
        #: cluster-wide fault-injection state, shared by every HCA
        #: (``faults`` may be a FaultPlan or a prebuilt FaultState).
        self.faults = (faults if isinstance(faults, FaultState)
                       else FaultState(faults))
        #: cluster-wide observability hub (metrics + timeline); the
        #: default NULL_OBS drops everything at zero simulated cost.
        self.obs = obs if obs is not None else NULL_OBS
        self.nodes: List[Node] = [
            Node(self, i, ncpus_per_node) for i in range(nnodes)
        ]
        #: optional RDMA shadow-memory sanitizer (repro.analysis.shadow);
        #: None = zero overhead, identical event order either way.
        self.shadow = None
        if os.environ.get("REPRO_SHADOW") not in (None, "", "0"):
            from .analysis.shadow import install_shadow
            install_shadow(self)

    def __len__(self) -> int:
        return len(self.nodes)

    def connect_pair(self, a: int, b: int) -> tuple:
        """Create and connect one QP on each of nodes ``a`` and ``b``
        (each with its own send/recv CQ).  Returns (qp_a, qp_b)."""
        na, nb = self.nodes[a], self.nodes[b]
        cq_a = na.hca.create_cq()
        cq_b = nb.hca.create_cq()
        qp_a = na.hca.create_qp(cq_a)
        qp_b = nb.hca.create_qp(cq_b)
        qp_a.connect(qp_b)
        return qp_a, qp_b

    def spawn(self, gen: Generator, name: str = "") -> Process:
        return self.sim.spawn(gen, name)

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until)

    # -- memory-footprint accounting (the quantities the connection-
    # -- scaling designs exist to shrink; gated by BENCH_memscale) ------
    def pinned_bytes(self) -> int:
        """Registered (pinned) memory across all nodes, in bytes (page
        granularity, like the OS pin accounting)."""
        return sum(node.hca.pd.pinned_pages for node in self.nodes) \
            * PAGE_SIZE

    def live_qps(self) -> int:
        """Queue pairs created across all nodes."""
        return sum(node.hca.stats.qps_created for node in self.nodes)


def build_cluster(nnodes: int, cfg: Optional[HardwareConfig] = None,
                  faults: Optional[FaultPlan] = None,
                  obs: Optional[Observability] = None, **kw) -> Cluster:
    """Construct a cluster modelled on the paper's testbed (§4.1).

    ``faults`` (a :class:`repro.faults.FaultPlan`) makes the fabric
    imperfect in a deterministic, seed-driven way; omitted or empty,
    the cluster behaves exactly as before.  ``obs`` (a
    :class:`repro.obs.Observability`) records per-layer counters and
    timeline spans without perturbing simulated time.  ``tie_seed``
    (an int) enables the seeded schedule-perturbation tie-break for
    same-timestamp events; omitted, the schedule is bit-for-bit the
    historical insertion order."""
    return Cluster(nnodes, cfg, faults=faults, obs=obs, **kw)
