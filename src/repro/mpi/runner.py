"""World construction and the ``run_mpi`` entry point.

This is the piece a paper reader would call ``mpirun``: it builds the
simulated cluster, instantiates one channel + CH3 device per rank,
wires the full connection mesh (the paper's init-time QP/ring/key
exchange), launches the rank programs, and runs the event loop.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..cluster import Cluster, build_cluster
from ..config import ChannelConfig, HardwareConfig
from ..faults import FaultPlan
from ..hw.memory import Buffer
from ..mpich2.ch3 import Ch3Device
from ..mpich2.connect import LazyConnector
from ..mpich2.designs import DESIGNS, design as design_row
from ..sim.engine import Simulator
from .comm import Communicator
from .status import ANY_SOURCE, ANY_TAG, Status

__all__ = ["MpiContext", "World", "run_mpi", "run_world", "build_world",
           "DESIGNS"]


class MpiContext:
    """The per-rank facade handed to rank programs.

    Exposes the world communicator's operations directly
    (``mpi.send`` == ``mpi.COMM_WORLD.send``) plus simulation helpers
    (``wtime``, ``alloc``)."""

    def __init__(self, world: "World", rank: int, device: Ch3Device):
        self.world = world
        self.rank = rank
        self.size = world.nranks
        self.device = device
        ctx_counter = [0]
        self.COMM_WORLD = Communicator(self, device,
                                       list(range(world.nranks)),
                                       0, ctx_counter)

    # -- delegates ------------------------------------------------------
    def __getattr__(self, name):
        # anything not defined here resolves against COMM_WORLD
        # (send, recv, Isend, Bcast, Barrier, ...)
        return getattr(self.COMM_WORLD, name)

    # -- simulation helpers ------------------------------------------------
    def wtime(self) -> float:
        """MPI_Wtime: current simulated time in seconds."""
        return self.device.node.cluster.sim.now

    def alloc(self, nbytes: int, name: str = "user") -> Buffer:
        """Allocate an application buffer in this rank's node memory."""
        return self.device.node.alloc(nbytes, name)

    def array(self, data: np.ndarray, name: str = "user") -> Buffer:
        """Place a numpy array into node memory; returns its Buffer."""
        raw = np.ascontiguousarray(data)
        buf = self.device.node.alloc(raw.nbytes, name)
        buf.write(raw.view(np.uint8).reshape(-1))
        return buf

    def compute(self, seconds: float):
        """Model a computation phase of the given duration."""
        return self.device.channel.ctx.cpu.work(seconds)

    def finalize(self):
        return self.device.finalize()


class World:
    """The built cluster + per-rank MPI stacks."""

    def __init__(self, cluster: Cluster, nranks: int, design: str,
                 devices: List[Ch3Device]):
        self.cluster = cluster
        self.nranks = nranks
        self.design = design
        self.devices = devices
        #: the observability hub this world was built with (NULL_OBS
        #: unless one was passed to build_world/run_mpi)
        self.obs = cluster.obs
        #: out-of-band QP handoff between collective Win.create calls,
        #: keyed by ((lo_rank, hi_rank), receiving_rank)
        self.win_pending_qps: Dict[tuple, list] = {}
        self.contexts = [MpiContext(self, r, devices[r])
                         for r in range(nranks)]

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    def stats(self) -> Dict[str, int]:
        """Aggregate HCA statistics across all nodes."""
        out: Dict[str, int] = {}
        for node in self.cluster.nodes:
            for k, v in node.hca.stats.snapshot().items():
                out[k] = out.get(k, 0) + v
        return out

    def connection_count(self) -> int:
        """Established channel connections (unordered rank pairs) —
        the quantity on-demand establishment keeps at O(pairs that
        actually communicated) instead of O(N²)."""
        return sum(len(d.channel.conns) for d in self.devices) // 2


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a world is built (and,
    from :func:`run_mpi`, while the simulation runs).

    A world is millions of long-lived, mutually referencing objects;
    with the collector enabled, every generation-2 pass rescans that
    whole heap, and the passes keep coming as construction allocates —
    measured at ~5x the total wall time of a 256-rank build.  Pausing
    is safe: reference counting still reclaims acyclic garbage
    immediately, and fired events drop their callback lists, so cycle
    churn during a run is minimal.  One collect on exit sweeps
    whatever cycles did form, keeping memory bounded for callers that
    loop over runs.  No-op when the collector is already off (nested
    use, or the caller manages GC itself)."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def build_world(nranks: int, design: str = "zerocopy",
                cfg: Optional[HardwareConfig] = None,
                ch_cfg: Optional[ChannelConfig] = None,
                nnodes: Optional[int] = None,
                faults: Optional[FaultPlan] = None,
                obs=None,
                tie_seed: Optional[int] = None) -> World:
    """Construct a world: ranks round-robin over nodes (default one
    rank per node, like the paper's runs).  ``faults`` injects
    deterministic fabric/HCA faults (see :mod:`repro.faults`);
    ``obs`` (a :class:`repro.obs.Observability`) records per-layer
    counters and timeline spans for the run; ``tie_seed`` enables
    the engine's seeded schedule perturbation (see
    :class:`repro.sim.engine.Simulator` — None keeps the historical
    schedule bit-for-bit)."""
    row = design_row(design)
    cfg = HardwareConfig() if cfg is None else cfg
    ch_cfg = ChannelConfig() if ch_cfg is None else ch_cfg

    if row.one_node:
        nnodes = 1  # all ranks share one node's memory
    nnodes = nranks if nnodes is None else nnodes
    if nnodes > nranks:
        nnodes = nranks

    with _gc_paused():
        cluster = build_cluster(
            nnodes, cfg, faults=faults, obs=obs, tie_seed=tie_seed,
            ncpus_per_node=max(2, -(-nranks // nnodes)))

        channels = []
        for r in range(nranks):
            node = cluster.nodes[r % nnodes]
            cpu_index = r // nnodes
            ctx = node.vapi(cpu_index % len(node.cpus))
            chan = row.channel(rank=r, node=node, ctx=ctx, cfg=cfg,
                               ch_cfg=ch_cfg)
            chan.initialize(nranks)
            channels.append(chan)

        if not row.lazy:
            # full mesh (paper: every connection set up during init)
            for i in range(nranks):
                for j in range(i + 1, nranks):
                    row.channel.establish(channels[i], channels[j])

        devices = []
        for r in range(nranks):
            dev = row.device(r, nranks, channels[r])
            dev.attach_connections()
            devices.append(dev)

        if row.lazy:
            connector = LazyConnector(
                cluster, row.channel,
                {r: channels[r] for r in range(nranks)})
            for dev in devices:
                dev.connector = connector
                connector.devices[dev.rank] = dev
        world = World(cluster, nranks, design, devices)
        # arm deadlock diagnosis (graph + cycle naming).  Without the
        # message tracer this costs nothing per event — the detector
        # only runs after the queue has drained with blocked fibers —
        # so schedules and digests stay bit-for-bit identical.
        from ..obs.waitgraph import DeadlockDetector
        DeadlockDetector.attach(world)
        return world


def run_world(nranks: int, prog: Callable, *,
              design: str = "zerocopy",
              cfg: Optional[HardwareConfig] = None,
              ch_cfg: Optional[ChannelConfig] = None,
              nnodes: Optional[int] = None,
              faults: Optional[FaultPlan] = None,
              obs=None,
              tie_seed: Optional[int] = None,
              args: Sequence = (),
              until: Optional[float] = None) -> Tuple[List, "World"]:
    """Like :func:`run_mpi`, but returns ``(per-rank return values,
    world)`` so callers can inspect the finished world: its clock
    (``world.sim.now``, ``events_processed``), HCA counters
    (``world.stats()``), per-node copy volume
    (``node.membus.bytes_copied``), registration caches and fabric
    utilisation (``world.cluster.net.utilization``).
    """
    with _gc_paused():
        world = build_world(nranks, design, cfg, ch_cfg, nnodes, faults,
                            obs=obs, tie_seed=tie_seed)
        procs = [world.cluster.spawn(prog(ctx, *args),
                                     f"rank{ctx.rank}")
                 for ctx in world.contexts]
        world.cluster.run(until)
    return [p.value for p in procs], world


def run_mpi(nranks: int, prog: Callable, *,
            design: str = "zerocopy",
            cfg: Optional[HardwareConfig] = None,
            ch_cfg: Optional[ChannelConfig] = None,
            nnodes: Optional[int] = None,
            faults: Optional[FaultPlan] = None,
            obs=None,
            tie_seed: Optional[int] = None,
            args: Sequence = (),
            until: Optional[float] = None) -> Tuple[List, float]:
    """Run ``prog(mpi, *args)`` on ``nranks`` ranks; returns
    ``(per-rank return values, elapsed simulated seconds)``.

    ``prog`` must be a generator function; all MPI calls inside use
    ``yield from`` (see the examples/ directory).
    """
    results, world = run_world(
        nranks, prog, design=design, cfg=cfg, ch_cfg=ch_cfg,
        nnodes=nnodes, faults=faults, obs=obs, tie_seed=tie_seed,
        args=args, until=until)
    return results, world.sim.now
