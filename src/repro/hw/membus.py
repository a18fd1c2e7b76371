"""Per-node memory bus and memcpy cost model.

The memory bus is a :class:`~repro.sim.fluid.FluidResource` shared by
CPU copies and HCA DMA.  A memcpy consumes 2 bus-bytes per payload byte
when its working set fits L2 and 3 when it does not (read miss +
write-allocate + write-back); DMA consumes 1.  This shared-bus model is
what reproduces the paper's §4.4 finding that the memory bus, not the
link, bottlenecks the copy-based pipelined design.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..config import US, HardwareConfig
from ..sim.engine import Simulator
from ..sim.fluid import FluidNetwork, FluidResource
from .memory import NodeMemory

__all__ = ["MemBus"]

#: fixed CPU cost of one memcpy call.
MEMCPY_CALL_OVERHEAD = 0.06 * US


class MemBus:
    """Memory subsystem of one node: bus bandwidth + memcpy modelling."""

    def __init__(self, sim: Simulator, net: FluidNetwork,
                 cfg: HardwareConfig, node_id: int):
        self.sim = sim
        self.net = net
        self.cfg = cfg
        self.node_id = node_id
        self.bus = FluidResource(f"membus[{node_id}]", cfg.membus_bandwidth)
        #: payload bytes copied by the CPU on this node (stats)
        self.bytes_copied = 0

    def memcpy(self, mem: NodeMemory, dst: int, src: int, nbytes: int,
               working_set: Optional[int] = None) -> Generator:
        """Copy ``nbytes`` from ``src`` to ``dst`` inside this node,
        charging bus time.

        ``working_set`` sizes the cache-residency decision; it defaults
        to twice the copy length (source + destination), but callers
        streaming a large message through small chunks should pass the
        *message* size — the source data is then cold in cache even
        though each chunk is small (the Fig. 11 large-message droop).
        """
        if nbytes < 0:
            raise ValueError("negative memcpy length")
        yield self.sim.timeout(MEMCPY_CALL_OVERHEAD)
        if nbytes:
            ws = working_set if working_set is not None else 2 * nbytes
            cost = self.cfg.memcpy_cost_per_byte(ws)
            yield self.net.transfer(nbytes, [(self.bus, cost)],
                                    label=f"memcpy[{self.node_id}]")
            mem.copy_within(dst, src, nbytes)
            self.bytes_copied += nbytes
        return nbytes
