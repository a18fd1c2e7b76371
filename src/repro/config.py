"""Hardware calibration constants for the simulated testbed.

The defaults model the paper's testbed (§4.1): SuperMicro SUPER P4DL6
nodes with dual 2.4 GHz Xeons (512 KB L2, 400 MHz FSB), Mellanox
InfiniHost MT23108 4X HCAs on PCI-X 64/133, and an InfiniScale
MT43132 switch.

Every constant is a *mechanistic* cost (per-operation CPU time, HCA
processing time, wire/bus capacity) — none encodes a paper result
directly.  The paper's headline numbers (5.9 µs / 870 MB/s raw,
18.6 µs / 230 MB/s basic, 7.4 µs piggyback, >500 MB/s pipeline,
7.6 µs / 857 MB/s zero-copy) emerge from the protocol implementations
charging these costs.

Units: seconds and bytes/second.  ``MB`` follows the paper's
convention of 1e6 bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["HardwareConfig", "ChannelConfig", "KB", "MB", "US",
           "PAGE_SIZE"]

KB = 1024
MB = 1_000_000  # the paper's MB is 10^6 bytes
US = 1e-6
PAGE_SIZE = 4096


@dataclass(frozen=True, kw_only=True)
class HardwareConfig:
    """Calibrated testbed model.  Instances are immutable; derive
    variants with :func:`dataclasses.replace`."""

    # ------------------------------------------------------------------
    # InfiniBand 4X link + switch
    # ------------------------------------------------------------------
    #: payload capacity of one link direction after 8b/10b coding and
    #: packet headers (4X signal rate 10 Gb/s -> 1 GB/s data, minus
    #: header overhead at 2 KB MTU; PCI-X keeps the end-to-end peak
    #: slightly lower still, see pci_dma_bandwidth).
    link_bandwidth: float = 952 * MB
    #: one-way propagation + switch crossing (cut-through).
    wire_latency: float = 0.45 * US

    # ------------------------------------------------------------------
    # HCA (Mellanox InfiniHost MT23108 on PCI-X 64/133)
    # ------------------------------------------------------------------
    #: CPU cost to build + post one WQE and ring the doorbell.
    post_wqe_cpu: float = 0.25 * US
    #: sender-side HCA time to fetch and launch one WQE.
    hca_send_processing: float = 1.45 * US
    #: receiver-side HCA time to place an inbound message/packet.
    hca_recv_processing: float = 1.55 * US
    #: extra HCA turnaround at the *responder* for each RDMA read
    #: (the InfiniHost read engine serializes responses; this is why
    #: raw RDMA read trails RDMA write for mid-size messages, Fig. 15).
    hca_read_response: float = 3.6 * US
    #: CPU cost of one CQ poll that finds a completion.
    cq_poll_cpu: float = 0.30 * US
    #: mean extra delay before a polling loop notices new data
    #: (poll granularity / PCI read of the CQE).
    poll_detect_latency: float = 0.55 * US
    #: DMA engine bandwidth over PCI-X 64/133 (theoretical 1066 MB/s,
    #: practical ~880 MB/s) — this, not the link, bounds end-to-end
    #: peak bandwidth at ~870 MB/s.
    pci_dma_bandwidth: float = 872 * MB
    #: fixed latency of one PCI-X crossing (DMA setup + first data);
    #: paid once on the sending side (data fetch) and once on the
    #: receiving side (data placement).
    pci_latency: float = 0.65 * US

    # ------------------------------------------------------------------
    # Host memory system (400 MHz FSB Xeon, 512 KB L2)
    # ------------------------------------------------------------------
    #: total memory-bus capacity in bus-bytes/s.  A memcpy consumes
    #: 2 bus-bytes per payload byte (read + write) when the source is
    #: cache-resident, 3 when it misses (read fill + write-allocate +
    #: write-back) — giving the paper's "<800 MB/s" large-copy number
    #: and the ~530 MB/s pipelined-design plateau.
    membus_bandwidth: float = 1600 * MB
    #: L2 cache size; working sets beyond this pay the 3x copy cost.
    l2_cache_size: int = 512 * KB
    #: bus-bytes consumed per payload byte, cache-resident copy.
    memcpy_cost_cached: float = 2.0
    #: bus-bytes consumed per payload byte, cache-missing copy.
    memcpy_cost_uncached: float = 3.0
    #: bus-bytes consumed per payload byte of HCA DMA.
    dma_bus_cost: float = 1.0

    # ------------------------------------------------------------------
    # Memory registration (VAPI pin-down)
    # ------------------------------------------------------------------
    #: fixed cost of VAPI register_mr (syscall + HCA table update).
    reg_base_cost: float = 55 * US
    #: additional cost per pinned page.
    reg_per_page_cost: float = 0.18 * US
    #: fixed cost of deregistration.
    dereg_base_cost: float = 30 * US
    #: additional deregistration cost per page.
    dereg_per_page_cost: float = 0.05 * US

    # ------------------------------------------------------------------
    # CPU / software
    # ------------------------------------------------------------------
    #: generic per-MPI-call software overhead (argument checking,
    #: request bookkeeping) charged once per MPI-level call.
    mpi_call_overhead: float = 0.30 * US
    #: per-packet CH3 header handling cost.
    ch3_packet_overhead: float = 0.20 * US
    #: per-ring-chunk software cost in the channel (header build,
    #: flag checks, bookkeeping).
    chunk_overhead_cpu: float = 0.20 * US
    #: cost of a registration-cache lookup (hash + compare).
    regcache_lookup_cost: float = 0.15 * US
    #: extra per-call software cost of the zero-copy design's
    #: threshold check and operation state machine (§5 reports it as
    #: the 7.4 -> 7.6 us small-message latency increase).
    zerocopy_check_cpu: float = 0.2 * US

    def __post_init__(self):
        # getattr over fields(): only the simulator's own attribute
        # loads count as reads of a field (TestEveryFieldIsRead)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_bandwidth"):
                ok, want = value > 0, "a capacity > 0"
            elif (f.name.startswith("memcpy_cost_")
                  or f.name == "dma_bus_cost"):
                ok, want = value > 0, "> 0"
            else:
                ok, want = value >= 0, ">= 0"
            if not (ok and math.isfinite(value)):
                raise ValueError(f"HardwareConfig.{f.name} must be "
                                 f"finite and {want}, got {value!r}")

    # -- derived helpers -------------------------------------------------
    def memcpy_cost_per_byte(self, working_set: int) -> float:
        """Bus-bytes per payload byte for a copy whose working set is
        ``working_set`` bytes (source + destination footprint)."""
        if working_set <= self.l2_cache_size:
            return self.memcpy_cost_cached
        return self.memcpy_cost_uncached

    def registration_cost(self, nbytes: int) -> float:
        """Time to register ``nbytes`` (page-granular pinning)."""
        pages = max(1, -(-int(nbytes) // PAGE_SIZE))
        return self.reg_base_cost + pages * self.reg_per_page_cost

    def deregistration_cost(self, nbytes: int) -> float:
        pages = max(1, -(-int(nbytes) // PAGE_SIZE))
        return self.dereg_base_cost + pages * self.dereg_per_page_cost


@dataclass(frozen=True, kw_only=True)
class ChannelConfig:
    """Tunables of the RDMA Channel designs (§4–§5).

    Defaults follow the paper's chosen operating point: 16 KB chunks
    (Fig. 9), zero-copy for messages past 32 KB, tail-pointer updates
    delayed until free space drops below a quarter of the ring.
    """

    #: bytes of ring buffer per connection direction.
    ring_size: int = 128 * KB
    #: fixed chunk size the ring is divided into (§4.3: "we divide the
    #: shared buffer into fixed-sized chunks"); also the pipeline unit.
    chunk_size: int = 16 * KB
    #: messages >= this go through the zero-copy path (§5).
    zerocopy_threshold: int = 32 * KB
    #: receiver sends an explicit tail update once free space is below
    #: this fraction of the ring (§4.3 delayed pointer updates).
    tail_update_fraction: float = 0.25
    #: enable the registration (pin-down) cache (§5).
    registration_cache: bool = True
    # -- srq/mux connection-scaling designs (post-paper; see
    # docs/SIMULATOR.md §"Connection scaling") ------------------------
    #: receive buffers in the per-rank shared pool (SRQ designs).  The
    #: pool is shared by *all* peers, so pinned receive memory is
    #: srq_pool_slots * srq_slot_size regardless of world size.
    srq_pool_slots: int = 64
    #: bytes per shared receive buffer, including the 16-byte header.
    srq_slot_size: int = 8 * KB
    #: per-peer send window in messages — at most this many SENDs to
    #: one peer may be outstanding without a credit return, bounding
    #: any single peer's share of the shared pool.
    srq_credits: int = 8

    def __post_init__(self):
        if self.ring_size % self.chunk_size != 0:
            raise ValueError("ring_size must be a multiple of chunk_size")
        if self.chunk_size < 256:
            raise ValueError("chunk_size too small to hold packet headers")
        if not (0.0 < self.tail_update_fraction < 1.0):
            raise ValueError("tail_update_fraction must be in (0, 1)")
        if self.srq_slot_size < 256:
            raise ValueError("srq_slot_size too small to hold headers")
        if self.srq_pool_slots < 2:
            raise ValueError("srq pool needs at least 2 slots")
        if self.srq_credits < 1:
            raise ValueError("srq_credits must be >= 1")
        if not (1 <= self.srq_credits <= self.srq_pool_slots):
            raise ValueError("srq_credits cannot exceed srq_pool_slots")
