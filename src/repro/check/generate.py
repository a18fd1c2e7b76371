"""Seeded random workload generation.

Everything is driven by one ``random.Random(seed)`` stream, so a seed
fully determines the spec: the fuzzer only ever needs to remember an
integer, and a failing case replays from its JSON spec bit-for-bit.

Message sizes are *boundary-heavy*: instead of uniform sizes, the
generator samples around the protocol's fault lines — the chunk
payload capacity (ring-slot boundary), the zero-copy threshold
(eager/rendezvous switch), one-full-ring totals (wrap-around), and
the 1..3-byte degenerate cases.  Those are exactly the off-by-one
surfaces the paper's protocols (§4.2–§5) have to get right.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..config import KB
from ..faults import FaultPlan, LinkFaults
from ..mpich2.channels.ring import HDR_SIZE, TRAILER_SIZE
from .spec import (COLLECTIVE_OPS, RECV_MODES, CollectivePhase,
                   ComputePhase, DatatypePhase, OneSidedPhase,
                   P2PMessage, P2PPhase, RmaOp, WorkloadSpec)

__all__ = ["generate_spec", "generate_fault_plan", "boundary_sizes"]

#: the compact channel geometry most generated specs run under: small
#: enough that modest messages wrap the ring and cross the rendezvous
#: threshold, so every protocol edge gets exercised cheaply.
SMALL_CH_CFG = {"ring_size": 32 * KB, "chunk_size": 4 * KB,
                "zerocopy_threshold": 8 * KB}


def boundary_sizes(ch_cfg: Optional[dict]) -> List[int]:
    """Interesting payload sizes for a channel geometry."""
    cfg = {} if ch_cfg is None else ch_cfg
    chunk = cfg.get("chunk_size", 16 * KB)
    ring = cfg.get("ring_size", 128 * KB)
    zc = cfg.get("zerocopy_threshold", 32 * KB)
    cap = chunk - HDR_SIZE - TRAILER_SIZE
    nslots = ring // chunk
    pool = {1, 2, 3, 8, 64, 1000}
    for base in (cap, 2 * cap, zc, nslots * cap):
        for delta in (-1, 0, 1):
            if base + delta > 0:
                pool.add(base + delta)
    return sorted(pool)


def generate_spec(seed: int, nranks: Optional[int] = None,
                  max_phases: int = 5) -> WorkloadSpec:
    """Produce one replayable randomized workload from ``seed``."""
    rng = random.Random(seed * 2654435761 + 97)
    if nranks is None:
        nranks = rng.choice((2, 2, 2, 3, 3, 4))
    ch_cfg = dict(SMALL_CH_CFG) if rng.random() < 0.8 else None
    sizes = boundary_sizes(ch_cfg)

    phases: List = []
    nphases = rng.randint(2, max_phases)
    total_bytes = 0
    budget = 768 * KB  # keeps one run well under a second of wall time
    for _ in range(nphases):
        kind = rng.choices(
            ("p2p", "collective", "datatype", "onesided", "compute"),
            weights=(5, 2, 1, 1, 2))[0]
        if kind == "p2p":
            nmsgs = rng.randint(1, 8)
            msgs = []
            for _ in range(nmsgs):
                src = rng.randrange(nranks)
                dst = rng.choice([r for r in range(nranks)
                                  if r != src])
                size = rng.choice(sizes)
                if total_bytes + size > budget:
                    size = rng.choice((1, 3, 64, 1000))
                total_bytes += size
                msgs.append(P2PMessage(src=src, dst=dst,
                                       tag=rng.randint(0, 3),
                                       size=size))
            modes = {str(r): rng.choice(RECV_MODES)
                     for r in range(nranks) if rng.random() < 0.6}
            phases.append(P2PPhase(
                messages=tuple(msgs), recv_modes=modes,
                post_reversed=rng.random() < 0.25,
                blocking=rng.random() < 0.3))
        elif kind == "collective":
            phases.append(CollectivePhase(
                op=rng.choice(COLLECTIVE_OPS),
                root=rng.randrange(nranks),
                count=rng.choice((1, 7, 64, 257))))
        elif kind == "datatype":
            src = rng.randrange(nranks)
            dst = rng.choice([r for r in range(nranks) if r != src])
            blocklength = rng.randint(1, 4)
            phases.append(DatatypePhase(
                src=src, dst=dst, tag=rng.randint(0, 3),
                count=rng.randint(1, 3),
                blocks=rng.randint(1, 6),
                blocklength=blocklength,
                stride=blocklength + rng.randint(0, 4)))
        elif kind == "onesided":
            slot = rng.choice((8, 64, 256))
            ops: List[RmaOp] = []
            for origin in range(nranks):
                for target in range(nranks):
                    if origin == target:
                        continue
                    roll = rng.random()
                    if roll < 0.35:
                        ops.append(RmaOp(
                            op=rng.choice(("put", "acc")),
                            origin=origin, target=target))
                    elif roll < 0.55:
                        ops.append(RmaOp(
                            op="get", origin=origin, target=target,
                            slice=rng.randrange(nranks)))
            phases.append(OneSidedPhase(slot=slot, ops=tuple(ops)))
        else:
            phases.append(ComputePhase(seconds=tuple(
                round(rng.uniform(0.0, 300e-6), 9)
                for _ in range(nranks))))

    spec = WorkloadSpec(seed=seed, nranks=nranks,
                        phases=tuple(phases), ch_cfg=ch_cfg,
                        time_cap=1.0)
    spec.validate()
    return spec


def generate_fault_plan(seed: int) -> Optional[FaultPlan]:
    """A *recoverable* fault plan for conformance runs: link-level
    drops/corruption/delays and short outages only.  RC retransmission
    makes these semantics-preserving, so a conforming design must
    deliver the same canonical streams with or without them.
    Registration failures and completion errors are excluded here:
    they can legally kill a rank, which is fault-*tolerance* territory
    (PR 1's soak tier), not conformance."""
    rng = random.Random(seed * 48271 + 11)
    if rng.random() < 0.25:
        return None
    link = LinkFaults(
        drop_rate=rng.choice((0.0, 0.01, 0.03)),
        corrupt_rate=rng.choice((0.0, 0.01)),
        delay_rate=rng.choice((0.0, 0.05)),
        delay_time=rng.choice((20e-6, 80e-6)),
        down=(((s := round(rng.uniform(1e-4, 5e-4), 6)),
               s + 1.5e-4),) if rng.random() < 0.3 else (),
    )
    if not link.active:
        return None
    return FaultPlan(seed=rng.randrange(1 << 30), default_link=link)
