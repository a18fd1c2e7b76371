"""The pins: the simulated behaviour this repository holds byte for byte.

Three suites cover the paper's design ladder (§4 basic → piggyback →
pipeline, §5 zero-copy, CH3), both HCA transports and every clock:

- ``corpus`` — ten generated specs on every design; each file
  ``<root>/corpus/golden-<seed>.json`` stores its spec, so generator
  evolution cannot repoint what is pinned, and every run must also
  conform to the expected-delivery model;
- ``design`` — every design on six traffic shapes, two channel
  geometries and two fault plans (``<root>/pins/design.json``);
- ``transport`` — nine verbs scenarios on one QP pair under four
  fault plans (``<root>/pins/transport.json``).

Each case yields one record, :func:`left_behind`.  Clock and event
count stay outside its state hash, so a re-pin that only moves event
counts or rounds a clock reads as exactly that in the JSON diff.
``python -m repro.check pin`` checks every suite and ``--update``
rewrites them; an update is a behaviour change, made in its own commit
with a CHANGES.md entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from functools import partial

import numpy as np

from ..cluster import build_cluster
from ..config import KB, ChannelConfig
from ..faults import FaultPlan, LinkFaults
from ..ib.types import Opcode, RecvRequest, Sge, WorkRequest
from ..mpi.runner import DESIGNS, run_world
from ..obs import Observability
from . import oracle
from .differ import run_spec
from .generate import generate_spec
from .spec import WorkloadSpec

__all__ = ["left_behind", "SUITES", "CORPUS_SEEDS", "load", "store",
           "moved", "pin", "read_json", "write_json"]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, doc):
    """Sorted keys, two-space indent, trailing newline."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def left_behind(now, events, delivered, cluster=None):
    """One pin record.  The state hash covers what the suite delivered
    and, for a cluster, its per-node HCA stats, the non-zero
    ``FaultStats``, the armed obs counters folded to their leaf name
    (QP numbers and MR keys come from process-global counters), the
    armed spans and the pinned bytes."""
    state = [delivered]
    if cluster is not None:
        obs = cluster.obs
        leaves = {}
        for name, value in obs.metrics.snapshot().items():
            leaf = name.rsplit(".", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + value
        state += [
            [node.hca.stats.snapshot() for node in cluster.nodes],
            {k: v for k, v in cluster.faults.stats.snapshot().items()
             if v},
            sorted(leaves.items()),
            [(s.track, s.name, repr(s.t0), repr(s.t1),
              sorted((k, v) for k, v in s.args.items() if k != "qp"))
             for s in obs.timeline.spans],
            cluster.pinned_bytes(),
        ]
    return {"clock": repr(now), "events": events,
            "state": hashlib.sha1(repr(state).encode()).hexdigest()[:16]}


# ---------------------------------------------------------------------
# corpus: generated specs x every design
# ---------------------------------------------------------------------

CORPUS_SEEDS = (11, 23, 31, 47, 59, 101, 149, 211, 307, 401)


def corpus_path(root, seed):
    return os.path.join(root, "corpus", f"golden-{seed}.json")


def corpus_spec(root, seed):
    """The stored spec; a seed without a file starts from the
    generator (``max_phases=3``)."""
    path = corpus_path(root, seed)
    if os.path.exists(path):
        return WorkloadSpec.from_dict(read_json(path)["spec"])
    return generate_spec(seed, max_phases=3)


def corpus_record(spec, design):
    obs = run_spec(spec, design)
    bad = oracle.check(spec, obs)
    if bad:
        raise AssertionError(f"no longer conforms: {bad[0]}")
    return left_behind(obs.elapsed, obs.events,
                       [obs.ranks, obs.violations])


# ---------------------------------------------------------------------
# design: every design x geometry x fault plan x traffic shape
# ---------------------------------------------------------------------

GEOMETRIES = {
    "default": ChannelConfig(),
    "small": ChannelConfig(ring_size=16 * KB, chunk_size=4 * KB,
                           srq_credits=2, srq_pool_slots=4),
}
DESIGN_PLANS = {
    "none": None,
    "lossy": FaultPlan(seed=4, default_link=LinkFaults(
        drop_rate=0.05, corrupt_rate=0.02, delay_rate=0.05)),
}


def _pattern(nbytes, salt, step=131):
    return (np.arange(nbytes, dtype=np.uint32) * step + salt).astype(
        np.uint8)


def _pingpong(size, reps):
    def prog(mpi, out):
        if mpi.rank > 1:
            return
        peer = 1 - mpi.rank
        buf = mpi.alloc(size)
        if mpi.rank == 0:
            buf.write(_pattern(size, 3))
        for _ in range(reps):
            if mpi.rank == 0:
                yield from mpi.Send(buf, peer, 0)
                yield from mpi.Recv(buf, peer, 0)
            else:
                yield from mpi.Recv(buf, peer, 0)
                yield from mpi.Send(buf, peer, 0)
        out.append(buf.read())
    return prog


def _window(size, count):
    def prog(mpi, out):
        if mpi.rank > 1:
            return
        bufs = [mpi.alloc(size) for _ in range(count)]
        reqs = []
        for i, buf in enumerate(bufs):
            if mpi.rank == 0:
                buf.write(_pattern(size, i))
                reqs.append((yield from mpi.Isend(buf, 1, i)))
            else:
                reqs.append((yield from mpi.Irecv(buf, 0, i)))
        yield from mpi.Waitall(reqs)
        if mpi.rank == 1:
            out.extend(buf.read() for buf in bufs)
    return prog


def _alltoall(per_peer):
    def prog(mpi, out):
        send = mpi.alloc(per_peer * mpi.size)
        send.write(_pattern(per_peer * mpi.size, mpi.rank))
        recv = mpi.alloc(per_peer * mpi.size)
        yield from mpi.Alltoall(send, recv)
        out.append(recv.read())
    return prog


#: shape -> (rank program, ranks); every world spans two nodes
SHAPES = {
    "pp4": (_pingpong(4, 2), 2),
    "pp2k": (_pingpong(2 * KB, 1), 2),
    "pp40k": (_pingpong(40 * KB, 1), 2),
    "w6x16k": (_window(16 * KB, 6), 2),
    "w8x64k": (_window(64 * KB, 8), 2),
    "a2a1k": (_alltoall(1 * KB), 4),
}


def design_record(design, geometry, plan, shape):
    prog, nranks = SHAPES[shape]
    out = []
    _, world = run_world(nranks, prog, design=design, nnodes=2,
                         ch_cfg=GEOMETRIES[geometry],
                         faults=DESIGN_PLANS[plan], obs=Observability(),
                         args=(out,))
    return left_behind(world.sim.now, world.sim.events_processed,
                       [hashlib.sha1(bytes(p)).hexdigest() for p in out],
                       world.cluster)


# ---------------------------------------------------------------------
# transport: verbs scenarios on one QP pair x fault plan
#
# QueuePair runs the pipelined-ack single shot when no link fault is
# configured and the stop-and-wait PSN/ack-timeout machine otherwise
# (FaultState.transport_active); the corpus has no fault plan, so these
# cases hold the recovery transport.  Deliberate asymmetries:
# * dry SRQ: fault-free delivery blocks in srq.consume() (RNR
#   backpressure); recovery discards, sends no ack and retransmits
#   (send_srq_dry/drop30: 9 drops, 11 retransmissions);
# * empty private RQ or short receive WQE: same statuses, but the error
#   CQE completes at the responder's instant fault-free and rides the
#   ack leg under recovery (send_rq_runs_empty);
# * drift, pinned as it is: a bad-rkey read completes REM_ACCESS_ERR
#   after the request leg fault-free (2.9999999999999997e-06) but up
#   front under recovery (2.5499999999999997e-06).  The ROADMAP item
#   "One protocol definition for the runtime and the model checker,
#   the RC transport first" closes it and re-pins read_bad_rkey.
# ---------------------------------------------------------------------

_N = 8192

# seeds picked so the first packets already exercise every branch:
# drop30 loses the first ack (duplicate suppression) and the second
# request; mixed drops, delays and corrupts on both directions.
TRANSPORT_PLANS = {
    "none": None,
    "drop30": FaultPlan(seed=20, default_link=LinkFaults(drop_rate=0.3)),
    "mixed": FaultPlan(seed=4, default_link=LinkFaults(
        drop_rate=0.1, corrupt_rate=0.1, delay_rate=0.2)),
    "dead": FaultPlan(seed=1, default_link=LinkFaults(drop_rate=1.0)),
}


class _Rig:
    """Two nodes, one connected QP pair, an 8 KB registered buffer on
    each side.  ``post`` only collects work requests; ``run`` posts
    them back to back through the verbs layer (so the send queue is
    never empty between WQEs) while a poller drains the send CQ."""

    def __init__(self, plan, srq_slots=0):
        self.cluster = c = build_cluster(2, faults=plan,
                                         obs=Observability())
        self.na, self.nb = na, nb = c.nodes
        self.srq = nb.hca.create_srq(srq_slots) if srq_slots else None
        self.qa = na.hca.create_qp(na.hca.create_cq())
        self.qb = nb.hca.create_qp(nb.hca.create_cq(), srq=self.srq)
        self.qa.connect(self.qb)
        self.src, self.dst = na.alloc(_N), nb.alloc(_N)
        self.src.write(_pattern(_N, 1, step=31))
        self.dst.write(_pattern(_N, 2, step=31))
        self.lkey = na.hca.pd.register(self.src.addr, _N).lkey
        self.rmr = nb.hca.pd.register(self.dst.addr, _N)
        self.ordinal = {}          # wr_id -> order of creation
        self.wrs = []
        self.send_cqes = []
        self.watch_hits = 0

    def _number(self, req):
        self.ordinal[req.wr_id] = len(self.ordinal)
        return req

    def local(self, off, n):
        return Sge(self.src.addr + off, n, self.lkey)

    def post(self, opcode, sges, remote_off=0, rkey=None, **kw):
        self.wrs.append(self._number(WorkRequest(
            opcode=opcode, sges=sges, remote_addr=self.dst.addr + remote_off,
            rkey=self.rmr.rkey if rkey is None else rkey, **kw)))

    def recv_wqe(self, *spans):
        return self._number(RecvRequest(
            [Sge(self.dst.addr + off, n, self.rmr.lkey) for off, n in spans]))

    def run(self):
        poster, poller = self.na.vapi(0), self.na.vapi(1)

        def post_all():
            for wr in self.wrs:
                yield from poster.post_send(self.qa, wr)

        def poll_forever():
            while True:
                self.send_cqes.append(
                    (yield from poller.wait_cq(self.qa.send_cq)))
        self.cluster.spawn(post_all(), "poster")
        self.cluster.sim.spawn(poll_forever(), "poller", daemon=True)
        self.cluster.run()


# -- the nine scenarios: each takes a plan, returns the loaded rig ------

def write(plan):
    rig = _Rig(plan)

    def hit():
        rig.watch_hits += 1
    rig.nb.hca.watch_placement(rig.dst.addr, hit)
    for _ in range(2):
        rig.post(Opcode.RDMA_WRITE, [rig.local(0, 4096)])
        rig.post(Opcode.RDMA_WRITE,
                 [rig.local(5000, 600), rig.local(4096, 424)],
                 remote_off=4096, signaled=False)
        rig.post(Opcode.RDMA_WRITE, [rig.local(100, 64)], remote_off=6000)
    return rig


def write_zero_length(plan):
    rig = _Rig(plan)
    rig.post(Opcode.RDMA_WRITE, [])
    rig.post(Opcode.RDMA_WRITE, [rig.local(8, 8)], remote_off=8)
    rig.post(Opcode.RDMA_WRITE, [], signaled=False)
    return rig


def send_rq_runs_empty(plan):
    """Private RQ: two fitting receives, a short one, then none left."""
    rig = _Rig(plan)
    rig.qb.post_recv(rig.recv_wqe((0, 64)))
    rig.qb.post_recv(rig.recv_wqe((200, 20), (300, 40)))
    rig.qb.post_recv(rig.recv_wqe((64, 16)))
    for i in range(4):
        rig.post(Opcode.SEND, [rig.local(48 * i, 48)])
    return rig


def send_srq_dry(plan):
    """Seven SENDs into a 4-slot SRQ that a slow consumer tops up at
    40 us and again at 1 ms."""
    rig = _Rig(plan, srq_slots=4)

    def top_up():
        while rig.srq.outstanding < rig.srq.max_wr:
            rig.srq.post(rig.recv_wqe((128 * rig.srq.posted_total, 128)))
    top_up()

    def replenish():
        yield rig.cluster.sim.timeout(40e-6)
        top_up()
        yield rig.cluster.sim.timeout(960e-6)
        top_up()
    rig.cluster.spawn(replenish(), "replenish")
    for i in range(7):
        rig.post(Opcode.SEND, [rig.local(100 * i, 60), rig.local(4000, 40)])
    return rig


def read_two_sges(plan):
    rig = _Rig(plan)
    for i in range(2):
        rig.post(Opcode.RDMA_READ,
                 [rig.local(0, 3000), rig.local(4096, 1096)],
                 remote_off=1024 * (i + 1))
        rig.post(Opcode.RDMA_READ, [rig.local(7000 + 32 * i, 32)],
                 remote_off=16)
    rig.post(Opcode.RDMA_READ, [], signaled=False)
    return rig


def fetch_add(plan):
    rig = _Rig(plan)
    rig.dst.write(struct.pack("<Q", 0xFFFFFFFFFFFFFFFE))   # wraps
    for i in range(5):
        rig.post(Opcode.FETCH_ADD, [rig.local(8 * i, 8)], compare_add=1)
    return rig


def cmp_swap(plan):
    rig = _Rig(plan)
    rig.dst.write(struct.pack("<Q", 5))
    for i, (compare, swap) in enumerate([(5, 9), (5, 11), (9, 5), (5, 7)]):
        rig.post(Opcode.CMP_SWAP, [rig.local(8 * i, 8)],
                 compare_add=compare, swap=swap)
    return rig


def write_bad_rkey(plan):
    rig = _Rig(plan)
    rig.post(Opcode.RDMA_WRITE, [rig.local(0, 64)], rkey=0xBAD)
    rig.post(Opcode.RDMA_WRITE, [rig.local(64, 64)], remote_off=64)
    return rig


def read_bad_rkey(plan):
    rig = _Rig(plan)
    rig.post(Opcode.RDMA_READ, [rig.local(0, 64)], rkey=0xBAD)
    return rig


SCENARIOS = [write, write_zero_length, send_rq_runs_empty, send_srq_dry,
             read_two_sges, fetch_add, cmp_swap, write_bad_rkey,
             read_bad_rkey]


def transport_record(scenario, plan):
    rig = scenario(TRANSPORT_PLANS[plan])
    rig.run()
    cqes, stamps = [], []
    recv_cq = rig.qb.recv_cq
    for side, found in (("a", rig.send_cqes),
                        ("b", recv_cq.poll_many(recv_cq.depth))):
        for c in found:
            cqes.append(f"{side}#{rig.ordinal[c.wr_id]} {c.opcode.value} "
                        f"{c.status.name} {c.byte_len}")
            stamps.append(repr(c.timestamp))
    delivered = [
        cqes, bytes(rig.src.read()), bytes(rig.dst.read()), stamps,
        rig.watch_hits, rig.qa.error, rig.qb.error,
        rig.qa.psn, rig.qb.expected_psn, rig.qa.outstanding_send_wqes,
        rig.srq and (rig.srq.posted_total, rig.srq.consumed_total,
                     rig.srq.rnr_stalls),
    ]
    sim = rig.cluster.sim
    return left_behind(sim.now, sim.events_processed, delivered,
                       rig.cluster)


# ---------------------------------------------------------------------
# suites, storage and the check
# ---------------------------------------------------------------------

#: suite name -> (root -> {key: case}); a case returns one record
SUITES = {
    "corpus": lambda root: {
        f"{seed}/{d}": partial(corpus_record, spec, d)
        for seed, spec in ((n, corpus_spec(root, n)) for n in CORPUS_SEEDS)
        for d in DESIGNS},
    "design": lambda root: {
        f"{d}/{g}/{p}/{s}": partial(design_record, d, g, p, s)
        for d in DESIGNS for g in GEOMETRIES for p in DESIGN_PLANS
        for s in SHAPES},
    "transport": lambda root: {
        f"{s.__name__}/{p}": partial(transport_record, s, p)
        for s in SCENARIOS for p in TRANSPORT_PLANS},
}


def _table(root, name):
    return os.path.join(root, "pins", f"{name}.json")


def load(root, name):
    """One suite's stored records, ``key -> record``."""
    if name != "corpus":
        return read_json(_table(root, name))
    return {f"{seed}/{d}": rec for seed in CORPUS_SEEDS
            for d, rec in read_json(corpus_path(root, seed))["pins"].items()}


def store(root, name, records):
    if name != "corpus":
        return write_json(_table(root, name), records)
    for seed in CORPUS_SEEDS:
        mine = {k.split("/", 1)[1]: rec for k, rec in records.items()
                if k.startswith(f"{seed}/")}
        write_json(corpus_path(root, seed), {
            "spec": corpus_spec(root, seed).to_dict(), "pins": mine})


def run_case(case):
    """The case's record, or ``{"error": <exception type>}``."""
    try:
        return case()
    except Exception as exc:
        return {"error": type(exc).__name__}


def moved(root, name, keep=lambda key: True, suites=SUITES):
    """``{key: (pinned, got)}`` for every selected key whose record
    differs from the stored one (or exists on one side only)."""
    got = {k: run_case(case) for k, case in suites[name](root).items()
           if keep(k)}
    want = {k: rec for k, rec in load(root, name).items() if keep(k)}
    return {k: (want.get(k), got.get(k)) for k in sorted(got.keys() | want)
            if want.get(k) != got.get(k)}


def pin(root, update=False, suites=SUITES):
    """Check every suite against its stored records (status 1 and one
    line per moved key on a mismatch); ``update`` rewrites them."""
    failed = False
    for name, cases in suites.items():
        if update:
            store(root, name, {k: run_case(case)
                               for k, case in cases(root).items()})
            print(f"{name}: rewritten")
            continue
        bad = moved(root, name, suites=suites)
        for k, (want, got) in bad.items():
            print(f"{name} {k}: pinned {want} got {got}")
        print(f"{name}: {len(bad)} moved")
        failed |= bool(bad)
    return int(failed)
