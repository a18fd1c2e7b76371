"""Execute a workload spec on a channel design and diff the outcome.

:func:`run_spec` interprets a :class:`~repro.check.spec.WorkloadSpec`
as one generator program per rank, runs it on a freshly built world
(design, optional schedule-perturbation seed, optional fault plan),
and returns an :class:`Observation`: the canonical per-rank delivery
records, the simulated elapsed time, and any hang/error/matching
violations.  :func:`differential` fans one spec out over a matrix of
(design, tie_seed, fault plan) combinations and reports every
divergence — from the expected model and between designs.

Hang handling: the simulator is run with ``until=spec.time_cap``;
CH3's blocking progress engine waits on inbound-completion hints, so
a genuine protocol hang either empties the event heap (DeadlockError,
reported as an error) or leaves rank processes unfinished at the cap
(reported as a hang).  Either way the harness terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ChannelConfig
from ..faults import FaultPlan
from ..mpi.runner import DESIGNS, build_world
from ..mpi.status import ANY_SOURCE, ANY_TAG
from ..obs.waitgraph import DeadlockDetector
from . import oracle
from .spec import (CollectivePhase, ComputePhase, DatatypePhase,
                   OneSidedPhase, P2PPhase, WorkloadSpec)

__all__ = ["Observation", "Report", "run_spec", "differential",
           "DEFAULT_DESIGNS"]

#: designs the differential matrix covers by default: every row of the
#: design table (the table itself, so a row added at runtime enrols).
DEFAULT_DESIGNS: Iterable[str] = DESIGNS


@dataclass
class Observation:
    """Everything one run of one spec produced."""
    design: str
    tie_seed: Optional[int] = None
    faults: Optional[dict] = None
    elapsed: float = 0.0
    hang: bool = False
    unfinished: Tuple[int, ...] = ()
    error: Optional[str] = None
    ranks: List[List[dict]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.error is None and not self.hang
                and not self.violations)

    def label(self) -> str:
        bits = [self.design]
        if self.tie_seed is not None:
            bits.append(f"tie={self.tie_seed}")
        if self.faults:
            bits.append("faults")
        return "/".join(bits)


@dataclass
class Report:
    """Outcome of one differential sweep."""
    spec: WorkloadSpec
    observations: List[Observation]
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------
# the spec interpreter (one generator program per rank)
# ---------------------------------------------------------------------

def _match_ok(want_src: int, want_tag: int, got_src: int,
              got_tag: int) -> bool:
    return (want_src in (got_src, ANY_SOURCE)
            and want_tag in (got_tag, ANY_TAG))


def _run_p2p(spec, pidx, ph: P2PPhase, mpi, violations):
    comm = mpi.COMM_WORLD
    rank = mpi.rank
    incoming = [(i, m) for i, m in enumerate(ph.messages)
                if m.dst == rank]
    outgoing = [(i, m) for i, m in enumerate(ph.messages)
                if m.src == rank]
    mode = ph.mode_of(rank)

    # post every receive first; a uniform mode per rank keeps the
    # matching classes balanced (see spec.py) so this cannot deadlock
    posts = list(reversed(incoming)) if ph.post_reversed else incoming
    maxsz = max((m.size for _, m in incoming), default=1)
    rreqs = []
    for _, m in posts:
        buf = mpi.alloc(maxsz, "check.recv")
        want_src = (ANY_SOURCE if mode in ("any_source", "any")
                    else m.src)
        want_tag = ANY_TAG if mode in ("any_tag", "any") else m.tag
        req = yield from comm.Irecv(buf, want_src, want_tag)
        rreqs.append((req, buf, want_src, want_tag))

    sreqs = []
    if ph.blocking:
        # blocking sends with one staging buffer per destination,
        # reused message after message: legal (each Send returns only
        # when the buffer may be reused), and exactly the pattern
        # that catches protocols completing sends early
        staged: Dict[int, object] = {}
        for i, m in outgoing:
            buf = staged.get(m.dst)
            need = max((mm.size for _, mm in outgoing
                        if mm.dst == m.dst), default=1)
            if buf is None:
                buf = staged[m.dst] = mpi.alloc(need, "check.send")
            buf.sub(0, m.size).write(
                oracle.payload_bytes(m.size, oracle.msg_key(pidx, i)))
            yield from comm.Send(buf.sub(0, m.size), m.dst, m.tag)
    else:
        for i, m in outgoing:
            buf = mpi.alloc(m.size, "check.send")
            buf.write(oracle.payload_bytes(m.size,
                                           oracle.msg_key(pidx, i)))
            req = yield from comm.Isend(buf, m.dst, m.tag)
            sreqs.append(req)

    # canonical delivery record: one stream per (source, tag) class.
    # Matching assigns the arrivals of one class to that class's
    # posted slots in increasing slot order, so iterating the slots
    # in posted order and projecting per class reproduces the class's
    # arrival order — equal to its send order (non-overtaking) in
    # every conforming design, for every receive mode.
    by_stream: Dict[str, list] = {}
    for req, buf, want_src, want_tag in rreqs:
        st = yield from comm.Wait(req)
        if not _match_ok(want_src, want_tag, st.source, st.tag):
            violations.append(
                f"rank {rank} phase {pidx}: receive (src="
                f"{want_src}, tag={want_tag}) completed with "
                f"(src={st.source}, tag={st.tag}) — matching rules "
                f"violated")
        d = oracle.digest(buf.view()[:st.count])
        by_stream.setdefault(f"{st.source}:{st.tag}", []).append(
            [st.count, d])
    if sreqs:
        yield from comm.Waitall(sreqs)
    return {"kind": "p2p", "by_stream": by_stream}


def _run_collective(spec, pidx, ph: CollectivePhase, mpi):
    comm = mpi.COMM_WORLD
    rank, n, c = mpi.rank, spec.nranks, ph.count
    mine = oracle.coll_array(pidx, rank, c)
    out = None
    if ph.op == "barrier":
        yield from comm.Barrier()
    elif ph.op == "bcast":
        buf = mpi.array(mine if rank == ph.root
                        else np.zeros(c, np.float64))
        yield from comm.Bcast(buf, ph.root)
        out = buf
    elif ph.op == "reduce":
        sbuf = mpi.array(mine)
        rbuf = mpi.alloc(c * 8, "check.coll")
        yield from comm.Reduce(sbuf, rbuf, root=ph.root)
        out = rbuf if rank == ph.root else None
    elif ph.op == "allreduce":
        sbuf = mpi.array(mine)
        rbuf = mpi.alloc(c * 8, "check.coll")
        yield from comm.Allreduce(sbuf, rbuf)
        out = rbuf
    elif ph.op == "gather":
        sbuf = mpi.array(mine)
        rbuf = mpi.alloc(c * 8 * n, "check.coll")
        yield from comm.Gather(sbuf, rbuf, ph.root)
        out = rbuf if rank == ph.root else None
    elif ph.op == "scatter":
        sbuf = mpi.array(oracle.coll_array(pidx, ph.root, c * n)
                         if rank == ph.root
                         else np.zeros(c * n, np.float64))
        rbuf = mpi.alloc(c * 8, "check.coll")
        yield from comm.Scatter(sbuf, rbuf, ph.root)
        out = rbuf
    elif ph.op == "allgather":
        sbuf = mpi.array(mine)
        rbuf = mpi.alloc(c * 8 * n, "check.coll")
        yield from comm.Allgather(sbuf, rbuf)
        out = rbuf
    elif ph.op == "alltoall":
        sbuf = mpi.array(oracle.coll_array(pidx, rank, c * n))
        rbuf = mpi.alloc(c * 8 * n, "check.coll")
        yield from comm.Alltoall(sbuf, rbuf)
        out = rbuf
    elif ph.op == "scan":
        sbuf = mpi.array(mine)
        rbuf = mpi.alloc(c * 8, "check.coll")
        yield from comm.Scan(sbuf, rbuf)
        out = rbuf
    d = None if out is None else oracle.digest(out.view())
    return {"kind": "collective", "op": ph.op, "digest": d}


def _run_datatype(spec, pidx, ph: DatatypePhase, mpi):
    from ..mpi.derived import DOUBLE, Datatype
    comm = mpi.COMM_WORLD
    rank = mpi.rank
    t = Datatype.vector(ph.blocks, ph.blocklength, ph.stride, DOUBLE)
    span = t.span(ph.count)
    if rank == ph.src:
        buf = mpi.alloc(span, "check.dt")
        buf.write(oracle.payload_bytes(span, oracle.msg_key(pidx, 0)))
        yield from comm.Send(buf, ph.dst, ph.tag, datatype=t,
                             count=ph.count)
        return {"kind": "datatype", "digest": None}
    if rank == ph.dst:
        buf = mpi.alloc(span, "check.dt")
        yield from comm.Recv(buf, ph.src, ph.tag, datatype=t,
                             count=ph.count)
        return {"kind": "datatype", "digest": oracle.digest(buf.view())}
    return {"kind": "datatype", "digest": None}


def _run_onesided(spec, pidx, ph: OneSidedPhase, mpi):
    from ..mpi.onesided import Win
    comm = mpi.COMM_WORLD
    rank, n, slot = mpi.rank, spec.nranks, ph.slot
    words = slot // 8
    # Put/Get origins must lie inside the window (the register-free
    # fast path), so the window buffer carries one extra staging slot
    # per local put/get after the exposed region.  The exposed prefix
    # [0, slot*n) is what the oracle's window digest covers; peers
    # only ever address slices inside it.
    mine = [op for op in ph.ops if op.origin == rank]
    wbuf = mpi.alloc(slot * (n + max(1, len(mine))), "check.win")
    wbuf.sub(0, slot * n).write(
        oracle.payload_f64(words * n, oracle.win_key(pidx, rank))
        .view(np.uint8))
    win = yield from Win.create(comm, wbuf)
    # epoch one: puts and accumulates into origin-owned slices
    for i, op in enumerate(mine):
        if op.op == "get":
            continue
        data = oracle.payload_f64(
            words, oracle.msg_key(pidx, op.origin * n + op.target))
        if op.op == "put":
            stage = wbuf.sub((n + i) * slot, slot)
            stage.write(data.view(np.uint8))
            yield from win.put(stage, op.target, disp=rank * slot)
        else:
            # accumulate combines locally before writing back, so the
            # origin may be any buffer
            yield from win.accumulate(mpi.array(data), op.target,
                                      disp=rank * slot)
    yield from win.fence()
    # epoch two: read-only gets of the now-settled contents
    gets = []
    for i, op in enumerate(mine):
        if op.op != "get":
            continue
        gbuf = wbuf.sub((n + i) * slot, slot)
        yield from win.get(gbuf, op.target, disp=op.slice * slot)
        gets.append((op, gbuf))
    yield from win.fence()
    rec = {"kind": "onesided",
           "window": oracle.digest(wbuf.view()[:slot * n]),
           "gets": [[op.target, op.slice, oracle.digest(g.view())]
                    for op, g in gets]}
    yield from win.free()
    return rec


def _rank_program(spec, mpi, records, violations, done):
    rank = mpi.rank
    for pidx, ph in enumerate(spec.phases):
        if isinstance(ph, P2PPhase):
            rec = yield from _run_p2p(spec, pidx, ph, mpi, violations)
        elif isinstance(ph, CollectivePhase):
            rec = yield from _run_collective(spec, pidx, ph, mpi)
        elif isinstance(ph, DatatypePhase):
            rec = yield from _run_datatype(spec, pidx, ph, mpi)
        elif isinstance(ph, OneSidedPhase):
            rec = yield from _run_onesided(spec, pidx, ph, mpi)
        elif isinstance(ph, ComputePhase):
            yield from mpi.compute(ph.seconds[rank])
            rec = {"kind": "compute"}
        records.append(rec)
    done[rank] = True


# ---------------------------------------------------------------------
# running and diffing
# ---------------------------------------------------------------------

def run_spec(spec: WorkloadSpec, design: str,
             tie_seed: Optional[int] = None,
             faults: Optional[FaultPlan] = None,
             until: Optional[float] = None) -> Observation:
    """Interpret ``spec`` on ``design`` and return the observation."""
    spec.validate()
    obs = Observation(design=design, tie_seed=tie_seed,
                      faults=faults.to_dict() if faults else None)
    ch_cfg = (ChannelConfig(**spec.ch_cfg) if spec.ch_cfg
              else ChannelConfig())
    world = build_world(spec.nranks, design, ch_cfg=ch_cfg,
                        faults=faults, tie_seed=tie_seed)
    # upgrade the world's deadlock diagnosis with the message tracer:
    # vector clocks + last-causal-message per wait-for edge.  The
    # tracer wrappers are pure bookkeeping (no yields), so the check
    # harness's schedules are unchanged.
    DeadlockDetector.attach(world, with_tracer=True)
    records = [[] for _ in range(spec.nranks)]
    violations: List[str] = []
    done = [False] * spec.nranks
    for ctx in world.contexts:
        world.cluster.spawn(
            _rank_program(spec, ctx, records[ctx.rank], violations,
                          done),
            f"check.rank{ctx.rank}")
    try:
        world.cluster.run(spec.time_cap if until is None else until)
    except Exception as exc:  # DeadlockError, crashed rank, ...
        cause = exc.__cause__
        if cause is None:
            cause = exc.__context__
        obs.error = f"{type(exc).__name__}: {exc}"
        if cause is not None:
            obs.error += f" (from {type(cause).__name__}: {cause})"
    obs.elapsed = world.sim.now
    obs.ranks = records
    obs.violations = violations
    if obs.error is None and not all(done):
        obs.hang = True
        obs.unfinished = tuple(r for r, d in enumerate(done) if not d)
    return obs


def differential(spec: WorkloadSpec,
                 designs: Iterable[str] = DEFAULT_DESIGNS,
                 tie_seeds: Sequence[Optional[int]] = (None,),
                 fault_plans: Sequence[Optional[FaultPlan]] = (None,),
                 ) -> Report:
    """Run ``spec`` across the whole (design, tie_seed, fault plan)
    matrix; every run is checked against the expected model and all
    runs are cross-compared."""
    observations: List[Observation] = []
    failures: List[str] = []
    for design in designs:
        for tie_seed in tie_seeds:
            for plan in fault_plans:
                obs = run_spec(spec, design, tie_seed=tie_seed,
                               faults=plan)
                observations.append(obs)
                failures.extend(
                    f"{f} ({obs.label()})"
                    for f in oracle.check(spec, obs))
    failures.extend(oracle.compare(observations))
    return Report(spec=spec, observations=observations,
                  failures=failures)
