"""The conformance oracle: what every design must deliver.

Two layers of checking:

1. **Expected model** — every payload in a spec is a deterministic
   function of (spec, phase index, message index), so the oracle can
   compute, in plain numpy, exactly what each rank must observe:
   per-source delivery streams for p2p, result digests for
   collectives/datatypes, post-epoch window contents for one-sided.
   :func:`check` compares one run's observation against this model.

2. **Cross-design diff** — :func:`compare` checks that every design's
   canonical observation is identical.  This is a second net behind
   the model (it also catches oracle bugs: a wrong expectation fails
   against *all* designs at once, which reads very differently from
   one design diverging).

Wildcard nondeterminism is handled by canonicalization, not by
bitwise comparison of receive slots: deliveries are grouped into
per-source streams.  MPI's non-overtaking rule fixes the order
*within* one (source, context) stream no matter how the schedule
interleaves sources, so the per-source projection is invariant across
designs and tie-break seeds, while the raw slot -> message assignment
legitimately varies.  Matching-rules violations (a delivery that does
not satisfy its receive's (source, tag) descriptor) are recorded
live by the interpreter and surfaced here.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

import numpy as np

from .spec import (CollectivePhase, ComputePhase, DatatypePhase,
                   OneSidedPhase, P2PPhase, WorkloadSpec)

__all__ = ["digest", "payload_bytes", "payload_f64", "msg_key",
           "win_key", "coll_array", "expected_ranks", "check",
           "compare", "canonical_json", "observation_digest"]


# ---------------------------------------------------------------------
# deterministic data
# ---------------------------------------------------------------------

def digest(data) -> str:
    """Short stable digest of a byte payload."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.blake2b(bytes(data), digest_size=8).hexdigest()


def msg_key(phase_idx: int, msg_idx: int) -> int:
    return phase_idx * 100003 + msg_idx * 7919 + 13


def win_key(phase_idx: int, rank: int) -> int:
    return phase_idx * 100003 + 50021 + rank * 101


def payload_bytes(nbytes: int, key: int) -> np.ndarray:
    """The canonical uint8 payload for one message."""
    idx = np.arange(nbytes, dtype=np.uint64)
    mixed = idx * np.uint64(2654435761) + np.uint64(key * 40503 + 9973)
    return ((mixed >> np.uint64(7)) & np.uint64(0xFF)).astype(np.uint8)


def payload_f64(n: int, key: int) -> np.ndarray:
    """Integer-valued float64 payload (exact under any summation
    order), used for one-sided and datatype traffic."""
    vals = (np.arange(n, dtype=np.int64) * 31 + key) % 1021
    return vals.astype(np.float64)


def coll_array(phase_idx: int, rank: int, count: int) -> np.ndarray:
    """Per-rank collective contribution: small exact integers."""
    vals = (np.arange(count, dtype=np.int64) + rank * 7
            + phase_idx * 3) % 97
    return vals.astype(np.float64)


# ---------------------------------------------------------------------
# the expected model
# ---------------------------------------------------------------------

def _expected_p2p(spec: WorkloadSpec, pidx: int, ph: P2PPhase,
                  rank: int) -> dict:
    # canonical form: one FIFO stream per (source, tag) class, in
    # send order.  That is exactly the ordering MPI guarantees to be
    # observable: matching is FIFO within a class, while the
    # interleaving *across* classes depends on posting order and
    # wildcards and legitimately varies between designs/schedules.
    by_stream: Dict[str, list] = {}
    for i, m in enumerate(ph.messages):
        if m.dst != rank:
            continue
        d = digest(payload_bytes(m.size, msg_key(pidx, i)))
        by_stream.setdefault(f"{m.src}:{m.tag}", []).append(
            [m.size, d])
    return {"kind": "p2p", "by_stream": by_stream}


def _expected_collective(spec: WorkloadSpec, pidx: int,
                         ph: CollectivePhase, rank: int) -> dict:
    n, c = spec.nranks, ph.count
    contrib = [coll_array(pidx, r, c) for r in range(n)]
    out: Optional[np.ndarray] = None
    if ph.op == "barrier":
        out = None
    elif ph.op == "bcast":
        out = contrib[ph.root]
    elif ph.op == "reduce":
        out = sum(contrib) if rank == ph.root else None
    elif ph.op == "allreduce":
        out = sum(contrib)
    elif ph.op == "gather":
        out = np.concatenate(contrib) if rank == ph.root else None
    elif ph.op == "scatter":
        root_buf = coll_array(pidx, ph.root, c * n)
        out = root_buf[rank * c:(rank + 1) * c]
    elif ph.op == "allgather":
        out = np.concatenate(contrib)
    elif ph.op == "alltoall":
        blocks = [coll_array(pidx, r, c * n)[rank * c:(rank + 1) * c]
                  for r in range(n)]
        out = np.concatenate(blocks)
    elif ph.op == "scan":
        out = sum(contrib[:rank + 1])
    d = None if out is None else digest(np.asarray(out, np.float64))
    return {"kind": "collective", "op": ph.op, "digest": d}


def _vector_layout(ph: DatatypePhase):
    from ..mpi.derived import DOUBLE, Datatype
    return Datatype.vector(ph.blocks, ph.blocklength, ph.stride, DOUBLE)


def _expected_datatype(spec: WorkloadSpec, pidx: int, ph: DatatypePhase,
                       rank: int) -> dict:
    if rank != ph.dst:
        return {"kind": "datatype", "digest": None}
    t = _vector_layout(ph)
    span = t.span(ph.count)
    src = payload_bytes(span, msg_key(pidx, 0))
    dst = np.zeros(span, dtype=np.uint8)
    for i in range(ph.count):
        base = i * t.extent
        for b in t.blocks:
            dst[base + b.offset:base + b.offset + b.length] = \
                src[base + b.offset:base + b.offset + b.length]
    return {"kind": "datatype", "digest": digest(dst)}


def _expected_onesided(spec: WorkloadSpec, pidx: int, ph: OneSidedPhase,
                       rank: int) -> dict:
    n, slot = spec.nranks, ph.slot
    words = slot // 8
    # post-epoch-one window contents of every rank, as float64 words
    windows = [payload_f64(words * n, win_key(pidx, r)).copy()
               for r in range(n)]
    for op in ph.ops:
        if op.op == "put":
            windows[op.target][op.origin * words:(op.origin + 1) * words] = \
                payload_f64(words, msg_key(pidx, op.origin * n + op.target))
        elif op.op == "acc":
            windows[op.target][op.origin * words:(op.origin + 1) * words] += \
                payload_f64(words, msg_key(pidx, op.origin * n + op.target))
    gets = []
    for op in ph.ops:
        if op.op == "get" and op.origin == rank:
            got = windows[op.target][op.slice * words:(op.slice + 1) * words]
            gets.append([op.target, op.slice, digest(got)])
    return {"kind": "onesided", "window": digest(windows[rank]),
            "gets": gets}


def expected_ranks(spec: WorkloadSpec) -> List[List[dict]]:
    """The canonical per-rank, per-phase records every conforming run
    must produce."""
    out = []
    for rank in range(spec.nranks):
        recs = []
        for pidx, ph in enumerate(spec.phases):
            if isinstance(ph, P2PPhase):
                recs.append(_expected_p2p(spec, pidx, ph, rank))
            elif isinstance(ph, CollectivePhase):
                recs.append(_expected_collective(spec, pidx, ph, rank))
            elif isinstance(ph, DatatypePhase):
                recs.append(_expected_datatype(spec, pidx, ph, rank))
            elif isinstance(ph, OneSidedPhase):
                recs.append(_expected_onesided(spec, pidx, ph, rank))
            elif isinstance(ph, ComputePhase):
                recs.append({"kind": "compute"})
        out.append(recs)
    return out


# ---------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def observation_digest(obs) -> str:
    """Bit-for-bit fingerprint of one run: canonical records plus the
    exact simulated elapsed time."""
    body = canonical_json({"ranks": obs.ranks,
                           "elapsed": repr(obs.elapsed),
                           "violations": obs.violations})
    return hashlib.blake2b(body.encode(), digest_size=12).hexdigest()


def check(spec: WorkloadSpec, obs) -> List[str]:
    """Compare one observation against the expected model.  Returns a
    list of human-readable failure strings (empty == conforming)."""
    who = f"[{obs.design}]"
    failures: List[str] = []
    if obs.error is not None:
        failures.append(f"{who} run error: {obs.error}")
        return failures
    if obs.hang:
        failures.append(f"{who} hang: ranks {obs.unfinished} "
                        f"unfinished at t={obs.elapsed:g}s cap")
        return failures
    failures.extend(f"{who} {v}" for v in obs.violations)
    want = expected_ranks(spec)
    for r, (w, g) in enumerate(zip(want, obs.ranks)):
        if w != g:
            for p, (wp, gp) in enumerate(zip(w, g)):
                if wp != gp:
                    failures.append(
                        f"{who} rank {r} phase {p} diverges from "
                        f"expected model:\n  want {canonical_json(wp)}"
                        f"\n  got  {canonical_json(gp)}")
            if len(g) != len(w):
                failures.append(f"{who} rank {r}: {len(g)} phase "
                                f"records, expected {len(w)}")
    return failures


def compare(observations: Sequence) -> List[str]:
    """Cross-design diff: every successful observation must carry
    identical canonical records."""
    ok = [o for o in observations if o.error is None and not o.hang]
    if len(ok) < 2:
        return []
    ref = ok[0]
    failures: List[str] = []
    for other in ok[1:]:
        if other.ranks == ref.ranks:
            continue
        for r, (a, b) in enumerate(zip(ref.ranks, other.ranks)):
            for p, (ap, bp) in enumerate(zip(a, b)):
                if ap != bp:
                    failures.append(
                        f"[{ref.design} vs {other.design}] rank {r} "
                        f"phase {p}:\n  {ref.design}: "
                        f"{canonical_json(ap)}\n  {other.design}: "
                        f"{canonical_json(bp)}")
    return failures
