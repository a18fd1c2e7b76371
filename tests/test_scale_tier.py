"""Scale-regression tier: 128/256/512-rank worlds stay fast and
deterministic.

The calendar-queue engine, the vectorized fluid solver, the GC pause
and the allocation-friendly FIFO queues exist so that worlds two
orders of magnitude beyond the unit tests' 2-8 ranks are routinely
runnable.  This tier locks that down on the rdma-write ("basic")
channel with three workloads — a neighbour ring, a recursive-doubling
allreduce and a dissemination barrier — at 128, 256 and 512 ranks,
asserting for each:

* **digest stability** — two independently built worlds produce
  bit-for-bit the same run fingerprint (simulated end time to the
  last ulp, engine callback count, every rank's return value).  Any
  hidden nondeterminism at scale (iteration over an unordered set, an
  allocation-dependent tie-break) shows up here first;
* **a wall ceiling** — generous (~4x a warm development machine) so
  only structural regressions trip it, not runner variance.

Run with ``pytest -m scale`` (the CI scale job) or as part of the
slow tier; see docs/TESTING.md.
"""

import gc
import hashlib
import json
import time

import numpy as np
import pytest

from repro.mpi import run_world
from repro.mpi.runner import build_world

pytestmark = [pytest.mark.slow, pytest.mark.scale]

DESIGN = "basic"

RING_BYTES = 4096
RING_ITERS = 2
ALLREDUCE_DOUBLES = 256  # 2 KiB vectors


def _ring(mpi):
    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    buf = mpi.alloc(RING_BYTES)
    buf.write(bytes([mpi.rank % 251]) * RING_BYTES)
    msg = b""
    for _ in range(RING_ITERS):
        sreq = yield from mpi.isend(buf.read(), right, tag=7)
        msg, _st = yield from mpi.recv(source=left, tag=7)
        yield from mpi.Wait(sreq)
    # the payload delivered last came from the left neighbour
    return msg[0]


def _allreduce(mpi):
    send = mpi.alloc(ALLREDUCE_DOUBLES * 8)
    recv = mpi.alloc(ALLREDUCE_DOUBLES * 8)
    send.view().view(np.float64)[:] = float(mpi.rank)
    yield from mpi.COMM_WORLD.Allreduce(send, recv)
    return float(recv.view().view(np.float64)[-1])


def _barrier(mpi):
    yield from mpi.COMM_WORLD.Barrier()
    return mpi.rank


WORKLOADS = {"ring": _ring, "allreduce": _allreduce,
             "barrier": _barrier}

#: wall ceilings in seconds per (workload, nranks), covering world
#: construction plus the run
WALL_CEILING_S = {
    ("ring", 128): 20, ("ring", 256): 45, ("ring", 512): 160,
    ("allreduce", 128): 30, ("allreduce", 256): 80,
    ("allreduce", 512): 330,
    ("barrier", 128): 25, ("barrier", 256): 70,
    ("barrier", 512): 280,
}


def _expected(workload, nranks, results):
    if workload == "ring":
        assert results == [(r - 1) % nranks % 251
                           for r in range(nranks)]
    elif workload == "allreduce":
        assert results == [float(sum(range(nranks)))] * nranks
    else:
        assert results == list(range(nranks))


def _fingerprint(results, world):
    """Bit-for-bit run fingerprint: the exact simulated end time, the
    engine callback count and every rank's return value."""
    body = json.dumps({"now": repr(world.sim.now),
                       "events": world.sim.events_processed,
                       "results": results},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(body.encode(), digest_size=12).hexdigest()


@pytest.mark.parametrize("nranks", [128, 256, 512])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_scale(workload, nranks):
    prog = WORKLOADS[workload]
    ceiling = WALL_CEILING_S[(workload, nranks)]
    digests = []
    for attempt in range(2):
        # A finished world is one big reference cycle; left to the
        # next automatic collection it would be reclaimed *inside*
        # the following run's wall (tens of seconds for a dead
        # 512-rank world).  Dispose of prior worlds before starting
        # the clock so each attempt times the workload, not the
        # previous attempt's teardown.
        gc.collect()
        t0 = time.perf_counter()
        results, world = run_world(nranks, prog, design=DESIGN)
        wall = time.perf_counter() - t0
        _expected(workload, nranks, results)
        digests.append(_fingerprint(results, world))
        del results, world
        assert wall < ceiling, (
            f"{workload}@{nranks} run {attempt} took {wall:.1f}s "
            f"(ceiling {ceiling}s)")
    assert digests[0] == digests[1], (
        f"{workload}@{nranks} is nondeterministic across two "
        f"identically configured runs")


# ---------------------------------------------------------------------
# connection-scaling cells: the srq channel with on-demand connects
# ---------------------------------------------------------------------

#: the srq shared-pool channel with lazy connection establishment —
#: the combination whose footprint is supposed to stay flat at scale
SRQ_DESIGN = "srq-lazy"

#: wall ceilings (seconds) for the srq cells, build + two runs each
SRQ_WALL_CEILING_S = {
    ("ring", 256): 60, ("ring", 512): 200,
    ("allreduce", 256): 100, ("allreduce", 512): 400,
}


@pytest.mark.parametrize("nranks", [256, 512])
@pytest.mark.parametrize("workload", ["allreduce", "ring"])
def test_scale_srq(workload, nranks):
    """Same digest-stability + wall-ceiling contract as the basic
    cells, on the shared-pool channel with on-demand connections."""
    prog = WORKLOADS[workload]
    ceiling = SRQ_WALL_CEILING_S[(workload, nranks)]
    digests = []
    for attempt in range(2):
        gc.collect()
        t0 = time.perf_counter()
        results, world = run_world(nranks, prog,
                                   design=SRQ_DESIGN)
        wall = time.perf_counter() - t0
        _expected(workload, nranks, results)
        digests.append(_fingerprint(results, world))
        del results, world
        assert wall < ceiling, (
            f"srq {workload}@{nranks} run {attempt} took {wall:.1f}s "
            f"(ceiling {ceiling}s)")
    assert digests[0] == digests[1], (
        f"srq {workload}@{nranks} is nondeterministic across two "
        f"identically configured runs")


def test_scale_srq_pinned_bytes_per_rank_flat():
    """Doubling the world must not grow the per-rank pinned footprint
    of the lazy srq ring (within 2x: each rank still talks to exactly
    two neighbours) — while the eager all-to-all baseline's per-rank
    footprint keeps growing with the world (~linearly; >= 1.5x here)."""
    ppr = {}
    for nranks in (256, 512):
        gc.collect()
        results, world = run_world(nranks, WORKLOADS["ring"],
                                   design=SRQ_DESIGN)
        _expected("ring", nranks, results)
        assert world.connection_count() == nranks  # O(N), not O(N^2)
        ppr[nranks] = world.cluster.pinned_bytes() / nranks
        del results, world
    assert ppr[512] <= 2 * ppr[256], (
        f"srq-lazy pinned/rank grew {ppr[512] / ppr[256]:.2f}x "
        f"from 256 to 512 ranks")

    baseline = {}
    for nranks in (256, 512):
        gc.collect()
        world = build_world(nranks, "basic")
        baseline[nranks] = world.cluster.pinned_bytes() / nranks
        del world
    assert baseline[512] >= 1.5 * baseline[256], (
        "the eager mesh baseline stopped growing — the contrast this "
        "cell documents no longer holds")
    assert ppr[512] * 8 <= baseline[512]
