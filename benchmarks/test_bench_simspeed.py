"""Simulator-speed benchmark: how fast the engine chews through a
large world, in *wall-clock* terms.

Every other benchmark in this directory reports simulated microseconds
— numbers that stay identical no matter how slow the simulator itself
is.  This suite is the opposite: it measures the simulator *as a
program*.  Two 512-rank workloads run on the rdma-write ("basic")
channel and report

* ``events_per_sec``   — engine callbacks executed per second of wall
  clock (``Simulator.events_processed`` over the build+run wall time);
* ``sim_bytes_per_sec`` — simulated payload bytes moved per second of
  wall clock;
* ``wall_s``            — the raw wall time;
* ``fluid_resolves_per_transfer`` — fluid allocation passes per
  transfer (``FluidNetwork.resolves / .transfers``, both recorded as
  counters): an exact, machine-independent count.

The committed baseline (``benchmarks/baselines/BENCH_simspeed.json``)
gates ``events_per_sec`` and ``fluid_resolves_per_transfer``, at
rtol=0.15.  The ``events_per_sec`` baselines are set to roughly half
of a warm development-machine measurement so the gate trips on
structural regressions (reverting the calendar queue, the once-per-
timestamp fluid re-solve, or the GC pause each costs 3-15x) rather
than on runner-to-runner hardware variance; the ratio is exact, so
its baseline is the measured value.  ``wall_s`` and
``sim_bytes_per_sec`` ride along in the artifact for trend-watching.
Each workload additionally asserts a generous absolute wall budget —
the "a 512-rank collective must finish in minutes, not hours"
backstop that holds even on a cold CI runner.
"""

import gc
import time

import numpy as np
import pytest

from repro.mpi import run_world

DESIGN = "basic"
NRANKS = 512

RING_BYTES = 4096
RING_ITERS = 2
ALLREDUCE_DOUBLES = 1024  # 8 KiB vectors

#: absolute wall ceilings (seconds) — ~4x a warm dev-machine run
RING_WALL_BUDGET_S = 180.0
ALLREDUCE_WALL_BUDGET_S = 360.0


def _ring(mpi):
    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    buf = mpi.alloc(RING_BYTES)
    buf.write(b"x" * RING_BYTES)
    msg = b""
    for _ in range(RING_ITERS):
        sreq = yield from mpi.isend(buf.read(), right, tag=7)
        msg, _st = yield from mpi.recv(source=left, tag=7)
        yield from mpi.Wait(sreq)
    return len(msg)


def _allreduce(mpi):
    send = mpi.alloc(ALLREDUCE_DOUBLES * 8)
    recv = mpi.alloc(ALLREDUCE_DOUBLES * 8)
    send.view().view(np.float64)[:] = float(mpi.rank)
    yield from mpi.COMM_WORLD.Allreduce(send, recv)
    return float(recv.view().view(np.float64)[0])


def _measure(prog):
    # reclaim any dead world from a previous measurement first: a
    # finished world is one big reference cycle, and collecting it
    # mid-run would be billed to this workload's wall
    gc.collect()
    t0 = time.perf_counter()
    results, world = run_world(NRANKS, prog, design=DESIGN)
    wall = time.perf_counter() - t0
    return results, world, wall


def _record(rec, workload, world, wall, payload_bytes):
    # the gate keys entries on (design, metric, size), so the channel
    # design and the workload are fused into the design label
    label = f"{DESIGN}-{workload}"
    ev = world.sim.events_processed
    rec.add(label, "events_per_sec", NRANKS, ev / wall,
            counters={"events": ev})
    rec.add(label, "sim_bytes_per_sec", NRANKS, payload_bytes / wall)
    rec.add(label, "wall_s", NRANKS, wall)
    net = world.cluster.net
    rec.add(label, "fluid_resolves_per_transfer", NRANKS,
            net.resolves / net.transfers,
            counters={"transfers": net.transfers,
                      "resolves": net.resolves})


def test_ring_512(bench_recorder):
    results, world, wall = _measure(_ring)
    assert results == [RING_BYTES] * NRANKS
    # every rank sends RING_BYTES payload per iteration
    payload = NRANKS * RING_ITERS * RING_BYTES
    _record(bench_recorder, "ring", world, wall, payload)
    assert wall < RING_WALL_BUDGET_S, (
        f"512-rank ring took {wall:.1f}s (budget "
        f"{RING_WALL_BUDGET_S:.0f}s)")


def test_allreduce_512(bench_recorder):
    results, world, wall = _measure(_allreduce)
    expect = float(sum(range(NRANKS)))
    assert results == [expect] * NRANKS
    # recursive doubling at a power-of-two size: log2(p) exchange
    # steps, each rank sending the full 8 KiB vector per step
    steps = NRANKS.bit_length() - 1
    payload = NRANKS * steps * ALLREDUCE_DOUBLES * 8
    _record(bench_recorder, "allreduce", world, wall, payload)
    assert wall < ALLREDUCE_WALL_BUDGET_S, (
        f"512-rank allreduce took {wall:.1f}s (budget "
        f"{ALLREDUCE_WALL_BUDGET_S:.0f}s)")


def test_regression_gate(bench_recorder):
    """Must run last in this file: gates everything measured above."""
    # two workloads x four metrics
    assert len(bench_recorder.entries) == 8
    problems = bench_recorder.gate(rtol=0.15)
    if problems is None:
        pytest.skip("no committed BENCH_simspeed.json baseline yet")
    assert not problems, "\n".join(problems)
