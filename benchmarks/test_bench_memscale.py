"""Memory-footprint benchmark: connection state vs world size.

The paper's eager designs pin a receive ring and create a QP pair for
every rank pair during init — per-rank footprint grows linearly with
the world, aggregate footprint quadratically.  The connection-scaling
designs exist to flatten that curve:

* ``srq`` replaces per-peer rings with one shared receive pool per
  rank (pinned receive memory sized by traffic, not peer count);
* ``srq-lazy`` additionally creates connections on first use, so a
  nearest-neighbour world materializes O(N) connections, not O(N²).

This suite measures three deterministic simulated quantities —
``pinned_bytes_per_rank``, ``live_qps``, ``connections`` — for the
eager all-to-all baseline (world *built* only; the mesh exists before
any rank runs) and for a 512-rank nearest-neighbour ring actually run
on ``srq-lazy``.  The headline assertions:

* the lazy ring establishes exactly N connections (O(N), not O(N²));
* its pinned bytes per rank are <= 1/8 of the eager all-to-all
  baseline at the same world size;
* pinned bytes per rank stay flat (within 2x) from 256 to 512 ranks.

All values are simulated bookkeeping, bit-for-bit reproducible, so
the committed baseline (``benchmarks/baselines/BENCH_memscale.json``)
gates every entry at rtol=0.15 — any structural regression (a design
quietly re-pinning per-peer buffers, lazy connect reverting to the
init-time mesh) trips it.
"""

import pytest

from repro.mpi.runner import build_world, run_world

NRANKS = 512

#: how much smaller the lazy ring's per-rank pinned footprint must be
#: vs the eager all-to-all baseline (the ISSUE's acceptance floor)
PINNED_RATIO_FLOOR = 8

#: 4 KB halo per neighbour exchange
RING_BYTES = 4096


def _pattern(n, salt=0):
    return bytes((i * 131 + salt * 17 + 3) % 256 for i in range(n))


def _ring(mpi):
    """Pure point-to-point neighbour exchange (no collectives: they
    would connect the recursive-doubling pairs too)."""
    n = mpi.size
    right, left = (mpi.rank + 1) % n, (mpi.rank - 1) % n
    me = _pattern(RING_BYTES, salt=mpi.rank % 251)
    if mpi.rank % 2 == 0:
        yield from mpi.send(me, dest=right, tag=1)
        data, _ = yield from mpi.recv(source=left, tag=1)
    else:
        data, _ = yield from mpi.recv(source=left, tag=1)
        yield from mpi.send(me, dest=right, tag=1)
    assert bytes(data) == _pattern(RING_BYTES, salt=left % 251)
    return mpi.rank


def _record(rec, label, nranks, cluster, connections):
    rec.add(label, "pinned_bytes_per_rank", nranks,
            cluster.pinned_bytes() / nranks)
    rec.add(label, "live_qps", nranks, cluster.live_qps())
    rec.add(label, "connections", nranks, connections)


@pytest.fixture(scope="module")
def footprints(bench_recorder):
    """Measure once, assert many: build the eager baseline, run the
    lazy rings, record every entry."""
    out = {}

    # eager all-to-all baseline: the full mesh is wired during world
    # construction, so building it is the whole measurement
    world = build_world(NRANKS, "basic")
    out["basic"] = (world.cluster.pinned_bytes() / NRANKS,
                    world.connection_count(),
                    world.cluster.live_qps())
    _record(bench_recorder, "basic-mesh", NRANKS, world.cluster,
            world.connection_count())
    del world

    for nranks in (256, NRANKS):
        res, world = run_world(nranks, _ring, design="srq-lazy")
        assert res == list(range(nranks))
        out[f"lazy{nranks}"] = (world.cluster.pinned_bytes() / nranks,
                                world.connection_count(),
                                world.cluster.live_qps())
        _record(bench_recorder, "srq-lazy-ring", nranks,
                world.cluster, world.connection_count())
        del world
    return out


def test_eager_mesh_is_quadratic(footprints):
    _, conns, _ = footprints["basic"]
    assert conns == NRANKS * (NRANKS - 1) // 2


def test_lazy_ring_materializes_linear_connections(footprints):
    _, conns, _ = footprints[f"lazy{NRANKS}"]
    assert conns == NRANKS


def test_lazy_pinned_bytes_per_rank_floor(footprints):
    """The ISSUE acceptance bar: pinned/rank on the 512-rank lazy ring
    <= 1/8 of the eager all-to-all baseline."""
    basic_ppr = footprints["basic"][0]
    lazy_ppr = footprints[f"lazy{NRANKS}"][0]
    assert lazy_ppr * PINNED_RATIO_FLOOR <= basic_ppr, (
        f"pinned/rank {lazy_ppr:.0f} vs baseline {basic_ppr:.0f}: "
        f"less than {PINNED_RATIO_FLOOR}x apart")


def test_lazy_pinned_bytes_per_rank_flat(footprints):
    """Per-rank footprint must not grow with the world: 512 ranks stay
    within 2x of 256 (it is ~flat; 2x leaves room for log-sized
    bookkeeping)."""
    ppr256 = footprints["lazy256"][0]
    ppr512 = footprints[f"lazy{NRANKS}"][0]
    assert ppr512 <= 2 * ppr256


def test_lazy_qps_are_linear(footprints):
    """Two QPs (one per side) per established connection, nothing
    hidden: live QPs track connections, not rank pairs."""
    _, conns, qps = footprints[f"lazy{NRANKS}"]
    assert qps == 2 * conns


def test_regression_gate(bench_recorder):
    """Must run last in this file: gates everything measured above."""
    # three labels x three metrics (one label measured at two sizes)
    assert len(bench_recorder.entries) == 9
    problems = bench_recorder.gate(rtol=0.15)
    if problems is None:
        pytest.skip("no committed memscale baseline yet")
    assert not problems, "\n".join(problems)
