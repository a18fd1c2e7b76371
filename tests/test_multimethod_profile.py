"""Multi-method channel, and the counters a finished world exposes."""

from repro.config import KB
from repro.mpi import run_mpi, run_world


def _exchange(mpi, n=16 * KB, rounds=5):
    partner = mpi.rank ^ (mpi.size // 2)
    sbuf = mpi.alloc(n)
    rbuf = mpi.alloc(n)
    sbuf.view()[:] = mpi.rank + 1
    for _ in range(rounds):
        yield from mpi.Sendrecv(sbuf, partner, rbuf, partner)
    return int(rbuf.view()[0])


def _world(nranks, design, **kw):
    """Run the exchange; returns the finished world."""
    _results, world = run_world(nranks, _exchange, design=design, **kw)
    return world


def _rdma_ops(world):
    hca = world.stats()
    return hca["rdma_writes"] + hca["rdma_reads"]


def _cpu_copied(world):
    return sum(n.membus.bytes_copied for n in world.cluster.nodes)


class TestMultiMethod:
    def test_correctness_mixed_topology(self):
        def prog(mpi):
            v = yield from _exchange(mpi)
            total = yield from mpi.allreduce(v)
            return total

        results, _ = run_mpi(4, prog, design="multimethod", nnodes=2)
        # partner of r is r^2; received value = partner+1
        expected = sum((r ^ 2) + 1 for r in range(4))
        assert all(r == expected for r in results)

    def test_intra_node_pairs_use_no_rdma(self):
        """Two ranks on one node: all traffic via shared memory."""
        world = _world(2, "multimethod", nnodes=1)
        assert _rdma_ops(world) == 0
        assert _cpu_copied(world) > 0

    def test_inter_node_pairs_use_rdma(self):
        world = _world(2, "multimethod", nnodes=2)
        assert world.stats()["rdma_writes"] > 0

    def test_mixed_uses_fewer_rdma_ops_than_pure_network(self):
        mm = _world(4, "multimethod", nnodes=2)
        zc = _world(4, "zerocopy", nnodes=2)
        assert _rdma_ops(mm) < _rdma_ops(zc)

    def test_local_exchange_faster_than_network(self):
        mm = _world(2, "multimethod", nnodes=1)
        zc = _world(2, "zerocopy", nnodes=2)
        assert mm.sim.now < zc.sim.now

    def test_nas_kernel_over_multimethod(self):
        from repro.nas import KERNELS
        results, _ = run_mpi(4, KERNELS["cg"], design="multimethod",
                             nnodes=2, args=("T",))
        assert results[0].verified


class TestProfiler:
    """What the world's own counters explain about a run."""

    def test_breakdown_fields(self):
        world = _world(2, "zerocopy")
        elapsed = world.sim.now
        net = world.cluster.net
        node = world.cluster.nodes[0]
        assert elapsed > 0
        assert world.stats()["rdma_writes"] > 0
        assert 0 <= net.utilization(node.membus.bus, elapsed) <= 1
        assert 0 <= net.utilization(
            world.cluster.fabric.uplink(node.node_id), elapsed) <= 1
        busy = world.devices[0].channel.ctx.cpu.busy_time
        assert 0 < busy / elapsed <= 1

    def test_pipeline_copies_more_than_zerocopy(self):
        """The counters explain Fig. 11: for 64 KB messages the
        pipelined design moves the payload through CPU copies, the
        zero-copy design does not."""
        pipe = _world(2, "pipeline", args=(64 * KB,))
        zc = _world(2, "zerocopy", args=(64 * KB,))
        assert _cpu_copied(pipe) > 3 * _cpu_copied(zc)
        assert zc.stats()["rdma_reads"] > 0
        assert pipe.stats()["rdma_reads"] == 0

    def test_regcache_stats_surface(self):
        world = _world(2, "zerocopy", args=(64 * KB, 6))
        caches = [dev.channel.regcache for dev in world.devices]
        assert sum(rc.hits for rc in caches) > sum(rc.misses
                                                   for rc in caches)
