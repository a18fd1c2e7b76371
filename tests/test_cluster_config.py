"""Cluster assembly, configuration validation, and fabric routing."""

import dataclasses

import pytest

from repro.cluster import build_cluster
from repro.config import KB, MB, ChannelConfig, HardwareConfig


class TestHardwareConfig:
    def test_defaults_are_immutable(self):
        cfg = HardwareConfig()
        with pytest.raises(Exception):
            cfg.link_bandwidth = 1

    def test_replace_derives_variant(self):
        cfg = HardwareConfig()
        fast = dataclasses.replace(cfg, membus_bandwidth=3200 * MB)
        assert fast.membus_bandwidth == 3200 * MB
        assert cfg.membus_bandwidth == 1600 * MB
        assert fast.link_bandwidth == cfg.link_bandwidth

    def test_memcpy_cost_cache_boundary(self):
        cfg = HardwareConfig()
        assert cfg.memcpy_cost_per_byte(cfg.l2_cache_size) == \
            cfg.memcpy_cost_cached
        assert cfg.memcpy_cost_per_byte(cfg.l2_cache_size + 1) == \
            cfg.memcpy_cost_uncached

    def test_registration_cost_monotone(self):
        cfg = HardwareConfig()
        costs = [cfg.registration_cost(n)
                 for n in (1, 4096, 65536, 1 << 20)]
        assert costs == sorted(costs)
        assert costs[0] >= cfg.reg_base_cost


class TestChannelConfig:
    def test_ring_must_be_chunk_multiple(self):
        with pytest.raises(ValueError):
            ChannelConfig(ring_size=100 * KB, chunk_size=16 * KB)

    def test_chunk_minimum(self):
        with pytest.raises(ValueError):
            ChannelConfig(ring_size=1024, chunk_size=128)

    def test_tail_fraction_bounds(self):
        with pytest.raises(ValueError):
            ChannelConfig(tail_update_fraction=0.0)
        with pytest.raises(ValueError):
            ChannelConfig(tail_update_fraction=1.0)

    def test_replace(self):
        ch = ChannelConfig()
        ch2 = dataclasses.replace(ch, chunk_size=8 * KB,
                                  ring_size=64 * KB)
        assert ch2.chunk_size == 8 * KB
        assert ch.chunk_size == 16 * KB


class TestCluster:
    def test_build_sizes(self):
        cluster = build_cluster(4)
        assert len(cluster) == 4
        assert len(cluster.nodes) == 4
        assert cluster.fabric.nodes == [0, 1, 2, 3]

    def test_at_least_one_node(self):
        with pytest.raises(ValueError):
            build_cluster(0)

    def test_nodes_have_independent_memory(self):
        cluster = build_cluster(2)
        a = cluster.nodes[0].alloc(16)
        b = cluster.nodes[1].alloc(16)
        a.write(b"A" * 16)
        b.write(b"B" * 16)
        assert a.read() != b.read()

    def test_fabric_path_shape(self):
        cluster = build_cluster(3)
        path = cluster.fabric.path(0, 2)
        assert len(path) == 2  # uplink + downlink
        assert cluster.fabric.path(1, 1) == []  # loopback
        assert cluster.fabric.latency(1, 1) == 0.0
        assert cluster.fabric.latency(0, 2) > 0

    def test_fabric_unknown_node(self):
        cluster = build_cluster(2)
        with pytest.raises(KeyError):
            cluster.fabric.path(0, 9)

    def test_double_attach_rejected(self):
        cluster = build_cluster(2)
        with pytest.raises(ValueError):
            cluster.fabric.attach(0)


class TestRunnerOptions:
    def test_unknown_design_rejected(self):
        from repro.mpi import run_mpi
        with pytest.raises(ValueError):
            run_mpi(2, lambda mpi: iter(()), design="warp-drive")

    def test_multiple_ranks_per_node(self):
        from repro.mpi import run_mpi

        def prog(mpi):
            yield from mpi.Barrier()
            return mpi.device.node.node_id

        results, _ = run_mpi(4, prog, design="zerocopy", nnodes=2)
        assert sorted(results) == [0, 0, 1, 1]

    def test_custom_hardware_config_changes_results(self):
        from repro.bench.micro import mpi_latency_us
        from repro.config import US
        slow = dataclasses.replace(HardwareConfig(), wire_latency=5 * US)
        base = mpi_latency_us(4, "piggyback", iters=20)
        slowed = mpi_latency_us(4, "piggyback", cfg=slow, iters=20)
        assert slowed > base + 4.0  # ~+4.55us extra one-way wire

    def test_world_stats_aggregate(self):
        from repro.mpi.runner import build_world
        world = build_world(2, "piggyback")

        def prog(mpi):
            yield from mpi.send(b"x" * 100, dest=1 - mpi.rank,
                                tag=mpi.rank)
            yield from mpi.recv(source=1 - mpi.rank, tag=1 - mpi.rank)

        procs = [world.cluster.spawn(prog(c), f"r{c.rank}")
                 for c in world.contexts]
        world.cluster.run()
        stats = world.stats()
        assert stats["rdma_writes"] >= 2
        assert stats["bytes_written"] > 200
