"""Tests for the memory-bus / memcpy cost model."""

import pytest

from repro.config import KB, MB, HardwareConfig
from repro.hw.membus import MEMCPY_CALL_OVERHEAD, MemBus
from repro.hw.memory import NodeMemory
from repro.sim.engine import Simulator
from repro.sim.fluid import FluidNetwork


def make(cfg=None):
    sim = Simulator()
    net = FluidNetwork(sim)
    cfg = cfg or HardwareConfig()
    bus = MemBus(sim, net, cfg, node_id=0)
    mem = NodeMemory(0)
    return sim, net, cfg, bus, mem


class TestMemcpy:
    def test_moves_the_bytes(self):
        sim, net, cfg, bus, mem = make()
        a = mem.alloc(64)
        b = mem.alloc(64)
        mem.write(a, bytes(range(64)))

        def prog():
            yield from bus.memcpy(mem, b, a, 64)

        sim.spawn(prog())
        sim.run()
        assert mem.read(b, 64) == bytes(range(64))

    def test_cached_copy_bandwidth(self):
        """A 64 KB copy (working set 128 KB < L2) must run at
        membus_bandwidth / 2 = 800 MB/s."""
        sim, net, cfg, bus, mem = make()
        n = 64 * KB
        a, b = mem.alloc(n), mem.alloc(n)

        def prog():
            yield from bus.memcpy(mem, b, a, n)
            return sim.now

        p = sim.spawn(prog())
        sim.run()
        expected = MEMCPY_CALL_OVERHEAD + n * 2 / cfg.membus_bandwidth
        assert p.value == pytest.approx(expected, rel=1e-9)
        assert n / (p.value - MEMCPY_CALL_OVERHEAD) == pytest.approx(
            800 * MB, rel=1e-6)

    def test_uncached_copy_is_slower(self):
        """Beyond-L2 working sets pay the 3x bus cost -> ~533 MB/s,
        matching the paper's 'memory copy bandwidth is less than
        800 MB/s for large messages'."""
        sim, net, cfg, bus, mem = make()
        n = 1 * MB
        a, b = mem.alloc(n), mem.alloc(n)

        def prog():
            yield from bus.memcpy(mem, b, a, n, working_set=2 * n)
            return sim.now

        p = sim.spawn(prog())
        sim.run()
        bw = n / (p.value - MEMCPY_CALL_OVERHEAD)
        assert bw == pytest.approx(cfg.membus_bandwidth / 3, rel=1e-6)
        assert bw < 800 * MB

    def test_explicit_working_set_overrides_default(self):
        """A 16 KB chunk of a 1 MB message copies at the *uncached*
        rate even though the chunk itself fits in cache."""
        sim, net, cfg, bus, mem = make()
        n = 16 * KB
        a, b = mem.alloc(n), mem.alloc(n)
        durations = {}

        def prog(tag, ws):
            t0 = sim.now
            yield from bus.memcpy(mem, b, a, n, working_set=ws)
            durations[tag] = sim.now - t0

        sim.spawn(prog("small_ws", 2 * n))
        sim.run()
        sim2, net2, cfg2, bus2, mem2 = make()
        a2, b2 = mem2.alloc(n), mem2.alloc(n)

        def prog2():
            t0 = sim2.now
            yield from bus2.memcpy(mem2, b2, a2, n, working_set=1 * MB)
            durations["big_ws"] = sim2.now - t0

        sim2.spawn(prog2())
        sim2.run()
        assert durations["big_ws"] > durations["small_ws"]

    def test_zero_length_copy_costs_only_call_overhead(self):
        sim, net, cfg, bus, mem = make()
        a = mem.alloc(4)

        def prog():
            yield from bus.memcpy(mem, a, a, 0)
            return sim.now

        p = sim.spawn(prog())
        sim.run()
        assert p.value == pytest.approx(MEMCPY_CALL_OVERHEAD)

    def test_negative_length_rejected(self):
        sim, net, cfg, bus, mem = make()
        a = mem.alloc(4)

        def prog():
            yield from bus.memcpy(mem, a, a, -1)

        sim.spawn(prog())
        with pytest.raises(Exception):
            sim.run()

    def test_two_concurrent_copies_share_the_bus(self):
        sim, net, cfg, bus, mem = make()
        n = 160 * KB
        bufs = [mem.alloc(n) for _ in range(4)]
        done = []

        def prog(dst, src):
            yield from bus.memcpy(mem, dst, src, n, working_set=n)
            done.append(sim.now)

        sim.spawn(prog(bufs[0], bufs[1]))
        sim.spawn(prog(bufs[2], bufs[3]))
        sim.run()
        solo = n * 2 / cfg.membus_bandwidth
        # concurrent copies each take ~2x the solo time
        assert done[0] == pytest.approx(
            MEMCPY_CALL_OVERHEAD + 2 * solo, rel=1e-3)

    def test_bytes_copied_stat(self):
        sim, net, cfg, bus, mem = make()
        a, b = mem.alloc(100), mem.alloc(100)

        def prog():
            yield from bus.memcpy(mem, b, a, 100)

        sim.spawn(prog())
        sim.run()
        assert bus.bytes_copied == 100

