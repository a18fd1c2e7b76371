"""Tests for the max-min fair fluid-flow network, including
hypothesis property tests (conservation, fairness, monotonicity)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.fluid import FluidNetwork, FluidResource, Route


def make():
    sim = Simulator()
    return sim, FluidNetwork(sim)


class TestSingleFlow:
    def test_duration_is_bytes_over_capacity(self):
        sim, net = make()
        res = FluidResource("r", 100.0)

        def prog():
            yield net.transfer(1000, [(res, 1.0)])
            return sim.now

        p = sim.spawn(prog())
        sim.run()
        assert p.value == pytest.approx(10.0)

    def test_cost_per_byte_scales_duration(self):
        sim, net = make()
        res = FluidResource("r", 100.0)

        def prog():
            yield net.transfer(1000, [(res, 2.0)])
            return sim.now

        p = sim.spawn(prog())
        sim.run()
        assert p.value == pytest.approx(20.0)

    def test_multi_resource_bottleneck(self):
        sim, net = make()
        fast = FluidResource("fast", 1000.0)
        slow = FluidResource("slow", 10.0)

        def prog():
            yield net.transfer(100, [(fast, 1.0), (slow, 1.0)])
            return sim.now

        p = sim.spawn(prog())
        sim.run()
        assert p.value == pytest.approx(10.0)

    def test_zero_byte_transfer_completes_immediately(self):
        sim, net = make()
        res = FluidResource("r", 100.0)

        def prog():
            yield net.transfer(0, [(res, 1.0)])
            return sim.now

        p = sim.spawn(prog())
        sim.run()
        assert p.value == 0.0

    def test_validation(self):
        sim, net = make()
        res = FluidResource("r", 100.0)
        with pytest.raises(ValueError):
            net.transfer(-1, [(res, 1.0)])
        with pytest.raises(ValueError):
            net.transfer(10, [])
        with pytest.raises(ValueError):
            net.transfer(10, [(res, 0.0)])
        with pytest.raises(ValueError):
            FluidResource("bad", 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        """A NaN or inf capacity or cost would finish a transfer at
        t = 0 or never; NaN or inf bytes would never finish."""
        sim, net = make()
        res = FluidResource("r", 100.0)
        with pytest.raises(ValueError, match="capacity"):
            FluidResource("bad", bad)
        with pytest.raises(ValueError, match="nbytes"):
            net.transfer(bad, [(res, 1.0)])
        with pytest.raises(ValueError, match="cost_per_byte"):
            net.transfer(100, [(res, bad)])
        assert not net.active_flows and net.transfers == 0

    def test_world_with_nan_bandwidth_rejected(self):
        from repro.config import HardwareConfig
        from repro.mpi.runner import build_world
        with pytest.raises(ValueError, match="capacity"):
            build_world(2, "zerocopy",
                        cfg=HardwareConfig(membus_bandwidth=math.nan))


class TestSharing:
    def test_two_equal_flows_halve_rate(self):
        sim, net = make()
        res = FluidResource("r", 100.0)
        done = {}

        def prog(tag, nbytes):
            yield net.transfer(nbytes, [(res, 1.0)])
            done[tag] = sim.now

        sim.spawn(prog("a", 1000))
        sim.spawn(prog("b", 1000))
        sim.run()
        # both share 100 B/s -> each at 50 -> done at t=20
        assert done["a"] == pytest.approx(20.0)
        assert done["b"] == pytest.approx(20.0)

    def test_short_flow_finishes_then_long_speeds_up(self):
        sim, net = make()
        res = FluidResource("r", 100.0)
        done = {}

        def prog(tag, nbytes):
            yield net.transfer(nbytes, [(res, 1.0)])
            done[tag] = sim.now

        sim.spawn(prog("short", 500))
        sim.spawn(prog("long", 1500))
        sim.run()
        # Phase 1: both at 50 B/s until short finishes at t=10.
        # Phase 2: long alone at 100 B/s for remaining 1000 B -> t=20.
        assert done["short"] == pytest.approx(10.0)
        assert done["long"] == pytest.approx(20.0)

    def test_late_joiner_slows_existing_flow(self):
        sim, net = make()
        res = FluidResource("r", 100.0)
        done = {}

        def first():
            yield net.transfer(1000, [(res, 1.0)])
            done["first"] = sim.now

        def second():
            yield sim.timeout(5.0)
            yield net.transfer(250, [(res, 1.0)])
            done["second"] = sim.now

        sim.spawn(first())
        sim.spawn(second())
        sim.run()
        # t in [0,5): first alone at 100 -> 500 B done.
        # t in [5,10): both at 50 -> second's 250 B done at t=10;
        #              first has 500-250=250 B left.
        # t in [10,12.5): first alone at 100 -> done at 12.5.
        assert done["second"] == pytest.approx(10.0)
        assert done["first"] == pytest.approx(12.5)

    def test_memcpy_plus_dma_bus_contention(self):
        """The paper's §4.4 scenario: a copy (2 bus-bytes/byte) and a
        DMA (1 bus-byte/byte) share one bus -> each runs at cap/3."""
        sim, net = make()
        bus = FluidResource("bus", 1600.0)
        done = {}

        def copy():
            yield net.transfer(1600, [(bus, 2.0)])
            done["copy"] = sim.now

        def dma():
            yield net.transfer(1600, [(bus, 1.0)])
            done["dma"] = sim.now

        sim.spawn(copy())
        sim.spawn(dma())
        sim.run()
        # Max-min: both at 1600/3 payload rate while concurrent.
        # copy: slower effective completion because its cost is higher?
        # No: payload rates are equal (533.3); both have 1600 payload.
        # They finish together at t = 3.0.
        assert done["copy"] == pytest.approx(3.0)
        assert done["dma"] == pytest.approx(3.0)

    def test_max_min_unbottlenecked_flow_gets_leftover(self):
        sim, net = make()
        shared = FluidResource("shared", 100.0)
        private = FluidResource("private", 30.0)
        done = {}

        def constrained():
            # bottlenecked at 30 by its private resource
            yield net.transfer(300, [(shared, 1.0), (private, 1.0)])
            done["constrained"] = sim.now

        def free():
            # should get 100 - 30 = 70 on the shared resource
            yield net.transfer(700, [(shared, 1.0)])
            done["free"] = sim.now

        sim.spawn(constrained())
        sim.spawn(free())
        sim.run()
        assert done["constrained"] == pytest.approx(10.0)
        assert done["free"] == pytest.approx(10.0)

    def test_same_resource_twice_accumulates_cost(self):
        sim, net = make()
        bus = FluidResource("bus", 100.0)

        def prog():
            # loopback-style: in and out over the same bus
            yield net.transfer(100, [(bus, 1.0), (bus, 1.0)])
            return sim.now

        p = sim.spawn(prog())
        sim.run()
        assert p.value == pytest.approx(2.0)


class TestRoute:
    def test_digest(self):
        """Costs sum per resource, in first-appearance order."""
        a, b = FluidResource("a", 100.0), FluidResource("b", 50.0)
        route = Route([(a, 1.5), (b, 1), (a, 2.25)])
        assert route.entries == ((a, 1.5), (b, 1), (a, 2.25))
        assert route.pairs == [(a, 3.75), (b, 1.0)]
        assert route.scan == [(a.uid, 3.75, a), (b.uid, 1.0, b)]
        assert route.costs == {a.uid: 3.75, b.uid: 1.0}
        assert not route.int_costs
        assert Route([(a, 2), (b, 1.0)]).int_costs

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_cost_raises_at_construction(self, bad):
        res = FluidResource("r", 100.0)
        with pytest.raises(ValueError, match="cost_per_byte"):
            Route([(res, 1.0), (res, bad)])

    def test_empty_route_raises_at_construction(self):
        with pytest.raises(ValueError, match="at least one resource"):
            Route([])

    def test_flows_sharing_one_route_match_equal_lists(self):
        def run(shared):
            sim, net = make()
            bus = FluidResource("bus", 1e9)
            link = FluidResource("link", 3e8)
            entries = [(bus, 2.0), (link, 1.0), (bus, 1.0)]
            route = Route(entries)
            done, rates = [], []
            for nbytes in (1e5, 3e5):
                net.transfer(nbytes, route if shared else list(entries)
                             ).add_callback(lambda _e: done.append(sim.now))
                rates.append([f.rate for f in net.active_flows])
            sim.run()
            assert len(done) == 2
            return done, rates

        assert run(shared=True) == run(shared=False)


class TestStats:
    def test_busy_time(self):
        sim, net = make()
        res = FluidResource("r", 100.0)

        def prog():
            yield sim.timeout(5)
            yield net.transfer(1000, [(res, 1.0)])

        sim.spawn(prog())
        sim.run()
        assert res.busy_time == pytest.approx(10.0)
        assert net.utilization(res, sim.now) == pytest.approx(10.0 / 15.0)


class TestProperties:
    @given(sizes=st.lists(st.integers(1, 10**7), min_size=1, max_size=8),
           cap=st.floats(1.0, 1e9))
    @settings(max_examples=60, deadline=None)
    def test_conservation_single_resource(self, sizes, cap):
        """Total time == total bytes / capacity when one resource is
        saturated throughout (work conservation)."""
        sim, net = make()
        res = FluidResource("r", cap)

        def prog(n):
            yield net.transfer(n, [(res, 1.0)])

        for n in sizes:
            sim.spawn(prog(n))
        sim.run()
        assert sim.now == pytest.approx(sum(sizes) / cap, rel=1e-6)

    @given(sizes=st.lists(st.integers(1, 10**6), min_size=2, max_size=6),
           delays=st.lists(st.floats(0, 10), min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_completion_after_start_and_lower_bound(self, sizes, delays):
        """Every flow finishes no earlier than its solo transfer time."""
        sim, net = make()
        res = FluidResource("r", 1000.0)
        flows = []

        def prog(n, d):
            yield sim.timeout(d)
            start = sim.now
            yield net.transfer(n, [(res, 1.0)])
            flows.append((start, sim.now, n))

        k = min(len(sizes), len(delays))
        for n, d in zip(sizes[:k], delays[:k]):
            sim.spawn(prog(n, d))
        sim.run()
        assert len(flows) == k
        for start, end, n in flows:
            assert end >= start + n / 1000.0 - 1e-9

    @given(n1=st.integers(1, 10**6), n2=st.integers(1, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_two_simultaneous_flows_share_exactly(self, n1, n2):
        """With two flows starting together on one resource, the
        smaller finishes at 2*small/cap, and everything at
        (n1+n2)/cap."""
        sim, net = make()
        cap = 100.0
        res = FluidResource("r", cap)
        done = {}

        def prog(tag, n):
            yield net.transfer(n, [(res, 1.0)])
            done[tag] = sim.now

        sim.spawn(prog(1, n1))
        sim.spawn(prog(2, n2))
        sim.run()
        small = min(n1, n2)
        first = min(done.values())
        last = max(done.values())
        assert first == pytest.approx(2 * small / cap, rel=1e-6)
        assert last == pytest.approx((n1 + n2) / cap, rel=1e-6)


class TestFloatResolution:
    def test_tiny_remainder_at_large_timestamp_completes(self):
        """Regression: a flow whose residual transfer time is below
        the float resolution of a large timestamp must complete
        instead of spinning the wakeup loop at a frozen clock."""
        sim, net = make()
        res = FluidResource("r", 8e8)

        def prog():
            yield sim.timeout(95.0)  # large t => coarse float ULP
            # 96 bytes at 8e8 B/s = 120 ns; the final residue after
            # sharing-induced rate changes lands below ULP(95)
            flows = [net.transfer(96, [(res, 1.0)]) for _ in range(4)]
            for f in flows:
                yield f
            return sim.now

        p = sim.spawn(prog())
        sim.run()
        assert p.value >= 95.0
        assert sim.peek() == float("inf")

    def test_many_concurrent_small_flows_late(self):
        sim, net = make()
        res = FluidResource("r", 1.6e9)
        done = []

        def prog(i):
            yield sim.timeout(1000.0 + i * 1e-9)
            yield net.transfer(33, [(res, 2.0)])
            done.append(i)

        for i in range(8):
            sim.spawn(prog(i))
        sim.run()
        assert len(done) == 8
