"""Adaptive controller tests: determinism, hysteresis/convergence,
the golden protocol choices for the paper's 32 KB–256 KB band, and
where the controller runs (every adaptive build, no static one)."""

import pytest

from repro.bench.micro import _bandwidth, _pingpong
from repro.config import ChannelConfig, HardwareConfig
from repro.mpi.runner import build_world, run_mpi
from repro.tune import (NULL_TUNER, PROTO_READ, PROTO_WRITE,
                        THRESHOLD_OFF, AdaptiveController)
from repro.tune.controller import CQ_POLL_BUDGET, SAMPLE_EVERY

from helpers import make_channel_pair


def _run_bandwidth(design, size):
    """Windowed-bandwidth world; returns (MB/s-ish value, world)."""
    world = build_world(2, design)
    procs = [world.cluster.spawn(_bandwidth(ctx, size, 16, 4, 1),
                                 f"rank{ctx.rank}")
             for ctx in world.contexts]
    world.cluster.run()
    return procs[0].value, world


def _run_pingpong(design, size):
    world = build_world(2, design)
    procs = [world.cluster.spawn(_pingpong(ctx, size, 40, 8),
                                 f"rank{ctx.rank}")
             for ctx in world.contexts]
    world.cluster.run()
    return procs[0].value, world


class TestOffIsIdentical:
    """The controller runs wherever ``adaptive`` is built — a world or
    a bare channel pair — and nowhere else: static designs carry the
    no-op tuner, so their timings never depend on it."""

    @pytest.mark.parametrize("design", ["zerocopy", "ch3", "pipeline"])
    def test_elapsed_identical(self, design):
        """Static devices only *feed* their tuner, and the feeds are
        pure bookkeeping: a live controller observing a static design
        leaves every timing bit-for-bit untouched."""
        base, t_base = run_mpi(2, _bandwidth, design=design,
                               args=(32768, 8, 2, 1))
        world = build_world(2, design)
        for dev in world.devices:
            dev.tuner = dev.channel.tuner = AdaptiveController(
                rank=dev.rank, hw=dev.cfg, ch_cfg=dev.channel.ch_cfg)
        procs = [world.cluster.spawn(_bandwidth(ctx, 32768, 8, 2, 1),
                                     f"rank{ctx.rank}")
                 for ctx in world.contexts]
        world.cluster.run()
        assert procs[0].value == base[0]
        assert world.sim.now == t_base
        # the controllers did see the traffic
        assert all(dev.tuner._h_sizes.count for dev in world.devices)

    def test_off_channel_uses_null_tuner(self):
        for design in ("zerocopy", "ch3", "pipeline", "srq"):
            world = build_world(2, design)
            assert world.devices[0].channel.tuner is NULL_TUNER

    def test_adaptive_default_tuner_on(self):
        world = build_world(2, "adaptive")
        for dev in world.devices:
            assert isinstance(dev.channel.tuner, AdaptiveController)
            assert dev.tuner is dev.channel.tuner

    def test_adaptive_channel_pair_is_tuned(self):
        """The test helper builds the same adaptive channel a world
        does: controller attached, read path disarmed, fast path on."""
        _cluster, ch0, ch1, c01, c10 = make_channel_pair("adaptive")
        for ch, conn in ((ch0, c01), (ch1, c10)):
            assert isinstance(ch.tuner, AdaptiveController)
            assert conn.zc_threshold == THRESHOLD_OFF
            assert conn.zc_fastpath


class TestNullTuner:
    def test_queries_return_defaults(self):
        assert NULL_TUNER.rndv_threshold(1, 32768) == 32768
        assert NULL_TUNER.cq_budget(1) == 1
        assert NULL_TUNER.protocol(1) == PROTO_WRITE
        assert not NULL_TUNER.enabled
        # hooks are no-ops
        NULL_TUNER.on_send(1, 100, depth=5, rndv=True)
        NULL_TUNER.on_recv(1, 100)
        NULL_TUNER.on_credit_stall(1)
        NULL_TUNER.attach(1, None)


def _controller():
    return AdaptiveController(rank=0, hw=HardwareConfig(),
                              ch_cfg=ChannelConfig())


class TestHysteresis:
    def test_one_window_spike_does_not_move_crossover(self):
        """A crossover move needs two consecutive windows agreeing on
        the direction: the first window only records a pending move,
        the second confirming one applies a single pow2 step."""
        c = _controller()
        start = c.crossover(1)
        # one window of very large messages (pushes the target up)...
        for _ in range(SAMPLE_EVERY):
            c.on_send(1, 1 << 20, depth=4, rndv=True)
        assert c.crossover(1) == start          # pending, not applied
        assert c.decisions == []
        # ...the second confirming window moves exactly one step
        for _ in range(SAMPLE_EVERY):
            c.on_send(1, 1 << 20, depth=4, rndv=True)
        assert c.crossover(1) == start * 2

    def test_crossover_moves_one_pow2_step_per_window(self):
        c = _controller()
        seen = [c.crossover(1)]
        for _w in range(8):
            for _ in range(SAMPLE_EVERY):
                c.on_send(1, 1 << 20, depth=4, rndv=True)
            seen.append(c.crossover(1))
        for prev, cur in zip(seen, seen[1:]):
            assert cur in (prev, prev * 2, prev // 2)

    def test_crossover_converges_and_stays(self):
        """A steady workload drives the crossover to a fixed point the
        controller then never leaves."""
        c = _controller()
        for _w in range(12):
            for _ in range(SAMPLE_EVERY):
                c.on_send(1, 65536, depth=4, rndv=True)
        settled = c.crossover(1)
        n_decisions = len(c.decisions)
        for _w in range(12):
            for _ in range(SAMPLE_EVERY):
                c.on_send(1, 65536, depth=4, rndv=True)
        assert c.crossover(1) == settled
        assert len(c.decisions) == n_decisions

    def test_protocol_needs_two_confirming_windows(self):
        c = _controller()
        assert c.protocol(1) == PROTO_WRITE
        # one latency-looking window: pending, not switched
        for _ in range(SAMPLE_EVERY):
            c.on_send(1, 65536, depth=0, rndv=True)
        assert c.protocol(1) == PROTO_WRITE
        # second consecutive window: switch to READ
        for _ in range(SAMPLE_EVERY):
            c.on_send(1, 65536, depth=0, rndv=True)
        assert c.protocol(1) == PROTO_READ
        # rndv_threshold now reports the read-path sentinel
        assert c.rndv_threshold(1, 32768) == THRESHOLD_OFF


class TestDeterminism:
    def test_decision_log_reproducible(self):
        """Same workload -> byte-identical decision stream, both ranks."""
        logs = []
        for _ in range(2):
            _bw, world = _run_bandwidth("adaptive", 32768)
            logs.append([world.devices[r].channel.tuner.decisions
                         for r in range(2)])
        assert logs[0] == logs[1]

    def test_elapsed_reproducible(self):
        a, wa = _run_bandwidth("adaptive", 65536)
        b, wb = _run_bandwidth("adaptive", 65536)
        assert a == b
        assert wa.sim.now == wb.sim.now


class TestGoldenProtocolBand:
    """The paper's Fig. 14/15 band: streaming 32 KB–256 KB must pin the
    rendezvous RDMA-write protocol; ping-pong must flip to RDMA read."""

    @pytest.mark.parametrize("size", [32768, 131072, 262144])
    def test_streaming_pins_write(self, size):
        _bw, world = _run_bandwidth("adaptive", size)
        tuner = world.devices[0].channel.tuner
        assert tuner.protocol(1) == PROTO_WRITE
        # the sender never even flipped away from WRITE mid-run
        flips = [d for d in tuner.decisions
                 if d[2] == "protocol" and d[4] == PROTO_READ]
        assert flips == []

    @pytest.mark.parametrize("size", [32768, 262144])
    def test_pingpong_flips_to_read(self, size):
        _lat, world = _run_pingpong("adaptive", size)
        tuner = world.devices[0].channel.tuner
        assert tuner.protocol(1) == PROTO_READ
        # and the channel-level read path is armed on the connection
        conn = world.devices[0].channel.conns[1]
        assert conn.zc_threshold < THRESHOLD_OFF

    def test_streaming_receiver_stays_fastpath(self):
        """The rank that only acks a stream must not arm the zero-copy
        machinery (it would pay the §5 check for nothing)."""
        _bw, world = _run_bandwidth("adaptive", 32768)
        conn = world.devices[1].channel.conns[0]
        assert conn.zc_fastpath
        assert conn.zc_threshold == THRESHOLD_OFF


class TestCqBudget:
    def test_budget_comes_from_config(self):
        """The batched drain's budget is the controller's own constant,
        whatever default the device offers."""
        assert _controller().cq_budget(1) == CQ_POLL_BUDGET == 8
