"""The design table: one row per runnable design name, read by the
runner, the conformance harness and the test helpers."""

import pytest

import repro.mpi
from repro.check import differential
from repro.check.spec import P2PMessage, P2PPhase, WorkloadSpec
from repro.cluster import build_cluster
from repro.config import ChannelConfig, HardwareConfig
from repro.mpi import build_world
from repro.mpich2.ch3_rdma import Ch3RdmaDevice
from repro.mpich2.channels import (AdaptiveChannel, BasicChannel,
                                   PipelineChannel, SrqChannel,
                                   ZeroCopyChannel)
from repro.mpich2.designs import DESIGNS, Design, design

EXPECTED = {"shm", "basic", "piggyback", "pipeline", "zerocopy", "ch3",
            "multimethod", "tcp", "adaptive", "srq", "mux", "srq-lazy"}


class TestRegistry:
    def test_all_designs_registered(self):
        assert set(DESIGNS) == EXPECTED
        # the MPI layer exposes the table itself, not a copy
        assert repro.mpi.DESIGNS is DESIGNS

    def test_lookup_returns_class(self):
        assert design("zerocopy").channel is ZeroCopyChannel
        assert design("basic").channel is BasicChannel
        assert design("adaptive").channel is AdaptiveChannel
        # rows that reuse a channel differ in what surrounds it
        assert design("ch3") == Design(PipelineChannel, Ch3RdmaDevice)
        assert design("srq-lazy") == Design(SrqChannel, lazy=True)

    def test_lookup_unknown_raises_with_valid_names(self):
        with pytest.raises(ValueError) as exc:
            design("vapi")
        msg = str(exc.value)
        assert "vapi" in msg
        # the error enumerates the valid choices
        assert "zerocopy" in msg and "srq-lazy" in msg

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            design("")
        with pytest.raises(ValueError):
            build_world(2, None)

    def test_new_design_enrolls_and_unregisters(self):
        """A row is all a design needs: an existing channel under a new
        name runs through build_world and the differential harness,
        and agrees with the design it copies."""
        DESIGNS["_test_design"] = Design(ZeroCopyChannel)
        try:
            world = build_world(2, "_test_design")
            assert isinstance(world.devices[0].channel, ZeroCopyChannel)
            spec = WorkloadSpec(seed=0, nranks=2, phases=(P2PPhase(
                messages=(P2PMessage(src=0, dst=1, tag=0, size=40000),
                          P2PMessage(src=1, dst=0, tag=1, size=100))),))
            report = differential(spec,
                                  designs=("_test_design", "zerocopy"))
            assert report.ok, report.failures
            mine, theirs = report.observations
            assert mine.elapsed == theirs.elapsed
        finally:
            del DESIGNS["_test_design"]
        with pytest.raises(ValueError):
            build_world(2, "_test_design")


class TestFactory:
    def test_create_builds_connected_channel(self):
        cfg = HardwareConfig()
        cluster = build_cluster(2, cfg)
        n0, n1 = cluster.nodes
        cls = design("zerocopy").channel
        ch0 = cls(rank=0, node=n0, ctx=n0.vapi(0), cfg=cfg,
                  ch_cfg=ChannelConfig())
        ch1 = cls(rank=1, node=n1, ctx=n1.vapi(0), cfg=cfg,
                  ch_cfg=ChannelConfig())
        cls.establish(ch0, ch1)
        assert ch0.rank == 0
        assert ch0.conns[1].peer_rank == 1 and ch1.conns[0].peer_rank == 0

    def test_create_defaults_configs(self):
        cluster = build_cluster(1, HardwareConfig())
        n0 = cluster.nodes[0]
        ch = design("basic").channel(rank=0, node=n0, ctx=n0.vapi(0))
        assert isinstance(ch, BasicChannel)
        assert ch.ch_cfg == ChannelConfig()

    def test_create_is_keyword_only(self):
        cluster = build_cluster(1, HardwareConfig())
        n0 = cluster.nodes[0]
        with pytest.raises(TypeError):
            design("basic").channel(0, n0, n0.vapi(0))
