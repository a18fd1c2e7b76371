"""RDMA shadow-memory sanitizer: each violation class, lax mode,
env-gated installation, and the no-perturbation guarantee."""

import os

import pytest

from repro.analysis.shadow import (ShadowFabric, ShadowViolation,
                                   install_shadow, last_shadow)
from repro.cluster import build_cluster
from repro.ib.types import Access


def make_shadow(nnodes=2, strict=True):
    cluster = build_cluster(nnodes)
    shadow = install_shadow(cluster, strict=strict)
    return cluster, shadow


class TestViolationClasses:
    def test_use_after_deregister(self):
        cluster, shadow = make_shadow()
        node = cluster.nodes[0]
        buf = node.alloc(4096)
        mr = node.hca.pd.register(buf.addr, 4096)
        rkey = mr.rkey
        node.hca.pd.deregister(mr)
        with pytest.raises(ShadowViolation) as exc:
            shadow.on_remote_access(node.hca, rkey, buf.addr, 64,
                                    "read")
        assert exc.value.kind == "use-after-deregister"

    def test_live_rkey_passes(self):
        cluster, shadow = make_shadow()
        node = cluster.nodes[0]
        buf = node.alloc(4096)
        mr = node.hca.pd.register(buf.addr, 4096)
        shadow.on_remote_access(node.hca, mr.rkey, buf.addr, 64,
                                "read")
        assert shadow.violations == []

    def test_out_of_bounds_unmapped(self):
        cluster, shadow = make_shadow()
        node = cluster.nodes[0]
        with pytest.raises(ShadowViolation) as exc:
            shadow.on_rdma_write(node.hca, 0x7, 64, qpn=1)
        assert exc.value.kind == "out-of-bounds"

    def test_out_of_bounds_no_live_registration(self):
        cluster, shadow = make_shadow()
        node = cluster.nodes[0]
        buf = node.alloc(4096)
        mr = node.hca.pd.register(buf.addr, 4096)
        node.hca.pd.deregister(mr)
        with pytest.raises(ShadowViolation) as exc:
            shadow.on_rdma_write(node.hca, buf.addr, 64, qpn=1)
        assert exc.value.kind == "out-of-bounds"

    def test_write_race_same_timestamp(self):
        cluster, shadow = make_shadow()
        node = cluster.nodes[0]
        buf = node.alloc(4096)
        node.hca.pd.register(buf.addr, 4096)
        shadow.on_rdma_write(node.hca, buf.addr, 64, qpn=1)
        with pytest.raises(ShadowViolation) as exc:
            shadow.on_rdma_write(node.hca, buf.addr + 32, 64, qpn=2)
        assert exc.value.kind == "write-race"

    def test_same_qp_rewrites_are_ordered(self):
        cluster, shadow = make_shadow()
        node = cluster.nodes[0]
        buf = node.alloc(4096)
        node.hca.pd.register(buf.addr, 4096)
        shadow.on_rdma_write(node.hca, buf.addr, 64, qpn=1)
        shadow.on_rdma_write(node.hca, buf.addr, 64, qpn=1)
        assert shadow.violations == []

    def test_read_before_write(self):
        cluster, shadow = make_shadow()
        node = cluster.nodes[0]
        buf = node.alloc(4096)
        node.hca.pd.register(buf.addr, 4096)
        with pytest.raises(ShadowViolation) as exc:
            shadow.on_ring_consume(node.hca, buf.addr, 17)
        assert exc.value.kind == "read-before-write"

    def test_consume_after_placement_passes(self):
        cluster, shadow = make_shadow()
        node = cluster.nodes[0]
        buf = node.alloc(4096)
        node.hca.pd.register(buf.addr, 4096)
        shadow.on_rdma_write(node.hca, buf.addr, 17, qpn=1)
        shadow.on_ring_consume(node.hca, buf.addr, 17)
        assert shadow.violations == []


class TestModes:
    def test_lax_mode_records_without_raising(self):
        cluster, shadow = make_shadow(strict=False)
        node = cluster.nodes[0]
        shadow.on_rdma_write(node.hca, 0x7, 64, qpn=1)
        assert len(shadow.violations) == 1
        assert shadow.violations[0].kind == "out-of-bounds"
        assert "out-of-bounds" in shadow.report()

    def test_clean_report(self):
        _cluster, shadow = make_shadow()
        assert shadow.report() == "shadow: no violations"

    def test_install_records_last(self):
        _cluster, shadow = make_shadow()
        assert last_shadow() is shadow

    def test_env_gate_installs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHADOW", "1")
        cluster = build_cluster(1)
        assert cluster.shadow is not None
        assert cluster.nodes[0].hca.shadow is cluster.shadow
        assert cluster.nodes[0].hca.pd.shadow is cluster.shadow

    def test_env_unset_installs_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHADOW", raising=False)
        cluster = build_cluster(1)
        assert cluster.shadow is None
        assert cluster.nodes[0].hca.shadow is None


class TestFabricIntegration:
    def test_read_of_deregistered_mr_caught_end_to_end(self,
                                                       monkeypatch):
        """§5's bug through the real verbs path: the target MR is
        deregistered while the peer's RDMA read is in flight."""
        monkeypatch.setenv("REPRO_SHADOW", "1")
        cluster = build_cluster(2)
        qp_a, qp_b = cluster.connect_pair(0, 1)
        na, nb = cluster.nodes
        ctx_a, ctx_b = na.vapi(), nb.vapi()
        src = nb.alloc(4096)
        dst = na.alloc(4096)
        outcome = {}

        def reader():
            dst_mr = yield from ctx_a.reg_mr(dst.addr, 4096)
            src_mr = yield from ctx_b.reg_mr(src.addr, 4096,
                                             Access.all_access())
            rkey = src_mr.rkey
            # the bug: owner drops the registration before the read
            yield from ctx_b.dereg_mr(src_mr)
            yield from ctx_a.rdma_read(
                qp_a, [(dst.addr, 4096, dst_mr.lkey)],
                src.addr, rkey)
            yield from ctx_a.wait_cq(qp_a.send_cq)
            outcome["done"] = True

        cluster.spawn(reader(), "reader")
        with pytest.raises(Exception) as exc:
            cluster.run()
        assert "ShadowViolation" in repr(exc.getrepr()) or \
            "use-after-deregister" in str(exc.value)
        assert any(v.kind == "use-after-deregister"
                   for v in cluster.shadow.violations)

    def test_shadow_does_not_perturb_clean_run(self, monkeypatch):
        """Bit-for-bit: the sanitizer never yields, so a clean
        workload observes identical timing and deliveries."""
        from repro.check.differ import run_spec
        from repro.check.mutations import _stream_spec, _zcopy_spec

        for spec, design in ((_stream_spec(), "pipeline"),
                             (_zcopy_spec(), "zerocopy")):
            monkeypatch.delenv("REPRO_SHADOW", raising=False)
            plain = run_spec(spec, design)
            monkeypatch.setenv("REPRO_SHADOW", "1")
            shadowed = run_spec(spec, design)
            assert plain.error is None and shadowed.error is None
            assert plain.elapsed == shadowed.elapsed
            assert plain.ranks == shadowed.ranks
            assert last_shadow().violations == []
