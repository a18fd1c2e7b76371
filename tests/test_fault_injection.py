"""Deterministic fault injection: RC retransmission, retry exhaustion,
corruption detection, link-down schedules, HCA error injection, the
channel-level zero-copy fallbacks, and the no-fault bit-for-bit
regression guard."""

import pytest

from helpers import get_all, make_channel_pair, put_all, run_procs
from repro.bench.micro import _bandwidth, _pingpong
from repro.cluster import build_cluster
from repro.config import US
from repro.faults import FaultPlan, FaultState, LinkFaults
from repro.ib.types import QPError, RegistrationError, WcStatus
from repro.mpi.runner import run_mpi, run_world
from repro.mpich2.adi3 import MpiError


def _pattern(nbytes: int, salt: int = 0) -> bytes:
    return bytes((i * 31 + salt) % 256 for i in range(nbytes))


def _write_exchange(plan, nbytes=4096, nmsgs=8):
    """Verbs-level fixture: node 0 RDMA-writes ``nmsgs`` messages of
    ``nbytes`` into node 1, waiting for each completion.  Returns
    (statuses, delivered_ok, elapsed, fault_stats, cluster)."""
    cluster = build_cluster(2, faults=plan)
    qa, _qb = cluster.connect_pair(0, 1)
    na, nb = cluster.nodes[0], cluster.nodes[1]
    src = na.alloc(nbytes)
    dst = nb.alloc(nbytes)
    data = _pattern(nbytes)
    src.write(data)
    mra = na.hca.pd.register(src.addr, nbytes)
    mrb = nb.hca.pd.register(dst.addr, nbytes)
    ctx = na.vapi()
    statuses = []

    def prog():
        for _ in range(nmsgs):
            wr = yield from ctx.rdma_write(
                qa, [(src.addr, nbytes, mra.lkey)], dst.addr, mrb.rkey)
            cqe = yield from ctx.wait_wr(qa.send_cq, wr)
            statuses.append(cqe.status)

    cluster.spawn(prog(), "writer")
    cluster.run()
    ok = bytes(dst.read()) == data
    return statuses, ok, cluster.sim.now, cluster.faults.stats, cluster


class TestFaultPlan:
    def test_empty_plan_is_inert(self):
        assert not FaultState().enabled
        assert not FaultState(FaultPlan()).enabled
        assert not FaultPlan().transport_enabled

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            LinkFaults(drop_rate=1.5)
        with pytest.raises(ValueError):
            LinkFaults(drop_rate=0.7, corrupt_rate=0.7)
        with pytest.raises(ValueError):
            LinkFaults(down=((5.0, 1.0),))


class TestRcRecovery:
    def test_retransmission_delivers_same_bytes(self):
        _, _, t_clean, _, _ = _write_exchange(None)
        plan = FaultPlan(seed=3, default_link=LinkFaults(drop_rate=0.3))
        statuses, ok, t_faulty, stats, _ = _write_exchange(plan)
        assert all(s is WcStatus.SUCCESS for s in statuses)
        assert ok
        assert stats.retransmissions > 0
        assert t_faulty > t_clean  # retries consume virtual time

    def test_retry_exhaustion_posts_error_cqe(self):
        plan = FaultPlan(seed=1, default_link=LinkFaults(drop_rate=1.0))
        cluster = build_cluster(2, faults=plan)
        qa, _qb = cluster.connect_pair(0, 1)
        na, nb = cluster.nodes[0], cluster.nodes[1]
        src = na.alloc(64)
        dst = nb.alloc(64)
        mra = na.hca.pd.register(src.addr, 64)
        mrb = nb.hca.pd.register(dst.addr, 64)
        ctx = na.vapi()
        statuses = []

        def prog():
            # queue both before the first exhausts its retries
            for _ in range(2):
                yield from ctx.rdma_write(
                    qa, [(src.addr, 64, mra.lkey)], dst.addr, mrb.rkey)
            for _ in range(2):
                cqe = yield from ctx.wait_cq(qa.send_cq)
                statuses.append(cqe.status)

        cluster.spawn(prog(), "writer")
        cluster.run()
        # first WQE exhausts its retries; the queued one is flushed
        assert statuses[0] is WcStatus.RETRY_EXC_ERR
        assert statuses[1] is WcStatus.WR_FLUSH_ERR
        assert cluster.faults.stats.retry_exhaustions == 1

    def test_error_state_refuses_new_posts(self):
        plan = FaultPlan(seed=1, default_link=LinkFaults(drop_rate=1.0))
        cluster = build_cluster(2, faults=plan)
        qa, _qb = cluster.connect_pair(0, 1)
        na, nb = cluster.nodes[0], cluster.nodes[1]
        src = na.alloc(64)
        dst = nb.alloc(64)
        mra = na.hca.pd.register(src.addr, 64)
        mrb = nb.hca.pd.register(dst.addr, 64)
        ctx = na.vapi()
        seen = []

        def prog():
            wr = yield from ctx.rdma_write(
                qa, [(src.addr, 64, mra.lkey)], dst.addr, mrb.rkey)
            cqe = yield from ctx.wait_wr(qa.send_cq, wr)
            seen.append(cqe.status)
            try:
                yield from ctx.rdma_write(
                    qa, [(src.addr, 64, mra.lkey)], dst.addr, mrb.rkey)
            except QPError:
                seen.append("refused")

        cluster.spawn(prog(), "p")
        cluster.run()
        assert seen == [WcStatus.RETRY_EXC_ERR, "refused"]

    def test_corruption_detected_and_recovered(self):
        plan = FaultPlan(seed=5,
                         default_link=LinkFaults(corrupt_rate=0.4))
        statuses, ok, _, stats, _ = _write_exchange(plan)
        assert all(s is WcStatus.SUCCESS for s in statuses)
        assert ok  # corrupted packets were detected and retransmitted
        assert stats.crc_detected > 0
        assert stats.corrupted >= stats.crc_detected

    def test_delay_injection_is_slower_but_lossless(self):
        _, _, t_clean, _, _ = _write_exchange(None)
        plan = FaultPlan(seed=9, default_link=LinkFaults(
            delay_rate=0.8, delay_time=30 * US))
        statuses, ok, t_slow, stats, _ = _write_exchange(plan)
        assert all(s is WcStatus.SUCCESS for s in statuses)
        assert ok
        assert stats.delayed > 0
        assert t_slow > t_clean

    def test_link_down_window_recovers(self):
        plan = FaultPlan(default_link=LinkFaults(
            down=((0.0, 200 * US),)))
        statuses, ok, elapsed, stats, _ = _write_exchange(
            plan, nbytes=256, nmsgs=1)
        assert statuses == [WcStatus.SUCCESS]
        assert ok
        assert stats.link_down_drops >= 2  # several attempts eaten
        assert elapsed > 200 * US  # had to outlive the outage

    def test_rdma_read_under_drops(self):
        plan = FaultPlan(seed=17, default_link=LinkFaults(drop_rate=0.3))
        cluster = build_cluster(2, faults=plan)
        qa, _qb = cluster.connect_pair(0, 1)
        na, nb = cluster.nodes[0], cluster.nodes[1]
        remote = nb.alloc(4096)
        local = na.alloc(4096)
        data = _pattern(4096, salt=7)
        remote.write(data)
        mra = na.hca.pd.register(local.addr, 4096)
        mrb = nb.hca.pd.register(remote.addr, 4096)
        ctx = na.vapi()
        seen = []

        def prog():
            for _ in range(6):
                wr = yield from ctx.rdma_read(
                    qa, [(local.addr, 4096, mra.lkey)],
                    remote.addr, mrb.rkey)
                cqe = yield from ctx.wait_wr(qa.send_cq, wr)
                seen.append(cqe.status)

        cluster.spawn(prog(), "reader")
        cluster.run()
        assert all(s is WcStatus.SUCCESS for s in seen)
        assert bytes(local.read()) == data
        assert cluster.faults.stats.retransmissions > 0

    def test_fetch_add_applies_exactly_once(self):
        """Dropped acks must not double-apply the RMW: the responder
        caches the old value per PSN and replays it."""
        plan = FaultPlan(seed=23, default_link=LinkFaults(drop_rate=0.3))
        cluster = build_cluster(2, faults=plan)
        qa, _qb = cluster.connect_pair(0, 1)
        na, nb = cluster.nodes[0], cluster.nodes[1]
        counter = nb.alloc(8)
        counter.write(b"\x00" * 8)
        result = na.alloc(8)
        mra = na.hca.pd.register(result.addr, 8)
        mrb = nb.hca.pd.register(counter.addr, 8)
        ctx = na.vapi()
        olds = []

        def prog():
            import struct
            for _ in range(10):
                wr = yield from ctx.fetch_add(
                    qa, result.addr, mra.lkey, counter.addr, mrb.rkey, 1)
                cqe = yield from ctx.wait_wr(qa.send_cq, wr)
                assert cqe.status is WcStatus.SUCCESS
                olds.append(struct.unpack("<q", bytes(result.read()))[0])

        cluster.spawn(prog(), "atomics")
        cluster.run()
        import struct
        final = struct.unpack("<q", bytes(counter.read()))[0]
        assert final == 10  # exactly once despite drops
        assert olds == list(range(10))  # strictly serialized

    def test_determinism_same_seed_same_run(self):
        plan = FaultPlan(seed=42, default_link=LinkFaults(
            drop_rate=0.2, corrupt_rate=0.1, delay_rate=0.1))
        s1, ok1, t1, st1, _ = _write_exchange(plan)
        s2, ok2, t2, st2, _ = _write_exchange(plan)
        assert ok1 and ok2
        assert s1 == s2
        assert t1 == t2
        assert st1.snapshot() == st2.snapshot()


class TestHcaInjection:
    def test_wc_error_injection_observable_via_verbs(self):
        plan = FaultPlan(wc_errors={0: (1,)})
        cluster = build_cluster(2, faults=plan)
        qa, _qb = cluster.connect_pair(0, 1)
        na, nb = cluster.nodes[0], cluster.nodes[1]
        src = na.alloc(64)
        dst = nb.alloc(64)
        mra = na.hca.pd.register(src.addr, 64)
        mrb = nb.hca.pd.register(dst.addr, 64)
        ctx = na.vapi()
        statuses = []

        def prog():
            for _ in range(3):  # post all before the HCA chokes
                yield from ctx.rdma_write(
                    qa, [(src.addr, 64, mra.lkey)], dst.addr, mrb.rkey)
            for _ in range(3):
                cqe = yield from ctx.wait_cq(qa.send_cq)
                statuses.append(cqe.status)

        cluster.spawn(prog(), "writer")
        cluster.run()
        # CQE order between the engine and the delivery path is not
        # guaranteed; the multiset is: one success, one injected
        # error, one flush of the WQE queued behind it.
        assert len(statuses) == 3
        assert set(statuses) == {WcStatus.SUCCESS,
                                 WcStatus.RETRY_EXC_ERR,
                                 WcStatus.WR_FLUSH_ERR}
        assert cluster.faults.stats.wc_errors == 1

    def test_reg_failure_first_n_then_recovers(self):
        plan = FaultPlan(reg_failures={0: 1})
        cluster = build_cluster(1, faults=plan)
        node = cluster.nodes[0]
        buf = node.alloc(4096)
        ctx = node.vapi()
        out = []

        def prog():
            try:
                yield from ctx.reg_mr(buf.addr, 4096)
                out.append("registered")
            except RegistrationError:
                out.append("refused")
            mr = yield from ctx.reg_mr(buf.addr, 4096)
            out.append("registered" if mr is not None else "?")

        cluster.spawn(prog(), "p")
        cluster.run()
        assert out == ["refused", "registered"]
        assert cluster.faults.stats.reg_failures == 1


def _stream(design, plan, sizes=(300, 70000, 1234)):
    """Channel-level fixture: rank 0 streams each size as one iov
    element; rank 1 receives into matching buffers."""
    cluster, ch0, ch1, c01, c10 = make_channel_pair(design, faults=plan)
    data = [_pattern(n, salt=i) for i, n in enumerate(sizes)]
    srcs, dsts = [], []
    for d in data:
        b = ch0.node.alloc(len(d))
        b.write(d)
        srcs.append(b)
        dsts.append(ch1.node.alloc(len(d)))

    def tx():
        for b in srcs:
            yield from put_all(cluster, ch0, c01, [b])

    def rx():
        for b in dsts:
            yield from get_all(cluster, ch1, c10, [b])

    run_procs(cluster, tx(), rx())
    ok = all(bytes(dst.read()) == d for dst, d in zip(dsts, data))
    return ok, cluster, ch0, ch1


class TestZeroCopyFallback:
    def test_sender_registration_failure_falls_back_to_ring(self):
        ok, cluster, ch0, ch1 = _stream(
            "zerocopy", FaultPlan(reg_failures={0: 1}))
        assert ok
        assert ch0.zc_fallbacks == 1
        # the large element travelled through the ring, not RDMA read
        assert cluster.nodes[1].hca.stats.rdma_reads == 0

    def test_receiver_registration_failure_naks_the_rts(self):
        ok, cluster, ch0, ch1 = _stream(
            "zerocopy", FaultPlan(reg_failures={1: 1}))
        assert ok
        assert ch1.zc_nak_sent == 1
        assert ch0.zc_fallbacks == 1  # sender downgraded on NAK
        assert cluster.nodes[1].hca.stats.rdma_reads == 0

    def test_zerocopy_still_used_after_fallback(self):
        """Only the failed element is suppressed; later large elements
        go zero-copy again."""
        ok, cluster, ch0, _ = _stream(
            "zerocopy", FaultPlan(reg_failures={0: 1}),
            sizes=(70000, 70000))
        assert ok
        assert ch0.zc_fallbacks == 1
        assert cluster.nodes[1].hca.stats.rdma_reads > 0


class TestMpiErrorSurfacing:
    def test_dead_link_raises_mpi_error_not_hang(self):
        """Both directions down for the whole run: every rank gets an
        MpiError (retry exhaustion surfaced through CH3), not a hang."""
        plan = FaultPlan(default_link=LinkFaults(down=((0.0, 1e9),)))

        def prog(mpi):
            buf = mpi.alloc(1024)
            try:
                yield from mpi.Send(buf, dest=1 - mpi.rank, tag=0)
                yield from mpi.Recv(buf, source=1 - mpi.rank, tag=0)
                return "ok"
            except MpiError as exc:
                return f"mpi-error: {exc}"

        results, _ = run_mpi(2, prog, design="piggyback", faults=plan)
        assert all(r.startswith("mpi-error:") for r in results)
        assert all("failed" in r for r in results)

    @staticmethod
    def _rndv(mpi):
        """A blocking 40 KB rendezvous, then a barrier over the same
        connection."""
        buf = mpi.alloc(40 * 1024)
        buf.write(bytes(range(256)) * 160)
        out = "ok"
        try:
            if mpi.rank == 0:
                yield from mpi.Send(buf, dest=1, tag=0)
            else:
                yield from mpi.Recv(buf, source=0, tag=0)
        except MpiError as exc:
            out = f"mpi-error: {exc}"
        yield from mpi.Barrier()
        return out

    @pytest.mark.parametrize("failing", [0, 1])
    @pytest.mark.parametrize("design", ["ch3", "adaptive"])
    def test_rendezvous_registration_failure_raises_mpi_error(
            self, design, failing):
        """Rank 1 refuses before its CTS, rank 0 on receiving it; the
        refusing rank's NAK fails the peer's request too, so both
        blocking calls raise and the barrier still completes."""
        plan = FaultPlan(reg_failures={failing: 1})
        results, world = run_world(2, self._rndv, design=design,
                                   faults=plan)
        assert results[failing].startswith("mpi-error:")
        assert "could not register its buffer" in results[failing]
        assert results[1 - failing].startswith("mpi-error:")
        assert "could not register its side" in results[1 - failing]
        assert world.cluster.faults.stats.reg_failures == 1
        for dev in world.devices:
            assert not dev.rndv_sends and not dev.rndv_recvs

    @pytest.mark.parametrize("failing", [0, 1])
    def test_zero_copy_registration_failure_still_delivers(self, failing):
        def prog(mpi):
            buf = mpi.alloc(40 * 1024)
            if mpi.rank == 0:
                buf.write(bytes(range(256)) * 160)
                yield from mpi.Send(buf, dest=1, tag=0)
            else:
                yield from mpi.Recv(buf, source=0, tag=0)
            return bytes(buf.read())

        results, _ = run_mpi(2, prog, design="zerocopy",
                             faults=FaultPlan(reg_failures={failing: 1}))
        assert results[1] == bytes(range(256)) * 160


class TestNoFaultRegressionGuard:
    """With an empty FaultPlan every benchmark number is preserved
    bit-for-bit (exact float equality, not approx)."""

    @pytest.mark.parametrize("size", [4, 1024, 16384])
    def test_fig4_latency_series_unchanged(self, size):
        r0, t0 = run_mpi(2, _pingpong, design="basic",
                         args=(size, 10, 2))
        r1, t1 = run_mpi(2, _pingpong, design="basic",
                         faults=FaultPlan(), args=(size, 10, 2))
        assert r0[0] == r1[0]
        assert t0 == t1

    @pytest.mark.parametrize("design", ["pipeline", "zerocopy"])
    @pytest.mark.parametrize("size", [65536, 262144])
    def test_fig11_bandwidth_series_unchanged(self, design, size):
        r0, t0 = run_mpi(2, _bandwidth, design=design,
                         args=(size, 4, 2, 1))
        r1, t1 = run_mpi(2, _bandwidth, design=design,
                         faults=FaultPlan(), args=(size, 4, 2, 1))
        assert r0[0] == r1[0]
        assert t0 == t1
