"""Verb-layer odds and ends: CQ behaviour, error paths, stats."""

import pytest

from repro.cluster import build_cluster
from repro.ib.cq import CompletionQueue, CQOverflowError
from repro.ib.types import Completion, Opcode, WcStatus
from repro.sim.engine import Simulator


class TestCompletionQueue:
    def test_fifo_order(self):
        sim = Simulator()
        cq = CompletionQueue(sim)
        for i in range(5):
            cq.push(Completion(i, WcStatus.SUCCESS, Opcode.RDMA_WRITE))
        assert [cq.poll().wr_id for _ in range(5)] == list(range(5))
        assert cq.poll() is None

    def test_poll_many(self):
        sim = Simulator()
        cq = CompletionQueue(sim)
        for i in range(5):
            cq.push(Completion(i, WcStatus.SUCCESS, Opcode.RDMA_WRITE))
        batch = cq.poll_many(3)
        assert [c.wr_id for c in batch] == [0, 1, 2]
        assert len(cq) == 2

    def test_overflow(self):
        sim = Simulator()
        cq = CompletionQueue(sim, depth=2)
        cq.push(Completion(1, WcStatus.SUCCESS, Opcode.RDMA_WRITE))
        cq.push(Completion(2, WcStatus.SUCCESS, Opcode.RDMA_WRITE))
        with pytest.raises(CQOverflowError):
            cq.push(Completion(3, WcStatus.SUCCESS, Opcode.RDMA_WRITE))

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            CompletionQueue(Simulator(), depth=0)

    def test_timestamp_recorded(self):
        sim = Simulator()
        cq = CompletionQueue(sim)

        def prog():
            yield sim.timeout(1.5)
            cq.push(Completion(1, WcStatus.SUCCESS, Opcode.SEND))

        sim.spawn(prog())
        sim.run()
        assert cq.poll().timestamp == 1.5


class TestVerbsErrors:
    def test_wait_wr_mismatch_raises(self):
        cluster = build_cluster(2)
        qp, _ = cluster.connect_pair(0, 1)
        ctx0 = cluster.nodes[0].vapi()
        ctx1 = cluster.nodes[1].vapi()
        buf = cluster.nodes[0].alloc(8)
        rbuf = cluster.nodes[1].alloc(8)

        def prog():
            mr = yield from ctx0.reg_mr(buf.addr, 8)
            rmr = yield from ctx1.reg_mr(rbuf.addr, 8)
            wr1 = yield from ctx0.rdma_write(
                qp, [(buf.addr, 8, mr.lkey)], rbuf.addr, rmr.rkey)
            wr2 = yield from ctx0.rdma_write(
                qp, [(buf.addr, 8, mr.lkey)], rbuf.addr, rmr.rkey)
            # waiting for wr2 first pops wr1's completion -> error
            try:
                yield from ctx0.wait_wr(qp.send_cq, wr2)
            except RuntimeError:
                return "mismatch detected"

        proc = cluster.spawn(prog(), "main")
        cluster.run()
        assert proc.value == "mismatch detected"

    def test_registration_charges_time(self):
        cluster = build_cluster(1)
        ctx = cluster.nodes[0].vapi()
        buf = cluster.nodes[0].alloc(1 << 20)

        def prog():
            t0 = cluster.sim.now
            mr = yield from ctx.reg_mr(buf.addr, 1 << 20)
            treg = cluster.sim.now - t0
            t0 = cluster.sim.now
            yield from ctx.dereg_mr(mr)
            tdereg = cluster.sim.now - t0
            return treg, tdereg

        proc = cluster.spawn(prog(), "main")
        cluster.run()
        treg, tdereg = proc.value
        cfg = cluster.cfg
        assert treg == pytest.approx(cfg.registration_cost(1 << 20))
        assert tdereg == pytest.approx(cfg.deregistration_cost(1 << 20))
        assert treg > 100e-6  # a 1 MB pin is expensive (256 pages)

    def test_stats_counters(self):
        cluster = build_cluster(2)
        qp, _ = cluster.connect_pair(0, 1)
        ctx0, ctx1 = cluster.nodes[0].vapi(), cluster.nodes[1].vapi()
        a = cluster.nodes[0].alloc(100)
        b = cluster.nodes[1].alloc(100)

        def prog():
            amr = yield from ctx0.reg_mr(a.addr, 100)
            bmr = yield from ctx1.reg_mr(b.addr, 100)
            yield from ctx0.rdma_write(qp, [(a.addr, 100, amr.lkey)],
                                       b.addr, bmr.rkey)
            yield from ctx0.wait_cq(qp.send_cq)
            yield from ctx0.rdma_read(qp, [(a.addr, 50, amr.lkey)],
                                      b.addr, bmr.rkey)
            yield from ctx0.wait_cq(qp.send_cq)

        cluster.spawn(prog(), "main")
        cluster.run()
        st = cluster.nodes[0].hca.stats
        assert st.rdma_writes == 1
        assert st.bytes_written == 100
        assert st.rdma_reads == 1
        assert st.bytes_read == 50
        assert st.registrations == 1


class TestShmChannelMisc:
    def test_shm_design_runs_many_ranks_one_node(self):
        from repro.mpi import run_mpi

        def prog(mpi):
            total = yield from mpi.allreduce(mpi.rank + 1)
            return total

        results, _ = run_mpi(4, prog, design="shm")
        assert results == [10, 10, 10, 10]

    def test_shm_is_much_faster_than_network(self):
        from repro.bench.micro import mpi_latency_us
        shm = mpi_latency_us(4, "shm", iters=20)
        net = mpi_latency_us(4, "piggyback", iters=20)
        assert shm < net / 2
