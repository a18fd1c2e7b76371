"""Integration tests of verb operations: RDMA write/read, send/recv,
error completions, ordering, and data integrity through the fabric."""

import pytest

from repro.cluster import build_cluster
from repro.ib.types import (Access, Opcode, QPError, RecvRequest, Sge,
                            WcStatus)


def run_main(cluster, gen):
    holder = {}

    def main():
        holder["v"] = yield from gen

    cluster.spawn(main(), "main")
    cluster.run()
    return holder["v"]


def setup_pair(cluster, size, a=0, b=1):
    """Allocate and register a local buffer on node a and a remote
    buffer on node b; returns (qp_a, ctx_a, ctx_b, local, lmr, remote,
    rmr)."""
    qp_a, _qp_b = cluster.connect_pair(a, b)
    na, nb = cluster.nodes[a], cluster.nodes[b]
    ctx_a, ctx_b = na.vapi(), nb.vapi()
    local = na.alloc(size, "local")
    remote = nb.alloc(size, "remote")

    def setup():
        lmr = yield from ctx_a.reg_mr(local.addr, size)
        rmr = yield from ctx_b.reg_mr(remote.addr, size)
        return lmr, rmr

    return qp_a, ctx_a, ctx_b, local, remote, setup


class TestRdmaWrite:
    def test_data_arrives_intact(self):
        cluster = build_cluster(2)
        qp, ctx_a, ctx_b, local, remote, setup = setup_pair(cluster, 256)

        def prog():
            lmr, rmr = yield from setup()
            payload = bytes(range(256))
            local.write(payload)
            yield from ctx_a.rdma_write(
                qp, [(local.addr, 256, lmr.lkey)], remote.addr, rmr.rkey)
            cqe = yield from ctx_a.wait_cq(qp.send_cq)
            return cqe, remote.read()

        cqe, data = run_main(cluster, prog())
        assert cqe.status is WcStatus.SUCCESS
        assert cqe.opcode is Opcode.RDMA_WRITE
        assert cqe.byte_len == 256
        assert data == bytes(range(256))

    def test_write_into_interior_of_region(self):
        cluster = build_cluster(2)
        qp, ctx_a, ctx_b, local, remote, setup = setup_pair(cluster, 256)

        def prog():
            lmr, rmr = yield from setup()
            local.write(b"\xaa" * 256)
            yield from ctx_a.rdma_write(
                qp, [(local.addr, 16, lmr.lkey)],
                remote.addr + 100, rmr.rkey)
            yield from ctx_a.wait_cq(qp.send_cq)
            return remote.read()

        data = run_main(cluster, prog())
        assert data[100:116] == b"\xaa" * 16
        assert data[:100] == bytes(100)

    def test_gather_multiple_sges(self):
        cluster = build_cluster(2)
        qp, ctx_a, ctx_b, local, remote, setup = setup_pair(cluster, 64)

        def prog():
            lmr, rmr = yield from setup()
            local.write(b"ABCDEFGH" + bytes(56))
            yield from ctx_a.rdma_write(
                qp, [(local.addr + 4, 4, lmr.lkey),
                     (local.addr, 4, lmr.lkey)],
                remote.addr, rmr.rkey)
            yield from ctx_a.wait_cq(qp.send_cq)
            return remote.read()

        data = run_main(cluster, prog())
        assert data[:8] == b"EFGHABCD"

    def test_bad_rkey_error_completion(self):
        cluster = build_cluster(2)
        qp, ctx_a, ctx_b, local, remote, setup = setup_pair(cluster, 64)

        def prog():
            lmr, _rmr = yield from setup()
            yield from ctx_a.rdma_write(
                qp, [(local.addr, 64, lmr.lkey)], remote.addr, 0xBAD)
            cqe = yield from ctx_a.wait_cq(qp.send_cq)
            return cqe, remote.read()

        cqe, data = run_main(cluster, prog())
        assert cqe.status is WcStatus.REM_ACCESS_ERR
        assert data == bytes(64)  # nothing written

    def test_write_beyond_remote_region_rejected(self):
        cluster = build_cluster(2)
        qp, ctx_a, ctx_b, local, remote, setup = setup_pair(cluster, 64)

        def prog():
            lmr, rmr = yield from setup()
            yield from ctx_a.rdma_write(
                qp, [(local.addr, 64, lmr.lkey)],
                remote.addr + 32, rmr.rkey)
            cqe = yield from ctx_a.wait_cq(qp.send_cq)
            return cqe

        cqe = run_main(cluster, prog())
        assert cqe.status is WcStatus.REM_ACCESS_ERR

    def test_remote_write_permission_enforced(self):
        cluster = build_cluster(2)
        qp_a, _ = cluster.connect_pair(0, 1)
        na, nb = cluster.nodes[0], cluster.nodes[1]
        ctx_a, ctx_b = na.vapi(), nb.vapi()
        local = na.alloc(32)
        remote = nb.alloc(32)

        def prog():
            lmr = yield from ctx_a.reg_mr(local.addr, 32)
            rmr = yield from ctx_b.reg_mr(remote.addr, 32,
                                          Access.REMOTE_READ)
            yield from ctx_a.rdma_write(
                qp_a, [(local.addr, 32, lmr.lkey)],
                remote.addr, rmr.rkey)
            return (yield from ctx_a.wait_cq(qp_a.send_cq))

        cqe = run_main(cluster, prog())
        assert cqe.status is WcStatus.REM_ACCESS_ERR

    def test_unsignaled_write_generates_no_completion(self):
        cluster = build_cluster(2)
        qp, ctx_a, ctx_b, local, remote, setup = setup_pair(cluster, 8)

        def prog():
            lmr, rmr = yield from setup()
            local.write(b"12345678")
            yield from ctx_a.rdma_write(
                qp, [(local.addr, 8, lmr.lkey)], remote.addr, rmr.rkey,
                signaled=False)
            yield cluster.sim.timeout(1e-3)
            return len(qp.send_cq), remote.read()

        ncqe, data = run_main(cluster, prog())
        assert ncqe == 0
        assert data == b"12345678"

    def test_writes_on_one_qp_arrive_in_order(self):
        cluster = build_cluster(2)
        qp, ctx_a, ctx_b, local, remote, setup = setup_pair(cluster, 8)
        observed = []

        def watcher():
            # watch remote memory on each inbound pulse
            for _ in range(32):
                yield cluster.nodes[1].hca.inbound_gate.wait()
                observed.append(remote.read()[0])

        def prog():
            lmr, rmr = yield from setup()
            for i in range(1, 9):
                local.view()[0] = i
                yield from ctx_a.rdma_write(
                    qp, [(local.addr, 1, lmr.lkey)],
                    remote.addr, rmr.rkey, signaled=(i == 8))
                # tiny spacing so the gather snapshot sees value i
                yield from ctx_a.wait_cq(qp.send_cq) if i == 8 else iter(())
            return None

        cluster.spawn(watcher(), daemon=True) if False else None
        run_main(cluster, prog())
        # the final value is the last write
        assert remote.read()[0] == 8


class TestRdmaRead:
    def test_read_pulls_remote_data(self):
        cluster = build_cluster(2)
        qp, ctx_a, ctx_b, local, remote, setup = setup_pair(cluster, 128)

        def prog():
            lmr, rmr = yield from setup()
            remote.write(bytes(reversed(range(128))))
            yield from ctx_a.rdma_read(
                qp, [(local.addr, 128, lmr.lkey)], remote.addr, rmr.rkey)
            cqe = yield from ctx_a.wait_cq(qp.send_cq)
            return cqe, local.read()

        cqe, data = run_main(cluster, prog())
        assert cqe.status is WcStatus.SUCCESS
        assert cqe.opcode is Opcode.RDMA_READ
        assert data == bytes(reversed(range(128)))

    def test_read_permission_enforced(self):
        cluster = build_cluster(2)
        qp_a, _ = cluster.connect_pair(0, 1)
        na, nb = cluster.nodes[0], cluster.nodes[1]
        ctx_a, ctx_b = na.vapi(), nb.vapi()
        local = na.alloc(32)
        remote = nb.alloc(32)

        def prog():
            lmr = yield from ctx_a.reg_mr(local.addr, 32)
            rmr = yield from ctx_b.reg_mr(remote.addr, 32,
                                          Access.REMOTE_WRITE)
            yield from ctx_a.rdma_read(
                qp_a, [(local.addr, 32, lmr.lkey)],
                remote.addr, rmr.rkey)
            return (yield from ctx_a.wait_cq(qp_a.send_cq))

        cqe = run_main(cluster, prog())
        assert cqe.status is WcStatus.REM_ACCESS_ERR

    def test_read_slower_than_write_small(self):
        """Per-op: an RDMA read costs a full round trip + responder
        turnaround; a write is one-way."""
        from repro.bench.raw import raw_read_bandwidth, raw_write_bandwidth
        assert raw_read_bandwidth(4096) < 0.7 * raw_write_bandwidth(4096)


class TestSendRecv:
    def test_send_consumes_recv_and_completes_both_sides(self):
        cluster = build_cluster(2)
        qp_a, qp_b = cluster.connect_pair(0, 1)
        na, nb = cluster.nodes[0], cluster.nodes[1]
        ctx_a, ctx_b = na.vapi(), nb.vapi()
        sbuf = na.alloc(32)
        rbuf = nb.alloc(32)

        def prog():
            smr = yield from ctx_a.reg_mr(sbuf.addr, 32)
            rmr = yield from ctx_b.reg_mr(rbuf.addr, 32)
            yield from ctx_b.post_recv(
                qp_b, RecvRequest([Sge(rbuf.addr, 32, rmr.lkey)]))
            sbuf.write(b"ping" + bytes(28))
            yield from ctx_a.send(qp_a, [(sbuf.addr, 32, smr.lkey)])
            scqe = yield from ctx_a.wait_cq(qp_a.send_cq)
            rcqe = yield from ctx_b.wait_cq(qp_b.recv_cq)
            return scqe, rcqe, rbuf.read()

        scqe, rcqe, data = run_main(cluster, prog())
        assert scqe.status is WcStatus.SUCCESS
        assert rcqe.status is WcStatus.SUCCESS
        assert rcqe.opcode is Opcode.RECV
        assert rcqe.byte_len == 32
        assert data[:4] == b"ping"

    def test_send_without_recv_is_rnr(self):
        cluster = build_cluster(2)
        qp_a, _qp_b = cluster.connect_pair(0, 1)
        na = cluster.nodes[0]
        ctx_a = na.vapi()
        sbuf = na.alloc(8)

        def prog():
            smr = yield from ctx_a.reg_mr(sbuf.addr, 8)
            yield from ctx_a.send(qp_a, [(sbuf.addr, 8, smr.lkey)])
            return (yield from ctx_a.wait_cq(qp_a.send_cq))

        cqe = run_main(cluster, prog())
        assert cqe.status is WcStatus.RNR_RETRY_EXC_ERR

    def test_send_longer_than_recv_errors(self):
        cluster = build_cluster(2)
        qp_a, qp_b = cluster.connect_pair(0, 1)
        na, nb = cluster.nodes[0], cluster.nodes[1]
        ctx_a, ctx_b = na.vapi(), nb.vapi()
        sbuf = na.alloc(64)
        rbuf = nb.alloc(16)

        def prog():
            smr = yield from ctx_a.reg_mr(sbuf.addr, 64)
            rmr = yield from ctx_b.reg_mr(rbuf.addr, 16)
            yield from ctx_b.post_recv(
                qp_b, RecvRequest([Sge(rbuf.addr, 16, rmr.lkey)]))
            yield from ctx_a.send(qp_a, [(sbuf.addr, 64, smr.lkey)])
            return (yield from ctx_a.wait_cq(qp_a.send_cq))

        cqe = run_main(cluster, prog())
        assert cqe.status is WcStatus.LOC_LEN_ERR


class TestQpLifecycle:
    def test_post_on_unconnected_qp_rejected(self):
        cluster = build_cluster(2)
        na = cluster.nodes[0]
        cq = na.hca.create_cq()
        qp = na.hca.create_qp(cq)
        from repro.ib.types import WorkRequest
        with pytest.raises(QPError):
            qp.post_send(WorkRequest(Opcode.RDMA_WRITE, []))

    def test_double_connect_rejected(self):
        cluster = build_cluster(3)
        qp_a, qp_b = cluster.connect_pair(0, 1)
        nc = cluster.nodes[2]
        qp_c = nc.hca.create_qp(nc.hca.create_cq())
        with pytest.raises(QPError):
            qp_c.connect(qp_a)


class TestDmaRoute:
    def test_one_route_per_remote_node_built_on_first_use(self):
        """Building a cluster builds no route; the first DMA to a node
        builds the one every later DMA there reuses."""
        cluster = build_cluster(3)
        a, b, c = (node.hca for node in cluster.nodes)
        assert not any(hca._routes for hca in (a, b, c))
        route = a.dma_route_to(b)
        assert a.dma_route_to(b) is route
        assert a.dma_route_to(c) is not route
        assert [res for res, _cost in route.entries] == [
            a.membus.bus, a.pci, cluster.fabric.uplink(0),
            cluster.fabric.downlink(1), b.pci, b.membus.bus]
