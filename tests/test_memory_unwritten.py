"""Memory nobody wrote is never allocated (``repro.hw.memory``).

A region whose backing is still ``None`` reads as zeros, and every path
that only reads it leaves it unbacked: the ring poll, ``read``,
``snapshot``, ``copy_within`` and the HCA's gather, placement and read
response.  Each test checks both halves of the rule: the bytes the
program sees, and which regions got backing.
"""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.faults import FaultPlan, LinkFaults
from repro.hw.memory import Buffer, NodeMemory, Zeros
from repro.ib.types import RecvRequest, Sge, WcStatus
from repro.mpi import run_world

from helpers import make_channel_pair, run_procs


def _unwritten(buf: Buffer) -> bool:
    return buf.mem.region_of(buf.addr, len(buf)).data is None


# -- NodeMemory ---------------------------------------------------------------

class TestNodeMemory:
    def test_read_keeps_region_unwritten(self):
        mem = NodeMemory()
        buf = Buffer.alloc(mem, 4096)
        assert buf.read() == bytes(4096)
        assert mem.read(buf.addr + 100, 7) == bytes(7)
        assert _unwritten(buf) and mem.resident_bytes == 0

    def test_snapshot_of_unwritten_is_zeros(self):
        mem = NodeMemory()
        buf = Buffer.alloc(mem, 64)
        snap = mem.snapshot(buf.addr + 8, 32)
        assert isinstance(snap, Zeros) and len(snap) == 32
        assert snap[4:12].tobytes() == bytes(8)
        assert len(snap[30:40]) == 2
        assert _unwritten(buf)

    def test_snapshot_of_written_is_a_copy(self):
        mem = NodeMemory()
        buf = Buffer.alloc(mem, 8)
        buf.write(b"abcdefgh")
        snap = mem.snapshot(buf.addr, 8)
        buf.write(b"ZZZZZZZZ")
        assert snap.tobytes() == b"abcdefgh"

    def test_copy_from_unwritten_into_unwritten(self):
        mem = NodeMemory()
        src, dst = Buffer.alloc(mem, 256), Buffer.alloc(mem, 256)
        mem.copy_within(dst.addr, src.addr, 256)
        assert dst.read() == src.read() == bytes(256)
        assert _unwritten(src) and _unwritten(dst)
        assert mem.resident_bytes == 0

    def test_copy_from_unwritten_zeroes_exactly_that_range(self):
        mem = NodeMemory()
        src, dst = Buffer.alloc(mem, 16), Buffer.alloc(mem, 64)
        dst.write(b"\xaa" * 64)
        mem.copy_within(dst.addr + 10, src.addr, 16)
        assert dst.read() == b"\xaa" * 10 + bytes(16) + b"\xaa" * 38
        assert _unwritten(src)

    def test_write_zeros_into_written_zeroes_exactly_that_range(self):
        mem = NodeMemory()
        dst = Buffer.alloc(mem, 32)
        dst.write(b"\x01" * 32)
        mem.write(dst.addr + 4, Zeros(8))
        assert dst.read() == b"\x01" * 4 + bytes(8) + b"\x01" * 20

    def test_view_backs_the_region(self):
        mem = NodeMemory()
        buf = Buffer.alloc(mem, 128)
        buf.view()
        assert not _unwritten(buf) and mem.resident_bytes == 128

    def test_resident_bytes_follows_backing_and_free(self):
        mem = NodeMemory()
        a, b, c = (mem.alloc(n) for n in (100, 200, 300))
        mem.write(b, b"x")
        mem.write(c, b"y")
        assert (mem.allocated_bytes, mem.resident_bytes) == (600, 500)
        mem.free(b)
        assert (mem.allocated_bytes, mem.resident_bytes) == (400, 300)
        mem.free(a)  # never written: nothing resident to give back
        assert (mem.allocated_bytes, mem.resident_bytes) == (300, 300)
        assert mem.read(c, 1) == b"y"


# -- the ring poll ------------------------------------------------------------

@pytest.mark.parametrize("design", ["piggyback", "pipeline", "zerocopy"])
def test_empty_poll_of_a_fresh_ring_allocates_nothing(design):
    cluster, _ch0, ch1, c01, c10 = make_channel_pair(design)
    ring, staging = c10.receiver.ring, c01.sender.staging
    dst = ch1.node.alloc(64)
    assert not c10.receiver.ready()
    got = run_procs(cluster, ch1.get(c10, [dst]))
    assert got == [0]
    for buf in (ring, staging, dst):
        assert _unwritten(buf)
        assert buf.read() == bytes(len(buf))


# -- the HCA --------------------------------------------------------------------

def _pair(size, faults=None):
    cluster = build_cluster(2, faults=faults)
    qa, qb = cluster.connect_pair(0, 1)
    na, nb = cluster.nodes
    src, dst = na.alloc(size, "src"), nb.alloc(size, "dst")
    smr = na.hca.pd.register(src.addr, size)
    dmr = nb.hca.pd.register(dst.addr, size)
    return cluster, qa, qb, src, dst, smr, dmr


def _write(cluster, qa, sges, dst, dmr):
    ctx = cluster.nodes[0].vapi()

    def prog():
        wr = yield from ctx.rdma_write(qa, sges, dst.addr, dmr.rkey)
        return (yield from ctx.wait_wr(qa.send_cq, wr))

    [cqe] = run_procs(cluster, prog())
    return cqe


class TestHca:
    def test_rdma_write_of_unwritten_into_unwritten(self):
        cluster, qa, _qb, src, dst, smr, dmr = _pair(4096)
        cqe = _write(cluster, qa, [(src.addr, 4096, smr.lkey)], dst, dmr)
        assert cqe.status is WcStatus.SUCCESS and cqe.byte_len == 4096
        assert dst.read() == bytes(4096)
        assert _unwritten(src) and _unwritten(dst)

    def test_rdma_write_of_unwritten_zeroes_exactly_that_range(self):
        cluster, qa, _qb, src, dst, smr, dmr = _pair(256)
        dst.write(b"\x5a" * 256)
        ctx = cluster.nodes[0].vapi()

        def prog():
            wr = yield from ctx.rdma_write(
                qa, [(src.addr, 100, smr.lkey)], dst.addr + 50, dmr.rkey)
            return (yield from ctx.wait_wr(qa.send_cq, wr))

        [cqe] = run_procs(cluster, prog())
        assert cqe.status is WcStatus.SUCCESS
        assert dst.read() == b"\x5a" * 50 + bytes(100) + b"\x5a" * 106
        assert _unwritten(src)

    def test_send_of_unwritten_into_unwritten(self):
        cluster, qa, qb, src, dst, smr, dmr = _pair(512)
        ca, cb = cluster.nodes[0].vapi(), cluster.nodes[1].vapi()

        def prog():
            yield from cb.post_recv(
                qb, RecvRequest([Sge(dst.addr, 512, dmr.lkey)]))
            yield from ca.send(qa, [(src.addr, 512, smr.lkey)])
            scqe = yield from ca.wait_cq(qa.send_cq)
            rcqe = yield from cb.wait_cq(qb.recv_cq)
            return scqe, rcqe

        [(scqe, rcqe)] = run_procs(cluster, prog())
        assert scqe.status is rcqe.status is WcStatus.SUCCESS
        assert rcqe.byte_len == 512
        assert dst.read() == bytes(512)
        assert _unwritten(src) and _unwritten(dst)

    def test_rdma_read_of_unwritten_into_unwritten(self):
        # node 0 reads node 1's unwritten ``dst`` into its own ``src``
        cluster, qa, _qb, local, remote, lmr, rmr = _pair(2048)
        ctx = cluster.nodes[0].vapi()

        def prog():
            wr = yield from ctx.rdma_read(
                qa, [(local.addr, 2048, lmr.lkey)], remote.addr, rmr.rkey)
            return (yield from ctx.wait_wr(qa.send_cq, wr))

        [cqe] = run_procs(cluster, prog())
        assert cqe.status is WcStatus.SUCCESS and cqe.byte_len == 2048
        assert local.read() == bytes(2048)
        assert _unwritten(local) and _unwritten(remote)

    def test_mixed_two_sge_gather(self):
        """One written SGE and one unwritten: the unwritten piece
        arrives as zeros and its region stays unbacked."""
        cluster, qa, _qb, _src, dst, _smr, dmr = _pair(64)
        na = cluster.nodes[0]
        a, b = na.alloc(32, "a"), na.alloc(32, "b")
        amr = na.hca.pd.register(a.addr, 32)
        bmr = na.hca.pd.register(b.addr, 32)
        a.write(bytes(range(1, 33)))
        dst.write(b"\xff" * 64)
        cqe = _write(cluster, qa, [(a.addr, 32, amr.lkey),
                                   (b.addr, 32, bmr.lkey)], dst, dmr)
        assert cqe.status is WcStatus.SUCCESS
        assert dst.read() == bytes(range(1, 33)) + bytes(32)
        assert _unwritten(b)

    def test_recovery_delivers_zeros_under_corrupt_and_drop(self):
        plan = FaultPlan(seed=3, default_link=LinkFaults(
            drop_rate=0.2, corrupt_rate=0.2))
        cluster, qa, _qb, src, dst, smr, dmr = _pair(1024, faults=plan)
        dst.write(b"\x33" * 1024)
        ctx = cluster.nodes[0].vapi()

        def prog():
            statuses = []
            for _ in range(6):
                wr = yield from ctx.rdma_write(
                    qa, [(src.addr, 1024, smr.lkey)], dst.addr, dmr.rkey)
                cqe = yield from ctx.wait_wr(qa.send_cq, wr)
                statuses.append(cqe.status)
            return statuses

        [statuses] = run_procs(cluster, prog())
        stats = cluster.faults.stats
        assert stats.retransmissions and stats.crc_detected
        assert statuses == [WcStatus.SUCCESS] * 6
        assert dst.read() == bytes(1024)
        assert _unwritten(src)


# -- a whole world ------------------------------------------------------------

def test_resident_bytes_of_a_16_rank_world():
    """Allreduce over all 16 ranks, Alltoall inside 4-rank groups,
    Barrier: the rings and staging buffers of peers that never talk
    stay unbacked.  Exact, like every counter of this simulator."""
    def prog(mpi):
        out = np.zeros(256)
        yield from mpi.Allreduce(np.full(256, float(mpi.rank)), out)
        sub = yield from mpi.Split(mpi.rank % 4, mpi.rank)
        send = mpi.alloc(1024 * sub.size, "a2a.send")
        recv = mpi.alloc(1024 * sub.size, "a2a.recv")
        send.view()[:] = mpi.rank
        yield from sub.Alltoall(send, recv)
        yield from mpi.Barrier()
        blocks = recv.view().reshape(sub.size, 1024)
        return (bool(np.all(out == sum(range(mpi.size))))
                and all(np.all(blocks[p] == peer)
                        for p, peer in enumerate(sub.group)))

    results, world = run_world(16, prog, design="zerocopy")
    assert all(results)
    mems = [node.mem for node in world.cluster.nodes]
    resident = sum(m.resident_bytes for m in mems)
    assert resident == sum(r.length for m in mems
                           for r in m._regions.values()
                           if r.data is not None)
    assert (resident, sum(m.allocated_bytes for m in mems)) == (
        27400348, 63059612)
