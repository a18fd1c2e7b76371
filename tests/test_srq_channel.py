"""The SRQ primitive and the srq/mux shared-pool channel designs.

Three contracts are locked down here:

* the :class:`repro.ib.srq.SharedReceiveQueue` credit-conservation
  invariant (``posted - consumed == outstanding >= 0``), unit- and
  property-tested over randomized post/consume interleavings;
* pool-exhaustion backpressure: when the shared pool runs dry the
  stream stalls instead of dropping, resumes in FIFO order, and the
  stall is observable via ``rnr_stalls``;
* non-interference: creating an (unused) SRQ on an HCA leaves a
  ``basic``-channel run bit-for-bit identical — same simulated clock,
  same event count, same bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import get_all, make_channel_pair, put_all, run_procs
from repro.cluster import build_cluster
from repro.config import KB, ChannelConfig
from repro.ib import QPError, RecvRequest, Sge
from repro.mpi.runner import build_world, run_world
from repro.mpich2.channels.srq import QP_POOL_SIZE


def _srq_fixture(max_wr=4, slot=256):
    """One node, one registered arena, one SRQ; returns the pieces."""
    cluster = build_cluster(1)
    node = cluster.nodes[0]
    buf = node.alloc(max_wr * 2 * slot, "srq.test")
    mr = node.hca.pd.register(buf.addr, len(buf))
    srq = node.hca.create_srq(max_wr=max_wr)
    rr = lambda i: RecvRequest([Sge(buf.addr + i * slot, slot, mr.lkey)],
                               wr_id=i)
    return cluster, node, srq, rr


class TestSrqPrimitive:
    def test_post_consume_conservation(self):
        _, _, srq, rr = _srq_fixture(max_wr=4)
        for i in range(3):
            srq.post(rr(i))
        assert (srq.posted_total, srq.consumed_total,
                srq.outstanding) == (3, 0, 3)
        got = srq.try_consume()
        assert got is not None and got.wr_id == 0  # FIFO
        assert srq.posted_total - srq.consumed_total == srq.outstanding
        assert srq.outstanding == 2

    def test_overflow_raises(self):
        _, _, srq, rr = _srq_fixture(max_wr=2)
        srq.post(rr(0))
        srq.post(rr(1))
        with pytest.raises(QPError, match="full"):
            srq.post(rr(2))

    def test_dry_pool_counts_rnr_stall(self):
        _, _, srq, _ = _srq_fixture()
        assert srq.try_consume() is None
        assert srq.rnr_stalls == 1
        assert srq.consumed_total == 0

    def test_bad_lkey_rejected_at_post(self):
        _, _, srq, _ = _srq_fixture()
        with pytest.raises(Exception):
            srq.post(RecvRequest([Sge(0x1000, 64, 0xdead)], wr_id=9))

    def test_qp_with_srq_rejects_post_recv(self):
        cluster, node, srq, rr = _srq_fixture()
        cq = node.hca.create_cq()
        qp = node.hca.create_qp(cq, srq=srq)
        srq.post(rr(0))
        with pytest.raises(QPError, match="SRQ"):
            qp.post_recv(rr(1))

    def test_cross_hca_srq_rejected(self):
        cluster = build_cluster(2)
        srq = cluster.nodes[0].hca.create_srq()
        cq = cluster.nodes[1].hca.create_cq()
        with pytest.raises(QPError, match="different HCA"):
            cluster.nodes[1].hca.create_qp(cq, srq=srq)

    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(st.booleans(), max_size=40))
    def test_conservation_property(self, ops):
        """posted - consumed == outstanding >= 0 over any untimed
        post/consume interleaving (True = post, False = consume)."""
        max_wr = 8
        _, node, srq, rr = _srq_fixture(max_wr=max_wr)
        next_wr = 0
        for is_post in ops:
            if is_post:
                if srq.outstanding == max_wr:
                    with pytest.raises(QPError):
                        srq.post(rr(next_wr % (2 * max_wr)))
                else:
                    srq.post(rr(next_wr % (2 * max_wr)))
                    next_wr += 1
            else:
                got = srq.try_consume()
                shadow = node.hca.shadow
                if got is not None and shadow is not None:
                    # the consumer's copy-out is done, as in
                    # SrqChannel.get: the slot may be reposted
                    shadow.on_srq_release(srq, got.sges[0].addr)
            assert srq.outstanding >= 0
            assert (srq.posted_total - srq.consumed_total
                    == srq.outstanding)


#: a pool small enough that a lagging consumer exhausts it
_TINY = ChannelConfig(srq_pool_slots=2, srq_credits=2,
                      srq_slot_size=1 * KB)


def _pattern(n, salt=0):
    return bytes((i * 131 + salt * 17 + 3) % 256 for i in range(n))


@pytest.mark.parametrize("design", ["srq", "mux"])
class TestBackpressure:
    def test_exhaustion_stalls_then_fifo_resumes(self, design):
        """A single flow is exactly credit-sized and can never dry the
        pool; two senders bursting into one sleeping receiver can
        (2 + 2 in flight vs 2 slots).  The pool must go dry
        (rnr_stalls > 0), nothing may be lost, and each flow's
        messages must arrive in order."""
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.compute(200e-6)  # let the pool flood
                out = []
                for src in (1, 2):
                    for i in range(6):
                        data, _ = yield from mpi.recv(source=src, tag=i)
                        out.append(bytes(data))
                return out
            for i in range(6):
                yield from mpi.send(_pattern(512, salt=mpi.rank * 8 + i),
                                    dest=0, tag=i)
            return None

        res, world = run_world(3, prog, design=design,
                               ch_cfg=_TINY)
        pool = world.devices[0].channel._pool
        assert pool.srq.rnr_stalls > 0
        # every consumed slot was reposted: the pool refilled
        assert pool.srq.outstanding == _TINY.srq_pool_slots
        assert res[0] == [_pattern(512, salt=r * 8 + i)
                          for r in (1, 2) for i in range(6)]

    def test_bidirectional_under_tiny_pool(self, design):
        """Both directions share each side's pool; concurrent
        bidirectional traffic must not deadlock even at 2 slots."""
        cluster, ch0, ch1, c01, c10 = make_channel_pair(
            design, ch_cfg=_TINY)
        n = 16 * KB
        bufs = {}
        for rank, node in ((0, cluster.nodes[0]), (1, cluster.nodes[1])):
            out = node.alloc(n, f"out{rank}")
            out.write(_pattern(n, salt=rank))
            bufs[rank] = (out, node.alloc(n, f"in{rank}"))

        def side(chan, conn, rank):
            put = cluster.spawn(
                put_all(cluster, chan, conn, [bufs[rank][0]]), "put")
            got = yield from get_all(cluster, chan, conn,
                                     [bufs[rank][1]])
            yield put
            return got

        res = run_procs(cluster, side(ch0, c01, 0), side(ch1, c10, 1))
        assert res == [n, n]
        assert bufs[0][1].read() == _pattern(n, salt=1)
        assert bufs[1][1].read() == _pattern(n, salt=0)


class TestCreditProtocol:
    def test_credits_converge_after_transfer(self):
        cluster, ch0, ch1, c01, c10 = make_channel_pair("srq")
        n = 64 * KB
        src = cluster.nodes[0].alloc(n, "src")
        src.write(_pattern(n))
        dst = cluster.nodes[1].alloc(n, "dst")
        run_procs(cluster,
                  put_all(cluster, ch0, c01, [src]),
                  get_all(cluster, ch1, c10, [dst]))
        assert dst.read() == src.read()
        # the receiver consumed everything the sender sent, and the
        # sender has absorbed at least the last explicit credit
        assert c10.credits.consumed == c01.window.sent
        assert 0 <= c01.window.sent - c01.window.acked <= \
            ch0.ch_cfg.srq_credits

    def test_window_never_exceeded(self):
        """sent - credited <= srq_credits at every put return."""
        cluster, ch0, ch1, c01, c10 = make_channel_pair("srq")
        limit = ch0.ch_cfg.srq_credits
        n = 128 * KB
        src = cluster.nodes[0].alloc(n, "src")
        src.write(_pattern(n))
        dst = cluster.nodes[1].alloc(n, "dst")
        orig_put = ch0.put
        windows = []

        def spying_put(conn, iov):
            got = yield from orig_put(conn, iov)
            windows.append(conn.window.sent - conn.window.acked)
            return got

        ch0.put = spying_put
        run_procs(cluster,
                  put_all(cluster, ch0, c01, [src]),
                  get_all(cluster, ch1, c10, [dst]))
        assert windows and max(windows) <= limit


class TestUnusedSrqIsInert:
    def _run_basic(self, with_srq: bool):
        cluster, ch0, ch1, c01, c10 = make_channel_pair("basic")
        if with_srq:
            # an SRQ + attached QP pair that never sees traffic
            for node in cluster.nodes:
                srq = node.hca.create_srq(max_wr=8)
                cq = node.hca.create_cq()
                node.hca.create_qp(cq, srq=srq)
        n = 96 * KB
        src = cluster.nodes[0].alloc(n, "src")
        src.write(_pattern(n))
        dst = cluster.nodes[1].alloc(n, "dst")
        run_procs(cluster,
                  put_all(cluster, ch0, c01, [src]),
                  get_all(cluster, ch1, c10, [dst]))
        return (cluster.sim.now, cluster.sim.events_processed,
                dst.read())

    def test_basic_run_identical_with_unused_srq(self):
        assert self._run_basic(False) == self._run_basic(True)


class TestMuxPooling:
    def test_qp_count_bounded_by_node_pairs(self):
        """16 ranks on 4 nodes: mux QPs scale with node pairs x pool
        size, srq QPs with rank pairs — mux must use strictly fewer."""
        w_srq = build_world(16, "srq", nnodes=4)
        w_mux = build_world(16, "mux", nnodes=4)
        qps_srq = w_srq.cluster.live_qps()
        qps_mux = w_mux.cluster.live_qps()
        assert qps_mux < qps_srq
        # inter-node flows share endpoint pools (<= 2 QPs per node
        # pair per slot); same-node pairs get dedicated loopback pairs
        npairs = 4 * 3 // 2
        same_node_pairs = 4 * (4 * 3 // 2)  # 4 ranks/node
        assert qps_mux <= 2 * npairs * QP_POOL_SIZE + 2 * same_node_pairs

    def test_mux_srsq_share_one_pool_per_node(self):
        w = build_world(8, "mux", nnodes=2)
        assert w.stats()["srqs_created"] == 2  # one per node, not rank
        w2 = build_world(8, "srq", nnodes=2)
        assert w2.stats()["srqs_created"] == 8  # one per rank
