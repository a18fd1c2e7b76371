"""CH3 layer internals: packet format, iov helpers, matching rules,
rendezvous state machines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.hw.memory import Buffer, NodeMemory
from repro.mpich2.adi3 import ANY_SOURCE, ANY_TAG, Request
from repro.mpich2.ch3 import (PKT_EAGER, PKT_RNDV_CTS, PKT_RNDV_RTS,
                              PKT_SIZE, pack_header, unpack_header)
from repro.mpich2.channels.base import (IovCursor, advance_iov,
                                        clamp_iov, iov_total)


def bufs(mem, *sizes):
    return [Buffer.alloc(mem, s) for s in sizes]


class TestPacketFormat:
    def test_roundtrip(self):
        raw = pack_header(PKT_EAGER, 3, 17, 2, 1 << 40, 99)
        kind, src, tag, ctx, size, req = unpack_header(raw)
        assert (kind, src, tag, ctx, size, req) == \
            (PKT_EAGER, 3, 17, 2, 1 << 40, 99)
        assert len(raw) == PKT_SIZE == 32

    def test_negative_tags_survive(self):
        raw = pack_header(PKT_RNDV_RTS, 0, ANY_TAG, 0, 0, 0)
        _k, _s, tag, *_ = unpack_header(raw)
        assert tag == ANY_TAG

    @given(kind=st.sampled_from([PKT_EAGER, PKT_RNDV_RTS, PKT_RNDV_CTS]),
           src=st.integers(0, 2**31 - 1),
           tag=st.integers(-1, 2**31 - 1),
           ctx=st.integers(0, 2**31 - 1),
           size=st.integers(0, 2**62),
           req=st.integers(0, 2**62))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, kind, src, tag, ctx, size, req):
        assert unpack_header(pack_header(kind, src, tag, ctx, size,
                                         req)) == \
            (kind, src, tag, ctx, size, req)


class TestIovHelpers:
    def test_total(self):
        mem = NodeMemory()
        assert iov_total(bufs(mem, 10, 20, 30)) == 60
        assert iov_total([]) == 0

    def test_advance_within_first(self):
        mem = NodeMemory()
        iov = bufs(mem, 10, 20)
        out = advance_iov(iov, 4)
        assert [len(b) for b in out] == [6, 20]
        assert out[0].addr == iov[0].addr + 4

    def test_advance_across_boundary(self):
        mem = NodeMemory()
        iov = bufs(mem, 10, 20)
        out = advance_iov(iov, 10)
        assert [len(b) for b in out] == [20]

    def test_advance_all(self):
        mem = NodeMemory()
        assert advance_iov(bufs(mem, 5, 5), 10) == []

    def test_advance_too_far_raises(self):
        mem = NodeMemory()
        with pytest.raises(ValueError):
            advance_iov(bufs(mem, 5), 6)

    def test_clamp(self):
        mem = NodeMemory()
        iov = bufs(mem, 10, 20)
        out = clamp_iov(iov, 15)
        assert [len(b) for b in out] == [10, 5]
        assert iov_total(clamp_iov(iov, 100)) == 30
        assert clamp_iov(iov, 0) == []

    @given(sizes=st.lists(st.integers(1, 50), min_size=1, max_size=5),
           n=st.integers(0, 300))
    @settings(max_examples=50, deadline=None)
    def test_clamp_then_total_property(self, sizes, n):
        mem = NodeMemory()
        iov = bufs(mem, *sizes)
        assert iov_total(clamp_iov(iov, n)) == min(n, sum(sizes))

    @given(sizes=st.lists(st.integers(1, 50), min_size=1, max_size=5),
           n=st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_advance_preserves_suffix(self, sizes, n):
        mem = NodeMemory()
        iov = bufs(mem, *sizes)
        total = sum(sizes)
        n = min(n, total)
        # write a pattern, advance, check the suffix is byte-exact
        pattern = bytes(i % 256 for i in range(total))
        off = 0
        for b in iov:
            b.write(pattern[off:off + len(b)])
            off += len(b)
        out = advance_iov(iov, n)
        got = b"".join(b.read() for b in out)
        assert got == pattern[n:]


class TestIovCursor:
    def test_walks_elements(self):
        mem = NodeMemory()
        zero = Buffer.alloc(mem, 1).sub(0, 0)
        cur = IovCursor(bufs(mem, 10) + [zero] + bufs(mem, 20))
        assert cur.remaining() == 30
        assert cur.element_remaining() == 10
        cur.advance(10)
        assert cur.element_remaining() == 20
        assert cur.at_element_start()
        cur.advance(5)
        assert not cur.at_element_start()
        assert cur.remaining() == 15
        cur.advance(15)
        assert cur.exhausted
        assert cur.consumed == 30

    def test_current_respects_element_boundary(self):
        mem = NodeMemory()
        cur = IovCursor(bufs(mem, 10, 20))
        piece = cur.current(100)
        assert len(piece) == 10

    def test_advance_past_end_raises(self):
        from repro.mpich2.channels.base import ChannelError
        mem = NodeMemory()
        cur = IovCursor(bufs(mem, 4))
        with pytest.raises(ChannelError):
            cur.advance(5)


class TestRequest:
    def test_lifecycle(self):
        req = Request("recv")
        assert not req.done
        req.complete(source=2, tag=9, count=100)
        assert req.done
        assert (req.source, req.tag, req.count) == (2, 9, 100)
        req.check()  # no error

    def test_failure(self):
        req = Request("send")
        req.fail(ValueError("nope"))
        assert req.done
        with pytest.raises(ValueError):
            req.check()

    def test_unique_ids(self):
        ids = {Request("send").req_id for _ in range(100)}
        assert len(ids) == 100


class TestUnexpectedQueueSemantics:
    def test_oversized_recv_buffer_does_not_swallow_next_message(self):
        """Regression for the clamp_iov bug: a 4 MB recv posted for a
        small message must not eat the following message's bytes."""
        from repro.mpi import run_mpi

        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send(b"first", dest=1, tag=1)
                yield from mpi.send(b"second", dest=1, tag=2)
            else:
                # make sure both messages are already in the ring
                yield from mpi.compute(100e-6)
                a, _ = yield from mpi.recv(source=0, tag=1,
                                           max_size=1 << 22)
                b, _ = yield from mpi.recv(source=0, tag=2,
                                           max_size=1 << 22)
                return (a, b)

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[1] == (b"first", b"second")

    def test_oversized_posted_recv_before_arrival(self):
        from repro.mpi import run_mpi

        def prog(mpi):
            if mpi.rank == 0:
                big = mpi.alloc(1 << 20)
                r1 = yield from mpi.Irecv(big, source=1, tag=1)
                small = mpi.alloc(64)
                r2 = yield from mpi.Irecv(small, source=1, tag=2)
                yield from mpi.Waitall([r1, r2])
                return (r1.count, bytes(small.read()[:r2.count]))
            yield from mpi.Send(b"tiny", dest=0, tag=1)
            yield from mpi.Send(b"follows", dest=0, tag=2)

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[0] == (4, b"follows")


class TestRendezvousFin:
    @pytest.mark.parametrize("design", ["ch3", "adaptive"])
    def test_fin_behind_a_full_ring_still_reaches_the_receiver(self,
                                                               design):
        """Regression: a rendezvous send completed before its FIN was
        in the channel.  With an 8 KB ring, a window of 32 KB sends
        leaves FINs queued behind a full ring; the sender's Waitall
        returned, nothing drove its progress again, and the receiver
        hung waiting for the FINs.  The request now completes when its
        FIN drains into the ring."""
        import numpy as np

        from repro.config import KB, ChannelConfig
        from repro.mpi import run_mpi

        n, size = 16, 32 * KB

        def prog(mpi):
            bufs = [mpi.alloc(size) for _ in range(n)]
            reqs = []
            for i, buf in enumerate(bufs):
                if mpi.rank == 0:
                    buf.write(np.full(size, i + 1, np.uint8))
                    reqs.append((yield from mpi.Isend(buf, 1, i)))
                else:
                    reqs.append((yield from mpi.Irecv(buf, 0, i)))
            yield from mpi.Waitall(reqs)
            if mpi.rank == 1:
                return [bytes(buf.read()) for buf in bufs]

        results, _ = run_mpi(2, prog, design=design,
                             ch_cfg=ChannelConfig(ring_size=8 * KB,
                                                  chunk_size=2 * KB))
        assert results[1] == [bytes([i + 1]) * size for i in range(n)]
