"""MPI point-to-point semantics across the stack."""

import numpy as np
import pytest

from repro.config import KB, MB, ChannelConfig
from repro.mpi import (ANY_SOURCE, ANY_TAG, MpiError, TruncateError,
                       run_mpi)
from repro.mpich2.designs import DESIGNS as ALL_DESIGNS

DESIGNS = ["basic", "piggyback", "pipeline", "zerocopy", "ch3",
           "tcp"]


class TestBasicSendRecv:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_object_roundtrip(self, design):
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send({"k": [1, 2, 3]}, dest=1, tag=5)
                obj, st = yield from mpi.recv(source=1, tag=6)
                return obj
            obj, st = yield from mpi.recv(source=0, tag=5)
            yield from mpi.send(obj["k"][::-1], dest=0, tag=6)
            return st.count > 0

        results, _ = run_mpi(2, prog, design=design)
        assert results[0] == [3, 2, 1]
        assert results[1] is True

    @pytest.mark.parametrize("design", DESIGNS)
    def test_buffer_payload_integrity_large(self, design):
        """1 MB of patterned data — crosses every protocol path."""
        def prog(mpi):
            n = 1 * MB
            if mpi.rank == 0:
                buf = mpi.alloc(n)
                buf.view()[:] = np.arange(n, dtype=np.uint64).astype(
                    np.uint8)
                yield from mpi.Send(buf, dest=1)
            else:
                buf = mpi.alloc(n)
                st = yield from mpi.Recv(buf, source=0)
                expect = np.arange(n, dtype=np.uint64).astype(np.uint8)
                return bool((buf.view() == expect).all()) and st.count == n

        results, _ = run_mpi(2, prog, design=design)
        assert results[1] is True

    @pytest.mark.parametrize("design", sorted(ALL_DESIGNS))
    def test_zero_byte_message(self, design):
        """A header with an empty payload, the last message on its
        connection: it must complete with nothing left to read."""
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.Send(b"", dest=1, tag=9)
                return "sent"
            buf = mpi.alloc(16)
            st = yield from mpi.Recv(buf, source=0, tag=9)
            return st.count

        results, _ = run_mpi(2, prog, design=design)
        assert results == ["sent", 0]

    def test_numpy_send_recv(self):
        def prog(mpi):
            data = np.linspace(0, 1, 1000)
            if mpi.rank == 0:
                yield from mpi.Send(data, dest=1)
            else:
                out = np.zeros(1000)
                yield from mpi.Recv(out, source=0)
                return float(np.abs(out - data).max())

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[1] == 0.0


class TestOrderingAndMatching:
    @pytest.mark.parametrize("design", ["piggyback", "zerocopy", "ch3"])
    def test_message_order_preserved_same_tag(self, design):
        def prog(mpi):
            if mpi.rank == 0:
                for i in range(10):
                    yield from mpi.send(i, dest=1, tag=1)
            else:
                out = []
                for _ in range(10):
                    v, _st = yield from mpi.recv(source=0, tag=1)
                    out.append(v)
                return out

        results, _ = run_mpi(2, prog, design=design)
        assert results[1] == list(range(10))

    def test_tag_selective_matching(self):
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send("a", dest=1, tag=10)
                yield from mpi.send("b", dest=1, tag=20)
            else:
                b, _ = yield from mpi.recv(source=0, tag=20)
                a, _ = yield from mpi.recv(source=0, tag=10)
                return (a, b)

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[1] == ("a", "b")

    def test_any_source_any_tag(self):
        def prog(mpi):
            if mpi.rank == 0:
                got = []
                for _ in range(2):
                    v, st = yield from mpi.recv(source=ANY_SOURCE,
                                                tag=ANY_TAG)
                    got.append((v, st.source, st.tag))
                return sorted(got)
            yield from mpi.send(f"from{mpi.rank}", dest=0,
                                tag=mpi.rank * 7)

        results, _ = run_mpi(3, prog, design="zerocopy")
        assert results[0] == [("from1", 1, 7), ("from2", 2, 14)]

    def test_unexpected_message_then_recv(self):
        """Send arrives before the receive is posted."""
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send(b"early" * 1000, dest=1, tag=3)
            else:
                # dawdle so the message lands in the unexpected queue
                yield from mpi.compute(200e-6)
                obj, st = yield from mpi.recv(source=0, tag=3)
                return obj == b"early" * 1000

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[1] is True

    def test_unexpected_large_rendezvous_ch3(self):
        """RTS arrives before the receive is posted (CH3 design)."""
        def prog(mpi):
            n = 256 * KB
            if mpi.rank == 0:
                buf = mpi.alloc(n)
                buf.view()[:] = 0x3C
                yield from mpi.Send(buf, dest=1, tag=4)
            else:
                yield from mpi.compute(300e-6)
                buf = mpi.alloc(n)
                yield from mpi.Recv(buf, source=0, tag=4)
                return bool((buf.view() == 0x3C).all())

        results, _ = run_mpi(2, prog, design="ch3")
        assert results[1] is True

    def test_truncation_error(self):
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.Send(b"x" * 100, dest=1, tag=1)
            else:
                buf = mpi.alloc(10)
                try:
                    yield from mpi.Recv(buf, source=0, tag=1)
                except TruncateError:
                    return "truncated"

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[1] == "truncated"


class TestNonblocking:
    @pytest.mark.parametrize("design", ["zerocopy", "ch3"])
    def test_isend_irecv_waitall(self, design):
        def prog(mpi):
            n = 8 * KB
            if mpi.rank == 0:
                bufs = [mpi.alloc(n) for _ in range(8)]
                reqs = []
                for i, b in enumerate(bufs):
                    b.view()[:] = i + 1
                    r = yield from mpi.Isend(b, dest=1, tag=i)
                    reqs.append(r)
                yield from mpi.Waitall(reqs)
                return "ok"
            bufs = [mpi.alloc(n) for _ in range(8)]
            reqs = []
            for i, b in enumerate(bufs):
                r = yield from mpi.Irecv(b, source=0, tag=i)
                reqs.append(r)
            yield from mpi.Waitall(reqs)
            return [int(b.view()[0]) for b in bufs]

        results, _ = run_mpi(2, prog, design=design)
        assert results[1] == list(range(1, 9))

    def test_sendrecv_exchange(self):
        def prog(mpi):
            right = (mpi.rank + 1) % mpi.size
            left = (mpi.rank - 1) % mpi.size
            sbuf = mpi.alloc(8)
            rbuf = mpi.alloc(8)
            sbuf.view()[:] = mpi.rank
            yield from mpi.Sendrecv(sbuf, right, rbuf, left)
            return int(rbuf.view()[0])

        results, _ = run_mpi(4, prog, design="zerocopy")
        assert results == [3, 0, 1, 2]

    def test_test_and_probe(self):
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.compute(50e-6)
                yield from mpi.send(b"probe-me", dest=1, tag=42)
            else:
                st = yield from mpi.Probe(source=0, tag=42)
                obj, _ = yield from mpi.recv(source=0, tag=42)
                return (st.source, st.tag, obj)

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[1] == (0, 42, b"probe-me")


class TestSelfMessaging:
    def test_send_to_self(self):
        def prog(mpi):
            yield from mpi.send([mpi.rank], dest=mpi.rank, tag=1)
            obj, _ = yield from mpi.recv(source=mpi.rank, tag=1)
            return obj

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results == [[0], [1]]


class TestMultiRank:
    @pytest.mark.parametrize("design", ["zerocopy", "ch3"])
    def test_ring_pass_eight_ranks(self, design):
        def prog(mpi):
            token = mpi.alloc(8)
            if mpi.rank == 0:
                token.view()[:] = 1
                yield from mpi.Send(token, dest=1)
                yield from mpi.Recv(token, source=mpi.size - 1)
                return int(token.view()[0])
            yield from mpi.Recv(token, source=mpi.rank - 1)
            token.view()[:] = token.view() + 1
            dest = (mpi.rank + 1) % mpi.size
            yield from mpi.Send(token, dest=dest)

        results, _ = run_mpi(8, prog, design=design)
        assert results[0] == 8

    def test_all_pairs_exchange(self):
        def prog(mpi):
            total = 0
            for other in range(mpi.size):
                if other == mpi.rank:
                    continue
                if mpi.rank < other:
                    yield from mpi.send(mpi.rank * 100, dest=other)
                    v, _ = yield from mpi.recv(source=other)
                else:
                    v, _ = yield from mpi.recv(source=other)
                    yield from mpi.send(mpi.rank * 100, dest=other)
                total += v
            return total

        results, _ = run_mpi(4, prog, design="zerocopy")
        assert results == [600, 500, 400, 300]


class TestErrors:
    def test_invalid_rank(self):
        def prog(mpi):
            if mpi.rank == 0:
                try:
                    yield from mpi.send(b"x", dest=99)
                except MpiError:
                    return "caught"
            return "other"
            yield  # pragma: no cover

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[0] == "caught"

    def test_negative_tag_rejected(self):
        def prog(mpi):
            if mpi.rank == 0:
                try:
                    yield from mpi.send(b"x", dest=1, tag=-5)
                except MpiError:
                    return "caught"
            return "other"
            yield  # pragma: no cover

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[0] == "caught"

    def test_app_deadlock_detected(self):
        from repro.sim.engine import DeadlockError

        def prog(mpi):
            # everyone receives, nobody sends
            buf = mpi.alloc(8)
            yield from mpi.Recv(buf, source=(mpi.rank + 1) % mpi.size)

        with pytest.raises(DeadlockError):
            run_mpi(2, prog, design="zerocopy")
