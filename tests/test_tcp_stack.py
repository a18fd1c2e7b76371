"""Kernel TCP/IPoIB stack and channel behaviour."""

from repro.bench.micro import mpi_bandwidth, mpi_latency_us
from repro.config import KB, MB
from repro.mpi import run_mpi, run_world


class TestTcpChannel:
    def test_era_accurate_latency(self):
        """Kernel TCP over IPoIB: tens of microseconds (vs ~7 RDMA)."""
        lat = mpi_latency_us(4, "tcp", iters=30)
        assert 15 <= lat <= 60
        assert lat > 2.5 * mpi_latency_us(4, "zerocopy", iters=30)

    def test_era_accurate_bandwidth_ceiling(self):
        """The kernel path cannot approach the 870 MB/s wire."""
        bw = mpi_bandwidth(1 * MB, "tcp", windows=3)
        assert 120 <= bw <= 320
        assert bw < 0.35 * mpi_bandwidth(1 * MB, "zerocopy", windows=3)

    def test_no_rdma_operations_used(self):
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send(b"x" * 100000, dest=1)
            else:
                yield from mpi.recv(source=0)

        _results, world = run_world(2, prog, design="tcp")
        hca = world.stats()
        assert hca["rdma_writes"] == 0
        assert hca["rdma_reads"] == 0
        assert hca["registrations"] == 0

    def test_window_flow_control(self):
        """A stream far larger than the 64 KB socket buffer still
        arrives intact (the sender blocks and resumes on ACKs)."""
        n = 1 * MB

        def prog(mpi):
            if mpi.rank == 0:
                buf = mpi.alloc(n)
                buf.view()[:] = (3 * (1 + (mpi.rank))) % 251
                import numpy as np
                buf.view()[:] = np.arange(n, dtype=np.uint32).astype(
                    np.uint8)
                yield from mpi.Send(buf, dest=1)
            else:
                import numpy as np
                buf = mpi.alloc(n)
                yield from mpi.Recv(buf, source=0)
                expect = np.arange(n, dtype=np.uint32).astype(np.uint8)
                return bool((buf.view() == expect).all())

        results, _ = run_mpi(2, prog, design="tcp")
        assert results[1] is True

    def test_interrupt_coalescing_helps_streams(self):
        """Back-to-back segments ride one interrupt: a 64 KB stream is
        far cheaper than 16 isolated 4 KB ping-pongs."""
        stream_bw = mpi_bandwidth(64 * KB, "tcp", windows=3)
        # isolated pings pay the interrupt each time
        lat4k = mpi_latency_us(4 * KB, "tcp", iters=20)
        isolated_bw = 4 * KB / (lat4k * 1e-6) / 1e6
        assert stream_bw > 1.5 * isolated_bw

    def test_bidirectional(self):
        def prog(mpi):
            peer = 1 - mpi.rank
            sbuf = mpi.alloc(32 * KB)
            rbuf = mpi.alloc(32 * KB)
            sbuf.view()[:] = mpi.rank + 1
            yield from mpi.Sendrecv(sbuf, peer, rbuf, peer)
            return int(rbuf.view()[0])

        results, _ = run_mpi(2, prog, design="tcp")
        assert results == [2, 1]
