"""Derived datatypes: layout construction, pack/unpack, and typed
point-to-point (the MPICH2 dataloop path)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.hw.membus import MEMCPY_CALL_OVERHEAD
from repro.mpi import run_mpi
from repro.mpi.derived import (CHAR, DOUBLE, FLOAT32, INT32, Datatype)


class TestConstruction:
    def test_basic_types(self):
        assert DOUBLE.size == 8
        assert DOUBLE.extent == 8
        assert DOUBLE.is_contiguous

    def test_contiguous(self):
        t = Datatype.contiguous(4, DOUBLE)
        assert t.size == 32
        assert t.extent == 32
        assert t.is_contiguous
        assert len(t.blocks) == 1  # coalesced

    def test_vector_layout(self):
        # 3 blocks of 2 doubles, stride 5 doubles
        t = Datatype.vector(3, 2, 5, DOUBLE)
        assert t.size == 48
        assert t.extent == (2 * 5 + 2) * 8
        assert not t.is_contiguous
        assert [(b.offset, b.length) for b in t.blocks] == \
            [(0, 16), (40, 16), (80, 16)]

    def test_vector_with_stride_equal_blocklength_is_contiguous(self):
        t = Datatype.vector(4, 2, 2, DOUBLE)
        assert t.is_contiguous
        assert t.size == 64

    def test_indexed(self):
        t = Datatype.indexed([1, 3], [0, 4], INT32)
        assert t.size == 16
        assert [(b.offset, b.length) for b in t.blocks] == \
            [(0, 4), (16, 12)]

    def test_validation(self):
        with pytest.raises(ValueError):
            Datatype.vector(0, 1, 1, DOUBLE)
        with pytest.raises(ValueError):
            Datatype.vector(2, 3, 2, DOUBLE)  # stride < blocklength
        with pytest.raises(ValueError):
            Datatype.indexed([1], [0, 1], CHAR)
        with pytest.raises(ValueError):
            Datatype.indexed([1, 1], [0, 0], INT32)  # overlap

    def test_span(self):
        t = Datatype.vector(2, 1, 4, DOUBLE)
        assert t.span(1) == (4 + 1) * 8
        assert t.span(2) == t.extent + t.span(1)


class TestPackUnpack:
    def _env(self):
        cluster = build_cluster(1)
        node = cluster.nodes[0]
        return cluster, node

    def test_pack_extracts_strided_column(self):
        cluster, node = self._env()
        # a 4x4 float64 matrix; column 1 as a vector type
        mat = np.arange(16, dtype=np.float64).reshape(4, 4)
        src = node.alloc(mat.nbytes)
        src.write(mat.tobytes())
        col = Datatype.vector(4, 1, 4, DOUBLE)
        dst = node.alloc(col.size)

        def prog():
            yield from col.pack(node.membus, node.mem,
                                src.sub(8), 1, dst)

        cluster.spawn(prog(), "main")
        cluster.run()
        got = np.frombuffer(dst.read(), dtype=np.float64)
        np.testing.assert_array_equal(got, mat[:, 1])

    def test_unpack_inverse_of_pack(self):
        cluster, node = self._env()
        t = Datatype.indexed([2, 1, 3], [0, 4, 8], CHAR)
        src = node.alloc(t.span(2))
        src.write(bytes(range(t.span(2))))
        mid = node.alloc(t.size * 2)
        out = node.alloc(t.span(2))

        def prog():
            yield from t.pack(node.membus, node.mem, src, 2, mid)
            yield from t.unpack(node.membus, node.mem, mid, 2, out)

        cluster.spawn(prog(), "main")
        cluster.run()
        # every packed byte round-trips to its original position
        src_b, out_b = src.read(), out.read()
        for i in range(2):
            base = i * t.extent
            for blk in t.blocks:
                s = slice(base + blk.offset, base + blk.offset + blk.length)
                assert out_b[s] == src_b[s]

    def test_pack_charges_time(self):
        cluster, node = self._env()
        t = Datatype.vector(64, 1, 2, DOUBLE)
        src = node.alloc(t.span(1))
        dst = node.alloc(t.size)

        def prog():
            t0 = cluster.sim.now
            yield from t.pack(node.membus, node.mem, src, 1, dst)
            return cluster.sim.now - t0

        p = cluster.spawn(prog(), "main")
        cluster.run()
        # 64 separate 8-byte copies cost far more than one 512B copy
        assert p.value > 64 * MEMCPY_CALL_OVERHEAD

    @given(count=st.integers(1, 4), blocklen=st.integers(1, 4),
           stride_extra=st.integers(0, 3), n=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_vector_pack_matches_numpy(self, count, blocklen,
                                       stride_extra, n):
        stride = blocklen + stride_extra
        cluster, node = self._env()
        t = Datatype.vector(count, blocklen, stride, DOUBLE)
        total_elems = t.span(n) // 8
        data = np.arange(total_elems, dtype=np.float64)
        src = node.alloc(data.nbytes)
        src.write(data.tobytes())
        dst = node.alloc(t.size * n)

        def prog():
            yield from t.pack(node.membus, node.mem, src, n, dst)

        cluster.spawn(prog(), "main")
        cluster.run()
        got = np.frombuffer(dst.read(), dtype=np.float64)
        expect = []
        for i in range(n):
            base = i * (t.extent // 8)
            for j in range(count):
                s = base + j * stride
                expect.extend(data[s:s + blocklen])
        np.testing.assert_array_equal(got, np.array(expect))


class TestTypedP2P:
    def test_send_matrix_column(self):
        """The classic use: ship a column of a row-major matrix."""
        n = 8

        def prog(mpi):
            col = Datatype.vector(n, 1, n, DOUBLE)
            if mpi.rank == 0:
                mat = np.arange(n * n, dtype=np.float64).reshape(n, n)
                buf = mpi.array(mat)
                yield from mpi.Send(buf.sub(2 * 8), dest=1, tag=1,
                                    datatype=col, count=1)
            else:
                out = mpi.alloc(col.span(1))
                out.view()[:] = 0
                yield from mpi.Recv(out, source=0, tag=1,
                                    datatype=col, count=1)
                arr = np.frombuffer(out.read(), dtype=np.float64)
                # elements land at stride n within the span
                return [arr[i * n] for i in range(n)]

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[1] == [float(i * 8 + 2) for i in range(8)]

    def test_typed_exchange_roundtrip(self):
        t = Datatype.indexed([2, 2], [0, 4], FLOAT32)

        def prog(mpi):
            if mpi.rank == 0:
                data = np.arange(6, dtype=np.float32)
                buf = mpi.array(data)
                yield from mpi.Send(buf, dest=1, tag=2, datatype=t)
            else:
                out = mpi.alloc(t.span(1))
                out.view()[:] = 0xFF
                yield from mpi.Recv(out, source=0, tag=2, datatype=t)
                arr = np.frombuffer(out.read(), dtype=np.float32)
                return arr.tolist()

        results, _ = run_mpi(2, prog, design="zerocopy")
        got = results[1]
        assert got[0:2] == [0.0, 1.0]
        # the second block sits at element displacement 4 and carries
        # the source's elements from the same offsets
        assert got[4:6] == [4.0, 5.0]
