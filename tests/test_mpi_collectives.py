"""Collective operations: correctness against serial references,
including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import MAX, MAXLOC, MIN, PROD, SUM, run_mpi

SIZES = [2, 3, 4, 5, 8]


class TestBarrier:
    @pytest.mark.parametrize("p", SIZES)
    def test_barrier_synchronizes(self, p):
        def prog(mpi):
            # each rank idles a different amount; after the barrier,
            # everyone's time is >= the slowest rank's pre-barrier time
            yield from mpi.compute(mpi.rank * 10e-6)
            t_before = mpi.wtime()
            yield from mpi.Barrier()
            return (t_before, mpi.wtime())

        results, _ = run_mpi(p, prog, design="zerocopy")
        slowest_entry = max(t for t, _ in results)
        for _t, after in results:
            assert after >= slowest_entry

    def test_barrier_single_rank(self):
        def prog(mpi):
            yield from mpi.Barrier()
            return "ok"

        results, _ = run_mpi(1, prog, design="zerocopy")
        assert results == ["ok"]


class TestBcast:
    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("root", [0, 1])
    def test_bcast_array(self, p, root):
        if root >= p:
            pytest.skip("root outside communicator")

        def prog(mpi):
            data = np.zeros(100, dtype=np.float64)
            if mpi.rank == root:
                data[:] = np.arange(100) * 1.5
            yield from mpi.Bcast(data, root=root)
            return float(data.sum())

        results, _ = run_mpi(p, prog, design="zerocopy")
        expected = float((np.arange(100) * 1.5).sum())
        assert all(r == expected for r in results)

    @pytest.mark.parametrize("p", SIZES)
    def test_bcast_object(self, p):
        def prog(mpi):
            obj = {"data": list(range(20))} if mpi.rank == 0 else None
            obj = yield from mpi.bcast(obj, root=0)
            return obj["data"][-1]

        results, _ = run_mpi(p, prog, design="zerocopy")
        assert results == [19] * p


class TestReduce:
    @pytest.mark.parametrize("p", SIZES)
    def test_reduce_sum(self, p):
        def prog(mpi):
            data = np.full(64, float(mpi.rank + 1))
            out = np.zeros(64)
            yield from mpi.Reduce(data, out, op=SUM, root=0)
            return float(out[0]) if mpi.rank == 0 else None

        results, _ = run_mpi(p, prog, design="zerocopy")
        assert results[0] == sum(range(1, p + 1))

    def test_reduce_max_int(self):
        def prog(mpi):
            data = np.array([(mpi.rank * 7) % 5, mpi.rank],
                            dtype=np.int64)
            out = np.zeros(2, dtype=np.int64)
            yield from mpi.Reduce(data, out, op=MAX, root=0,
                                  dtype=np.int64)
            return out.tolist() if mpi.rank == 0 else None

        results, _ = run_mpi(4, prog, design="zerocopy")
        assert results[0] == [4, 3]


class TestAllreduce:
    @pytest.mark.parametrize("p", SIZES)
    def test_allreduce_sum_all_ranks_agree(self, p):
        def prog(mpi):
            data = np.arange(32, dtype=np.float64) + mpi.rank
            out = np.zeros(32)
            yield from mpi.Allreduce(data, out, op=SUM)
            return out.tolist()

        results, _ = run_mpi(p, prog, design="zerocopy")
        expected = (np.arange(32, dtype=np.float64) * p
                    + sum(range(p))).tolist()
        for r in results:
            assert r == pytest.approx(expected)

    @pytest.mark.parametrize("p", [3, 5, 6, 7])
    def test_allreduce_non_power_of_two(self, p):
        def prog(mpi):
            data = np.array([float(mpi.rank + 1)])
            out = np.zeros(1)
            yield from mpi.Allreduce(data, out, op=PROD)
            return float(out[0])

        results, _ = run_mpi(p, prog, design="zerocopy")
        expected = float(np.prod(np.arange(1, p + 1, dtype=float)))
        assert all(r == pytest.approx(expected) for r in results)

    def test_allreduce_object_maxloc(self):
        def prog(mpi):
            value = (3.0 if mpi.rank == 2 else 1.0, mpi.rank)
            result = yield from mpi.allreduce(value, op=MAXLOC)
            return result

        results, _ = run_mpi(4, prog, design="zerocopy")
        assert all(r == (3.0, 2) for r in results)


class TestGatherScatter:
    @pytest.mark.parametrize("p", SIZES)
    def test_gather(self, p):
        def prog(mpi):
            data = np.full(8, float(mpi.rank), dtype=np.float64)
            out = np.zeros(8 * mpi.size) if mpi.rank == 0 else \
                np.zeros(8 * mpi.size)
            yield from mpi.Gather(data, out, root=0)
            if mpi.rank == 0:
                return [float(out[8 * i]) for i in range(mpi.size)]

        results, _ = run_mpi(p, prog, design="zerocopy")
        assert results[0] == [float(i) for i in range(p)]

    def test_gather_object(self):
        def prog(mpi):
            objs = yield from mpi.gather(f"r{mpi.rank}", root=1)
            return objs

        results, _ = run_mpi(3, prog, design="zerocopy")
        assert results[1] == ["r0", "r1", "r2"]
        assert results[0] is None

    @pytest.mark.parametrize("p", SIZES)
    def test_scatter(self, p):
        def prog(mpi):
            send = np.arange(4 * mpi.size, dtype=np.float64) \
                if mpi.rank == 0 else np.zeros(4 * mpi.size)
            recv = np.zeros(4)
            yield from mpi.Scatter(send, recv, root=0)
            return recv.tolist()

        results, _ = run_mpi(p, prog, design="zerocopy")
        for r, vals in enumerate(results):
            assert vals == [4.0 * r + i for i in range(4)]

    def test_scatter_then_gather_roundtrip(self):
        def prog(mpi):
            n = 16
            send = np.arange(n * mpi.size, dtype=np.float64) \
                if mpi.rank == 0 else np.zeros(n * mpi.size)
            part = np.zeros(n)
            yield from mpi.Scatter(send, part, root=0)
            part *= 2
            out = np.zeros(n * mpi.size)
            yield from mpi.Gather(part, out, root=0)
            if mpi.rank == 0:
                return out.tolist()

        results, _ = run_mpi(4, prog, design="zerocopy")
        assert results[0] == (np.arange(64, dtype=float) * 2).tolist()


class TestAllgatherAlltoall:
    @pytest.mark.parametrize("p", SIZES)
    def test_allgather(self, p):
        def prog(mpi):
            mine = np.full(4, float(mpi.rank * 11))
            out = np.zeros(4 * mpi.size)
            yield from mpi.Allgather(mine, out)
            return out[::4].tolist()

        results, _ = run_mpi(p, prog, design="zerocopy")
        expected = [11.0 * i for i in range(p)]
        assert all(r == expected for r in results)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_alltoall(self, p):
        def prog(mpi):
            send = np.array([mpi.rank * 100 + j for j in range(mpi.size)],
                            dtype=np.float64)
            recv = np.zeros(mpi.size)
            yield from mpi.Alltoall(send, recv)
            return recv.tolist()

        results, _ = run_mpi(p, prog, design="zerocopy")
        for r, vals in enumerate(results):
            assert vals == [100.0 * j + r for j in range(p)]


class TestScanReduceScatter:
    @pytest.mark.parametrize("p", SIZES)
    def test_scan_prefix_sum(self, p):
        def prog(mpi):
            data = np.array([float(mpi.rank + 1)])
            out = np.zeros(1)
            yield from mpi.Scan(data, out, op=SUM)
            return float(out[0])

        results, _ = run_mpi(p, prog, design="zerocopy")
        assert results == [sum(range(1, r + 2)) for r in range(p)]

    def test_reduce_scatter(self):
        def prog(mpi):
            p = mpi.size
            send = np.arange(2 * p, dtype=np.float64) + mpi.rank
            recv = np.zeros(2)
            yield from mpi.Reduce_scatter(send, recv, op=SUM)
            return recv.tolist()

        p = 4
        results, _ = run_mpi(p, prog, design="zerocopy")
        base = np.arange(2 * p, dtype=float) * p + sum(range(p))
        for r, vals in enumerate(results):
            assert vals == base[2 * r:2 * r + 2].tolist()


class TestCommunicatorManagement:
    def test_dup_isolates_traffic(self):
        def prog(mpi):
            dup = yield from mpi.COMM_WORLD.Dup()
            if mpi.rank == 0:
                yield from mpi.send("world", dest=1, tag=1)
                yield from dup.send("dup", dest=1, tag=1)
            else:
                # receive in the opposite order: contexts must isolate
                d, _ = yield from dup.recv(source=0, tag=1)
                w, _ = yield from mpi.recv(source=0, tag=1)
                return (w, d)

        results, _ = run_mpi(2, prog, design="zerocopy")
        assert results[1] == ("world", "dup")

    def test_split_even_odd(self):
        def prog(mpi):
            sub = yield from mpi.COMM_WORLD.Split(color=mpi.rank % 2,
                                                  key=mpi.rank)
            total = yield from sub.allreduce(mpi.rank, op=SUM)
            return (sub.rank, sub.size, total)

        results, _ = run_mpi(4, prog, design="zerocopy")
        # evens: ranks 0,2 -> sum 2; odds: 1,3 -> sum 4
        assert results[0] == (0, 2, 2)
        assert results[2] == (1, 2, 2)
        assert results[1] == (0, 2, 4)
        assert results[3] == (1, 2, 4)


#: one call per ndarray collective on 3 ranks: 8 float64 per rank
#: block, byte counts for the v-variants
_ARRAY_CALLS = {
    "Bcast": lambda mpi: mpi.Bcast(np.zeros(24)),
    "Reduce": lambda mpi: mpi.Reduce(np.ones(24), np.zeros(24)),
    "Gather": lambda mpi: mpi.Gather(np.ones(8), np.zeros(24)),
    "Scatter": lambda mpi: mpi.Scatter(np.ones(24), np.zeros(8)),
    "Allgather": lambda mpi: mpi.Allgather(np.ones(8), np.zeros(24)),
    "Alltoall": lambda mpi: mpi.Alltoall(np.ones(24), np.zeros(24)),
    "Scan": lambda mpi: mpi.Scan(np.ones(24), np.zeros(24)),
    "Reduce_scatter": lambda mpi: mpi.Reduce_scatter(np.ones(24),
                                                     np.zeros(8)),
    "Gatherv": lambda mpi: mpi.Gatherv(np.ones(8), np.zeros(24),
                                       [64] * 3),
    "Scatterv": lambda mpi: mpi.Scatterv(np.ones(24), np.zeros(8),
                                         [64] * 3),
    "Allgatherv": lambda mpi: mpi.Allgatherv(np.ones(8), np.zeros(24),
                                             [64] * 3),
    "Alltoallv": lambda mpi: mpi.Alltoallv(np.ones(24), np.zeros(24),
                                           [64] * 3, [64] * 3),
}


class TestStagedBuffersAreFreed:
    """A collective stages each ndarray argument into node memory and
    frees the staged copy when it is done with it: after the first
    call, repeated calls leave ``allocated_bytes`` flat."""

    def test_allreduce_50_calls(self):
        def prog(mpi):
            seen = []
            for _ in range(50):
                out = np.zeros(1024)  # 8 KB
                yield from mpi.Allreduce(np.full(1024, float(mpi.rank)),
                                         out)
                seen.append(mpi.device.node.mem.allocated_bytes)
            return seen, float(out[0])

        results, _ = run_mpi(2, prog, design="zerocopy")
        for seen, total in results:
            assert seen == [seen[0]] * 50
            assert total == 1.0

    @pytest.mark.parametrize("name", sorted(_ARRAY_CALLS))
    def test_every_array_collective(self, name):
        """Counted by name: ``allocated_bytes`` also holds the eager
        messages of the next call that reached a slower rank early."""
        def prog(mpi):
            staged = []
            for _ in range(3):
                yield from _ARRAY_CALLS[name](mpi)
                staged.append(sum(
                    r.name == "coll"
                    for r in mpi.device.node.mem._regions.values()))
            return staged

        results, _ = run_mpi(3, prog, design="zerocopy")
        assert results == [[0, 0, 0]] * 3


class TestCollectiveProperties:
    @given(p=st.integers(2, 6),
           values=st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
           seed=st.integers(0, 10))
    @settings(max_examples=15, deadline=None)
    def test_allreduce_matches_serial(self, p, values, seed):
        vals = values[:p]

        def prog(mpi):
            data = np.array([vals[mpi.rank]])
            out = np.zeros(1)
            yield from mpi.Allreduce(data, out, op=SUM)
            return float(out[0])

        results, _ = run_mpi(p, prog, design="piggyback")
        expected = float(np.sum(np.array(vals[:p])))
        for r in results:
            assert r == pytest.approx(expected, rel=1e-12, abs=1e-9)

    @given(p=st.integers(2, 5), n=st.integers(1, 64),
           root=st.integers(0, 4))
    @settings(max_examples=15, deadline=None)
    def test_bcast_delivers_exact_bytes(self, p, n, root):
        root = root % p
        payload = bytes((i * 37 + 11) % 256 for i in range(n))

        def prog(mpi):
            buf = mpi.alloc(n)
            if mpi.rank == root:
                buf.write(payload)
            yield from mpi.Bcast(buf, root=root)
            return buf.read()

        results, _ = run_mpi(p, prog, design="piggyback")
        assert all(r == payload for r in results)
