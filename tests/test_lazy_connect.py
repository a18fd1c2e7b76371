"""On-demand connection establishment (design ``srq-lazy``).

Locks down the three properties the design exists for:

* a nearest-neighbour (ring) workload materializes O(N) connections,
  not the eager mesh's O(N²) — exactly one per rank pair that
  actually exchanged a message;
* the handshake outcome is schedule-independent: perturbing the
  engine's same-timestamp tie-break (``tie_seed``) changes who
  initiates each connect but not the delivered bytes;
* it composes with fault injection: a connect REQ eaten by a link-down
  window is retried with backoff and the run still completes.
"""

import pytest

from repro.check import oracle
from repro.check.differ import run_spec
from repro.check.generate import generate_spec
from repro.faults import FaultPlan, LinkFaults
from repro.mpi.runner import run_world


def _pattern(n, salt=0):
    return bytes((i * 131 + salt * 17 + 3) % 256 for i in range(n))


def _ring(mpi):
    """Pure point-to-point ring (no collectives: they would connect
    the recursive-doubling pairs too)."""
    n = mpi.size
    right, left = (mpi.rank + 1) % n, (mpi.rank - 1) % n
    me = _pattern(1024, salt=mpi.rank)
    if mpi.rank % 2 == 0:
        yield from mpi.send(me, dest=right, tag=1)
        data, _ = yield from mpi.recv(source=left, tag=1)
    else:
        data, _ = yield from mpi.recv(source=left, tag=1)
        yield from mpi.send(me, dest=right, tag=1)
    assert bytes(data) == _pattern(1024, salt=left)
    return mpi.rank


class TestConnectionCount:
    @pytest.mark.parametrize("nranks", [4, 8, 16])
    def test_ring_materializes_one_connection_per_pair(self, nranks):
        res, world = run_world(nranks, _ring, design="srq-lazy")
        assert res == list(range(nranks))
        # exactly the N ring pairs, nothing else
        assert world.connection_count() == nranks
        connector = world.devices[0].connector
        assert connector.connects == nranks

    def test_eager_mesh_is_quadratic_by_contrast(self):
        _, lazy = run_world(8, _ring, design="srq-lazy")
        _, eager = run_world(8, _ring, design="srq")
        assert eager.connection_count() == 8 * 7 // 2
        assert lazy.connection_count() == 8
        assert lazy.cluster.live_qps() < eager.cluster.live_qps()
        assert lazy.cluster.pinned_bytes() < eager.cluster.pinned_bytes()

    def test_unused_pairs_never_connect(self):
        """Only rank 0 talks, only to rank 1: one connection total."""
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send(b"x" * 64, dest=1, tag=0)
            elif mpi.rank == 1:
                data, _ = yield from mpi.recv(source=0, tag=0)
                return bytes(data)
            return None

        res, world = run_world(6, prog, design="srq-lazy")
        assert res[1] == b"x" * 64
        assert world.connection_count() == 1


class TestOrderIndependence:
    def test_tie_seed_perturbation_is_transparent(self):
        """Concurrent connects race differently under each tie-break
        seed; the canonical per-rank records must not change."""
        spec = generate_spec(1311, nranks=4)
        base = run_spec(spec, "srq-lazy")
        assert oracle.check(spec, base) == []
        for seed in (1, 7, 1999):
            perturbed = run_spec(spec, "srq-lazy", tie_seed=seed)
            assert oracle.check(spec, perturbed) == []
            assert perturbed.ranks == base.ranks

    def test_lazy_records_match_eager_designs(self):
        """Same spec, lazy vs eager srq vs basic: identical canonical
        records (timing differs, bytes must not)."""
        spec = generate_spec(4242, nranks=3)
        lazy = run_spec(spec, "srq-lazy")
        for other in ("srq", "mux", "basic"):
            obs = run_spec(spec, other)
            assert obs.ranks == lazy.ranks, other


class TestFaultCompose:
    def test_connect_retries_through_link_down_window(self):
        """The 0->1 link is down for the first 100 us: rank 0's REQ is
        dropped, the connector backs off and retries, and the transfer
        still completes."""
        plan = FaultPlan(seed=5,
                         links={(0, 1): LinkFaults(down=((0.0, 1e-4),))})

        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send(_pattern(2048), dest=1, tag=3)
            else:
                data, _ = yield from mpi.recv(source=0, tag=3)
                return bytes(data)

        res, world = run_world(2, prog, design="srq-lazy",
                               faults=plan)
        assert res[1] == _pattern(2048)
        assert world.cluster.faults.stats.dropped >= 1
        assert world.connection_count() == 1
        # the handshake alone forced the run past the down window
        assert world.sim.now > 1e-4

    def test_retry_exhaustion_surfaces_mpi_error(self):
        """A permanently dead link must fail the connect loudly, not
        hang the rank."""
        from repro.mpich2.adi3 import MpiError
        from repro.sim.engine import SimulationError
        plan = FaultPlan(seed=5,
                         links={(0, 1): LinkFaults(down=((0.0, 1e6),))})

        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send(b"y" * 64, dest=1, tag=0)
            else:
                yield from mpi.recv(source=0, tag=0)

        with pytest.raises((MpiError, SimulationError)):
            run_world(2, prog, design="srq-lazy", faults=plan)
