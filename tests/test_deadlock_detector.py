"""Wait-for-graph deadlock diagnosis: hangs become DeadlockErrors
naming the cycle, with zero cost on clean runs."""

import pytest

from repro.check.differ import run_spec
from repro.check.mutations import CATALOG
from repro.mpi.runner import DESIGNS, build_world, run_mpi
from repro.obs.waitgraph import DeadlockDetector, find_cycle
from repro.sim.engine import DeadlockError


def _run(world, progs):
    for ctx, prog in zip(world.contexts, progs):
        world.cluster.spawn(prog(ctx), f"rank{ctx.rank}")
    world.cluster.run()


class TestFindCycle:
    def test_finds_two_cycle(self):
        edges = [(0, 1, "a"), (1, 0, "b")]
        assert find_cycle(edges) == [0, 1, 0]

    def test_finds_longer_cycle_behind_a_tail(self):
        edges = [(9, 2, "t"), (2, 3, "a"), (3, 4, "b"), (4, 2, "c")]
        assert find_cycle(edges) == [2, 3, 4, 2]

    def test_dag_has_none(self):
        edges = [(0, 1, "a"), (1, 2, "b"), (0, 2, "c")]
        assert find_cycle(edges) is None


class TestAppDeadlocks:
    def test_recv_recv_cycle_is_named(self):
        """Both ranks posting a receive first is the classic §2 MPI
        deadlock; the detector names the cycle instead of leaving a
        bare blocked-process count."""
        def prog(mpi):
            peer = 1 - mpi.rank
            yield from mpi.recv(source=peer, tag=0)

        world = build_world(2, "srq")
        with pytest.raises(DeadlockError) as err:
            _run(world, [prog, prog])
        text = str(err.value)
        assert "wait-for graph:" in text
        assert "posted receive" in text and "never matched" in text
        assert "deadlock cycle: rank 0 -> rank 1 -> rank 0" in text

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_lone_rank_blocked_in_probe(self, design):
        """A rank with no connection has nothing to wake it: its sleep
        never fires, so the run ends in a deadlock, not a spin."""
        def prog(mpi):
            yield from mpi.Probe(0, 7)

        with pytest.raises(DeadlockError, match="rank0"):
            run_mpi(1, prog, design=design)

    def test_unmatched_recv_without_cycle_still_explained(self):
        def sender(mpi):
            yield from mpi.send(b"x", dest=1, tag=1)

        def receiver(mpi):
            yield from mpi.recv(source=0, tag=1)
            yield from mpi.recv(source=0, tag=2)  # never sent

        world = build_world(2, "srq")
        with pytest.raises(DeadlockError) as err:
            _run(world, [sender, receiver])
        text = str(err.value)
        assert "rank 1 -> rank 0" in text
        assert "tag=2" in text
        assert "deadlock cycle" not in text


class TestCreditStarvation:
    def test_srq_credit_leak_names_the_starved_window(self):
        """ISSUE 10 flagship: the leaked-credit mutation used to hang
        until pytest's timeout; under the detector the drained queue
        raises a DeadlockError whose graph names the starved SRQ
        credit window on the sender→receiver edge."""
        mut = next(m for m in CATALOG if m.name == "srq-credit-leak")
        undo = mut.apply()
        try:
            obs = run_spec(mut.spec, mut.design)
        finally:
            undo()
        assert obs.error is not None
        assert "DeadlockError" in obs.error
        assert "SRQ credit window starved" in obs.error
        assert "deadlock cycle" in obs.error
        # the tracer is attached under run_spec, so the silent edge
        # carries its last causal message and the final vector clocks
        assert "last causal message" in obs.error
        assert "final vector clocks" in obs.error


class TestZeroCost:
    def test_detector_leaves_timing_identical(self):
        """The plain detector (no tracer) is post-mortem only: a
        clean run finishes at the exact same simulated instant with
        and without it armed."""
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send(b"y" * 2048, dest=1, tag=7)
                yield from mpi.recv(source=1, tag=8)
            else:
                yield from mpi.recv(source=0, tag=7)
                yield from mpi.send(b"y" * 2048, dest=0, tag=8)

        ends = []
        for arm in (True, False):
            world = build_world(2, "srq")
            if not arm:
                world.sim.deadlock_hook = None  # detach
            _run(world, [prog, prog])
            ends.append(world.sim.now)
        assert ends[0] == ends[1]

    def test_build_world_arms_the_hook_by_default(self):
        world = build_world(2, "srq")
        assert world.sim.deadlock_hook is not None


class TestVectorClocks:
    def test_clocks_tick_and_merge(self):
        def prog(mpi):
            if mpi.rank == 0:
                yield from mpi.send(b"a", dest=1, tag=1)
                yield from mpi.recv(source=1, tag=2)
            else:
                yield from mpi.recv(source=0, tag=1)
                yield from mpi.send(b"b", dest=0, tag=2)

        world = build_world(2, "srq")
        det = DeadlockDetector.attach(world, with_tracer=True)
        _run(world, [prog, prog])
        tracer = det.tracer
        recs = sorted((m for m in tracer.messages
                       if m.tag in (1, 2)), key=lambda m: m.tag)
        assert len(recs) == 2
        first, second = recs
        assert first.vc_send is not None
        assert first.vc_deliver is not None
        # delivery merges the sender's knowledge then ticks: the
        # reply's send clock must dominate the first delivery
        assert all(a >= b for a, b in
                   zip(second.vc_send, first.vc_deliver))
        last = tracer.last_causal(0, 1)
        assert last is not None and last.src == 0 and last.dst == 1
