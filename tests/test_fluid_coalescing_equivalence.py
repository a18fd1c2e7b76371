"""One re-solve per timestamp vs one per change: bit-for-bit.

:class:`repro.sim.fluid.FluidNetwork` marks itself dirty in
``transfer()`` and in its completion wakeup, and re-solves once per
timestamp from an engine settle hook.  The historical network
re-solved inside every ``transfer()`` and every wakeup.  Between two
changes at one timestamp ``dt == 0`` and no byte moves, so the two
schedules must agree on every completion time, with ``==``.

``EagerNetwork`` below *is* the historical behaviour (the reference
stays in the tests); the suite drives both through hypothesis-built
programs made of the shapes coalescing acts on — same-timestamp bursts
of k starts, finish-then-start inside one timestamp, zero-byte
transfers, transfers issued before ``run()`` and between bounded
``run(until=)`` calls, bursts landing on the exact timestamp of
another flow's completion, and sub-resolution residues at large ``t``
— and compares completion times, completion *order*, the final clock
and ``events_processed``.

The generated programs schedule nothing but their own start callbacks
(all before ``run()``), so no foreign entry can share a wakeup's
bucket: hazard (i) of docs/SIMULATOR.md is excluded by construction and
probed on its own at the bottom, as is hazard (iii) (integer
``tie_seed``: a different but legal interleaving).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.runner import run_world
from repro.sim.engine import Simulator
from repro.sim.fluid import FluidNetwork, FluidResource


class EagerNetwork(FluidNetwork):
    """The pre-coalescing network: every change to the active set
    cancels the stale wakeup and re-solves on the spot."""

    def _mark_dirty(self):
        if self._wake_handle is not None:
            self._wake_handle.cancel()
            self._wake_handle = None
        self._reallocate()


CAPACITIES = [8e8, 1e9, 1.6e9, 7.5e7]
COSTS = [1.0, 1.0, 2.0, 3.0, 1.5]

#: 0 and 1 byte, the 96 B / 33 B shapes of tests/test_sim_fluid.py's
#: float-resolution regressions, and ordinary payloads
SIZES = st.one_of(st.sampled_from([0, 0, 1, 33, 96, 96, 4096, 65536]),
                  st.integers(min_value=0, max_value=2_000_000))

#: start offsets: heavy collisions, plus 1.2e-7 s == 96 B / 8e8 B/s so
#: that a burst lands on the very timestamp another flow's wakeup fires
OFFSETS = [0.0, 0.0, 1e-6, 2e-6, 1.2e-7, 2.4e-7, 1e-3]

#: 95 s and 1000 s: ulp(t) is ~1e-14..1e-13 s, coarse enough for
#: rate * ulp to exceed the finishing tolerance and leave residues
BASES = [0.0, 0.0, 95.0, 1000.0]


@st.composite
def _programs(draw):
    ncaps = draw(st.integers(min_value=1, max_value=4))
    caps = draw(st.lists(st.sampled_from(CAPACITIES),
                         min_size=ncaps, max_size=ncaps))
    route = st.lists(
        st.tuples(st.integers(min_value=0, max_value=ncaps - 1),
                  st.sampled_from(COSTS)),
        min_size=1, max_size=3)
    # a flow: (nbytes, route, follow-ups started from its completion
    # callback, i.e. finish-then-start inside one timestamp)
    leaf = st.tuples(SIZES, route, st.just([]))
    flow = st.tuples(SIZES, route, st.lists(leaf, max_size=2))
    base = draw(st.sampled_from(BASES))
    bursts = draw(st.lists(
        st.tuples(st.sampled_from(OFFSETS).map(lambda o: base + o),
                  st.lists(flow, min_size=1, max_size=6)),
        min_size=1, max_size=5))
    before_run = draw(st.lists(flow, max_size=3))
    # bounded-run splits, each followed by transfers issued from
    # outside run() at the split time
    splits = draw(st.lists(
        st.tuples(st.sampled_from(OFFSETS + [5e-7, 5e-4])
                  .map(lambda o: base + o),
                  st.lists(flow, max_size=2)),
        max_size=3))
    splits.sort(key=lambda s: s[0])
    return caps, bursts, before_run, splits


def _landing_on_a_completion(program, pick, specs):
    """``program`` plus one burst at the exact float time at which one
    of its flows completes (``pick`` selects which).  At large ``t``
    that advance leaves sub-resolution residues behind, the one place
    where an intermediate allocation is observable."""
    caps, bursts, before_run, splits = program
    times = sorted({t for _key, t in _run(EagerNetwork, program)[0]})
    at = times[pick % len(times)]
    return caps, bursts + [(at, specs)], before_run, splits


def _run(net_cls, program, tie_seed=None):
    """Replay one program; returns the completion log in callback
    order, the final clock and the engine's event count."""
    caps, bursts, before_run, splits = program
    sim = Simulator(tie_seed=tie_seed)
    net = net_cls(sim)
    resources = [FluidResource(f"r{i}", c) for i, c in enumerate(caps)]
    completions = []

    def start(key, spec):
        nbytes, route_spec, followups = spec
        route = [(resources[i], cost) for i, cost in route_spec]

        def finished(_ev):
            completions.append((key, sim.now))
            for j, nxt in enumerate(followups):
                start(f"{key}>{j}", nxt)

        net.transfer(nbytes, route, label=key).add_callback(finished)

    def burst(bi, specs):
        for fi, spec in enumerate(specs):
            start(f"b{bi}.{fi}", spec)

    for bi, (at, specs) in enumerate(bursts):
        sim.call_at(at, burst, bi, specs)
    for fi, spec in enumerate(before_run):
        start(f"pre.{fi}", spec)
    for si, (until, specs) in enumerate(splits):
        sim.run(until=until)
        for fi, spec in enumerate(specs):
            start(f"s{si}.{fi}", spec)
    sim.run()
    assert not net.active_flows
    return completions, sim.now, sim.events_processed


def _count(spec):
    return 1 + sum(_count(s) for s in spec[2])


def _nflows(program):
    _caps, bursts, before_run, splits = program
    return (sum(_count(s) for _at, specs in bursts for s in specs)
            + sum(_count(s) for s in before_run)
            + sum(_count(s) for _u, specs in splits for s in specs))


_flow_on_r0 = st.tuples(SIZES, st.just([(0, 1.0)]), st.just([]))


@settings(max_examples=300, deadline=None)
@given(_programs(), st.integers(min_value=0, max_value=63),
       st.lists(_flow_on_r0, max_size=4))
def test_coalesced_equals_eager(program, pick, landing):
    if landing:
        program = _landing_on_a_completion(program, pick, landing)
    lazy = _run(FluidNetwork, program)
    eager = _run(EagerNetwork, program)
    assert len(lazy[0]) == _nflows(program)
    # completion order, every completion time, sim.now and
    # events_processed: exact equality, no tolerance
    assert lazy == eager


@settings(max_examples=60, deadline=None)
@given(_programs(), st.sampled_from([1, 7, 2**31 - 1]))
def test_seeded_runs_replay_and_keep_completion_times(program, tie_seed):
    """Hazard (iii): coalescing draws fewer tie-break priorities, so a
    seed names a different — still legal — interleaving than it did.
    Each schedule must replay exactly, and no flow's completion time
    may differ from the eager schedule's beyond float noise."""
    lazy = _run(FluidNetwork, program, tie_seed)
    assert _run(FluidNetwork, program, tie_seed) == lazy
    eager_times = dict(_run(EagerNetwork, program, tie_seed)[0])
    lazy_times = dict(lazy[0])
    assert lazy_times.keys() == eager_times.keys()
    for key, t in lazy_times.items():
        assert abs(t - eager_times[key]) <= 1e-12 * max(t, 1e-300), key


# -- the shapes, one deterministic case each --------------------------------

def _one_link(net_cls):
    sim = Simulator()
    return sim, net_cls(sim), FluidResource("link", 8e8)


def test_burst_of_k_starts_resolves_once():
    resolves = {}
    for net_cls in (FluidNetwork, EagerNetwork):
        sim, net, link = _one_link(net_cls)

        def burst():
            for _ in range(64):
                net.transfer(4096, [(link, 1.0)])

        sim.call_at(1e-6, burst)
        sim.run()
        assert net.transfers == 64
        resolves[net_cls] = net.resolves
    # one re-solve for the 64 starts, one for their common finish
    assert resolves == {FluidNetwork: 2, EagerNetwork: 65}


def test_zero_byte_transfers_neither_dirty_nor_resolve():
    sim, net, link = _one_link(FluidNetwork)
    done = net.transfer(0, [(link, 1.0)])
    assert done.triggered
    sim.run()
    assert (net.transfers, net.resolves) == (1, 0)


def test_active_flows_settles_before_exposing_rates():
    sim, net, link = _one_link(FluidNetwork)
    net.transfer(4096, [(link, 1.0)])
    net.transfer(4096, [(link, 1.0)])
    assert [f.rate for f in net.active_flows] == [4e8, 4e8]
    assert net.resolves == 1
    sim.run()
    assert net.resolves == 2  # the early settle is not repeated


def test_transfer_before_run_and_between_bounded_runs():
    for net_cls in (FluidNetwork, EagerNetwork):
        sim, net, link = _one_link(net_cls)
        a = net.transfer(800, [(link, 1.0)])      # 1 us alone
        sim.run(until=5e-7)                       # half way
        assert not a.triggered and sim.now == 5e-7
        b = net.transfer(400, [(link, 1.0)])      # now sharing
        sim.run(until=1e-6)
        assert not a.triggered and not b.triggered
        sim.run()
        # a: 400 B left at 4e8 B/s -> both finish at 0.5 + 1.0 us
        assert a.value.finished_at == b.value.finished_at == sim.now
        assert sim.now == 5e-7 + 400 / 4e8


def test_sub_resolution_residue_completes_identically(monkeypatch):
    """Hazard (ii): at t = 95 s (the shape of tests/test_sim_fluid.py)
    a burst lands on the timestamp at which a flow is due.  The
    advance leaves that flow a residue above the finishing tolerance;
    eagerly the first re-solve completed it on the spot
    (``now + remaining / rate <= now``), whereas under the rates of
    the whole burst it would take one more ulp of ``t``.  The network
    must therefore re-solve such a timestamp change by change."""
    on_the_spot = []
    real = FluidNetwork._reallocate

    def spy(self):
        before = self.resolves
        real(self)
        if self.resolves > before + 1:  # recursed: completed in place
            on_the_spot.append(self.sim.now)
    monkeypatch.setattr(FluidNetwork, "_reallocate", spy)

    def scenario(net_cls, second_burst_at=None):
        sim = Simulator()
        net = net_cls(sim)
        link = FluidResource("link", 1e9)
        log = []

        def burst(tag, n, nbytes):
            for i in range(n):
                net.transfer(nbytes, [(link, 1.0)]).add_callback(
                    lambda _e, k=f"{tag}{i}": log.append((k, sim.now)))

        sim.call_at(95.0, burst, "a", 1, 4096)
        if second_burst_at is not None:
            sim.call_at(second_burst_at, burst, "b", 4, 96)
        sim.run()
        return log, sim.now, sim.events_processed

    (_a0, due), = scenario(EagerNetwork)[0]
    del on_the_spot[:]
    eager = scenario(EagerNetwork, due)
    assert on_the_spot == [due]
    del on_the_spot[:]
    lazy = scenario(FluidNetwork, due)
    assert on_the_spot == [due]
    assert lazy == eager
    assert lazy[0][0] == ("a0", due)  # not one ulp later


def test_foreign_entry_at_the_wakeup_time_keeps_completion_times():
    """Hazard (i): a callback scheduled, later in the timestamp of the
    last ``transfer()``, for the exact float time of the completion
    wakeup.  Eagerly the wakeup was queued first; coalesced it is
    queued at the settle, after the foreign entry.  Both orders are
    legal (same-time events are concurrent); completion times are
    equal, and what differs is only whether the foreign callback sees
    the flow as already finished."""
    seen = {}
    for net_cls in (EagerNetwork, FluidNetwork):
        sim, net, link = _one_link(net_cls)
        box = {}

        def start():
            box["done"] = net.transfer(800, [(link, 1.0)])
            # same float as the wakeup: now + 800 / 8e8
            sim.call_in(800 / 8e8,
                        lambda: box.setdefault("saw", box["done"].triggered))

        sim.call_at(1e-6, start)
        sim.run()
        seen[net_cls] = (box["saw"], box["done"].value.finished_at, sim.now)
    assert seen[EagerNetwork][1:] == seen[FluidNetwork][1:]
    assert seen[EagerNetwork][0] is True
    assert seen[FluidNetwork][0] is False


# -- what coalescing buys, as an exact machine-independent ratio -----------

def _resolves_per_transfer(nranks, prog, design):
    _results, world = run_world(nranks, prog, design=design)
    net = world.cluster.net
    assert net.transfers > 0
    return net.resolves / net.transfers


def test_symmetric_ring_resolves_once_per_timestamp_not_per_transfer():
    """64 symmetric ranks start and finish their copies and DMAs at
    the same simulated instants: the network re-solves a few dozen
    times for thousands of transfers (eagerly: once per transfer)."""
    def ring(mpi):
        n = mpi.size
        right, left = (mpi.rank + 1) % n, (mpi.rank - 1) % n
        for _ in range(3):
            sreq = yield from mpi.isend(b"x" * 4096, right, tag=7)
            yield from mpi.recv(source=left, tag=7)
            yield from mpi.Wait(sreq)

    assert _resolves_per_transfer(64, ring, "srq-lazy") <= 0.05


def test_pingpong_never_resolves_more_than_eagerly():
    """Two ranks taking turns: every start and every finish has a
    timestamp to itself, so there is nothing to coalesce — and the
    settle phase must not add passes either (eagerly: exactly one per
    start plus one per finish)."""
    def pingpong(mpi):
        peer = 1 - mpi.rank
        for _ in range(20):
            if mpi.rank == 0:
                yield from mpi.send(b"p" * 64, dest=peer, tag=1)
                yield from mpi.recv(source=peer, tag=1)
            else:
                yield from mpi.recv(source=peer, tag=1)
                yield from mpi.send(b"p" * 64, dest=peer, tag=1)

    assert _resolves_per_transfer(2, pingpong, "piggyback") <= 2.0


# -- what component-local re-solving buys, as exact counts ------------------

def test_staggered_groups_solve_only_the_touched_components(monkeypatch):
    """64 zero-copy ranks in eight 8-rank rings, each group starting
    3 us after the one before: the groups' flows overlap in time but
    not in resources, so a re-solve hands the allocator the touched
    component only, not every active flow."""
    active_sizes = []
    real = FluidNetwork._reallocate

    def spy(self):
        active_sizes.append(len(self._active))
        real(self)
    monkeypatch.setattr(FluidNetwork, "_reallocate", spy)

    def rings(mpi):
        g, n = divmod(mpi.rank, 8)
        base = mpi.rank - n
        right, left = base + (n + 1) % 8, base + (n - 1) % 8
        yield from mpi.compute(g * 3e-6)
        for _ in range(3):
            sreq = yield from mpi.isend(b"x" * 4096, right, tag=7)
            yield from mpi.recv(source=left, tag=7)
            yield from mpi.Wait(sreq)

    _results, world = run_world(64, rings, design="zerocopy")
    net = world.cluster.net
    assert (net.transfers, net.flows_solved) == (1024, 1152)
    # a global re-solve would have solved every active flow each time
    assert 5 * net.flows_solved <= sum(active_sizes) == 10368
