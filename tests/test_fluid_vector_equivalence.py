"""Vector fluid solver vs the scalar fold: bit-for-bit.

:mod:`repro.sim.fluid` allocates small active sets with the dict-based
scalar fold and larger ones with the numpy vector solver, cutting over
at the module constant ``_SCALAR_MAX_FLOWS``.  Simulated physics must
not depend on which allocator ran, and "must not" here means *exact
float equality* — completion times feed the golden replay digests, so
even a 1-ulp drift would invalidate the corpus.

The suite drives randomized sets of concurrent transfers — shared
bottlenecks, repeated resources on one route, staggered start times,
integer and non-integer cost weights — through two identically
scheduled simulations, each pinned to one allocator by moving the
cutover to 0 (always vector) or out of reach (always scalar), and
compares every completion time and every intermediate rate with
``==``.

It also hands both allocators the sets a 64-node collective builds —
~30 DMA and memcpy flows over memory buses, PCI and links — at real
capacities (shared bottlenecks saturating together: zero cascades) and
at capacities so small that near-ties decide every step (the straggler
fold), with integer and non-integer costs.
"""

import contextlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import HardwareConfig
from repro.sim import fluid
from repro.sim.engine import Simulator
from repro.sim.fluid import FluidNetwork, FluidResource

#: ``_SCALAR_MAX_FLOWS`` values that pin one allocator for every set
CUTOVER = {"vector": 0, "scalar": 10**9}


@contextlib.contextmanager
def pinned(solver):
    """Route every re-solve inside the block to one allocator."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fluid, "_SCALAR_MAX_FLOWS", CUTOVER[solver])
        yield

# realistic capacity scales (memory buses, IB links) plus awkward
# non-round values that exercise the float arithmetic
CAPACITIES = [1e6, 7.5e7, 8.5e8, 1e9, 2.4e9, 3_333_333_333.0]

START_TIMES = [0.0, 0.0, 1e-6, 2e-6, 1e-3]

#: integer costs take the vector solver's batched accumulation;
#: non-integer ones its order-preserving scalar fallback — both paths
#: must be exercised
COSTS = [1.0, 1.0, 2.0, 3.0, 1.5, 2.25]


@st.composite
def _scenarios(draw):
    ncaps = draw(st.integers(min_value=1, max_value=5))
    caps = draw(st.lists(st.sampled_from(CAPACITIES),
                         min_size=ncaps, max_size=ncaps))
    route = st.lists(
        st.tuples(st.integers(min_value=0, max_value=ncaps - 1),
                  st.sampled_from(COSTS)),
        min_size=1, max_size=4)
    transfers = draw(st.lists(
        st.tuples(st.sampled_from(START_TIMES),
                  st.integers(min_value=0, max_value=2_000_000),
                  route),
        min_size=1, max_size=8))
    return caps, transfers


def _run(caps, transfers):
    """Replay one scenario; returns per-transfer completion times and
    the sequence of rate vectors observed at each start instant."""
    sim = Simulator()
    net = FluidNetwork(sim)
    resources = [FluidResource(f"r{i}", c) for i, c in enumerate(caps)]
    finished = {}
    rate_trace = []

    def start(key, nbytes, route_spec):
        route = [(resources[i], cost) for i, cost in route_spec]
        ev = net.transfer(nbytes, route, label=str(key))
        ev.add_callback(
            lambda e: finished.__setitem__(key, sim.now))
        rate_trace.append([f.rate for f in net.active_flows])

    for key, (at, nbytes, route_spec) in enumerate(transfers):
        sim.call_at(at, start, key, nbytes, route_spec)
    sim.run()
    assert len(finished) == len(transfers)
    return finished, rate_trace


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_solvers_bitwise_identical(scenario):
    caps, transfers = scenario
    with pinned("vector"):
        done_v, rates_v = _run(caps, transfers)
    with pinned("scalar"):
        done_s, rates_s = _run(caps, transfers)
    assert done_v == done_s  # exact float equality, no tolerance
    assert rates_v == rates_s


@pytest.fixture
def alloc_calls(monkeypatch):
    """Spy on both allocators: ``(name, component size)`` per call."""
    calls = []
    for name in ("_alloc_vector", "_alloc_scalar"):
        real = getattr(FluidNetwork, name)
        monkeypatch.setattr(
            FluidNetwork, name,
            lambda self, flows, name=name, real=real: (
                calls.append((name, len(flows))), real(self, flows))[1])
    return calls


def _staggered_finishes(nflows):
    """``nflows`` flows of distinct sizes on one link: one finishes per
    wakeup, so the active set shrinks by one at every re-solve."""
    sim = Simulator()
    net = FluidNetwork(sim)
    link = FluidResource("link", 1e9)
    for i in range(nflows):
        net.transfer(1e6 * (i + 1), [(link, 1.0)])
    sim.run()


@pytest.mark.parametrize("solver,called", [("vector", "_alloc_vector"),
                                           ("scalar", "_alloc_scalar")])
def test_cutover_pins_the_allocator(alloc_calls, solver, called):
    """The pin above is what the whole suite stands on: check it."""
    nflows = fluid._SCALAR_MAX_FLOWS + 3  # straddles the real cutover
    with pinned(solver):
        _staggered_finishes(nflows)
    assert alloc_calls and {name for name, _n in alloc_calls} == {called}


def test_dispatch_follows_active_set_size(alloc_calls):
    """Unpinned, a re-solve takes the scalar fold up to the cutover
    and the vector solver above it (one link: the component is the
    whole active set)."""
    cut = fluid._SCALAR_MAX_FLOWS
    _staggered_finishes(cut + 3)
    assert alloc_calls == (
        [("_alloc_vector", n) for n in (cut + 3, cut + 2, cut + 1)]
        + [("_alloc_scalar", n) for n in range(cut, 0, -1)])


# ---------------------------------------------------------------------
# Shaped sets: what a 64-node collective hands the vector solver
# ---------------------------------------------------------------------

NODES = 64
HW = HardwareConfig()


def _shaped(flows, scale):
    """A 64-node cluster's fluid resources (memory bus, PCI, link up
    and down per node; capacities times ``scale``) carrying ``flows``,
    each ``("dma", src, dst, nbytes, bus_cost)`` along the HCA's DMA
    route or ``("copy", node, nbytes, cost)`` on one memory bus."""
    net = FluidNetwork(Simulator())
    made = {}

    def res(kind, node, cap):
        if (kind, node) not in made:
            made[kind, node] = FluidResource(f"{kind}[{node}]", cap * scale)
        return made[kind, node]

    for flow in flows:
        if flow[0] == "dma":
            _kind, src, dst, nbytes, bus = flow
            route = [(res("bus", src, HW.membus_bandwidth), bus),
                     (res("pci", src, HW.pci_dma_bandwidth), 1.0),
                     (res("up", src, HW.link_bandwidth), 1.0),
                     (res("down", dst, HW.link_bandwidth), 1.0),
                     (res("pci", dst, HW.pci_dma_bandwidth), 1.0),
                     (res("bus", dst, HW.membus_bandwidth), bus)]
        else:
            _kind, node, nbytes, cost = flow
            route = [(res("bus", node, HW.membus_bandwidth), cost)]
        net.transfer(nbytes, route)
    return net


def _alltoall_group():
    """One 8-rank group of the collective's Alltoall, mid-exchange:
    each rank's DMA to its ring neighbour and its ring-buffer copy,
    plus the uncached copies of the ranks still packing."""
    ranks = list(range(0, NODES, 8))
    flows = []
    for k, rank in enumerate(ranks):
        flows.append(("dma", rank, ranks[k - 1], 4096.0, 1.0))
        flows.append(("copy", rank, 4096.0, 2.0))
        flows.append(("copy", rank, 7039.999999999952, 3.0))
    return flows + [("dma", r, (r + 1) % NODES, 65536.0, 1.0)
                    for r in range(0, NODES, 11)]


@st.composite
def _shaped_sets(draw):
    # half the sets stay inside one 8-rank group, so bottlenecks are
    # shared and saturate together (zero cascades)
    span = draw(st.sampled_from([8, NODES]))
    node = st.integers(min_value=0, max_value=span - 1).map(
        lambda k: k * (NODES // span))
    size = st.sampled_from([32.0, 4096.0, 7039.999999999952, 65536.0])
    # the stack's integer costs, or non-dyadic ones (1.1, 2.3) whose
    # sums round, so accumulation order shows in the last bit
    cost = st.sampled_from(draw(st.sampled_from(
        [[1.0, 2.0, 3.0], [1.0, 1.1, 1.5, 2.0, 2.3, 3.0]])))
    flow = st.one_of(st.tuples(st.just("dma"), node, node, size, cost),
                     st.tuples(st.just("copy"), node, size, cost))
    return draw(st.lists(flow, min_size=20, max_size=36))


#: capacities scaled down until every filling step is within _EPS of
#: the next: near-ties everywhere, so the straggler fold decides
TINY = 1e-24


@settings(max_examples=250, deadline=None)
@given(flows=_shaped_sets(), scale=st.sampled_from([1.0, TINY]))
@example(flows=_alltoall_group(), scale=1.0)
@example(flows=_alltoall_group(), scale=TINY)
def test_shaped_sets(flows, scale):
    net = _shaped(flows, scale)
    net._alloc_vector(net._active)
    vector = [f.rate for f in net._active]
    net._alloc_scalar(net._active)
    assert vector == [f.rate for f in net._active]
    assert all(type(rate) is float for rate in vector)


def test_shared_bottleneck_exact_split():
    """Two flows over one link: each gets half the wire, identically
    under both solvers (the paper's two-stream sharing case)."""
    for solver in ("vector", "scalar"):
        with pinned(solver):
            sim = Simulator()
            net = FluidNetwork(sim)
            link = FluidResource("link", 1e9)
            a = net.transfer(1e6, [(link, 1.0)])
            b = net.transfer(1e6, [(link, 1.0)])
            sim.run()
        assert a.triggered and b.triggered
        assert sim.now == 2e6 / 1e9


# ---------------------------------------------------------------------
# Separability: components are solved alone
# ---------------------------------------------------------------------

@st.composite
def _grouped_sets(draw):
    """``k`` disjoint resource groups, each carrying flows of distinct
    sizes along routes inside the group: as flows finish, a group may
    split into several components, linked through more than one hop."""
    k = draw(st.integers(min_value=1, max_value=4))
    groups = [draw(st.lists(st.sampled_from(CAPACITIES),
                            min_size=1, max_size=4)) for _ in range(k)]
    flows = []
    for _ in range(draw(st.integers(min_value=k, max_value=12))):
        g = draw(st.integers(min_value=0, max_value=k - 1))
        route = draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=len(groups[g]) - 1),
                      st.sampled_from(COSTS)), min_size=1, max_size=3))
        nbytes = draw(st.integers(min_value=1, max_value=2_000_000))
        flows.append((g, nbytes, route))
    return groups, flows


def _ncomponents(flows):
    """Components of ``flows`` under sharing a resource."""
    seen, n = set(), 0
    for flow in flows:
        if flow.uid in seen:
            continue
        n += 1
        stack = [flow]
        while stack:
            f = stack.pop()
            if f.uid not in seen:
                seen.add(f.uid)
                stack.extend(g for res, _c in f.route for g in res.flows)
    return n


@settings(max_examples=200, deadline=None)
@given(_grouped_sets())
def test_component_solves_match_one_global_solve(scenario):
    """Max-min fairness is separable across components.  Solving each
    alone skips the global ``level``'s sums over deltas of unrelated
    components, so rates may differ by float rounding only, and not
    at all when there is one component.  Checked at the start and
    after every completion, against a global solve of the same set."""
    groups, flows = scenario
    sim = Simulator()
    net = FluidNetwork(sim)
    res = [[FluidResource(f"g{g}r{i}", c) for i, c in enumerate(caps)]
           for g, caps in enumerate(groups)]
    checks = []

    def check(_ev=None):
        active = net.active_flows
        local = [f.rate for f in active]
        net._alloc_scalar(active)
        glob = [f.rate for f in active]
        for flow, rate in zip(active, local):
            flow.rate = rate
        if _ncomponents(active) == 1:
            assert local == glob
        else:
            assert local == pytest.approx(glob, rel=1e-12, abs=0)
        checks.append(len(active))

    for g, nbytes, route in flows:
        net.transfer(nbytes, [(res[g][i], cost) for i, cost in route]
                     ).add_callback(check)
    check()
    sim.run()
    assert len(checks) == len(flows) + 1 and checks[-1] == 0


def test_finish_in_one_component_leaves_another_unsolved(monkeypatch):
    """A flow finishing on link ``a`` re-solves ``a``'s component
    only: the flows on link ``b`` keep their rates, bit for bit."""
    solved = []
    real = FluidNetwork._alloc_scalar
    monkeypatch.setattr(FluidNetwork, "_alloc_scalar", lambda self, flows: (
        solved.append([f.label for f in flows]), real(self, flows))[1])
    sim = Simulator()
    net = FluidNetwork(sim)
    a, b = FluidResource("a", 1e9), FluidResource("b", 3e8)
    net.transfer(1e3, [(a, 1.0)], label="a1")
    net.transfer(1e6, [(a, 1.0)], label="a2")
    net.transfer(1e6, [(b, 1.0)], label="b1")
    net.transfer(1e6, [(b, 3.0)], label="b2")
    before = {f.label: f.rate for f in net.active_flows}
    assert solved == [["a1", "a2"], ["b1", "b2"]]
    sim.run(until=1e-5)  # a1 is done at 2 us, the rest are not
    after = {f.label: f.rate for f in net.active_flows}
    assert solved[2:] == [["a2"]]
    assert after["a2"] == 2 * before["a2"] == 1e9
    assert [after["b1"], after["b2"]] == [before["b1"], before["b2"]]
