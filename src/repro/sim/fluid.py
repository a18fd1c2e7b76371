"""Max-min fair fluid-flow network.

This is the bandwidth model underlying both the InfiniBand fabric and
the per-node memory buses.  A *flow* moves ``nbytes`` of payload along a
*route* — a list of ``(resource, cost_per_byte)`` pairs — occupying all
resources on its route **simultaneously** (cut-through, not
store-and-forward).  ``cost_per_byte`` expresses that a payload byte may
consume more than one byte of a resource's capacity: e.g. a memcpy
consumes 2 bus-bytes per payload byte (read + write), 3 if the source
misses the cache (read miss + write allocate + write-back).

Rates are allocated by **progressive filling** (max-min fairness with
per-resource cost weights): all unfixed flows grow at the same payload
rate until some resource saturates; flows crossing that resource are
frozen at the bottleneck rate; repeat.  Whenever the set of active
flows changes, every flow's progress is advanced to the current time
and the allocation recomputed, so completion times are exact for the
piecewise-constant rate schedule.

This model is what makes the paper's central results emerge
mechanically rather than by curve fitting:

* a single large RDMA write spans sender-bus → link → receiver-bus and
  streams at the min share across them;
* a memcpy running concurrently with a DMA on the same node shares the
  memory bus, which caps the pipelined design near ``bus_bw / 3``;
* two MPI streams over one link each get half the wire.

One re-solve per timestamp
--------------------------
Symmetric ranks start and finish their flows at the *same* simulated
timestamp, and between two such changes ``dt == 0``: no byte moves, so
every allocation but the last one at that timestamp is discarded
unread.  ``transfer()`` and the completion wakeup therefore only mark
the network dirty (cancelling the now-stale wakeup, as the eager code
did) and register one settle hook with the engine
(:meth:`Simulator.at_settle`); ``_reallocate()`` runs once, after the
timestamp's last callback and before the clock moves.  The allocation
is a pure function of the active set (order, ``remaining``,
capacities), which coalescing does not alter, so rates, completion
times and the wakeup time are the ones the eager schedule produced.
``_advance()`` only ever integrates over ``dt > 0``, i.e. after a
settle, so it always sees final rates.  ``active_flows`` — the one
public reader of rates — settles first if dirty.  The one place where
an intermediate allocation *is* observable — a sub-byte residue that
``_reallocate()`` completes on the spot — is settled change by change
(see :meth:`FluidNetwork._mark_dirty`).
``tests/test_fluid_coalescing_equivalence.py`` holds the eager
reference and the ``==`` comparison; docs/SIMULATOR.md names the three
places where event *order* could in principle differ.

Only the touched components
---------------------------
Two flows that share a resource are in one component, and max-min
fairness is separable across components.  A re-solve allocates only
the components reachable through ``res.flows`` from the routes of the
flows started or finished since the last one; the other flows keep
their rates.  Each component is solved alone, flows in ``_active``
order: one component gets the arithmetic of a global solve, several
differ from it by float rounding only (docs/SIMULATOR.md).

Allocators
----------
A flow's route is a :class:`Route`, validated and digested once
(summed costs per resource, in first-appearance order) and shared by
every flow that takes it: the HCA keeps one per remote node, the
memory bus one per copy cost.  Two implementations of the same
progressive-filling arithmetic, picked per component from its size
(``_SCALAR_MAX_FLOWS``; measured table in docs/SIMULATOR.md):

* small sets take the *scalar fold* — the historical per-dict loop,
  whose cost tracks the handful of resources in play and which pays
  no numpy call overhead.  A lone flow, most re-solves, is the fold's
  first step in closed form: the first-within-``_EPS`` minimum of
  ``capacity / summed_cost`` over its route, the same floats;
* larger sets take the *vector solver*: one division and one argmin
  across all resources per filling level, plus a *zero-cascade* that
  retires every already-saturated resource in a single pass instead
  of one loop iteration each.

The two are bit-for-bit equivalent (``==`` on every rate and
completion time, ``tests/test_fluid_vector_equivalence.py``), so
simulated physics cannot depend on which one ran.  Equivalence rests
on four facts, each locked down by tests:

* elementwise array arithmetic performs the same IEEE-754 operations
  the scalar loop performed per resource, in an order-insensitive
  pattern (no cross-element dependencies);
* column order replicates the scalar fold's weight-dict insertion
  order (first appearance while scanning active flows in order), so
  the bottleneck tie-break — first within-epsilon candidate wins —
  picks the same resource; near-ties inside the epsilon band fall back
  to an exact replica of the scalar fold;
* in-practice cost weights are small integers, so regrouped sums are
  exact; non-integer weights accumulate per route entry, in the fold's
  operation order;
* a resource whose weight drops to ``_EPS`` is one the fold never
  reads again, so the solver may park it at residual ``inf`` and
  weight 1.0: its quotient is ``inf`` and the minimum never lands on
  it while any live column remains (docs/SIMULATOR.md has the
  argument, and why the ``np.maximum`` clamp never sees ``-0.0``).
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .engine import Event, Simulator

__all__ = ["FluidResource", "Route", "Flow", "FluidNetwork"]

_EPS = 1e-15

#: active sets of at most this many flows are allocated by the scalar
#: fold, larger ones by the vector solver.  Both give the same floats;
#: this is purely the measured host-cost crossover (docs/SIMULATOR.md).
_SCALAR_MAX_FLOWS = 8

#: stable creation-order ids for resources/flows: dict keys derived
#: from them are reproducible across runs, unlike ``id()``.
_resource_uids = itertools.count()
_flow_uids = itertools.count()
#: stamps of the component walk: a resource or flow is visited in the
#: current walk iff its ``_stamp`` equals the walk's generation
_generations = itertools.count(1)
_by_uid = attrgetter("uid")


class FluidResource:
    """A capacity-limited resource (a link direction or a memory bus).

    ``capacity`` is in resource-bytes per second.
    """

    __slots__ = ("uid", "name", "capacity", "flows", "busy_time",
                 "_busy_since", "_stamp")

    def __init__(self, name: str, capacity: float):
        if not 0 < capacity < math.inf:
            raise ValueError(f"capacity must be finite and > 0: {capacity}")
        self.uid = next(_resource_uids)
        self.name = name
        self.capacity = float(capacity)
        self.flows: List["Flow"] = []
        # utilization accounting (for stats / debugging)
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None
        self._stamp = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FluidResource {self.name} cap={self.capacity:.3g}>"


class Route:
    """A validated route, digested once for every flow that takes it:
    the ``(resource, cost_per_byte)`` ``entries``, and the costs summed
    per resource (a local copy crosses its bus twice) in first-appearance
    order — the allocators' weight-dict order — as ``pairs``, as
    ``(uid, cost, resource)`` ``scan`` triples and as ``costs`` by uid.
    All-integer costs (``int_costs``) make regrouped float sums exact.
    """

    __slots__ = ("entries", "pairs", "scan", "costs", "int_costs")

    def __init__(self, entries: Sequence[Tuple[FluidResource, float]]):
        self.entries = tuple(entries)
        if not self.entries:
            raise ValueError("route must contain at least one resource")
        costs: Dict[int, float] = {}
        res_of: Dict[int, FluidResource] = {}
        for res, cost in self.entries:
            if not 0 < cost < math.inf:
                raise ValueError(f"cost_per_byte must be finite, > 0: {cost}")
            costs[res.uid] = costs.get(res.uid, 0.0) + float(cost)
            res_of.setdefault(res.uid, res)
        self.costs = costs
        self.pairs = [(res_of[uid], c) for uid, c in costs.items()]
        self.scan = [(uid, c, res_of[uid]) for uid, c in costs.items()]
        self.int_costs = all(float(c).is_integer() for _r, c in self.entries)


class Flow:
    """One in-flight transfer along a :class:`Route`."""

    __slots__ = ("uid", "nbytes", "remaining", "route", "rate", "done",
                 "label", "started_at", "finished_at", "_idx", "_stamp")

    def __init__(self, nbytes: float, route: Route, label: str = ""):
        self.uid = next(_flow_uids)
        if not 0 <= nbytes < math.inf:
            raise ValueError(f"nbytes must be finite and >= 0: {nbytes}")
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.route = route
        self.rate = 0.0  # payload bytes / second, set by the network
        self.done: Optional[Event] = None
        self.label = label
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: position in the flow list the vector solver is allocating,
        #: stamped at the start of each allocation.
        self._idx = 0
        self._stamp = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow {self.label} {self.remaining:.0f}/{self.nbytes:.0f}B"
                f" @{self.rate:.3g}B/s>")


class FluidNetwork:
    """Tracks active flows over a set of resources and computes exact
    completion times under max-min fair sharing.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._active: List[Flow] = []
        self._wake_handle: Optional[Any] = None
        self._last_update = 0.0
        #: the active set changed at this timestamp and the settle
        #: hook that re-solves it is registered but has not run
        self._dirty = False
        #: the advance to this timestamp left some flow with less than
        #: a byte to go (see _mark_dirty)
        self._residue = False
        #: flows started or finished since the last re-solve: their
        #: routes seed the components it re-solves
        self._changed: List[Flow] = []
        #: exact counters: ``transfer()`` calls, allocation passes
        #: (``_reallocate()`` calls) and flows handed to an allocator
        self.transfers = 0
        self.resolves = 0
        self.flows_solved = 0

    # -- public API ------------------------------------------------------
    def transfer(self, nbytes: float,
                 route: Union[Route, Sequence[Tuple[FluidResource, float]]],
                 label: str = "") -> Event:
        """Start a transfer along ``route`` (a :class:`Route`, or the
        pairs to wrap in one); the returned event fires when the last
        payload byte has moved.  Zero-byte transfers complete at once.
        """
        if not isinstance(route, Route):
            route = Route(route)
        flow = Flow(nbytes, route, label)
        self.transfers += 1
        flow.done = self.sim.event()
        flow.started_at = self.sim.now
        if flow.remaining <= _EPS:
            flow.finished_at = self.sim.now
            flow.done.succeed(flow)
            return flow.done
        self._advance()
        self._active.append(flow)
        self._changed.append(flow)
        for res, _cost in route.entries:
            res.flows.append(flow)
            if res._busy_since is None:
                res._busy_since = self.sim.now
        self._mark_dirty()
        return flow.done

    @property
    def active_flows(self) -> List[Flow]:
        """The in-flight flows, rates current."""
        self._settle()
        return list(self._active)

    # -- internals ---------------------------------------------------------
    def _advance(self) -> None:
        """Move all active flows forward to the current time at their
        current rates, completing any that finish."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        finished: List[Flow] = []
        residue = False
        for flow in self._active:
            flow.remaining -= flow.rate * dt
            # Absolute tolerance of a micro-byte: payloads are whole
            # bytes, and float residue must not strand a flow in a
            # zero-dt reschedule loop.
            if flow.remaining <= max(1e-6, _EPS * flow.nbytes):
                flow.remaining = 0.0
                finished.append(flow)
            elif flow.remaining < 1.0:
                residue = True
        self._residue = residue
        for flow in finished:
            self._detach(flow)
            flow.finished_at = now
            flow.done.succeed(flow)

    def _detach(self, flow: Flow) -> None:
        self._active.remove(flow)
        self._changed.append(flow)
        for res, _cost in flow.route.entries:
            res.flows.remove(flow)
            if not res.flows and res._busy_since is not None:
                res.busy_time += self.sim.now - res._busy_since
                res._busy_since = None

    def _mark_dirty(self) -> None:
        """The active set changed: the pending wakeup is stale, and
        the rates are re-solved once this timestamp has settled.

        One case makes an intermediate allocation observable: a flow
        so close to done that ``_reallocate`` completes it on the spot
        (``now + remaining / rate <= now``), a test that depends on
        the rates of the allocation it runs under.  Payloads are whole
        bytes, so only a flow the advance left with a sub-byte
        remainder can be that close; a timestamp that has one
        re-solves at every change, exactly as the eager code did."""
        if self._wake_handle is not None:
            self._wake_handle.cancel()
            self._wake_handle = None
        if self._residue:
            self._reallocate()
        elif not self._dirty:
            self._dirty = True
            self.sim.at_settle(self._settle)

    def _settle(self) -> None:
        if self._dirty:
            self._dirty = False
            self._reallocate()

    def _reallocate(self) -> None:
        """Progressive-filling max-min allocation of every component
        the changes since the last call touched, then schedule the
        next completion wakeup."""
        self.resolves += 1
        changed, self._changed = self._changed, []
        active = self._active
        if not active:
            return
        for flows in ([active] if len(active) == 1
                      else self._components(changed)):
            self.flows_solved += len(flows)
            if len(flows) <= _SCALAR_MAX_FLOWS:
                self._alloc_scalar(flows)
            else:
                self._alloc_vector(flows)

        # next completion
        next_done = float("inf")
        for flow in self._active:
            if flow.rate > _EPS:
                next_done = min(next_done, flow.remaining / flow.rate)
        if next_done < float("inf"):
            if self.sim.now + next_done <= self.sim.now:
                # The residual transfer time is below the float
                # resolution of the current timestamp (large t, tiny
                # remainder): the clock cannot advance, so complete
                # the sub-resolution flows right here instead of
                # scheduling a wakeup that would spin at now forever.
                finished = [f for f in self._active
                            if f.rate > _EPS
                            and self.sim.now + f.remaining / f.rate
                            <= self.sim.now]
                for flow in finished:
                    flow.remaining = 0.0
                    self._detach(flow)
                    flow.finished_at = self.sim.now
                    flow.done.succeed(flow)
                self._reallocate()
                return
            self._wake_handle = self.sim.call_in(next_done, self._wakeup)

    def _components(self, changed: List[Flow]) -> List[List[Flow]]:
        """The components of the flows sharing resources with the
        ``changed`` flows' routes, each in ``_active`` (uid) order."""
        gen = next(_generations)
        n = len(self._active)
        comps: List[List[Flow]] = []
        for seed in [res for f in changed for res, _cost in f.route.pairs]:
            if seed._stamp == gen:
                continue
            seed._stamp = gen
            comp: List[Flow] = []
            for flow in seed.flows:
                if flow._stamp != gen:
                    flow._stamp = gen
                    comp.append(flow)
            for flow in comp:  # grows while it is walked
                if len(comp) == n:
                    return [self._active]
                for res, _cost in flow.route.pairs:
                    if res._stamp != gen:
                        res._stamp = gen
                        for other in res.flows:
                            if other._stamp != gen:
                                other._stamp = gen
                                comp.append(other)
            if comp:
                comp.sort(key=_by_uid)
                comps.append(comp)
        return comps

    # -- vector solver -----------------------------------------------------
    def _alloc_vector(self, active: List[Flow]) -> None:
        """Numpy progressive filling of ``active``, bit-for-bit equal
        to :meth:`_alloc_scalar` (see the module docstring for the
        equivalence argument)."""
        # Column order = first appearance scanning active flows in
        # order — exactly the legacy weight-dict insertion order, so
        # index-based tie-breaks match the dict-iteration tie-breaks.
        # A bottleneck freezes its crossers in ``res.flows`` order,
        # which is ascending position (transfer() and _detach() keep
        # both lists in step), the legacy order.  Integer costs make
        # every weight sum exact, so weights add up per summed pair;
        # non-integer costs add up per route entry, the legacy rounding.
        all_int = all(f.route.int_costs for f in active)
        col_of: Dict[int, int] = {}
        cap: List[float] = []
        #: unfixed cost weight per column; a dead column (weight at
        #: most _EPS) holds 1.0 against a residual of inf, so its
        #: ``residual / w`` is inf without a mask
        wl: List[float] = []
        col_flows: List[List[Flow]] = []
        get_col = col_of.get
        for fi, flow in enumerate(active):
            flow.rate = 0.0
            flow._idx = fi
            for uid, cost, res in flow.route.scan:
                j = get_col(uid)
                if j is None:
                    j = col_of[uid] = len(cap)
                    cap.append(res.capacity)
                    wl.append(0.0)
                    col_flows.append(res.flows)
                if all_int:
                    wl[j] += cost
            if not all_int:
                for res, cost in flow.route.entries:
                    wl[col_of[res.uid]] += cost
        inf = float("inf")
        residual = np.array(cap)
        if min(wl) <= _EPS:  # costs too small to ever bind
            for j, x in enumerate(wl):
                if x <= _EPS:
                    wl[j], residual[j] = 1.0, inf

        level = 0.0
        unfixed = [True] * len(active)
        n_unfixed = len(active)
        while n_unfixed:
            w = np.fromiter(wl, float, len(wl))
            d = residual / w
            j0 = int(d.argmin())
            dmin = float(d[j0])
            if dmin == inf:
                # No constraining resource left (shouldn't happen since
                # every flow crosses at least one resource).
                for flow in active:
                    if unfixed[flow._idx]:
                        flow.rate = inf
                break
            # Near-ties within the hysteresis band make the selection
            # depend on the legacy fold's scan history; outside the
            # band, first-occurrence argmin is provably identical.  A
            # band narrower than one ulp of dmin holds nothing.
            if dmin + _EPS != dmin and (np.count_nonzero(d <= dmin + _EPS)
                                        > np.count_nonzero(d == dmin)):
                # exact replica of the legacy hysteresis fold (a dead
                # column's inf is never picked)
                best = inf
                sel = -1
                for j, delta in enumerate(d.tolist()):
                    if delta < best - _EPS or (
                        delta < best + _EPS and sel < 0
                    ):
                        best = delta
                        sel = j
                cols, dmin = [sel], best
            elif dmin == 0.0:
                # Zero-cascade: every saturated column freezes its
                # crossers at the current level in one pass, which
                # equals the legacy one-column-per-iteration sequence.
                cols = (d == 0.0).nonzero()[0].tolist()
            else:
                cols = [j0]
            if dmin:  # a zero step leaves everything bitwise unchanged
                level += dmin
                # residual update uses pre-freeze weights (legacy order)
                residual -= w * dmin
                np.maximum(residual, 0.0, out=residual)
            for j in cols:
                if residual[j] == inf:
                    continue  # retired earlier in this cascade
                for flow in col_flows[j]:
                    fi = flow._idx
                    if not unfixed[fi]:
                        continue
                    flow.rate = level
                    unfixed[fi] = False
                    n_unfixed -= 1
                    for uid, c, _res in flow.route.scan:
                        k = col_of[uid]
                        x = wl[k] - c
                        if x > _EPS:
                            wl[k] = x
                        else:
                            wl[k], residual[k] = 1.0, inf
                wl[j], residual[j] = 1.0, inf

    # -- scalar fold -------------------------------------------------------
    def _alloc_scalar(self, active: List[Flow]) -> None:
        """The dict-based progressive-filling loop over ``active``: the
        allocator for small components, and the arithmetic
        :meth:`_alloc_vector` is pinned against."""
        if len(active) == 1:
            # The fold's first step in closed form, same floats: its
            # weight (0.0 + c1) + c2 is the route's summed c1 + c2, its
            # first candidate is taken (anything finite beats inf by
            # more than _EPS) and the flow freezes at 0.0 + best.
            best = float("inf")
            for _uid, w, res in active[0].route.scan:
                if w > _EPS and res.capacity / w < best - _EPS:
                    best = res.capacity / w
            active[0].rate = 0.0 + best  # inf if no resource bounds it
            return
        # residual capacity and unfixed cost-weight per resource,
        # accumulated per route entry in route order (non-integer
        # costs round as they always have)
        residual: Dict[int, float] = {}
        weight: Dict[int, float] = {}
        for flow in active:
            flow.rate = 0.0
            for res, cost in flow.route.entries:
                rid = res.uid
                residual.setdefault(rid, res.capacity)
                weight[rid] = weight.get(rid, 0.0) + cost

        unfixed = list(active)
        level = 0.0
        while unfixed:
            # Which resource saturates first as all unfixed flows grow?
            best_rid = None
            best_delta = float("inf")
            for rid, w in weight.items():
                if w <= _EPS:
                    continue
                delta = residual[rid] / w
                if delta < best_delta - _EPS or (
                    delta < best_delta + _EPS and best_rid is None
                ):
                    best_delta = delta
                    best_rid = rid
            if best_rid is None:
                # No constraining resource left (shouldn't happen since
                # every flow crosses at least one resource).
                for flow in unfixed:
                    flow.rate = float("inf")
                break
            level += best_delta
            # Freeze every unfixed flow crossing the bottleneck.
            frozen = [f for f in unfixed if best_rid in f.route.costs]
            still = [f for f in unfixed if best_rid not in f.route.costs]
            for flow in frozen:
                flow.rate = level
            # Update residuals/weights for the remaining flows.
            for rid, w in weight.items():
                residual[rid] -= w * best_delta
                if residual[rid] < 0:
                    residual[rid] = 0.0
            for flow in frozen:
                for rid, cost in flow.route.costs.items():
                    weight[rid] -= cost
            weight[best_rid] = 0.0
            unfixed = still

    def _wakeup(self) -> None:
        self._wake_handle = None
        self._advance()
        self._mark_dirty()

    # -- stats ---------------------------------------------------------
    def utilization(self, res: FluidResource, horizon: float) -> float:
        """Fraction of ``horizon`` during which ``res`` had active flows."""
        busy = res.busy_time
        if res._busy_since is not None:
            busy += self.sim.now - res._busy_since
        return busy / horizon if horizon > 0 else 0.0
