"""Running cells and passes, and the untraced measurement protocol.

A *pass* builds and runs every cell of a workload once.  An untraced
run is two discarded warm-up passes and then timed passes with every
instrument off — no ``Observability``, no profiler, no wrappers.  The
first five timed passes are the *scored* ones: every reported time comes
from exactly those five, whatever ``--seconds`` says, so that a faster
commit or a quieter host does not get more draws at a minimum.  The
run time reported is each cell's fastest scored pass, summed (see
``per_cell``); the five pass totals go into the result file with
median, quartiles and ``n``.  Passes made after the fifth, to fill
``--seconds``, are kept as raw timings and score nothing.

Why two warm-ups: the first passes of a process pay page faults and
allocator growth the steady state never sees again (a 64-rank world
measured 1.6 s, 2.3 s, then a steady 0.8 s).  Why a collect between
cells: a dead world still referenced while the next one is built
doubles the heap and sends the next run back to faulting in fresh
pages (the same cell then alternates between 0.8 s and 2.0 s).  The
collector itself stays off inside the timed regions, as ``run_mpi``
keeps it.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.mpi.runner import World, build_world
from repro.mpich2.channels.base import iov_total
from repro.obs import Observability

from .workloads import Cell, Workload

__all__ = ["CellRun", "PassResult", "MsgCounter", "run_cell", "run_pass",
           "shuffled", "quartiles", "per_cell", "summarize",
           "paper_err_pct",
           "run_untraced", "WARMUP_PASSES", "SCORED_PASSES",
           "RUN_SECONDS"]

WARMUP_PASSES = 2
#: the timed passes every reported time is computed from
SCORED_PASSES = 5
#: ``run_seconds`` of BENCHMARK.json: the five scored passes of the
#: lightest workloads; the heavier ones measure their five however long
RUN_SECONDS = 4


@dataclass
class CellRun:
    key: str
    setup_s: float = 0.0
    run_s: float = 0.0
    sim_s: float = 0.0
    #: operations the rank programs found wrong
    bad: int = 0
    #: rank 0's own latency/bandwidth figure, where the cell has one
    figure: Optional[float] = None
    #: repr of the exception that ended the cell, if one did
    error: Optional[str] = None


@dataclass
class PassResult:
    cells: Dict[str, CellRun] = field(default_factory=dict)

    def total(self, attr: str, order: Sequence[str]) -> float:
        # summed in canonical cell order, so that the simulated total
        # is bit-identical whatever order the seed ran the cells in
        return sum(getattr(self.cells[k], attr) for k in order)


class MsgCounter:
    """Counts messages and payload bytes at the MPI/CH3 boundary by
    wrapping ``device.isend`` on every device of a world: one call is
    one point-to-point message, whether the rank program or a
    collective made it."""

    def __init__(self) -> None:
        self.msgs: Dict[str, int] = {}
        self.nbytes: Dict[str, int] = {}
        self._key = ""

    def attach(self, key: str, world: World) -> None:
        self._key = key
        self.msgs[key] = 0
        self.nbytes[key] = 0
        for dev in world.devices:
            dev.isend = self._wrap(dev.isend)

    def _wrap(self, isend: Callable) -> Callable:
        def counted(iov, dest, tag, context):
            self.msgs[self._key] += 1
            self.nbytes[self._key] += iov_total(iov)
            return isend(iov, dest, tag, context)
        return counted


def _no_span(name: str, **tags):
    return nullcontext()


def run_cell(cell: Cell, obs: Optional[Observability] = None,
             attach: Optional[Callable[[str, World], None]] = None,
             after: Optional[Callable[[str, World], None]] = None,
             spans=None) -> CellRun:
    """Build one world, run the cell's rank programs on it, check what
    they returned.  ``attach`` sees the world between build and spawn
    (outside both timed regions), ``after`` sees it finished;
    ``spans`` (a :class:`tracing.Spans`) records where the time went.
    An exception ends the cell, not the run: it is recorded and every
    message of the cell then counts as failed."""
    out = CellRun(cell.key)
    span = spans.span if spans is not None else _no_span
    world = None
    try:
        with span("build_world", cell=cell.key):
            t0 = time.perf_counter()
            world = build_world(cell.nranks, cell.design,
                                faults=cell.faults, obs=obs)
            out.setup_s = time.perf_counter() - t0
        if attach is not None:
            attach(cell.key, world)
        with span("spawn+run", cell=cell.key):
            t1 = time.perf_counter()
            with span("spawn"):
                procs = [world.cluster.spawn(cell.prog(ctx, *cell.args),
                                             f"rank{ctx.rank}")
                         for ctx in world.contexts]
            with span("cluster.run"):
                world.cluster.run()
            out.run_s = time.perf_counter() - t1
        with span("verify", cell=cell.key):
            out.sim_s = world.sim.now
            results = [p.value for p in procs]
            out.bad = sum(r[0] for r in results)
            out.figure = results[0][1]
        if after is not None:
            with span("read_counters", cell=cell.key):
                after(cell.key, world)
    except Exception as exc:   # the boundary that must keep running
        out.error = f"{type(exc).__name__}: {exc}"
    # free the world before the next cell builds (see module docstring)
    world = procs = results = None
    gc.collect()
    return out


def shuffled(cells: Sequence[Cell], seed: int) -> List[Cell]:
    order = list(cells)
    random.Random(seed).shuffle(order)
    return order


def run_pass(order: Sequence[Cell], **kw) -> PassResult:
    res = PassResult()
    for cell in order:
        res.cells[cell.key] = run_cell(cell, **kw)
    return res


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and n of the scored pass totals."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def per_cell(passes: Sequence[PassResult], attr: str,
             keys: Sequence[str], pick: Callable = min) -> float:
    """A pass's time as the sum over its cells of ``pick`` (the
    fastest, or the median) of that cell's time over the passes.

    Every pass does exactly the same work — the simulator is
    deterministic — so what differs between passes is the host, and
    the host only ever adds time: on this sandbox the effective CPU
    speed drifts by +-8 % over 10-20 s and drops by a third for 5-45 s
    at a time.  A pass total is slow if any of its cells was; taking
    each cell's fastest pass confines a slowdown to the cells it hit in
    every pass.  Over ten runs of one commit this halved the spread of
    the pass-total median (stream_large 10.7 % -> 6.1 %, nas_a4 6.8 %
    -> 4.2 %, pingpong_small 3.5 % -> 2.0 %)."""
    return sum(pick(getattr(p.cells[k], attr) for p in passes)
               for k in keys)


def paper_err_pct(workload: Workload, figures: Dict[str, Optional[float]]
                  ) -> Optional[float]:
    """Mean absolute % error over the workload's reference cells, or
    None when it has none (unvalidated) or a cell gave no figure."""
    errs = []
    for ref in workload.references:
        got = [figures.get(k) for k in ref.cells]
        if any(g is None for g in got):
            return None
        best = max(got) * (1e6 if ref.kind == "lat_us" else 1e-6)
        errs.append(abs(best - ref.paper) / ref.paper * 100.0)
    return sum(errs) / len(errs) if errs else None


def summarize(workload: Workload, keys: Sequence[str],
              passes: Sequence[PassResult], counter: MsgCounter) -> dict:
    """What every run reports whatever its mode: verification totals,
    the simulated clock, and whether it repeated exactly."""
    # .get: a cell whose build failed in the counting pass has no count
    msgs = sum(counter.msgs.get(k, 0) for k in keys)
    nbytes = sum(counter.nbytes.get(k, 0) for k in keys)
    failed = 0
    errors = []
    for p in passes:
        for k in keys:
            c = p.cells[k]
            if c.error is not None:
                errors.append(f"{k}: {c.error}")
                failed += max(counter.msgs.get(k, 0), 1)
            else:
                failed += c.bad
    sims = [p.total("sim_s", keys) for p in passes]
    sim_s = sims[0]
    return {
        "msgs_per_pass": msgs,
        "payload_bytes_per_pass": nbytes,
        "attempted": max(msgs, 1) * len(passes),
        "failed": failed,
        "errors": errors,
        #: every pass — plain, obs-armed, profiled — must land on the
        #: same simulated instant: the off-by-default contract
        "sim_repeats": all(s == sim_s for s in sims),
        "sim_elapsed_us": sim_s * 1e6,
        "sim_goodput_MBps": nbytes / sim_s / 1e6 if sim_s > 0 else 0.0,
        "paper_err_pct": paper_err_pct(
            workload, {k: passes[-1].cells[k].figure for k in keys}),
    }


def run_untraced(workload: Workload, seed: int, seconds: float) -> dict:
    """The end-to-end protocol.  The second warm-up pass doubles as the
    counting pass (message and byte counts, with ``Observability``
    armed so that its simulated time can be held against the plain
    passes); it is discarded from every timing like the first."""
    cells = workload.make_cells(seed)
    keys = [c.key for c in cells]
    order = shuffled(cells, seed)
    counter = MsgCounter()
    gc.collect()
    gc.disable()
    try:
        first = run_pass(order)
        counted = run_pass(order, obs=Observability(),
                           attach=counter.attach)
        timed: List[PassResult] = []
        t0 = time.perf_counter()
        while (len(timed) < SCORED_PASSES
               or time.perf_counter() - t0 < seconds):
            timed.append(run_pass(order))
    finally:
        gc.enable()
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = summarize(workload, keys, [first, counted] + timed, counter)
    scored = timed[:SCORED_PASSES]
    # setup_s keeps the median the driver's contract asks of it by
    # name; it is exempt from the spread rule and a few ms on four of
    # the six workloads
    setup_s = per_cell(scored, "setup_s", keys, statistics.median)
    run_s = per_cell(scored, "run_s", keys)
    out["metrics"] = {
        "setup_s": setup_s,
        "run_wall_s": run_s,
        "msgs_per_host_s": out["msgs_per_pass"] / run_s,
        "peak_rss_mb": peak_rss_mb,
        "sim_elapsed_us": out["sim_elapsed_us"],
        "sim_goodput_MBps": out["sim_goodput_MBps"],
    }
    run_q = quartiles([p.total("run_s", keys) for p in scored])
    out["timing"] = {
        "warmup_passes": WARMUP_PASSES,
        "scored_passes": len(scored),
        "timed_passes": len(timed),
        "setup_s": quartiles([p.total("setup_s", keys) for p in scored]),
        "run_wall_s": run_q,
        # every timed pass, the unscored ones after the fifth too
        "raw_setup_s": [p.total("setup_s", keys) for p in timed],
        "raw_run_wall_s": [p.total("run_s", keys) for p in timed],
        "raw_cells": {k: {"setup_s": [p.cells[k].setup_s for p in timed],
                          "run_s": [p.cells[k].run_s for p in timed]}
                      for k in keys},
        "warmup_setup_s": [first.total("setup_s", keys),
                           counted.total("setup_s", keys)],
        "warmup_run_wall_s": [first.total("run_s", keys),
                              counted.total("run_s", keys)],
        "warmup_ratio": first.total("run_s", keys) / run_q["median"],
    }
    return out
