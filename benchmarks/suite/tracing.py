"""The traced run: per-layer numbers, measured from outside.

After warm-up and three plain passes (the base the overheads are
ratios of), two more passes are made: one with ``Observability`` armed
and nothing else — its cost over the plain median is
``obs.armed_overhead_pct`` — and one with everything on:

* ``Observability`` armed, for the simulated-side counters;
* ``cProfile``, whose self-times and call counts are bucketed into
  layers by the *file that defines each function*.  Wrapping public
  functions would not do: HCA and fluid work runs as engine callbacks
  and generator resumes, so a wrapper on ``Simulator.run`` would bill
  everything to ``sim.engine``.  Builtin, numpy and stdlib self-time is
  handed to the calling layer along the profiler's caller edges, and
  what no edge reaches is reported as ``trace.unattributed_share``;
* counting wrappers hung on each channel's ``put``/``get`` and each
  device's ``progress`` (all generator functions, whose profiler call
  count would include every resume, and whose return value — bytes
  moved — the profiler never sees);
* benchmark-side spans (name, start, end, parent; one id per pass)
  around ``build_world``, spawn, ``cluster.run``, verification, the
  read-out of the finished world, and each ladder rung.

Then the *ladder*, the paper's own decomposition of one small message
and one large one, each rung a call into one layer's public functions,
on the simulated clock.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.bench.micro import mpi_bandwidth, mpi_latency_us
from repro.bench.raw import raw_latency_us, raw_write_bandwidth
from repro.config import MB
from repro.mpi.runner import World, build_world
from repro.mpich2.channels.base import advance_iov
from repro.obs import Observability

from .measure import (MsgCounter, PassResult, WARMUP_PASSES,
                      per_cell, run_cell, run_pass, shuffled,
                      summarize)
from .metrics import LAYERS, PER_LAYER
from .workloads import Workload

__all__ = ["Spans", "layer_of", "bucket_profile", "ladder",
           "run_traced", "PLAIN_PASSES", "HARNESS"]

PLAIN_PASSES = 3
#: the bucket for the benchmark's own files
HARNESS = "harness"

#: path fragment -> layer, first match wins
_LAYER_PATHS = (
    ("/repro/sim/engine.py", "sim.engine"),
    ("/repro/sim/fluid.py", "sim.fluid"),
    ("/repro/sim/", "sim.sync"),
    ("/repro/hw/", "hw"),
    ("/repro/cluster.py", "hw"),
    ("/repro/config.py", "hw"),
    ("/repro/ib/", "ib"),
    ("/repro/mpich2/channels/", "mpich2.channels"),
    ("/repro/mpich2/regcache.py", "mpich2.channels"),
    ("/repro/tune/", "mpich2.channels"),
    ("/repro/mpich2/connect.py", "mpich2.connect"),
    ("/repro/mpich2/", "mpich2.ch3"),
    ("/repro/mpi/", "mpi"),
    ("/repro/nas/", "nas"),
    ("/repro/faults/", "faults"),
    ("/repro/obs/", "obs"),
    ("/benchmarks/suite/", HARNESS),
)

#: the Communicator methods that only hand back a collective's
#: generator: plain functions, so the profiler counts their calls
_COLLECTIVE_METHODS = frozenset((
    "Barrier", "Bcast", "bcast", "Reduce", "Allreduce", "allreduce",
    "Gather", "gather", "Scatter", "Allgather", "allgather", "Alltoall",
    "Scan", "Reduce_scatter", "Gatherv", "Scatterv", "Allgatherv",
    "Alltoallv"))


class Spans:
    """Benchmark-side spans, kept in memory until the run ends."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.rows: List[dict] = []
        self._open: List[int] = []
        #: one id per pass (the ladder counts as a pass of its own)
        self.pass_id = 0

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[None]:
        row = {"id": self.pass_id, "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter() - self._t0, "end": None,
               **tags}
        self.rows.append(row)
        self._open.append(len(self.rows) - 1)
        try:
            yield
        finally:
            self._open.pop()
            row["end"] = time.perf_counter() - self._t0


def layer_of(filename: str) -> Optional[str]:
    """The layer a function belongs to, by the file defining it; None
    for builtins, numpy and the standard library."""
    path = filename.replace("\\", "/")
    for fragment, layer in _LAYER_PATHS:
        if fragment in path:
            return layer
    return None


def bucket_profile(stats: Dict[tuple, tuple]) -> dict:
    """Fold ``pstats.Stats(...).stats`` into per-layer self-time and
    call counts.

    A function defined under ``src/repro`` (or in this package) keeps
    its own self-time.  Any other function's self-time is split over
    its caller edges — the profiler records, per edge, the self-time
    spent under that caller — and follows them upwards until a layer
    is reached; a chain through several outside functions (numpy
    calling numpy calling a builtin) is resolved by weighting each
    outside caller's own callers by the cumulative time of those
    edges."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    named: Dict[Tuple[str, str], int] = defaultdict(int)
    layers = {f: layer_of(f[0]) for f in stats}
    shares: Dict[tuple, Dict[str, float]] = {}

    def share_of(func, seen) -> Dict[str, float]:
        """{layer: fraction} of an outside function's time."""
        layer = layers.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        if func in seen or func not in stats:
            return {}
        callers = stats[func][4]
        weight = sum(e[3] for e in callers.values())
        out: Dict[str, float] = defaultdict(float)
        if weight > 0:
            for caller, edge in callers.items():
                for lay, frac in share_of(caller, seen | {func}).items():
                    out[lay] += frac * edge[3] / weight
        shares[func] = dict(out)
        return shares[func]

    total = unattributed = 0.0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        total += tt
        layer = layers[func]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            base = func[0].replace("\\", "/").rsplit("/", 1)[-1]
            named[(base, func[2])] += nc
            continue
        handed = 0.0
        for caller, edge in callers.items():
            for lay, frac in share_of(caller, {func}).items():
                self_s[lay] += edge[2] * frac
                handed += edge[2] * frac
        unattributed += tt - handed
    return {"self_s": dict(self_s), "calls": dict(calls), "named": named,
            "total_s": total, "unattributed_s": max(unattributed, 0.0)}


class _CallCounters:
    """put/get/progress counts, by wrappers on the instances of one
    world.  The wrappers add no yield of their own, so the simulated
    schedule is the one the plain pass ran."""

    def __init__(self) -> None:
        self.put = self.get = self.empty_get = self.progress = 0

    def attach(self, world: World) -> None:
        for dev in world.devices:
            chan = dev.channel
            chan.put = self._put(chan.put)
            chan.get = self._get(chan.get)
            dev.progress = self._progress(dev.progress)

    def _put(self, put: Callable) -> Callable:
        def counted(conn, iov):
            self.put += 1
            return put(conn, iov)
        return counted

    def _get(self, get: Callable) -> Callable:
        def counted(conn, iov):
            n = yield from get(conn, iov)
            self.get += 1
            self.empty_get += not n
            return n
        return counted

    def _progress(self, progress: Callable) -> Callable:
        def counted(block):
            self.progress += 1
            return progress(block)
        return counted


class _WorldCounters:
    """Public counters read off each finished world of the profiled
    pass, kept per cell."""

    def __init__(self) -> None:
        self.cells: Dict[str, Dict[str, float]] = {}

    def total(self, keys) -> Dict[str, float]:
        """Summed in canonical cell order, like the simulated clock:
        the float sums must not depend on the order the seed ran the
        cells in."""
        c: Dict[str, float] = defaultdict(float)
        for key in keys:
            for name, value in self.cells.get(key, {}).items():
                c[name] += value
        return c

    def read(self, key: str, world: World) -> None:
        c = self.cells[key] = defaultdict(float)
        cluster, t = world.cluster, world.sim.now
        c["events"] += world.sim.events_processed
        for k, v in world.stats().items():
            c[f"hca.{k}"] += v
        for k, v in cluster.faults.stats.snapshot().items():
            c[f"faults.{k}"] += v
        c["connections"] += world.connection_count()
        connector = world.devices[0].connector
        if connector is not None:
            c["handshakes"] += connector.connects
        for node in cluster.nodes:
            c["memcpy_bytes"] += node.membus.bytes_copied
            c["membus_busy"] += t * cluster.net.utilization(
                node.membus.bus, t)
            c["link_busy"] += t * cluster.net.utilization(
                cluster.fabric.uplink(node.node_id), t)
        c["node_time"] += t * len(cluster.nodes)
        for dev in world.devices:
            c["cpu_busy"] += dev.channel.ctx.cpu.busy_time
            regcache = getattr(dev.channel, "regcache", None)
            if regcache is not None:
                c["regcache_hits"] += regcache.hits
                c["regcache_lookups"] += regcache.hits + regcache.misses
        c["rank_time"] += t * world.nranks


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ---------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------

def _channel_latency_us(iters: int = 50, warmup: int = 10) -> float:
    """4-byte ping-pong on a zerocopy channel pair, driven by put/get
    directly: the RDMA Channel without CH3 above it."""
    world = build_world(2, "zerocopy")
    sim = world.sim

    def move(chan, op, conn, buf):
        iov = [buf]
        while iov:
            n = yield from op(conn, iov)
            if n:
                iov = advance_iov(iov, n)
            else:
                yield sim.any_of(chan.wait_hints(conn))

    def side(rank: int):
        chan = world.devices[rank].channel
        conn = chan.conn_to(1 - rank)
        sbuf = chan.node.alloc(4, "ladder.send")
        rbuf = chan.node.alloc(4, "ladder.recv")
        start = 0.0
        for i in range(warmup + iters):
            if i == warmup:
                start = sim.now
            if rank == 0:
                yield from move(chan, chan.put, conn, sbuf)
                yield from move(chan, chan.get, conn, rbuf)
            else:
                yield from move(chan, chan.get, conn, rbuf)
                yield from move(chan, chan.put, conn, sbuf)
        return (sim.now - start) / iters / 2.0

    procs = [world.cluster.spawn(side(r), f"ladder{r}") for r in (0, 1)]
    world.cluster.run()
    return procs[0].value * 1e6


def ladder(spans: Spans) -> Dict[str, float]:
    rungs = (
        ("raw_verbs_lat_us", lambda: raw_latency_us(4), 5.9),
        ("channel_lat_us", _channel_latency_us, None),
        ("mpi_lat_us", lambda: mpi_latency_us(4, "zerocopy"), 7.6),
        ("raw_write_bw_MBps",
         lambda: raw_write_bandwidth(1 * MB, windows=4), 870.0),
        ("mpi_bw_MBps",
         lambda: mpi_bandwidth(1 * MB, "zerocopy", windows=4), 857.0),
    )
    out: Dict[str, float] = {}
    errs = []
    for name, rung, paper in rungs:
        with spans.span(f"ladder.{name}"):
            out[name] = rung()
        if paper is not None:
            errs.append(abs(out[name] - paper) / paper * 100.0)
    out["mpich2.channels.sim_add_us"] = \
        out["channel_lat_us"] - out["raw_verbs_lat_us"]
    out["mpich2.ch3.sim_add_us"] = \
        out["mpi_lat_us"] - out["channel_lat_us"]
    out["stack_bw_efficiency_pct"] = \
        out["mpi_bw_MBps"] / out["raw_write_bw_MBps"] * 100.0
    out["paper_err_pct"] = sum(errs) / len(errs)
    return {f"ladder.{k}": v for k, v in out.items()}


# ---------------------------------------------------------------------
# the traced protocol
# ---------------------------------------------------------------------

def _wall(p: PassResult, keys) -> float:
    return p.total("setup_s", keys) + p.total("run_s", keys)


def run_traced(workload: Workload, seed: int) -> dict:
    cells = workload.make_cells(seed)
    keys = [c.key for c in cells]
    order = shuffled(cells, seed)
    spans = Spans()
    counter = MsgCounter()
    calls = _CallCounters()
    worlds = _WorldCounters()
    obs = Observability()
    prof = cProfile.Profile()

    def attach(key: str, world: World) -> None:
        counter.attach(key, world)
        calls.attach(world)

    gc.collect()
    gc.disable()
    try:
        plain = [run_pass(order)
                 for _ in range(WARMUP_PASSES + PLAIN_PASSES)]
        armed = run_pass(order, obs=Observability())

        # the profiled pass: the profiler runs from build_world to the
        # end of verification and is off while the world is read out
        # and collected
        spans.pass_id = 1
        profiled = PassResult()
        for cell in order:
            prof.enable()
            try:
                profiled.cells[cell.key] = run_cell(
                    cell, obs=obs, attach=attach, spans=spans,
                    after=lambda k, w: (prof.disable(), worlds.read(k, w)))
            finally:
                prof.disable()
        spans.pass_id = 2
        rungs = ladder(spans)
    finally:
        gc.enable()

    passes = plain + [armed, profiled]
    out = summarize(workload, keys, passes, counter)
    timed = plain[WARMUP_PASSES:]
    # one armed or profiled pass is held against the plain passes'
    # median, not their fastest: like against like
    base_run = per_cell(timed, "run_s", keys, statistics.median)
    base_wall = base_run + per_cell(timed, "setup_s", keys,
                                    statistics.median)
    buckets = bucket_profile(pstats.Stats(prof).stats)
    c, total = worlds.total(keys), buckets["total_s"]
    msgs = out["msgs_per_pass"]
    m = obs.metrics.total
    named = buckets["named"]
    transfers = named[("fluid.py", "transfer")]
    resolves = named[("fluid.py", "_reallocate")]
    wqes = c["hca.rdma_writes"] + c["hca.rdma_reads"] + c["hca.sends"]

    v: Dict[str, float] = {f"{lay}.self_s": buckets["self_s"].get(lay, 0.0)
                           for lay in LAYERS}
    v.update(rungs)
    v.update({
        "sim.engine.calls": buckets["calls"].get("sim.engine", 0),
        "sim.engine.events": c["events"],
        "sim.engine.events_per_msg": _ratio(c["events"], msgs),
        "sim.engine.events_per_s": _ratio(c["events"], base_run),
        "sim.fluid.transfers": transfers,
        "sim.fluid.resolves": resolves,
        "sim.fluid.resolves_per_transfer": _ratio(resolves, transfers),
        "hw.memcpy_bytes": c["memcpy_bytes"],
        "hw.membus_util": _ratio(c["membus_busy"], c["node_time"]),
        "hw.link_util": _ratio(c["link_busy"], c["node_time"]),
        "hw.cpu_busy_share": _ratio(c["cpu_busy"], c["rank_time"]),
        "ib.rdma_writes": c["hca.rdma_writes"],
        "ib.rdma_reads": c["hca.rdma_reads"],
        "ib.sends": c["hca.sends"],
        "ib.wire_bytes": (c["hca.bytes_written"] + c["hca.bytes_read"]
                          + c["hca.bytes_sent"]),
        "ib.registrations": c["hca.registrations"],
        "ib.cq_completions": m("completions"),
        "ib.retransmissions": c["faults.retransmissions"],
        "ib.wqes_per_msg": _ratio(wqes, msgs),
        "mpich2.channels.put_calls": calls.put,
        "mpich2.channels.get_calls": calls.get,
        "mpich2.channels.empty_get_share":
            _ratio(calls.empty_get, calls.get),
        "mpich2.channels.chunks_sent": m("chunks_sent"),
        "mpich2.channels.explicit_tail_updates":
            m("explicit_tail_updates"),
        "mpich2.channels.piggybacked_tail_updates":
            m("piggybacked_tail_updates"),
        "mpich2.channels.zc_rts_sent": m("zc_rts_sent"),
        "mpich2.channels.credit_stalls": m("credit_stalls"),
        "mpich2.regcache.hit_share":
            _ratio(c["regcache_hits"], c["regcache_lookups"]),
        "mpich2.ch3.progress_calls": calls.progress,
        "mpich2.ch3.eager_msgs": m("eager_decisions"),
        "mpich2.ch3.rndv_msgs": m("rndv_decisions"),
        "mpich2.ch3.unexpected_msgs": m("unexpected_arrivals"),
        "mpich2.connect.handshakes": c["handshakes"],
        "mpich2.connect.connections": c["connections"],
        "mpi.msgs": msgs,
        "mpi.collective_calls": sum(
            n for (base, name), n in named.items()
            if base == "comm.py" and name in _COLLECTIVE_METHODS),
        "faults.drops": c["faults.dropped"],
        "faults.corrupts": c["faults.corrupted"],
        "faults.delays": c["faults.delayed"],
        "obs.armed_overhead_pct":
            (_wall(armed, keys) / base_wall - 1.0) * 100.0,
        "trace.overhead_x": _wall(profiled, keys) / base_wall,
        "trace.profiled_s": total,
        "trace.unattributed_share":
            _ratio(buckets["unattributed_s"], total),
        "trace.harness_share":
            _ratio(buckets["self_s"].get(HARNESS, 0.0), total),
    })
    # the count the wrappers made and the count the armed registry made
    # are two views of one boundary; they must agree
    out["counts_agree"] = (
        msgs == v["mpich2.ch3.eager_msgs"] + v["mpich2.ch3.rndv_msgs"])
    out["metrics"] = {
        p.name: int(v[p.name]) if p.unit in ("count", "B") else v[p.name]
        for p in PER_LAYER}
    out["timing"] = {
        "warmup_passes": WARMUP_PASSES, "timed_passes": PLAIN_PASSES,
        "plain_wall_s": [_wall(p, keys) for p in timed],
        "armed_wall_s": _wall(armed, keys),
        "profiled_wall_s": _wall(profiled, keys),
    }
    out["spans"] = spans.rows
    return out
