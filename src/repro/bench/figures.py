"""Reproduction of every figure in the paper's evaluation.

Each ``figNN`` function regenerates one figure's data series through
the full simulated stack and returns a :class:`FigureData` whose
``table()`` renders the same rows the paper plots.  The benchmark
suite under ``benchmarks/`` runs these and asserts the qualitative
shapes; EXPERIMENTS.md records paper-vs-measured numbers.

Figure index (see the root DESIGN.md §4):

====== ==============================================================
Fig 4   basic-design MPI latency
Fig 5   basic-design MPI bandwidth
Fig 6   small-message latency, basic vs piggyback
Fig 7   small-message bandwidth, basic vs piggyback
Fig 8   bandwidth, basic vs pipeline
Fig 9   pipeline bandwidth vs chunk size
Fig 11  bandwidth, pipeline vs zero-copy
Fig 13  latency, RDMA-Channel zero-copy vs CH3 zero-copy
Fig 14  bandwidth, RDMA-Channel zero-copy vs CH3 zero-copy
Fig 15  raw VAPI RDMA read vs write bandwidth
Fig 16  NAS class A on 4 nodes (Pipelining / RDMA Channel / CH3)
Fig 17  NAS class B on 8 nodes
====== ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import KB, MB, ChannelConfig, HardwareConfig
from ..nas.skeleton import (CLASS_A_BENCHMARKS, CLASS_B_BENCHMARKS,
                            run_skeleton)
from .micro import mpi_bandwidth, mpi_latency_us
from .raw import raw_latency_us, raw_read_bandwidth, raw_write_bandwidth

__all__ = [
    "FigureData", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig11", "fig13", "fig14", "fig15", "fig16", "fig17", "headline",
    "LAT_SIZES", "BW_SIZES_64K", "BW_SIZES_1M", "CHUNK_SWEEP_SIZES",
]

LAT_SIZES = [4 << (2 * i) for i in range(7)]            # 4 .. 16K
LAT_SIZES_64K = LAT_SIZES + [64 * KB]
BW_SIZES_64K = [4 << (2 * i) for i in range(8)]          # 4 .. 64K
BW_SIZES_1M = BW_SIZES_64K + [256 * KB, 1 * MB]
RAW_SIZES = [4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB]
CHUNK_SWEEP_SIZES = [4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB]


@dataclass
class FigureData:
    figure: str
    title: str
    xlabel: str
    ylabel: str
    #: series name -> list of (x, y)
    series: Dict[str, List[Tuple[int, float]]] = field(
        default_factory=dict)

    def table(self) -> str:
        names = list(self.series)
        xs = [x for x, _ in self.series[names[0]]]
        w = max(len(n) for n in names) + 2
        head = f"{self.figure}: {self.title}\n"
        head += f"{self.xlabel:>10} | " + " | ".join(
            f"{n:>{w}}" for n in names) + f"   [{self.ylabel}]\n"
        head += "-" * (12 + (w + 3) * len(names)) + "\n"
        rows = []
        for i, x in enumerate(xs):
            cells = []
            for n in names:
                cells.append(f"{self.series[n][i][1]:>{w}.2f}")
            rows.append(f"{_size_label(x):>10} | " + " | ".join(cells))
        return head + "\n".join(rows)

    def ys(self, name: str) -> List[float]:
        return [y for _x, y in self.series[name]]

    def at(self, name: str, x: int) -> float:
        for xx, y in self.series[name]:
            if xx == x:
                return y
        raise KeyError(f"{name} has no x={x}")


def _size_label(x) -> str:
    if isinstance(x, str):
        return x
    if x >= MB and x % MB == 0:
        return f"{x // MB}M"
    if x >= KB and x % KB == 0:
        return f"{x // KB}K"
    return str(x)


def _lat_series(design: str, sizes, iters=40, **kw):
    return [(s, mpi_latency_us(s, design, iters=iters, **kw))
            for s in sizes]


def _bw_series(design: str, sizes, windows=4, **kw):
    return [(s, mpi_bandwidth(s, design, windows=windows, **kw))
            for s in sizes]


# ---------------------------------------------------------------------
# microbenchmark figures
# ---------------------------------------------------------------------

def fig04() -> FigureData:
    """Basic-design latency (paper: 18.6 us small-message)."""
    return FigureData("Fig 4", "MPI Latency for Basic Design",
                      "msg size", "us",
                      {"Basic": _lat_series("basic", LAT_SIZES)})


def fig05() -> FigureData:
    """Basic-design bandwidth (paper: ~230 MB/s peak)."""
    return FigureData("Fig 5", "MPI Bandwidth for Basic Design",
                      "msg size", "MB/s",
                      {"Basic": _bw_series("basic", BW_SIZES_64K)})


def fig06() -> FigureData:
    """Piggybacking cuts latency 18.6 -> 7.4 us."""
    return FigureData(
        "Fig 6", "Small-Message Latency with Piggybacking",
        "msg size", "us",
        {"Basic": _lat_series("basic", LAT_SIZES),
         "Piggyback": _lat_series("piggyback", LAT_SIZES)})


def fig07() -> FigureData:
    return FigureData(
        "Fig 7", "Small-Message Bandwidth with Piggybacking",
        "msg size", "MB/s",
        {"Basic": _bw_series("basic", LAT_SIZES),
         "Piggyback": _bw_series("piggyback", LAT_SIZES)})


def fig08() -> FigureData:
    """Pipelining overlaps copies with RDMA writes."""
    return FigureData(
        "Fig 8", "MPI Bandwidth with Pipelining",
        "msg size", "MB/s",
        {"Basic": _bw_series("basic", BW_SIZES_64K),
         "Pipeline": _bw_series("pipeline", BW_SIZES_64K)})


def fig09() -> FigureData:
    """Chunk-size sweep of the pipelined design."""
    series = {}
    for chunk in (32 * KB, 16 * KB, 8 * KB, 4 * KB, 2 * KB, 1 * KB):
        ch = ChannelConfig(chunk_size=chunk, ring_size=128 * KB,
                           zerocopy_threshold=1 << 30)
        series[f"{chunk // KB}K"] = _bw_series(
            "pipeline", CHUNK_SWEEP_SIZES, ch_cfg=ch)
    return FigureData(
        "Fig 9", "MPI Bandwidth with Pipelining (chunk sizes)",
        "msg size", "MB/s", series)


def fig11() -> FigureData:
    """Zero-copy reaches 857 MB/s; pipeline droops past the cache."""
    return FigureData(
        "Fig 11", "MPI Bandwidth with Zero-Copy and Pipelining",
        "msg size", "MB/s",
        {"Pipeline": _bw_series("pipeline", BW_SIZES_1M),
         "Zero-Copy": _bw_series("zerocopy", BW_SIZES_1M)})


def fig13() -> FigureData:
    return FigureData(
        "Fig 13", "MPI Latency: CH3 vs RDMA Channel designs",
        "msg size", "us",
        {"RDMA Channel Zero Copy": _lat_series("zerocopy",
                                               LAT_SIZES_64K, iters=25),
         "CH3 Zero Copy": _lat_series("ch3", LAT_SIZES_64K, iters=25)})


def fig14() -> FigureData:
    return FigureData(
        "Fig 14", "MPI Bandwidth: CH3 vs RDMA Channel designs",
        "msg size", "MB/s",
        {"RDMA Channel Zero Copy": _bw_series("zerocopy", BW_SIZES_1M),
         "CH3 Zero Copy": _bw_series("ch3", BW_SIZES_1M)})


def fig15() -> FigureData:
    """Raw VAPI-level RDMA write vs read bandwidth."""
    return FigureData(
        "Fig 15", "InfiniBand Bandwidth (VAPI level)",
        "msg size", "MB/s",
        {"RDMA Write": [(s, raw_write_bandwidth(s, windows=4))
                        for s in RAW_SIZES],
         "RDMA Read": [(s, raw_read_bandwidth(s, windows=4))
                       for s in RAW_SIZES]})


# ---------------------------------------------------------------------
# application figures
# ---------------------------------------------------------------------

_NAS_DESIGNS = [("Pipelining", "pipeline"),
                ("RDMA Channel", "zerocopy"),
                ("CH3", "ch3")]


def _nas_figure(fig: str, klass: str, nprocs: int,
                benchmarks: Sequence[str]) -> FigureData:
    series: Dict[str, List[Tuple[int, float]]] = \
        {label: [] for label, _d in _NAS_DESIGNS}
    for b in benchmarks:
        for label, design in _NAS_DESIGNS:
            _sec, mops = run_skeleton(b, klass, nprocs, design)
            series[label].append((b.upper(), mops))
    return FigureData(fig, f"NAS Class {klass} on {nprocs} Nodes",
                      "benchmark", "Mop/s", series)


def fig16() -> FigureData:
    return _nas_figure("Fig 16", "A", 4, CLASS_A_BENCHMARKS)


def fig17() -> FigureData:
    return _nas_figure("Fig 17", "B", 8, CLASS_B_BENCHMARKS)


# ---------------------------------------------------------------------
# headline scalar table
# ---------------------------------------------------------------------

def headline() -> Dict[str, Dict[str, float]]:
    """The paper's headline numbers vs this reproduction."""
    return {
        "raw latency (us)": {
            "paper": 5.9, "measured": raw_latency_us(4)},
        "raw write peak bw (MB/s)": {
            "paper": 870,
            "measured": raw_write_bandwidth(1 * MB, windows=4)},
        "basic latency (us)": {
            "paper": 18.6, "measured": mpi_latency_us(4, "basic")},
        "basic peak bw (MB/s)": {
            "paper": 230,
            "measured": max(mpi_bandwidth(s, "basic", windows=3)
                            for s in (16 * KB, 64 * KB))},
        "piggyback latency (us)": {
            "paper": 7.4, "measured": mpi_latency_us(4, "piggyback")},
        "pipeline peak bw (MB/s)": {
            "paper": 500,
            "measured": max(mpi_bandwidth(s, "pipeline", windows=3)
                            for s in (64 * KB, 256 * KB))},
        "zero-copy latency (us)": {
            "paper": 7.6, "measured": mpi_latency_us(4, "zerocopy")},
        "zero-copy peak bw (MB/s)": {
            "paper": 857,
            "measured": mpi_bandwidth(1 * MB, "zerocopy", windows=4)},
    }


def headline_table() -> str:
    rows = ["{:<28} {:>8} {:>10} {:>8}".format(
        "metric", "paper", "measured", "ratio")]
    for k, v in headline().items():
        rows.append("{:<28} {:>8.1f} {:>10.2f} {:>7.2f}x".format(
            k, v["paper"], v["measured"], v["measured"] / v["paper"]))
    return "\n".join(rows)
