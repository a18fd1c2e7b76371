"""Auto-tuner acceptance benchmarks + regression gate.

Measures the ``adaptive`` design against the three relevant static
builds (pipeline, zerocopy, ch3) on three workload shapes:

* a windowed **bandwidth** sweep (streaming — the CH3 rendezvous
  RDMA-write band, paper Fig. 14);
* a ping-pong **latency** sweep (the zero-copy RDMA-read band);
* a **phased** stream+ping-pong workload, alternating the two shapes
  the way applications do — the case no static protocol choice can
  win, and where the controller must beat every static build;
* NAS CG/MG class A as application-level sanity.

Acceptance (enforced here, not just recorded):

* adaptive is within 10% of the *best* static at every swept point;
* adaptive strictly beats *every* static at one size or more in the
  32 KB–256 KB band (the phased sweep delivers this).

Results land in ``benchmarks/results/BENCH_adaptive.json`` and the
final test gates them against
``benchmarks/baselines/BENCH_adaptive.json`` at 10% tolerance.
"""

import pytest

from repro.bench.micro import mpi_bandwidth, mpi_latency_us, mpi_phased_s
from repro.nas import run_skeleton

STATICS = ("pipeline", "zerocopy", "ch3")
ALL_DESIGNS = STATICS + ("adaptive",)

BANDWIDTH_SIZES = (8192, 32768, 65536, 131072, 262144)
LATENCY_SIZES = (32768, 131072)
PHASED_SIZES = (32768, 65536, 131072, 262144)
#: the band in which adaptive must strictly beat every static design
BEAT_BAND = (32 * 1024, 256 * 1024)

#: strict wins observed by the phased sweep, checked by
#: test_adaptive_beats_all_statics_in_band
_strict_wins = []


def test_bandwidth_sweep(bench_recorder):
    for size in BANDWIDTH_SIZES:
        by_design = {}
        for design in ALL_DESIGNS:
            bw = mpi_bandwidth(size, design)
            by_design[design] = bw
            bench_recorder.add(design, "bandwidth_MBps", size, bw)
        best = max(by_design[d] for d in STATICS)
        assert by_design["adaptive"] >= best * 0.90, (
            f"adaptive bandwidth at {size}: {by_design['adaptive']:.1f} "
            f"MB/s vs best static {best:.1f}")


def test_latency_sweep(bench_recorder):
    for size in LATENCY_SIZES:
        by_design = {}
        for design in ALL_DESIGNS:
            lat = mpi_latency_us(size, design)
            by_design[design] = lat
            bench_recorder.add(design, "latency_us", size, lat)
        best = min(by_design[d] for d in STATICS)
        assert by_design["adaptive"] <= best * 1.10, (
            f"adaptive latency at {size}: {by_design['adaptive']:.1f} "
            f"us vs best static {best:.1f}")


def test_phased_sweep(bench_recorder):
    for size in PHASED_SIZES:
        by_design = {}
        for design in ALL_DESIGNS:
            sec = mpi_phased_s(size, design)
            by_design[design] = sec
            bench_recorder.add(design, "phased_s", size, sec)
        best = min(by_design[d] for d in STATICS)
        assert by_design["adaptive"] <= best * 1.10, (
            f"adaptive phased at {size}: {by_design['adaptive']*1e3:.2f} "
            f"ms vs best static {best*1e3:.2f}")
        if (BEAT_BAND[0] <= size <= BEAT_BAND[1]
                and by_design["adaptive"] < best):
            _strict_wins.append(size)


def test_adaptive_beats_all_statics_in_band():
    """The tentpole claim: at one or more sizes in 32 KB–256 KB the
    tuned stack is strictly faster than every static protocol choice
    (runs after test_phased_sweep, which records the wins)."""
    assert _strict_wins, (
        "adaptive never strictly beat all statics in the "
        f"{BEAT_BAND[0]}-{BEAT_BAND[1]} band")


@pytest.mark.parametrize("bench", ["cg", "mg"])
def test_nas_class_a(bench, bench_recorder):
    by_design = {}
    for design in ALL_DESIGNS:
        sec, _mops = run_skeleton(bench, "A", 4, design=design)
        by_design[design] = sec
        bench_recorder.add(design, f"nas_{bench}_s", 0, sec)
    best = min(by_design[d] for d in STATICS)
    assert by_design["adaptive"] <= best * 1.10, (
        f"adaptive NAS {bench}: {by_design['adaptive']:.4f}s vs best "
        f"static {best:.4f}s")


def test_regression_gate(bench_recorder):
    """Must run last in this file: gates everything measured above."""
    expected = len(ALL_DESIGNS) * (len(BANDWIDTH_SIZES)
                                   + len(LATENCY_SIZES)
                                   + len(PHASED_SIZES) + 2)
    assert len(bench_recorder.entries) == expected
    problems = bench_recorder.gate(rtol=0.10)
    if problems is None:
        pytest.skip("no committed baseline yet — commit "
                    "benchmarks/baselines/BENCH_adaptive.json")
    assert problems == [], "benchmark regressions:\n" + \
        "\n".join(problems)
