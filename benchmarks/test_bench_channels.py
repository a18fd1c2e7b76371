"""Machine-readable channel benchmarks + the regression gate.

Unlike the figure benchmarks (which print tables for a human), this
suite measures every design at a few representative points with the
observability layer enabled, embeds the per-layer counter aggregates
in each entry, and writes ``benchmarks/results/BENCH_channels.json``
(see ``benchmarks/conftest.py``).  The final test gates the fresh numbers
against the committed baseline in ``benchmarks/baselines/`` with a
10% tolerance; the simulator is deterministic, so any drift is a real
code change (update procedure: ``docs/OBSERVABILITY.md``).
"""

import pytest

from repro.bench.micro import mpi_bandwidth, mpi_latency_us
from repro.obs import Observability

DESIGNS = ("basic", "piggyback", "pipeline", "zerocopy", "ch3")
LATENCY_SIZES = (4, 4096)
BANDWIDTH_SIZE = 64 * 1024

#: counter aggregates embedded with every benchmark entry
COUNTER_KEYS = ("rdma_write_ops", "rdma_write_bytes", "rdma_read_ops",
                "chunks_sent", "explicit_tail_updates",
                "piggybacked_tail_updates", "zc_rts_sent",
                "lookups", "hits", "misses",
                "eager_decisions", "rndv_decisions",
                "retransmissions")


def _counters(obs):
    out = {k: obs.metrics.total(k) for k in COUNTER_KEYS}
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("design", DESIGNS)
def test_latency(design, bench_recorder):
    for size in LATENCY_SIZES:
        obs = Observability()
        lat = mpi_latency_us(size, design, iters=20, warmup=5, obs=obs)
        assert 0 < lat < 1000
        counters = _counters(obs)
        assert counters.get("rdma_write_ops", 0) > 0
        assert counters.get("retransmissions", 0) == 0
        bench_recorder.add(design, "latency_us", size, lat, counters)


@pytest.mark.parametrize("design", DESIGNS)
def test_bandwidth(design, bench_recorder):
    obs = Observability()
    bw = mpi_bandwidth(BANDWIDTH_SIZE, design, window=8, windows=3,
                       warmup=1, obs=obs)
    assert 50 < bw < 1000  # MB/s: above TCP-era floors, below the link
    bench_recorder.add(design, "bandwidth_MBps", BANDWIDTH_SIZE, bw,
                       _counters(obs))


def test_regression_gate(bench_recorder):
    """Must run last in this file: gates everything measured above."""
    assert len(bench_recorder.entries) == len(DESIGNS) * (
        len(LATENCY_SIZES) + 1)
    problems = bench_recorder.gate(rtol=0.10)
    if problems is None:
        pytest.skip("no committed baseline yet — commit "
                    "benchmarks/baselines/BENCH_channels.json")
    assert problems == [], "benchmark regressions:\n" + \
        "\n".join(problems)
