"""Benchmark harnesses: raw VAPI-level tests, MPI microbenchmarks, and
the per-figure reproduction library.

Run ``python -m repro.bench`` to regenerate every figure from the
command line, or ``pytest benchmarks/ --benchmark-only`` for the
asserted versions.
"""

from .micro import (bandwidth_sweep, latency_sweep, mpi_bandwidth,
                    mpi_latency_us)
from .raw import raw_latency_us, raw_read_bandwidth, raw_write_bandwidth

__all__ = [
    "mpi_latency_us", "mpi_bandwidth", "latency_sweep",
    "bandwidth_sweep", "raw_latency_us", "raw_read_bandwidth",
    "raw_write_bandwidth",
]
