"""The repo benchmark: six workloads, two clocks, per-layer attribution.

Everything here measures the simulated MPICH2-over-InfiniBand stack
*from outside*: it times its own calls into public entry points
(``build_world``, ``cluster.spawn`` / ``cluster.run``, the raw-verbs
benches, ``RdmaChannel.put`` / ``get``), reads public counters off the
finished world, and installs its own profiler for the traced pass.
Nothing under ``src/`` knows this package exists.

Entry points:

* ``python3 benchmarks/suite/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload in this process, one JSON line out (the
  contract ``BENCHMARK.json`` describes);
* ``python -m benchmarks.suite run|agree|list`` — the full set, the
  comparison of two result sets, and the metric glossary.

See ``README.md`` beside this file for every name used.
"""
