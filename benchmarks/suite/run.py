"""One workload, one process, one JSON line: the BENCHMARK.json command.

    python3 benchmarks/suite/run.py --workload W --seed N \\
        --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric, measured with every instrument off; ``--trace 1`` prints every
per-layer metric from the traced run.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; ``--out`` adds a
file with everything behind it (per-pass raw timings, quartiles, spans,
the simulated-side extras ``BENCHMARK.json`` has no room for).

This process starts no other process and touches no file but ``--out``.
Without the program under test (``src/repro``) beside it, it exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _paths() -> None:
    """Make ``repro`` and ``benchmarks.suite`` importable from a bare
    checkout; the script's own directory comes off the path so that
    ``tracing``/``metrics`` can only be reached through the package."""
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    for p in (ROOT, ROOT / "src"):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))


def _keep_freed_memory() -> None:
    """Tell glibc malloc to serve every request from the heap and never
    give it back.  Without this, each pass of nas_a4 maps ~190 MB of
    fresh zero pages for the FT and IS buffers and unmaps them again:
    48 k page faults and 0.55-1.1 s of system time per 3 s pass, which
    in this VM varies more between minutes than any change to the
    simulator would.  With it the timed passes fault nothing.  Best
    effort: another libc keeps its defaults."""
    import ctypes
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    m_trim_threshold, m_top_pad, m_mmap_max = -1, -2, -4
    mallopt(m_mmap_max, 0)
    mallopt(m_trim_threshold, 2**31 - 1)
    mallopt(m_top_pad, 64 << 20)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the timed passes measure; never "
                    "fewer than the five scored passes, and only those "
                    "five score; ignored by --trace 1, which makes a "
                    "fixed number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the detailed result here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: the program under test is missing: no "
              f"{ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    _paths()
    _keep_freed_memory()
    from benchmarks.suite import measure, metrics, tracing, workloads

    try:
        workload = workloads.lookup(args.workload)
    except KeyError as exc:
        print(f"run.py: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.trace:
        res = tracing.run_traced(workload, args.seed)
        catalogue = metrics.PER_LAYER
    else:
        res = measure.run_untraced(workload, args.seed, args.seconds)
        catalogue = metrics.END_TO_END
    res["correct"] = (res["failed"] == 0 and res["sim_repeats"]
                      and res.get("counts_agree", True))
    res.update(workload=workload.name, seed=args.seed, trace=args.trace,
               validated=bool(workload.references))
    if args.out:
        Path(args.out).write_text(json.dumps(res, indent=1) + "\n")
    for err in res["errors"]:
        print(f"run.py: cell failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m.name: {"value": res["metrics"][m.name],
                             "unit": m.unit} for m in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
