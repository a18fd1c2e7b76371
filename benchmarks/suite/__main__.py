"""``python -m benchmarks.suite run|agree|list`` (from the repo root,
with ``PYTHONPATH=src``).

``run`` measures all six workloads, each in fresh child processes of
``run.py`` (one untraced, one traced; the traced one twice on
``pingpong_small`` as the determinism self-check), prints every metric
by name with its unit and writes the result set to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from . import agree as agree_mod
from .measure import RUN_SECONDS
from .metrics import END_TO_END, PER_LAYER, RESULT_ONLY
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: the workload whose traced run is made twice and held against itself
SELF_CHECK = "pingpong_small"


def _catalogue_spec() -> dict:
    """BENCHMARK.json as the catalogue has it."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit,
                       "better": m.better} for m in PER_LAYER],
    }


def _check_benchmark_json() -> None:
    """BENCHMARK.json restates the catalogue; refuse to measure against
    a stale copy."""
    if json.loads((ROOT / "BENCHMARK.json").read_text()) \
            != _catalogue_spec():
        raise SystemExit(
            "BENCHMARK.json disagrees with benchmarks/suite; regenerate "
            "it with `python -m benchmarks.suite list --json`")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": _git_commit()}


def _child(workload: str, seed: int, trace: int, tmp: Path) -> dict:
    out = tmp / f"{workload}.{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace}: run.py exited "
                         f"{proc.returncode}")
    return json.loads(out.read_text())


def _exact_differences(a: dict, b: dict) -> List[str]:
    return [m.name for m in PER_LAYER if m.exact
            and json.dumps(a["metrics"][m.name])
            != json.dumps(b["metrics"][m.name])]


def _assemble(untraced: dict, traced: dict) -> dict:
    """One workload's entry in the result set.  A host-time metric
    carries its value (see measure.per_cell) and, beside it, the
    median and quartiles of the scored passes' totals."""
    e2e: Dict[str, dict] = {}
    run_q = untraced["timing"]["run_wall_s"]
    for m in END_TO_END:
        cell = {"value": untraced["metrics"][m.name], "unit": m.unit}
        if m.name in untraced["timing"]:
            cell["passes"] = untraced["timing"][m.name]
        elif m.name == "msgs_per_host_s":
            msgs = untraced["msgs_per_pass"]
            cell["passes"] = {"median": msgs / run_q["median"],
                              "q1": msgs / run_q["q3"],
                              "q3": msgs / run_q["q1"], "n": run_q["n"]}
        e2e[m.name] = cell
    if untraced["paper_err_pct"] is not None:
        e2e["paper_err_pct"] = {"value": untraced["paper_err_pct"],
                                "unit": "%"}
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    e2e["failed_ops_share"] = {"value": failed / attempted,
                               "unit": "ratio"}
    return {
        "validated": untraced["validated"],
        "correct": untraced["correct"] and traced["correct"],
        "attempted": attempted, "failed": failed,
        "errors": untraced["errors"] + traced["errors"],
        "end_to_end": e2e,
        "per_layer": {m.name: {"value": traced["metrics"][m.name],
                               "unit": m.unit, "exact": m.exact}
                      for m in PER_LAYER},
        "msgs_per_pass": untraced["msgs_per_pass"],
        "warmup_ratio": untraced["timing"]["warmup_ratio"],
        "timing": untraced["timing"],
        "trace_timing": traced["timing"],
    }


def _print_workload(name: str, w: dict) -> None:
    label = "" if w["validated"] else "  [unvalidated: no paper table]"
    print(f"\n== {name}{label}")
    print(f"   correct={w['correct']} attempted={w['attempted']} "
          f"failed={w['failed']} warmup_ratio={w['warmup_ratio']:.2f}")
    for mname, cell in w["end_to_end"].items():
        print(f"   {mname:<44}{cell['value']:>16.6g} "
              f"{cell['unit']}{agree_mod.fmt_passes(cell)}")
    total = w["per_layer"]["trace.profiled_s"]["value"]
    for mname, cell in w["per_layer"].items():
        share = (f"  [{cell['value'] / total:6.1%} of profiled]"
                 if mname.endswith(".self_s") and total else "")
        mark = " =" if cell["exact"] else ""
        print(f"   {mname:<44}{cell['value']:>16.6g} "
              f"{cell['unit']}{mark}{share}")


def cmd_run(seed: int, out: str) -> int:
    _check_benchmark_json()
    result = {"schema": 1, "seed": seed, "seconds": RUN_SECONDS,
              "env": _environment(), "self_check": {}, "workloads": {}}
    status = 0
    with tempfile.TemporaryDirectory(
            dir=Path(out).resolve().parent) as tmpdir:
        tmp = Path(tmpdir)
        for name in (w.name for w in WORKLOADS):
            untraced = _child(name, seed, 0, tmp)
            traced = _child(name, seed, 1, tmp)
            w = _assemble(untraced, traced)
            if name == SELF_CHECK:
                again = _child(name, seed, 1, tmp)
                diffs = _exact_differences(traced, again)
                if (traced["sim_elapsed_us"]
                        != untraced["sim_elapsed_us"]):
                    diffs.append("sim_elapsed_us (traced vs untraced)")
                result["self_check"] = {
                    "workload": name, "exact_metrics_repeat": not diffs,
                    "differences": diffs}
            result["workloads"][name] = w
            _print_workload(name, w)
            if not w["correct"]:
                status = 1
    # indented, with each list of raw timings folded onto one line
    text = re.sub(r"\[[^][{}\"]*\]", lambda m: " ".join(m.group().split()),
                  json.dumps(result, indent=1))
    Path(out).write_text(text + "\n")
    check = result["self_check"]
    if check and not check["exact_metrics_repeat"]:
        print(f"\nDETERMINISM SELF-CHECK FAILED on {check['workload']}: "
              f"{check['differences']}", file=sys.stderr)
        status = 1
    bad = [n for n, w in result["workloads"].items() if not w["correct"]]
    if bad:
        print(f"\nINCORRECT: {bad} (failed operations, a simulated "
              f"clock that did not repeat across plain/armed/profiled "
              f"passes, or message counts that disagree)",
              file=sys.stderr)
    print(f"\nwrote {out}")
    return status


def cmd_list(as_json: bool) -> int:
    if as_json:
        print(json.dumps(_catalogue_spec(), indent=2))
        return 0
    print("workloads")
    for w in WORKLOADS:
        tag = "" if w.references else "  [unvalidated]"
        print(f"  {w.name}{tag}\n      {w.why}")
    print("\nend-to-end metrics (every workload)")
    for m in END_TO_END + RESULT_ONLY:
        where = "" if m in END_TO_END else "  (result file only)"
        print(f"  {m.name:<20}{m.unit:<10}{m.clock:<5}better={m.better:<7}"
              f"bound={m.bound}{where}")
    print("\nper-layer metrics (traced run; '=' repeats exactly)")
    for m in PER_LAYER:
        print(f"  {m.name:<44}{m.unit:<9}{'=' if m.exact else ' '}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="measure every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p = sub.add_parser("agree", help="compare two result sets")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("list", help="names and units, nothing is run")
    p.add_argument("--json", action="store_true",
                   help="print BENCHMARK.json as the catalogue has it")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args.seed, args.out)
    if args.cmd == "agree":
        return agree_mod.main(args.a, args.b)
    return cmd_list(args.json)


if __name__ == "__main__":
    sys.exit(main())
