"""Machine-readable benchmark results
(``benchmarks/results/BENCH_<suite>.json``) and the regression gate.

A benchmark suite produces a result document::

    {
      "schema": "repro-bench/1",
      "suite": "channels",
      "entries": [
        {"design": "piggyback", "metric": "latency_us", "size": 4,
         "value": 7.41, "counters": {"rdma_write_ops": 242, ...}},
        ...
      ]
    }

``compare`` checks a fresh document against a committed baseline:
lower-is-better metrics (``latency_us``) regress when they exceed the
baseline by more than ``rtol``; higher-is-better metrics
(``bandwidth_MBps``) regress when they fall short by more than
``rtol``.  Missing entries are regressions too — a benchmark that
silently stops running is the worst kind of regression.  The returned
list of messages is empty when the gate passes.

Baseline-update procedure: see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["SCHEMA", "HIGHER_IS_BETTER", "make_result", "write_result",
           "load_result", "compare", "gate_against_baseline"]

SCHEMA = "repro-bench/1"

#: metric name -> True when larger values are better.
HIGHER_IS_BETTER = {
    "bandwidth_MBps": True,
    "latency_us": False,
    "time_s": False,
    "phased_s": False,
    "nas_cg_s": False,
    "nas_mg_s": False,
    # simulator-speed suite (BENCH_simspeed.json): engine callbacks
    # executed and simulated payload bytes moved per second of wall
    # clock, plus the raw wall time of each workload (recorded for the
    # artifact; of these the committed baseline gates events_per_sec).
    "events_per_sec": True,
    "sim_bytes_per_sec": True,
    "wall_s": False,
    # fluid allocation passes per transfer (FluidNetwork.resolves /
    # .transfers): an exact count, so unlike the host-clock metrics
    # above it gates tightly on any machine.
    "fluid_resolves_per_transfer": False,
    # memory-footprint suite (BENCH_memscale.json): registered
    # (pinned) bytes per rank, QPs created, and channel connections
    # established for a given world — the quantities the srq/mux/
    # lazy-connect designs exist to shrink.  All deterministic
    # simulated counts; lower is better for each.
    "pinned_bytes_per_rank": False,
    "live_qps": False,
    "connections": False,
}


def _key(entry: dict) -> Tuple:
    return (entry["design"], entry["metric"], entry["size"])


def make_result(suite: str, entries: Sequence[dict]) -> dict:
    for e in entries:
        for field in ("design", "metric", "size", "value"):
            if field not in e:
                raise ValueError(f"benchmark entry missing {field!r}: "
                                 f"{e}")
        if e["metric"] not in HIGHER_IS_BETTER:
            raise ValueError(f"unknown metric {e['metric']!r}; add its "
                             f"direction to HIGHER_IS_BETTER")
    return {"schema": SCHEMA, "suite": suite, "entries": list(entries)}


def write_result(path: Union[str, pathlib.Path], suite: str,
                 entries: Sequence[dict]) -> dict:
    doc = make_result(suite, entries)
    pathlib.Path(path).write_text(json.dumps(doc, indent=2,
                                             sort_keys=True) + "\n")
    return doc


def load_result(path: Union[str, pathlib.Path]) -> dict:
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unsupported schema "
                         f"{doc.get('schema')!r} (want {SCHEMA!r})")
    return doc


def compare(baseline: dict, current: dict, rtol: float = 0.10
            ) -> List[str]:
    """Regression messages (empty when current upholds the baseline).

    Only regressions fail: improvements and new entries pass silently
    (commit a fresh baseline to lock them in).
    """
    problems: List[str] = []
    current_by_key: Dict[Tuple, dict] = {
        _key(e): e for e in current["entries"]
    }
    for base in baseline["entries"]:
        key = _key(base)
        cur = current_by_key.get(key)
        label = f"{key[0]}/{key[1]}@{key[2]}"
        if cur is None:
            problems.append(f"{label}: present in baseline but not "
                            f"measured")
            continue
        higher = HIGHER_IS_BETTER[base["metric"]]
        b, c = float(base["value"]), float(cur["value"])
        if higher:
            floor = b * (1.0 - rtol)
            if c < floor:
                problems.append(
                    f"{label}: {c:.4g} below baseline {b:.4g} "
                    f"(floor {floor:.4g}, rtol {rtol:.0%})")
        else:
            ceil = b * (1.0 + rtol)
            if c > ceil:
                problems.append(
                    f"{label}: {c:.4g} above baseline {b:.4g} "
                    f"(ceiling {ceil:.4g}, rtol {rtol:.0%})")
    return problems


def gate_against_baseline(baseline_path: Union[str, pathlib.Path],
                          current: dict, rtol: float = 0.10
                          ) -> Optional[List[str]]:
    """Compare against a baseline file; returns None when no baseline
    exists yet (first run), else the list of regression messages."""
    path = pathlib.Path(baseline_path)
    if not path.exists():
        return None
    return compare(load_result(path), current, rtol=rtol)
