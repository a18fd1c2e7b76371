"""``agree A.json B.json``: do two result sets tell the same story?

One row per (workload, end-to-end metric), B held against A:

* host-clock metrics compare the two values against the metric's
  bound.  When the pass-to-pass spread of either side (interquartile
  range of its five pass totals over their median) is wider than the
  bound the row is ``unresolved`` — not ``ok``: the run cannot tell.
  ``setup_s`` differences under 20 ms are ignored;
* simulated-clock and *exact* metrics must be byte-equal, whatever the
  two seeds: no seed moves them; ``failed_ops_share`` must be 0;
* ``paper_err_pct`` may grow by at most 0.5 points.

Exit status 1 when any row is ``regressed``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .metrics import END_TO_END, PER_LAYER, RESULT_ONLY, SETUP_FLOOR_S

__all__ = ["compare", "fmt_passes", "main"]

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"


def _spread(cell: dict) -> float:
    q = cell.get("passes")
    if q is None or not q["median"]:
        return 0.0
    return (q["q3"] - q["q1"]) / abs(q["median"])


def fmt_passes(cell: dict) -> str:
    """The scored passes' totals beside a host-time value."""
    q = cell.get("passes")
    if q is None:
        return ""
    return (f"  [passes: median {q['median']:.4g}, "
            f"{q['q1']:.4g}..{q['q3']:.4g}, n={q['n']}]")


def _fmt(cell: Optional[dict]) -> str:
    if cell is None:
        return "absent"
    if "passes" in cell:
        return f"{cell['value']:.6g}{fmt_passes(cell)}"
    return f"{cell['value']:.9g}"


def _host_row(metric, a: dict, b: dict) -> str:
    va, vb = a["value"], b["value"]
    worse = (vb - va) if metric.better == "lower" else (va - vb)
    if metric.name == "setup_s" and abs(vb - va) < SETUP_FLOOR_S:
        return OK
    if max(_spread(a), _spread(b)) > metric.bound:
        return UNRESOLVED
    return REGRESSED if worse > metric.bound * abs(va) else OK


def compare(a: dict, b: dict
            ) -> Tuple[List[Tuple[str, str, str, str, str]], int]:
    """Rows ``(workload, metric, A, B, status)`` — every end-to-end
    metric, and each exact per-layer metric that differs — and the
    number of exact per-layer metrics found identical."""
    rows = []
    identical = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            rows.append((name, "*", "present", "absent", REGRESSED))
            continue
        ea, eb = wa["end_to_end"], wb["end_to_end"]
        for m in END_TO_END + RESULT_ONLY:
            ca, cb = ea.get(m.name), eb.get(m.name)
            if ca is None and cb is None:
                continue    # paper_err_pct on an unvalidated workload
            if ca is None or cb is None:
                status = REGRESSED
            elif m.name == "failed_ops_share":
                status = OK if cb["value"] == 0 else REGRESSED
            elif m.name == "paper_err_pct":
                status = (OK if cb["value"] - ca["value"] <= m.bound
                          else REGRESSED)
            elif m.exact:
                status = (OK if json.dumps(ca["value"])
                          == json.dumps(cb["value"]) else REGRESSED)
            else:
                status = _host_row(m, ca, cb)
            rows.append((name, m.name, _fmt(ca), _fmt(cb), status))
        la, lb = wa["per_layer"], wb["per_layer"]
        for m in PER_LAYER:
            if not m.exact:
                continue
            ca, cb = la.get(m.name), lb.get(m.name)
            if (ca is not None and cb is not None
                    and json.dumps(ca["value"]) == json.dumps(cb["value"])):
                identical += 1
            else:
                rows.append((name, m.name, _fmt(ca), _fmt(cb), REGRESSED))
    return rows, identical


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    rows, identical = compare(a, b)
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        print("  ".join(r[i].ljust(widths[i]) for i in range(4)),
              r[4], sep="  ")
    counts: Dict[str, int] = {}
    for r in rows:
        counts[r[4]] = counts.get(r[4], 0) + 1
    print(f"\nseeds {a['seed']} and {b['seed']}; " + ", ".join(
        f"{n} {s}" for s, n in sorted(counts.items()))
        + f"; {identical} exact per-layer metrics byte-identical")
    return 1 if counts.get(REGRESSED) else 0
