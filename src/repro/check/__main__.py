"""Command-line front end of the conformance harness.

Examples::

    python -m repro.check gen --seed 7            # print a spec
    python -m repro.check fuzz --budget 20        # differential fuzz
    python -m repro.check fuzz --budget 1 --base-seed 7   # one seed
    python -m repro.check fuzz --budget 50 --time-budget 60 \\
        --perturb 2 --faults --out replays/       # CI smoke slice
    python -m repro.check replay replays/fail-7.json
    python -m repro.check mutate                  # mutation matrix
    python -m repro.check pin                     # check every pin
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import oracle
from .differ import DEFAULT_DESIGNS, differential
from .generate import generate_fault_plan, generate_spec
from .shrink import ShrinkResult, shrink, write_replay, replay as _replay


def _parse_designs(arg):
    if not arg:
        return tuple(DEFAULT_DESIGNS)
    designs = tuple(d.strip() for d in arg.split(",") if d.strip())
    for d in designs:
        if d not in DEFAULT_DESIGNS:
            raise SystemExit(f"unknown design {d!r}; pick from "
                             f"{','.join(DEFAULT_DESIGNS)}")
    return designs


def cmd_gen(args) -> int:
    spec = generate_spec(args.seed)
    print(spec.to_json(indent=2))
    return 0


def cmd_fuzz(args) -> int:
    designs = _parse_designs(args.designs)
    tie_seeds = [None] + [1000 + k for k in range(args.perturb)]
    deadline = (time.monotonic() + args.time_budget
                if args.time_budget else None)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    n_failed = 0
    n_run = 0
    for i in range(args.budget):
        if deadline and time.monotonic() > deadline:
            print(f"time budget reached after {n_run} seeds")
            break
        seed = args.base_seed + i
        spec = generate_spec(seed)
        plans = [None]
        if args.faults:
            plan = generate_fault_plan(seed)
            if plan is not None:
                plans.append(plan)
        report = differential(spec, designs=designs,
                              tie_seeds=tie_seeds, fault_plans=plans)
        n_run += 1
        status = "ok" if report.ok else "FAIL"
        print(f"seed {seed}: {len(report.observations)} runs "
              f"[{status}]")
        if report.ok:
            continue
        n_failed += 1
        for f in report.failures[:10]:
            print(f"  {f}")
        if args.out:
            # shrink against the first failing combination
            bad = next((o for o in report.observations
                        if oracle.check(spec, o)), None)
            if bad is not None:
                from ..faults import FaultPlan
                plan = (FaultPlan.from_dict(bad.faults)
                        if bad.faults else None)
                result = shrink(spec, bad.design,
                                tie_seed=bad.tie_seed,
                                fault_plan=plan)
            else:
                result = ShrinkResult(spec, designs[0], None, None,
                                      report.failures, 0)
            path = os.path.join(args.out, f"fail-seed{seed}.json")
            write_replay(path, result)
            print(f"  replay written to {path}")
    print(f"fuzz: {n_run} seeds, {n_failed} failing")
    return 1 if n_failed else 0


def cmd_replay(args) -> int:
    failures = _replay(args.file)
    for f in failures:
        print(f)
    print(f"{args.file}: {'FAIL' if failures else 'ok'}")
    return 1 if failures else 0


def cmd_mutate(args) -> int:
    from ..analysis.mutcheck import floors_broken, format_matrix, matrix

    rows = matrix()
    print(format_matrix(rows))
    broken = floors_broken(rows)
    for line in broken:
        print(f"floor broken: {line}")
    return 1 if broken else 0


def cmd_pin(args) -> int:
    from .pins import pin
    return pin(args.dir, update=args.update)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="python -m repro.check",
                                 description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="print a generated spec")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("fuzz", help="differential fuzzing sweep")
    p.add_argument("--budget", type=int, default=20,
                   help="number of seeds")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--designs", default="")
    p.add_argument("--perturb", type=int, default=0,
                   help="extra schedule-perturbation seeds per spec")
    p.add_argument("--faults", action="store_true",
                   help="also compose recoverable fault plans")
    p.add_argument("--time-budget", type=float, default=0.0,
                   help="stop after this many wall seconds")
    p.add_argument("--out", default="",
                   help="directory for shrunk failing replays")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("replay", help="re-run a replay file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("mutate",
                       help="every catalogued bug against every prong "
                            "(harness self-test)")
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser("pin", help="check (or --update) the corpus, "
                                   "design and transport pins")
    p.add_argument("dir", nargs="?", default="tests",
                   help="directory holding corpus/ and pins/")
    p.add_argument("--update", action="store_true")
    p.set_defaults(fn=cmd_pin)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
