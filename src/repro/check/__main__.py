"""Command-line front end of the conformance harness.

Examples::

    python -m repro.check gen --seed 7            # print a spec
    python -m repro.check fuzz --budget 20        # differential fuzz
    python -m repro.check fuzz --budget 50 --time-budget 60 \\
        --perturb 2 --faults --out replays/       # CI smoke slice
    python -m repro.check replay replays/fail-7.json
    python -m repro.check mutate --expect 12      # harness self-test
    python -m repro.check golden --write tests/corpus
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import oracle
from .differ import DEFAULT_DESIGNS, differential, run_spec
from .generate import generate_fault_plan, generate_spec
from .mutations import CATALOG, run_smoke
from .shrink import ShrinkResult, shrink, write_replay, replay as _replay

#: seeds of the checked-in golden replay corpus (see golden --write).
GOLDEN_SEEDS = (11, 23, 31, 47, 59, 101, 149, 211, 307, 401)
#: designs pinned by the golden corpus: every row of the design table.
GOLDEN_DESIGNS = DEFAULT_DESIGNS


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


def cmd_run(args) -> int:
    spec = generate_spec(args.seed)
    report = differential(spec, designs=_parse_designs(args.designs))
    for f in report.failures:
        print(f)
    print(f"seed {args.seed}: {len(report.observations)} runs, "
          f"{len(report.failures)} failures")
    return 0 if report.ok else 1


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
    results = run_smoke()
    detected = sum(r.detected for r in results)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "caught" if r.detected else "MISSED"
        detail = r.failures[0].splitlines()[0][:90] if r.failures \
            else ""
        print(f"{r.name:<{width}}  {mark}  {detail}")
    print(f"mutation smoke: {detected}/{len(results)} detected "
          f"(threshold {args.expect})")
    return 0 if detected >= args.expect else 1


def cmd_golden(args) -> int:
    os.makedirs(args.dir, exist_ok=True)
    failed = 0
    for seed in GOLDEN_SEEDS:
        spec = generate_spec(seed, max_phases=3)
        digests = {}
        for design in GOLDEN_DESIGNS:
            obs = run_spec(spec, design)
            bad = oracle.check(spec, obs)
            if bad:
                raise SystemExit(f"golden seed {seed} fails on "
                                 f"{design}: {bad[0]}")
            digests[design] = oracle.observation_digest(obs)
        path = os.path.join(args.dir, f"golden-{seed}.json")
        doc = {"spec": spec.to_dict(), "digests": digests}
        if args.write:
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {path}")
        else:
            with open(path) as fh:
                want = json.load(fh)["digests"]
            ok = want == digests
            failed += not ok
            print(f"{path}: {'ok' if ok else 'DIGEST MISMATCH'}")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.check",
                                 description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="print a generated spec")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("run", help="differential run of one seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--designs", default="")
    p.set_defaults(fn=cmd_run)

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
                       help="mutation-testing smoke (harness "
                            "self-test)")
    p.add_argument("--expect", type=int, default=12,
                   help="minimum mutations that must be caught")
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser("golden",
                       help="write or check the golden replay corpus")
    p.add_argument("dir", nargs="?", default="tests/corpus")
    p.add_argument("--write", action="store_true")
    p.set_defaults(fn=cmd_golden)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
