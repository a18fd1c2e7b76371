"""Command-line front end: ``python -m repro.analysis <cmd>``.

``lint``
    run the protocol-contract linter over the source tree (exit 1 on
    findings; ``--baseline`` filters known ones);
``baseline``
    write the current findings to a baseline file so ``lint`` only
    reports regressions;
``shadow-run``
    execute a module/script with the RDMA shadow-memory sanitizer
    force-enabled (``REPRO_SHADOW=1``);
``mutcheck``
    prove the linter + sanitizer catch the canned bug corpus without
    the differential oracle (exit 1 below ``--expect``);
``modelcheck``
    exhaustively explore the transcribed protocol state machines
    (exit 1 on a clean-tree violation; ``--mutations`` instead
    requires every seeded model bug to be caught, writing the
    counterexample charts to ``--out``);
``deadlock-replay``
    apply one catalogued mutation and run its spec under the
    wait-for-graph deadlock detector, printing the diagnosis (exit 0
    when a DeadlockError was raised and diagnosed).
"""

from __future__ import annotations

import argparse
import os
import runpy
import sys
from pathlib import Path
from typing import List, Optional

from .core import write_baseline
from .lint import run_lint


def _cmd_lint(args: argparse.Namespace) -> int:
    report = run_lint(
        root=Path(args.root) if args.root else None,
        rule_ids=args.rules.split(",") if args.rules else None,
        baseline=Path(args.baseline) if args.baseline else None)
    if args.json:
        print(report.to_json())
    else:
        print(report.format())
    return 1 if report.findings else 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    report = run_lint(root=Path(args.root) if args.root else None)
    write_baseline(report, Path(args.out))
    print(f"baseline: {len(report.findings)} finding(s) -> {args.out}")
    return 0


def _cmd_shadow_run(args: argparse.Namespace) -> int:
    os.environ["REPRO_SHADOW"] = "1"
    if args.strict is not None:
        os.environ["REPRO_SHADOW_STRICT"] = "1" if args.strict else "0"
    sys.argv = [args.target] + list(args.target_args)
    if args.module:
        runpy.run_module(args.target, run_name="__main__",
                         alter_sys=True)
    else:
        runpy.run_path(args.target, run_name="__main__")
    return 0


def _cmd_mutcheck(args: argparse.Namespace) -> int:
    from .mutcheck import check_mutations, format_results

    results = check_mutations(dynamic=not args.static_only)
    print(format_results(results))
    caught = sum(r.caught for r in results)
    return 0 if caught >= args.expect else 1


def _cmd_modelcheck(args: argparse.Namespace) -> int:
    from .model import (MODELS, build_model, check, config_for_mutation,
                        default_configs, format_counterexample)

    if args.model is not None and args.model not in MODELS:
        print(f"unknown model {args.model!r}; pick from "
              f"{sorted(MODELS)}")
        return 2
    names = [args.model] if args.model else sorted(MODELS)
    por = not args.no_por

    if args.mutate is not None:
        if args.model is None:
            print("--mutate needs --model")
            return 2
        cfg = config_for_mutation(args.model, args.mutate)
        result = check(
            build_model(args.model, mutation=args.mutate, **cfg),
            max_states=args.max_states, por=por)
        print(result.format())
        if result.violation is None:
            print("mutation not caught at this configuration")
            return 1
        print(format_counterexample(result.lanes, result.violation))
        return 0

    if args.mutations:
        outdir = Path(args.out) if args.out else None
        escaped = 0
        for name in names:
            for mut in sorted(MODELS[name].mutations):
                cfg = config_for_mutation(name, mut)
                result = check(
                    build_model(name, mutation=mut, **cfg),
                    max_states=args.max_states, por=por)
                print(result.format())
                if result.violation is None:
                    escaped += 1
                    continue
                if outdir is not None:
                    outdir.mkdir(parents=True, exist_ok=True)
                    chart = format_counterexample(result.lanes,
                                                  result.violation)
                    (outdir / f"{name}--{mut}.txt").write_text(
                        chart + "\n")
        if escaped:
            print(f"{escaped} seeded model bug(s) escaped exhaustive "
                  "exploration")
            return 1
        print("every seeded model bug caught with a counterexample")
        return 0

    bad = 0
    for name in names:
        for cfg in default_configs(name):
            result = check(build_model(name, **cfg),
                           max_states=args.max_states, por=por)
            knobs = ",".join(f"{k}={v}" for k, v in sorted(cfg.items()))
            print(f"{result.format()}  [{knobs}]")
            if result.violation is not None:
                bad += 1
                print(format_counterexample(result.lanes,
                                            result.violation))
    if bad:
        print(f"{bad} violation(s) on the clean tree")
        return 1
    print("all models pass at every configured bound")
    return 0


def _cmd_deadlock_replay(args: argparse.Namespace) -> int:
    from ..check import mutations as corpus
    from ..check.differ import run_spec

    muts = {m.name: m for m in corpus.CATALOG}
    if args.list or args.mutation is None:
        for name in sorted(muts):
            print(name)
        return 0
    mut = muts.get(args.mutation)
    if mut is None:
        print(f"unknown mutation {args.mutation!r}; pick from "
              f"{sorted(muts)}")
        return 2
    undo = mut.apply()
    try:
        obs = run_spec(mut.spec, mut.design)
    finally:
        undo()
    if obs.error is not None and "DeadlockError" in obs.error:
        print(obs.error)
        return 0
    print(f"no deadlock diagnosed under {args.mutation!r} "
          f"(error={obs.error!r}, hang={obs.hang})")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="protocol-contract linter + RDMA shadow sanitizer")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("lint", help="lint the source tree")
    p.add_argument("--root", default=None,
                   help="tree to lint (default: the installed src/)")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule ids (default: all)")
    p.add_argument("--baseline", default=None,
                   help="suppress findings recorded in this file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("baseline", help="record current findings")
    p.add_argument("--root", default=None)
    p.add_argument("--out", default="lint-baseline.json")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("shadow-run",
                       help="run a script/module with REPRO_SHADOW=1")
    p.add_argument("-m", dest="module", action="store_true",
                   help="treat target as a module (like python -m)")
    p.add_argument("--lax", dest="strict", action="store_const",
                   const=False, default=None,
                   help="record violations instead of raising")
    p.add_argument("target")
    p.add_argument("target_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=_cmd_shadow_run)

    p = sub.add_parser("mutcheck",
                       help="validate tooling against the bug corpus")
    p.add_argument("--expect", type=int, default=14,
                   help="minimum mutations that must be caught")
    p.add_argument("--static-only", action="store_true",
                   help="skip the shadow (dynamic) prong")
    p.set_defaults(func=_cmd_mutcheck)

    p = sub.add_parser("modelcheck",
                       help="exhaustively check the protocol models")
    p.add_argument("--model", default=None,
                   help="restrict to one model (default: all)")
    p.add_argument("--mutate", default=None,
                   help="check one seeded model bug (needs --model); "
                        "prints its counterexample chart")
    p.add_argument("--mutations", action="store_true",
                   help="require every seeded model bug to be caught")
    p.add_argument("--out", default=None,
                   help="directory for counterexample charts "
                        "(with --mutations)")
    p.add_argument("--max-states", type=int, default=500_000,
                   help="state-count budget per configuration")
    p.add_argument("--no-por", action="store_true",
                   help="disable partial-order reduction")
    p.set_defaults(func=_cmd_modelcheck)

    p = sub.add_parser("deadlock-replay",
                       help="run a catalogued mutation under the "
                            "wait-for-graph deadlock detector")
    p.add_argument("--mutation", default=None,
                   help="mutation name from the corpus catalog")
    p.add_argument("--list", action="store_true",
                   help="list catalogued mutation names")
    p.set_defaults(func=_cmd_deadlock_replay)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
