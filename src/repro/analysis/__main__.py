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
``modelcheck``
    exhaustively explore the transcribed protocol state machines
    (exit 1 on a clean-tree violation; ``--mutations`` instead
    requires every seeded model bug to be caught, writing the
    counterexample charts to ``--out``).

The mutation matrix, which runs every catalogued bug through these
prongs and the differential oracle, is ``python -m repro.check
mutate``.
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
        rule_ids=args.rules.split(",") if args.rules else None,
        baseline=Path(args.baseline) if args.baseline else None)
    if args.json:
        print(report.to_json())
    else:
        print(report.format())
    return 1 if report.findings else 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    report = run_lint()
    write_baseline(report, Path(args.out))
    print(f"baseline: {len(report.findings)} finding(s) -> {args.out}")
    return 0


def _cmd_shadow_run(args: argparse.Namespace) -> int:
    os.environ["REPRO_SHADOW"] = "1"
    sys.argv = [args.target] + list(args.target_args)
    if args.module:
        runpy.run_module(args.target, run_name="__main__",
                         alter_sys=True)
    else:
        runpy.run_path(args.target, run_name="__main__")
    return 0


def _cmd_modelcheck(args: argparse.Namespace) -> int:
    from .model import (MODELS, build_model, check, config_for_mutation,
                        default_configs, format_counterexample)

    if args.model is not None and args.model not in MODELS:
        print(f"unknown model {args.model!r}; pick from "
              f"{sorted(MODELS)}")
        return 2
    names = [args.model] if args.model else sorted(MODELS)

    if args.mutate is not None:
        if args.model is None:
            print("--mutate needs --model")
            return 2
        if args.mutate not in MODELS[args.model].mutations:
            print(f"unknown mutation {args.mutate!r} of {args.model!r}; "
                  f"pick from {sorted(MODELS[args.model].mutations)}")
            return 2
        cfg = config_for_mutation(args.model, args.mutate)
        result = check(
            build_model(args.model, mutation=args.mutate, **cfg))
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
                result = check(build_model(name, mutation=mut, **cfg))
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
            result = check(build_model(name, **cfg))
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="protocol-contract linter + RDMA shadow sanitizer")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("lint", help="lint the source tree")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule ids (default: all)")
    p.add_argument("--baseline", default=None,
                   help="suppress findings recorded in this file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("baseline", help="record current findings")
    p.add_argument("--out", default="lint-baseline.json")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("shadow-run",
                       help="run a script/module with REPRO_SHADOW=1")
    p.add_argument("-m", dest="module", action="store_true",
                   help="treat target as a module (like python -m)")
    p.add_argument("target")
    p.add_argument("target_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=_cmd_shadow_run)

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
    p.set_defaults(func=_cmd_modelcheck)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
