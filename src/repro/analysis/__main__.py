"""Command-line front end: ``python -m repro.analysis <cmd>``.

``lint``
    run the protocol-contract linter over the source tree (exit 1 on
    findings);
``modelcheck``
    exhaustively explore the transcribed protocol state machines
    (exit 1 on a clean-tree violation; ``--model M --mutate X`` checks
    one seeded model bug and prints its counterexample chart).

The shadow sanitizer has no subcommand: ``REPRO_SHADOW=1`` arms it
under any entry point.  The mutation matrix, which runs every
catalogued bug through these prongs and the differential oracle, is
``python -m repro.check mutate``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .lint import run_lint


def _cmd_lint(args: argparse.Namespace) -> int:
    report = run_lint()
    print(report.format())
    return 1 if report.findings else 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="protocol-contract linter + protocol model checker")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("lint", help="lint the source tree")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("modelcheck",
                       help="exhaustively check the protocol models")
    p.add_argument("--model", default=None,
                   help="restrict to one model (default: all)")
    p.add_argument("--mutate", default=None,
                   help="check one seeded model bug (needs --model); "
                        "prints its counterexample chart")
    p.set_defaults(func=_cmd_modelcheck)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
