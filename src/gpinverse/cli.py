"""Command-line entry point for running experiments and presets.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 inference failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    InferenceError,
    NumericalError,
    ShapeError,
)
from .presets import get_preset, list_presets, load_config_file, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INFERENCE = 4

OUTPUT_ENV_VAR = "GPINVERSE_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpinverse",
        description=(
            "Adaptive GP surrogate construction and least-squares Bayesian "
            "inversion experiments"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named preset or a config file")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="preset name (see list-presets)")
    src.add_argument("--config", help="path to a key = value config file")
    run.add_argument(
        "--seed", type=int, default=None,
        help="override the surrogate-construction seed",
    )
    run.add_argument("--out", default=None, help="output directory")

    sub.add_parser("list-presets", help="list preset names and descriptions")

    cmp_parser = sub.add_parser(
        "compare-surrogates", help="surrogate-family comparison on one benchmark"
    )
    cmp_parser.add_argument("--benchmark", required=True)
    cmp_parser.add_argument(
        "--samples", type=int, default=14,
        help="sample budget shared by every family (the BO max_evaluations)",
    )
    cmp_parser.add_argument("--out", default=None)
    return parser


def _resolve_outdir(cli_out, default_name: str) -> str:
    if cli_out:
        return cli_out
    env = os.environ.get(OUTPUT_ENV_VAR)
    if env:
        return os.path.join(env, default_name)
    return os.path.join("results", default_name)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            for name, description in list_presets():
                print(f"{name}\n    {description}")
            return EXIT_OK

        if args.command == "run":
            if args.preset:
                config = get_preset(args.preset)
            else:
                config = load_config_file(args.config)
            outdir = _resolve_outdir(args.out, config.name)
            result = run_experiment(config, outdir, seed_override=args.seed)
            print(f"wrote {len(result.files)} artifact(s) to {outdir}")
            for f in result.files:
                print(f"  {f}")
            return EXIT_OK

        if args.command == "compare-surrogates":
            import dataclasses

            base = get_preset("compare-surrogates")
            config = dataclasses.replace(
                base,
                name=f"compare-{args.benchmark}",
                compare_benchmarks=(args.benchmark,),
                bo=dataclasses.replace(base.bo, max_evaluations=args.samples),
            )
            outdir = _resolve_outdir(args.out, config.name)
            result = run_experiment(config, outdir)
            print(f"wrote {len(result.files)} artifact(s) to {outdir}")
            return EXIT_OK

        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, DomainError, ShapeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, DegenerateDataError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InferenceError as exc:
        print(f"inference failure: {exc}", file=sys.stderr)
        return EXIT_INFERENCE


if __name__ == "__main__":
    sys.exit(main())
