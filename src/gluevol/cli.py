"""Command-line entry point.

One subcommand per pipeline stage plus ``pipeline`` (all stages in order)
and ``config`` (print the resolved defaults). Logs are line-oriented
``key=value`` pairs on stdout; files under the output directory are the
deterministic artifacts.

Exit codes: 0 success, 2 config error (an unknown, missing or retired
config key, a glue type without thresholds and no training samples
included), 3 missing or malformed input (a workspace file that is absent,
or a scan, grid or weights file that does not parse or fit, including a
scan without its ``footprint`` or ``step_um`` metadata and a scan or sample
with too few points to annotate, augment or grid), 4 numeric failure.
Every error exit prints one line to stderr.

Heavy imports happen after thread-count environment variables are set, so
``--threads 1`` pins the BLAS pool for fully reproducible runs.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_NUMERIC = 4

STAGE_NAMES = (
    "simulate",
    "annotate",
    "augment",
    "voxelize",
    "train",
    "eval",
    "diagnose",
    "report",
    "pipeline",
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="run config JSON (overrides the profile)")
    common.add_argument("--seed", type=int, default=None, help="global seed override")
    common.add_argument("--step", type=int, default=None, help="scan step in um (20 or 50)")
    common.add_argument(
        "--allow-any-step",
        action="store_true",
        help="permit scan steps outside {20, 50}",
    )
    common.add_argument(
        "--profile", choices=("paper", "tiny"), default="tiny", help="built-in config profile"
    )
    common.add_argument("--threads", type=int, default=None, help="BLAS thread count (1 = deterministic)")
    common.add_argument("--out", metavar="DIR", default="out", help="workspace directory")
    common.add_argument("--quiet", action="store_true", help="suppress progress logs")

    parser = argparse.ArgumentParser(
        prog="gluevol",
        description="Glue-deposit inspection pipeline: simulate, annotate, train, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGE_NAMES:
        sub.add_parser(name, parents=[common], help=f"run the {name} stage")
    config_cmd = sub.add_parser("config", parents=[common], help="inspect configuration")
    config_cmd.add_argument(
        "--print-defaults",
        action="store_true",
        help="print the resolved config JSON with every default",
    )
    return parser


def _set_threads(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise SystemExit(EXIT_CONFIG)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(threads)


def _make_logger(quiet: bool):
    def log(**kv):
        if quiet:
            return
        print(" ".join(f"{k}={v}" for k, v in kv.items()), flush=True)

    return log


def _resolve_config(args):
    from .config import load_config, profile_config

    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = profile_config(args.profile, seed=args.seed or 0)
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    if args.step is not None:
        cfg = cfg.with_step(float(args.step))
    cfg = cfg.validate(allow_any_step=args.allow_any_step)
    return cfg.resolved()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _set_threads(args.threads)
    except SystemExit:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG

    # Imports after the thread env is pinned (numpy reads it at load time).
    from . import pipeline as stages
    from .cloudio import CloudFormatError
    from .config import ConfigError
    from .diagnose import UnknownType
    from .neuralvol.weights_io import WeightsFormatError
    from .scansim import BadLayoutConfig
    from .util import encode
    from .voxelizer import GridFormatError

    log = _make_logger(args.quiet)
    try:
        cfg = _resolve_config(args)
        if args.command == "config":
            if args.print_defaults:
                sys.stdout.write(encode(cfg))
            else:
                print(f"profile={cfg.profile} seed={cfg.seed} step_um={cfg.scan.step_um}")
            return EXIT_OK
        if args.command == "pipeline":
            stages.stage_pipeline(cfg, args.out, log)
        else:
            stage_fn = dict(stages.STAGES)[args.command]
            stage_fn(cfg, args.out, log)
        return EXIT_OK
    except (ConfigError, BadLayoutConfig, UnknownType) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (stages.MissingInput, CloudFormatError, GridFormatError, WeightsFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (stages.NumericError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
