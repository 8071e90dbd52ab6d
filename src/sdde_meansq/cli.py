"""Command-line entry point.

    sdde-meansq <classify|resolvent|meansquare|simulate|compare>
        --config FILE [--out DIR] [--seed N] [--paths M] [--step H] [--horizon T]

Flags override the corresponding config fields.  The SDDE_MEANSQ_THREADS
environment variable caps the simulation's thread budget.  Exit codes:
0 success, 1 configuration error, 2 uncertified classification,
3 numerical failure.
"""

import argparse
import sys
from pathlib import Path

from .config import parse_config, with_overrides
from .errors import ConfigurationError, NumericalError
from .pipeline import COMMANDS, run_pipeline


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdde-meansq",
        description="Mean-square asymptotics of scalar linear stochastic delay equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON problem file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="Monte Carlo master seed")
        p.add_argument("--paths", type=int, default=None, help="Monte Carlo path count")
        p.add_argument("--step", type=float, default=None, help="grid step override")
        p.add_argument("--horizon", type=float, default=None, help="horizon override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        spec = parse_config(text)
        spec = with_overrides(
            spec, seed=args.seed, paths=args.paths, step=args.step, horizon=args.horizon
        )
        return run_pipeline(spec, {args.command}, args.out)
    except ConfigurationError as exc:
        print(f"config error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
