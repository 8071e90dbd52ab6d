"""Command-line entry point.

    sdde-meansq <classify|resolvent|meansquare|simulate|compare>
        --config FILE [--out DIR] [--seed N] [--paths M] [--step H] [--horizon T]

Flags override the corresponding config fields; SDDE_MEANSQ_THREADS, when
set, is an integer of at least 1 that caps the simulation's thread budget.
One parser serves every call of a process.
Exit codes: 0 success, 1 configuration error (a usage error, an unreadable
config or an --out that is a file included), 2 uncertified classification,
3 numerical failure.
"""

import argparse
import sys
from pathlib import Path

from .config import parse_config, with_overrides
from .errors import ConfigurationError, NumericalError, USAGE
from .pipeline import COMMANDS, run_pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # exit code 2 belongs to an uncertified classification
        raise ConfigurationError(USAGE, f"{message} (see sdde-meansq --help)")


_PARSER = _Parser("sdde-meansq", description="Mean-square asymptotics of scalar linear "
                  "stochastic delay equations")
_PARSER.add_argument("command", choices=COMMANDS, metavar="<command>", help=" | ".join(COMMANDS))
_PARSER.add_argument("--config", required=True, help="JSON problem file")
_PARSER.add_argument("--out", default=".", help="output directory")
_PARSER.add_argument("--seed", type=int, help="Monte Carlo master seed")
_PARSER.add_argument("--paths", type=int, help="Monte Carlo path count")
_PARSER.add_argument("--step", type=float, help="grid step override")
_PARSER.add_argument("--horizon", type=float, help="horizon override")


def _attach_values(argv: list[str]) -> list[str]:
    """Join --step and --horizon to the token after them.

    argparse reads a separate "-inf", "-nan" or "-1e-3" as a flag; joined
    as "--step=-inf" it reaches the value check like any other value.
    """
    out = []
    for arg in argv:
        if out and out[-1] in ("--step", "--horizon"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
        spec = with_overrides(
            parse_config(Path(args.config).read_text()),
            seed=args.seed, paths=args.paths, step=args.step, horizon=args.horizon,
        )
        return run_pipeline(spec, {args.command}, args.out)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"config error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
