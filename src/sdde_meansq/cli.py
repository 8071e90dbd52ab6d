"""Command-line entry point.

    sdde-meansq <classify|resolvent|meansquare|simulate|compare> --config FILE [--out DIR]

The config file holds every parameter of a run; SDDE_MEANSQ_THREADS, when
set, is an integer of at least 1 that caps the simulation's thread budget.
One parser serves every call of a process.
Exit codes: 0 success, 1 configuration error (a usage error, an unreadable
config or an --out that is a file included), 2 uncertified classification,
3 numerical failure.
"""

import argparse
import sys
from pathlib import Path

from .config import parse_config
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


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        spec = parse_config(Path(args.config).read_text())
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
