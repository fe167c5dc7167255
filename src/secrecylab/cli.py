"""Command-line entry point.

Usage::

    secrecylab COMMAND [--scenario PATH] [--seed N] [--samples N]
               [--budget X] [--grid-step X] [--format {csv,json}] [--out PATH]

Commands: rate, allocate, allocate-fading, ergodic, pair, discrete-capacity,
pick-prob, fig4.  fig4 runs the bundled nine-agent cooperation scenario
(three qualified channels plus six disqualified ones that pair up) when no
scenario is given.  discrete-capacity searches the input distribution
alone, with no prefix channel, so its rate is the secrecy capacity only
where the main link is less noisy than the eavesdropper's, and a lower
bound elsewhere.

Seed priority: --seed beats the SECRECY_LAB_SEED environment variable,
which beats the scenario's seed field (default 0).  Each is a 64-bit
unsigned integer.

Exit codes:
  0  success
  2  usage error: bad arguments, a missing required option, a seed outside
     [0, 2**64)
  3  validation error: an unreadable or invalid scenario, a content
     mismatch, a budget that is not positive and finite, a sample count
     below 1 or too large for memory, a grid step outside [1e-3, 0.1], an
     unwritable output
  4  numerical failure: a solver missed its tolerance, such as a fading
     budget missed by more than 1 %, or a report would hold a non-finite
     number
"""

import argparse
import os
import sys

from .errors import InvalidInputError, NumericalError, UsageError, _check_seed
from .harness import COMMANDS, DEFAULT_GRID_STEP, DEFAULT_SAMPLES, run
from .report import emit
from .scenario import load_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

SEED_ENV_VAR = "SECRECY_LAB_SEED"

#: The text after the options in ``--help``: this docstring from its
#: command list on (none where docstrings are stripped, as under -OO).
_EPILOG = __doc__ and __doc__[__doc__.index("Commands:"):]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="secrecylab",
                     description="Secrecy-capacity experiments on wiretap channel banks.",
                     epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS,
                        help="experiment to run")
    parser.add_argument("--scenario", metavar="PATH",
                        help="scenario file (JSON, schema_version 1)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help=f"run seed; overrides ${SEED_ENV_VAR} and the scenario seed")
    parser.add_argument("--samples", type=int, metavar="N",
                        help=f"Monte Carlo sample count (default {DEFAULT_SAMPLES})")
    parser.add_argument("--budget", type=float, metavar="X",
                        help="total power budget: allocate enforces sum(P_i) == X "
                             "across the bank, fading commands target the average "
                             "spent power, rate applies X to each channel")
    parser.add_argument("--grid-step", type=float, metavar="X", dest="grid_step",
                        help="input-simplex resolution for discrete-capacity: it "
                             "searches input distributions whose entries are "
                             "multiples of 1/round(1/X) "
                             f"(default {DEFAULT_GRID_STEP:g})")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report format (default csv)")
    parser.add_argument("--out", metavar="PATH", default="-",
                        help="output file (default '-': stdout)")
    return parser


def _resolve_seed(args):
    name, seed = "--seed", args.seed
    if seed is None:
        name, seed = f"${SEED_ENV_VAR}", os.environ.get(SEED_ENV_VAR)
        if seed is None:
            return None
        try:
            seed = int(seed)
        except ValueError:
            pass  # not an integer: the seed check rejects it by name
    try:
        return _check_seed(name, seed)
    except InvalidInputError as exc:
        raise UsageError(str(exc)) from None


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        seed = _resolve_seed(args)
        scenario = load_scenario(args.scenario) if args.scenario else None
        records = run(args.command, scenario, budget=args.budget,
                      samples=args.samples, grid_step=args.grid_step, seed=seed)
        emit(records, args.format, args.out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
