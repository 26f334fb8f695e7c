"""One cold start of the program, timed from this script's first statement.

    python3 perfbench/coldstart.py simulate path/to/scenario.scn

Run with `src` on PYTHONPATH (common.child_env). Imports `uwps.cli`,
builds its parser, parses the given `uwps` arguments and the input file
they name, then prints the elapsed seconds. Nothing else runs, so the time
is the program's own set-up.
"""
import time

_START = time.perf_counter()

import sys  # noqa: E402

from uwps import cli  # noqa: E402

args = cli.build_parser().parse_args(sys.argv[1:])
if args.command == "simulate":
    cli.parse_scenario_file(cli.resolve_input(args.scenario))
elif args.command == "solve":
    cli.parse_observation_file(cli.resolve_input(args.observations))
print(repr(time.perf_counter() - _START))
