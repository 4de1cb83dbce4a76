"""Command-line scenario runner.

Exit codes: 0 success, 2 monitor violation (with ``--strict``) or
verification-suite failure, 3 solver error, 4 configuration error or an
output (``--out``, ``--summary``) that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ConfigError, HybridFeedbackError
from .runner import (
    config_from_sources,
    map_in_workers,
    property_suite,
    read_config_file,
    run,
)

EXIT_OK = 0
EXIT_MONITOR = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    # Argparse normally exits with status 2, which collides with the
    # monitor-violation code; route usage errors to the config exit path.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hybridfb",
        description=(
            "Simulate the obstacle-avoidance case study with nominal, "
            "adaptive, or backstepped synergistic feedback."
        ),
    )
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument(
        "--controller",
        choices=["nominal", "adaptive", "backstep"],
        help="controller kind",
    )
    parser.add_argument("--q0", type=float, choices=[-1.0, 1.0], help="initial chart")
    parser.add_argument("--t-max", type=float, dest="t_max", help="flow-time horizon")
    parser.add_argument("--j-max", type=int, dest="j_max", help="jump budget")
    parser.add_argument("--out", help="trajectory CSV output path")
    parser.add_argument("--summary", help="run summary output path")
    parser.add_argument(
        "--strict",
        action="store_true",
        default=None,
        help="exit with status 2 on any Lyapunov monitor violation",
    )
    parser.add_argument("--seed", type=int, help="seed for the verification suites")
    parser.add_argument(
        "--batch",
        nargs="+",
        metavar="CONFIG",
        help="run these config files as independent scenarios in worker "
        "processes, at most one per usable CPU (no other flag)",
    )
    parser.add_argument(
        "--property-suite",
        action="store_true",
        help="run the randomized verification suites instead of a "
        "simulation, in worker processes as --batch does",
    )
    parser.add_argument(
        "--thorough",
        action="store_true",
        help="acceptance-sized verification suites (with --property-suite)",
    )
    return parser


# The flags of one simulation run, which the suites never read.
_RUN_FLAGS = ("controller", "q0", "t_max", "j_max", "out", "summary", "strict")


def _cli_overrides(args: argparse.Namespace) -> dict:
    keys = _RUN_FLAGS + ("seed",)
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _run_single(config) -> int:
    try:
        _, summary = run(config)
    except OSError as exc:  # an output that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for line in summary.lines():
        print(line)
    violations = summary.flow_violations + summary.jump_violations
    if violations:
        print(f"warning: {violations} Lyapunov monitor violation(s)", file=sys.stderr)
        if config.strict:
            return EXIT_MONITOR
    return EXIT_OK


# Here and in main: a run that fails or is refused ends with one message
# naming the failure, and numpy's floating-point warnings on the way there
# would only print ahead of it.
@np.errstate(all="ignore")
def run_config_file(path: str) -> tuple[str, int, str]:
    """Load and run one config file; used as the batch worker."""
    try:
        config = config_from_sources(read_config_file(path))
        _, summary = run(config)
    except ConfigError as exc:
        return path, EXIT_CONFIG, str(exc)
    except HybridFeedbackError as exc:
        return path, EXIT_SOLVER, str(exc)
    except OSError as exc:  # an output that cannot be written
        return path, EXIT_CONFIG, str(exc)
    violations = summary.flow_violations + summary.jump_violations
    if violations and config.strict:
        return path, EXIT_MONITOR, f"{violations} monitor violation(s)"
    return path, EXIT_OK, (
        f"t={summary.final_time:g} jumps={summary.jump_count} "
        f"|z|={summary.final_dist_origin:.3g}"
    )


def _run_batch(paths: list[str]) -> int:
    # Resolved paths compare; a file whose own out and summary name one
    # file is refused by its own run.
    outputs: dict[str, str] = {}
    for path in paths:
        named = (read_config_file(path).get(key) for key in ("out", "summary"))
        targets = {os.path.realpath(t): t for t in named if t is not None}
        for real, target in targets.items():
            if real in outputs:
                raise ConfigError(
                    f"output collision: {target} used by both "
                    f"{outputs[real]} and {path}"
                )
            outputs[real] = path

    status = EXIT_OK
    for path, code, message in map_in_workers(run_config_file, paths):
        print(f"{path}: exit {code} ({message})")
        status = max(status, code)
    return status


def _refuse_flags(parser, args, names, reason: str) -> None:
    """Raise :class:`ConfigError` naming each of ``names`` given on the line."""
    given = [
        "--" + name.replace("_", "-")
        for name in names
        if getattr(args, name) != parser.get_default(name)
    ]
    if given:
        raise ConfigError(f"{reason}; got " + ", ".join(given))


@np.errstate(all="ignore")
def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.batch:
            _refuse_flags(
                parser, args, [name for name in vars(args) if name != "batch"],
                "--batch runs each file as written and takes no other flag",
            )
            return _run_batch(args.batch)
        if args.property_suite:
            _refuse_flags(parser, args, _RUN_FLAGS, "--property-suite runs the "
                          "verification suites and takes no simulation flag")
        else:
            _refuse_flags(parser, args, ("thorough", "seed"),
                          "--thorough and --seed apply only with --property-suite")
        file_values = read_config_file(args.config) if args.config else {}
        config = config_from_sources(file_values, _cli_overrides(args))
        if args.property_suite:
            report = property_suite(config.seed, thorough=args.thorough)
            for line in report.lines():
                print(line)
            return EXIT_OK if report.passed else EXIT_MONITOR
        return _run_single(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HybridFeedbackError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
