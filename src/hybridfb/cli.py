"""Command-line scenario runner.

Exit codes: 0 success, 2 monitor violation (with ``--strict``) or
verification-suite failure, 3 solver error, 4 configuration error or an
output (``--out``, ``--summary``) that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .errors import ConfigError, HybridFeedbackError
from .runner import (
    config_from_sources,
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
    parser.add_argument("--scenario", help="scenario name (default: obstacle)")
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
        help="run these config files as independent parallel scenarios "
        "(no other flag)",
    )
    parser.add_argument(
        "--property-suite",
        action="store_true",
        help="run the randomized verification suites instead of a simulation",
    )
    parser.add_argument(
        "--thorough",
        action="store_true",
        help="acceptance-sized verification suites (with --property-suite)",
    )
    return parser


def _cli_overrides(args: argparse.Namespace) -> dict:
    keys = ("scenario", "controller", "q0", "t_max", "j_max", "out",
            "summary", "strict", "seed")
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
    outputs: dict[str, str] = {}
    for path in paths:
        values = read_config_file(path)
        for key in ("out", "summary"):
            target = values.get(key)
            if target is None:
                continue
            if target in outputs:
                raise ConfigError(
                    f"output collision: {target} used by both "
                    f"{outputs[target]} and {path}"
                )
            outputs[target] = path

    workers = min(len(paths), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run_config_file, paths))
    status = EXIT_OK
    for path, code, message in results:
        print(f"{path}: exit {code} ({message})")
        status = max(status, code)
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.batch:
            ignored = [
                "--" + name.replace("_", "-")
                for name, value in vars(args).items()
                if name != "batch" and value != parser.get_default(name)
            ]
            if ignored:
                raise ConfigError(
                    "--batch runs each file as written and takes no other "
                    "flag; got " + ", ".join(ignored)
                )
            return _run_batch(args.batch)
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
