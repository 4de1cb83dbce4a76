"""hybridfb benchmark: timed passes, or one traced pass, of one workload.

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 26 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time measured in
fresh interpreters, then timed passes for about ``--seconds``.  ``--trace 1``
prints the per-layer metrics of one traced pass, timed against one
untraced pass.  ``--workload all`` runs every workload in a child process
of its own.  Every run is checked against the gate; the last line of
standard output is one JSON object, and the exit status is 1 when a
check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"

WORKLOAD_NAMES = ("case_study", "switching", "general_gain", "verify")
SETUP_PROBES = 3
DEFAULT_SEED = 1
# Least share of the traced pass the six layers' self times must cover.
MIN_LAYER_SHARE = 0.97


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="short horizons and one pass, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child_args(args, workload):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    return argv + (["--tiny"] if args.tiny else [])


def _setup_seconds(args) -> float:
    """Time a fresh interpreter to import hybridfb and build the scenarios."""
    argv = _child_args(args, args.workload) + ["--setup-probe"]
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def _percentile_tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n).  Below 40 samples, ten beyond would
    put the tail under the upper quartile, so a quarter of the samples
    (rounded down) lie beyond it instead; with fewer than four it is the
    maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(10, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def _run_pass(workload, specs, outdir):
    outdir.mkdir()
    workload.prepare(specs, outdir)
    start = time.perf_counter()
    runs = [workloads.timed(workload, spec, outdir) for spec in specs]
    return time.perf_counter() - start, runs, outdir


def _warm_up(workload, specs, tmp):
    """One short untimed run per controller kind fills lazy caches."""
    warm = workload.warm_specs(specs)
    if warm:
        _run_pass(workload, warm, tmp / "warm")


def _gate(workload, specs, passes, seed, tiny):
    """Check every run of every pass.

    Returns the failed-run count, the problems found, each pass's facts,
    and whether golden endpoints were recorded for this seed.
    """
    golden = None if tiny else workloads.golden_for(
        workloads.load_golden(), workload.name, seed
    )
    failed = 0
    problems = []
    all_facts = []
    digests = {}
    for p, (_, runs, outdir) in enumerate(passes):
        pass_facts = []
        for spec, (_, outcome) in zip(specs, runs):
            try:
                facts = {} if outcome.error else workload.facts(spec, outdir, outcome)
            except (OSError, ValueError, KeyError) as exc:
                facts, outcome.error = {}, f"unreadable outputs: {exc}"
            found = workloads.check_run(workload, spec, outcome, facts, golden)
            first = digests.setdefault(spec.name, facts.get("digest"))
            if facts and facts.get("digest") != first:
                found.append("output differs from the first pass")
            if found:
                failed += 1
                problems.extend(f"pass {p} {spec.name}: {msg}" for msg in found)
            pass_facts.append(facts)
        all_facts.append(pass_facts)
    return failed, problems, all_facts, golden is not None


def _report(lines, correct, attempted, failed, metrics, problems):
    for line in lines:
        print(line)
    for problem in problems:
        print(f"GATE FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def timed_run(args, workload, specs, tmp) -> int:
    setup = [_setup_seconds(args) for _ in range(1 if args.tiny else SETUP_PROBES)]
    _warm_up(workload, specs, tmp)
    # Timed passes until the next one, as long as the last, would end
    # after --seconds; at least one.
    passes = []
    start = time.perf_counter()
    while not passes or (
        not args.tiny and time.perf_counter() - start + passes[-1][0] <= args.seconds
    ):
        passes.append(_run_pass(workload, specs, tmp / f"pass{len(passes)}"))
    n_passes = len(passes)
    failed, problems, facts, has_golden = _gate(workload, specs, passes, args.seed, args.tiny)

    walls = [wall for wall, _, _ in passes]
    run_times = [t for _, runs, _ in passes for t, _ in runs]
    tail, tail_pct, n = _percentile_tail(run_times)
    attempted = len(run_times)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "run_s_p50": (statistics.median(run_times), "s"),
        "run_s_tail": (tail, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    golden_state = ("checked" if has_golden else "not recorded") if workload.simulates else "n/a"
    lines = [f"workload {workload.name} seed {args.seed}: {n_passes} passes "
             f"x {len(specs)} runs, golden {golden_state}"]
    for name, (value, unit) in metrics.items():
        note = {
            "wall_s": f"median of {n_passes} passes: " + ", ".join(f"{w:.3f}" for w in walls),
            "run_s_p50": f"median of n={n}",
            "run_s_tail": f"p{tail_pct:.0f} of n={n}",
            "setup_s": f"median of {len(setup)} fresh interpreters",
        }.get(name, "")
        lines.append(f"  {name:<12} {value:10.4f} {unit:<3} {note}")
    if workload.simulates:
        sim = statistics.median(sum(f.get("final_time", 0.0) for f in pf) / w
                                for pf, w in zip(facts, walls))
        lines.append(f"  {'sim_s_per_s':<12} {sim:10.4f} 1/s simulated flow s per host s")
    lines.append(f"  {'fail_frac':<12} {failed / attempted:10.4f} -   {failed} of {attempted} runs")
    return _report(lines, failed == 0, attempted, failed, metrics, problems)


def traced_run(args, workload, specs, tmp) -> int:
    _warm_up(workload, specs, tmp)
    untraced = _run_pass(workload, specs, tmp / "untraced")
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    traced, traced_wall = tracer.run_root(
        lambda: _run_pass(workload, specs, tmp / "traced")
    )
    passes = [untraced, traced]
    failed, problems, facts, _ = _gate(workload, specs, passes, args.seed, args.tiny)
    csv_bytes = sum(f.get("csv_bytes", 0) for f in facts[1])
    metrics = layertrace.layer_metrics(tracer, traced_wall, untraced[0], csv_bytes)

    # The six layers must account for the traced pass; what is left is
    # the benchmark's own loop around the runs.
    share = metrics["trace.layer_share"][0]
    if share < MIN_LAYER_SHARE:
        problems.append(f"layers cover only {share:.1%} of the traced pass")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced[0], "counts": tracer.counts,
        "spans": tracer.spans_json(),
    }, indent=1))

    lines = [f"workload {workload.name} seed {args.seed}: traced pass "
             f"{traced_wall:.3f} s, untraced {untraced[0]:.3f} s; spans in {trace_path}"]
    lines += layertrace.format_table(tracer, traced_wall)
    lines += [f"  {name:<40} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    attempted = 2 * len(specs)
    correct = failed == 0 and share >= MIN_LAYER_SHARE
    return _report(lines, correct, attempted, failed, metrics, problems)


def run_all(args) -> int:
    """Every workload, each in a fresh child process of its own."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(_child_args(args, name), stdout=subprocess.PIPE,
                               text=True, timeout=900)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, child.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return max(status, 0 if combined["correct"] else 1)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)

    workload = workloads.WORKLOADS[args.workload]
    specs = workload.specs(args.seed, tiny=args.tiny)
    if args.setup_probe:
        for spec in specs:
            workload.build(spec)
        return 0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run = traced_run if args.trace else timed_run
        return run(args, workload, specs, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
