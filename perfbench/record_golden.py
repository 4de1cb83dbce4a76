"""Record the golden endpoints the gate compares every run against.

    python3 perfbench/record_golden.py --seeds 0-31

Runs one pass of each simulation workload per seed (``case_study`` once:
its inputs do not depend on the seed) and writes, per run, the final
state, the jump count and the minimum jump separation to
``perfbench/golden.json``.  A run that fails any other gate check is not
recorded; the script exits 1 instead.  ``verify`` runs no solver, so it
has no endpoints: its gate is that every suite passes.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import workloads


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def dump(golden: dict) -> str:
    """JSON with one line per run, so a re-recording diffs run by run."""
    blocks = []
    for workload, seeds in golden.items():
        seed_blocks = []
        for seed, runs in seeds.items():
            rows = ",\n".join(f"   {json.dumps(n)}: {json.dumps(e)}" for n, e in runs.items())
            seed_blocks.append(f"  {json.dumps(seed)}: {{\n{rows}\n  }}")
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(seed_blocks) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def record(workload, seed: int, tmp: Path) -> dict:
    specs = workload.specs(seed)
    outdir = tmp / f"{workload.name}-{seed}"
    outdir.mkdir()
    workload.prepare(specs, outdir)
    entries = {}
    start = time.perf_counter()
    for spec in specs:
        _, outcome = workloads.timed(workload, spec, outdir)
        facts = {} if outcome.error else workload.facts(spec, outdir, outcome)
        problems = workloads.check_run(workload, spec, outcome, facts, None)
        if problems:
            raise SystemExit(f"{workload.name} seed {seed} {spec.name}: {problems}")
        entries[spec.name] = workloads.golden_entry(facts)
    jumps = sum(e["jumps"] for e in entries.values())
    print(f"{workload.name} seed {seed}: {time.perf_counter() - start:.2f} s, "
          f"{jumps} jumps", flush=True)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="seed range, e.g. 0-31")
    args = parser.parse_args(argv)
    golden = {}
    workloads.ROOT.joinpath(".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.ROOT / ".bench_out") as tmp:
        tmp = Path(tmp)
        golden["case_study"] = {"*": record(workloads.WORKLOADS["case_study"], 0, tmp)}
        for name in ("switching", "general_gain"):
            golden[name] = {
                str(seed): record(workloads.WORKLOADS[name], seed, tmp)
                for seed in _seed_range(args.seeds)
            }
    workloads.GOLDEN_PATH.write_text(dump(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
