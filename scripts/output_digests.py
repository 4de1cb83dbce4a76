"""SHA-256 of every output the benchmark's workloads write.

    python3 scripts/output_digests.py --seed 1 [--root CHECKOUT]

Runs the ``case_study``, ``switching``, ``general_gain`` and ``verify``
runs of ``perfbench/workloads.py`` (imported, not modified) into a
temporary directory and prints one line per output: its workload, name
and SHA-256.  The outputs are the files the simulation runs write and
the report ``verify`` prints (``hybridfb --property-suite --thorough
--seed N``).  A run summary is hashed without its ``wall_clock_seconds``
line, the one value that differs between identical runs.  Two
checkouts that print the same lines at a seed wrote byte-identical
trajectories, summaries and verification reports; ``--root`` names the
checkout whose ``perfbench/`` and ``src/`` to run (default: the one
holding this script).  Exits 1 when a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("case_study", "switching", "general_gain", "verify")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".txt":
        lines = data.decode().splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith("wall_clock_seconds")]
        data = "".join(kept).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.root.resolve() / "perfbench"))
    workloads = importlib.import_module("workloads")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            workload = workloads.WORKLOADS[name]
            outdir = Path(tmp) / name
            outdir.mkdir()
            specs = workload.specs(args.seed)
            workload.prepare(specs, outdir)
            for spec in specs:
                _, outcome = workloads.timed(workload, spec, outdir)
                if outcome.error or outcome.status:
                    failed += 1
                    reason = outcome.error or f"exit status {outcome.status}"
                    print(f"{name}/{spec.name} failed: {reason}", file=sys.stderr)
                elif outcome.output:
                    digest = hashlib.sha256(outcome.output.encode()).hexdigest()
                    print(f"{name}/{spec.name} {digest}")
            for path in sorted(outdir.glob("*.csv")) + sorted(outdir.glob("*.txt")):
                print(f"{name}/{path.name} {_digest(path)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
