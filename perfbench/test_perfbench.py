"""Self-test of the benchmark: python3 -m pytest perfbench -q

Runs every workload at a tiny size, timed and traced, and checks that
each metric BENCHMARK.json names is printed; checks that a corrupted
golden value fails the gate; and that the benchmark refuses to run
without the program's sources.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def _full_run(workload, spec, tmp_path):
    workload.prepare([spec], tmp_path)
    _, outcome = workloads.timed(workload, spec, tmp_path)
    return outcome, workload.facts(spec, tmp_path, outcome)


def test_corrupted_golden_fails_the_gate(tmp_path):
    workload = workloads.WORKLOADS["case_study"]
    spec = next(s for s in workload.specs(0) if s.name == "nominal_forced")
    golden = workloads.golden_for(workloads.load_golden(), workload.name, 0)
    outcome, facts = _full_run(workload, spec, tmp_path)
    assert workloads.check_run(workload, spec, outcome, facts, golden) == []

    for field, corrupt in (
        ("final_state", lambda v: [v[0] + 1e-3] + v[1:]),
        ("jumps", lambda v: v + 3),
    ):
        bad = copy.deepcopy(golden)
        bad[spec.name][field] = corrupt(bad[spec.name][field])
        problems = workloads.check_run(workload, spec, outcome, facts, bad)
        assert problems, field


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "switching", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
