"""The program surface the benchmark's layer tracer relies on.

``perfbench/layertrace.py`` wraps the program from outside: it subclasses
``hybrid.RK45``, replaces the ``HybridSystemDef`` callbacks (both
indicator fields included) and reads ``ParamBall.scalar_gain``.  This
test installs the tracer in a fresh interpreter, so its patches never
reach the rest of the suite, and traces a short backstep solve.  A
change that drops any of those names fails here, not only in the
benchmark's own self-test.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import layertrace
tracer = layertrace.Tracer()
layertrace.install(tracer)
from hybridfb import hybrid, obstacle
scenario = obstacle.make_scenario(
    "backstep", q0=1.0, config=hybrid.SolverConfig(t_max=0.05)
)
arc, _ = tracer.run_root(
    lambda: hybrid.solve(scenario.system, scenario.x0, scenario.config)
)
spans = tracer.by_name()
print(json.dumps({{
    "counts": tracer.counts,
    "calls": {{name: rec[0] for name, rec in spans.items()}},
    "final_time": arc.final_time,
}}))
"""


def test_layer_tracer_sees_a_backstep_solve():
    code = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["final_time"] == 0.05
    counts, calls = result["counts"], result["calls"]
    for key in ("steps", "rhs_calls", "restarts"):
        assert counts[key] > 0, key
    for span in (
        "synergistic.flow_map",
        "synergistic.flow_indicator",
        "synergistic.jump_indicator",
        "adaptive.ball_distance",
        "obstacle.gradient_feedback_jacobian",
    ):
        assert calls.get(span, 0) > 0, span
