"""The benchmark's four workloads: seeded inputs, timed runs and the gate.

Every workload is a closed loop with one caller: a single process runs
one scenario at a time, with no process pool.  A *run* is one scenario
from build to written outputs (in ``verify``, one suite invocation) and
a *pass* is every run of the workload once.

The program under test is imported from the ``src`` directory of the
checkout this file sits in.  Program functions are always reached through
their module attribute at call time (``runner.run``, ``hybrid.solve``,
...), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

if not (SRC / "hybridfb" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no hybridfb sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hybridfb  # noqa: E402
from hybridfb import cli, hybrid, obstacle, runner, synergistic  # noqa: E402

if Path(hybridfb.__file__).resolve().parent != SRC / "hybridfb":
    raise SystemExit(f"perfbench: imported hybridfb from {hybridfb.__file__}, not {SRC}")

# Obstacle disk of the case study and the inflated estimate ball
# (radius 1 + eps 1); every workload uses the published obstacle.
OBSTACLE_CENTER = np.array([1.0, 0.0])
OBSTACLE_RADIUS = 0.5
ESTIMATE_BOUND = 2.0

# Gate thresholds.  Criteria 1 and 2 of the acceptance suite, and the
# jump separation of criterion 11.
CONVERGED_DIST = 0.1
CONVERGED_EST_ERR = 0.15
MIN_JUMP_SEPARATION = 1e-3
# Per-run jump counts a switching run must stay within, for any seed.
SWITCHING_JUMP_BAND = (15, 150)

# General SPD gains of the closed-loop general-gain tests.
GAMMA1 = ((2.0, 0.3), (0.3, 1.0))
GAMMA2 = ((1.5, -0.2), (-0.2, 0.8))

# Switching starts: four sectors (bearing from the obstacle center in
# degrees, distance from the center), each jittered by the seed.  The
# sectors avoid the bearings 90 and 270 degrees, where one chart is
# singular at the start; the jitter is small so every seed asks for about
# the same amount of work (40-75 jumps per run).
SWITCHING_SECTORS = ((0.0, 1.5), (150.0, 2.0), (190.0, 1.5), (330.0, 1.5))
SWITCHING_JITTER_DEG = 3.0
SWITCHING_JITTER_R = 0.1
# General-gain initial estimates: norm and bearing ranges inside the
# inflated ball but outside the admissible one, so the estimate starts
# where the iterative ball subproblem is taken.
GENERAL_GAIN_NORM = (1.5, 1.7)
GENERAL_GAIN_BEARING_DEG = (20.0, 70.0)


@dataclass(frozen=True)
class RunSpec:
    """One run of a workload; ``name`` is its key in the golden file."""

    name: str
    kind: str = "adaptive"
    q0: float = -1.0
    t_max: float = 10.0
    settings: tuple = ()  # extra (key, value) pairs for the run's config
    converge: bool = False  # gate on criteria 1 and 2 at the end
    jump_band: tuple = ()  # (lo, hi) jump count the run must make, if set

    def setting(self, key, default=None):
        return dict(self.settings).get(key, default)


@dataclass
class Outcome:
    """What a timed run returned: an exit status or the exception it raised."""

    status: int = 0
    error: str = ""
    output: str = ""  # captured standard output, where the gate reads it
    violations: int = 0  # monitor violations, where no summary file has them


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_facts(csv_path: Path) -> dict:
    """End-of-run facts read back from a trajectory CSV.

    Columns: t, j, z1, z2, x1, x2, x3, q, that1, that2, u1, u2, ...  The
    final state is the last row's cylinder point, chart, estimate and
    input.
    """
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    t, j = data[:, 0], data[:, 1]
    jump_times = t[1:][np.diff(j) > 0]
    seps = np.diff(jump_times)
    z = data[:, 2:4]
    final = data[-1]
    return {
        "final_state": [float(v) for v in final[4:12]],
        "final_time": float(t[-1]),  # also the flow time: jumps take none
        "jumps": int(j[-1] - j[0]),
        "min_jump_sep": float(seps.min()) if seps.size else None,
        "clearance": float(np.min(np.linalg.norm(z - OBSTACLE_CENTER, axis=1))),
        "max_estimate": float(np.max(np.linalg.norm(data[:, 8:10], axis=1))),
        "dist": float(np.linalg.norm(final[2:4])),
        "est_err": float(final[15]),
        "csv_bytes": csv_path.stat().st_size,
        "digest": _digest(csv_path),
    }


def _summary_violations(path: Path) -> int:
    values = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return int(values["flow_violations"]) + int(values["jump_violations"])


class Workload:
    """Base: subclasses define the runs, how one executes, and its facts."""

    name = ""
    simulates = True

    def specs(self, seed: int, tiny: bool = False) -> list[RunSpec]:
        raise NotImplementedError

    def prepare(self, specs, outdir: Path) -> None:
        """Untimed per-invocation preparation (e.g. writing config files)."""

    def build(self, spec: RunSpec):
        """Build the run's scenario; timed as set-up in a fresh interpreter."""
        raise NotImplementedError

    def execute(self, spec: RunSpec, outdir: Path) -> Outcome:
        """The timed run."""
        raise NotImplementedError

    def facts(self, spec: RunSpec, outdir: Path, outcome: Outcome) -> dict:
        """Untimed read-back of a run's outputs for the gate."""
        facts = _csv_facts(outdir / f"{spec.name}.csv")
        facts["violations"] = _summary_violations(outdir / f"{spec.name}.txt")
        return facts

    def config_values(self, spec: RunSpec) -> dict:
        values = {"controller": spec.kind, "q0": spec.q0, "t_max": spec.t_max}
        values.update(spec.settings)
        return values

    def warm_specs(self, specs) -> list[RunSpec]:
        """One short run per controller kind, to fill lazy caches untimed."""
        seen = {}
        for spec in specs:
            seen.setdefault(spec.kind, spec)
        return [
            RunSpec(name=f"warm_{s.kind}", kind=s.kind, q0=s.q0, t_max=0.05,
                    settings=s.settings)
            for s in seen.values()
        ]


class CaseStudy(Workload):
    """The published runs, through the command line, as users run them."""

    name = "case_study"

    def specs(self, seed, tiny=False):
        del seed  # the published initial conditions are fixed
        t_max = 0.5 if tiny else 10.0
        specs = []
        for kind in ("nominal", "adaptive", "backstep"):
            extra = (("theta", (0.0, 0.0)),) if kind == "nominal" else ()
            for q0 in (-1.0, 1.0):
                specs.append(RunSpec(
                    name=f"{kind}_q{q0:+.0f}", kind=kind, q0=q0, t_max=t_max,
                    settings=extra, converge=not tiny,
                ))
            specs.append(RunSpec(
                name=f"{kind}_forced", kind=kind, q0=-1.0, t_max=t_max,
                settings=extra + (("z_init", (1.8, -1.0)),), converge=not tiny,
            ))
        return specs

    def prepare(self, specs, outdir):
        for spec in specs:
            lines = [f"{k} = {_fmt(v)}" for k, v in self.config_values(spec).items()]
            (outdir / f"{spec.name}.cfg").write_text("\n".join(lines) + "\n")

    def build(self, spec):
        values = self.config_values(spec)
        return runner.build_scenario(runner.config_from_sources({}, values))

    def execute(self, spec, outdir):
        argv = [
            "--config", str(outdir / f"{spec.name}.cfg"),
            "--out", str(outdir / f"{spec.name}.csv"),
            "--summary", str(outdir / f"{spec.name}.txt"),
            "--strict",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        return Outcome(status=status)


class Switching(Workload):
    """Backstep runs with a tiny hysteresis margin, so they jump a lot."""

    name = "switching"

    def specs(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 1])
        specs = []
        for k, (bearing, dist) in enumerate(SWITCHING_SECTORS):
            angle = math.radians(
                bearing + rng.uniform(-SWITCHING_JITTER_DEG, SWITCHING_JITTER_DEG)
            )
            r = dist + rng.uniform(-SWITCHING_JITTER_R, SWITCHING_JITTER_R)
            z = (
                float(OBSTACLE_CENTER[0] + r * math.cos(angle)),
                float(OBSTACLE_CENTER[1] + r * math.sin(angle)),
            )
            for q0 in (-1.0, 1.0):
                specs.append(RunSpec(
                    name=f"start{k}_q{q0:+.0f}", kind="backstep", q0=q0,
                    t_max=0.3 if tiny else 2.0,
                    settings=(("z_init", z), ("delta", 1e-3), ("j_max", 1000)),
                    jump_band=() if tiny else SWITCHING_JUMP_BAND,
                ))
        return specs

    def _config(self, spec, outdir):
        values = self.config_values(spec)
        if outdir is not None:
            values["out"] = str(outdir / f"{spec.name}.csv")
            values["summary"] = str(outdir / f"{spec.name}.txt")
        return runner.config_from_sources({}, values)

    def build(self, spec):
        return runner.build_scenario(self._config(spec, None))

    def execute(self, spec, outdir):
        runner.run(self._config(spec, outdir))
        return Outcome()


class GeneralGain(Workload):
    """Adaptive and backstep runs with general SPD gains, through the API."""

    name = "general_gain"

    def specs(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 2])
        specs = []
        for kind in ("adaptive", "backstep"):
            norm = rng.uniform(*GENERAL_GAIN_NORM)
            angle = math.radians(rng.uniform(*GENERAL_GAIN_BEARING_DEG))
            theta_hat0 = (norm * math.cos(angle), norm * math.sin(angle))
            specs.append(RunSpec(
                name=kind, kind=kind, q0=-1.0, t_max=0.3 if tiny else 6.0,
                settings=(("theta_hat0", theta_hat0),),
            ))
        return specs

    def build(self, spec):
        return obstacle.make_scenario(
            spec.kind,
            q0=spec.q0,
            theta_hat0=np.array(spec.setting("theta_hat0")),
            gamma1=np.array(GAMMA1),
            gamma2=np.array(GAMMA2),
            config=hybrid.SolverConfig(t_max=spec.t_max),
        )

    def execute(self, spec, outdir):
        scenario = self.build(spec)
        arc = hybrid.solve(scenario.system, scenario.x0, scenario.config)
        flow = synergistic.monitor_flow_decrease(arc, scenario.true_potential, tol=1e-6)
        jump = synergistic.monitor_jump_decrease(
            arc, scenario.true_potential, scenario.margin_at, tol=1e-9
        )
        problems = hybrid.validate_domain(arc)
        runner.emit_csv(arc, scenario, outdir / f"{spec.name}.csv")
        if problems:
            return Outcome(status=1, error="ill-formed arc: " + "; ".join(problems))
        return Outcome(violations=len(flow) + len(jump))

    def facts(self, spec, outdir, outcome):
        facts = _csv_facts(outdir / f"{spec.name}.csv")
        facts["violations"] = outcome.violations
        return facts


# Suites ``property_suite`` runs; each must report PASS.
SUITE_COUNT = 7


class Verify(Workload):
    """The randomized verification suites at acceptance size; no solves."""

    name = "verify"
    simulates = False

    def specs(self, seed, tiny=False):
        return [RunSpec(name="property_suite", settings=(("seed", seed), ("tiny", tiny)))]

    def build(self, spec):
        # The suites build one scenario of their own (the gap identity).
        return obstacle.make_scenario("backstep", q0=-1.0)

    def execute(self, spec, outdir):
        argv = ["--property-suite", "--seed", str(spec.setting("seed"))]
        if not spec.setting("tiny"):
            argv.append("--thorough")
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            status = cli.main(argv)
        return Outcome(status=status, output=captured.getvalue())

    def facts(self, spec, outdir, outcome):
        passed = {}
        for line in outcome.output.splitlines():
            line = line.strip()
            for tag, ok in (("[PASS] ", True), ("[FAIL] ", False)):
                if line.startswith(tag):
                    passed[line[len(tag):].split(":", 1)[0]] = ok
        return {
            "suites": passed,
            "overall": "overall: PASS" in outcome.output,
            "digest": hashlib.sha256(outcome.output.encode()).hexdigest(),
        }

    def warm_specs(self, specs):
        return []


WORKLOADS = {w.name: w for w in (CaseStudy(), Switching(), GeneralGain(), Verify())}


# ---------------------------------------------------------------------------
# The gate.
# ---------------------------------------------------------------------------

# Endpoint tolerance against the golden file: absolute on each final-state
# component, and on the minimum jump separation.  Loose enough for an
# integrator or geometry rewrite that keeps the published digits, tight
# enough to catch a changed controller.
GOLDEN_STATE_TOL = 1e-6
GOLDEN_SEP_TOL = 1e-6
GOLDEN_JUMP_TOL = 2


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())


def golden_for(golden: dict, workload: str, seed: int):
    """The golden entries of one invocation, or None if none were recorded."""
    table = golden.get(workload, {})
    return table.get("*", table.get(str(seed)))


def check_run(workload: Workload, spec: RunSpec, outcome: Outcome, facts: dict,
              golden) -> list[str]:
    """Every gate problem of one run; an empty list means it passed."""
    if outcome.error:
        return [outcome.error]
    problems = []
    if outcome.status != 0:
        problems.append(f"exit status {outcome.status}")
    if not workload.simulates:
        suites = facts["suites"]
        if len(suites) != SUITE_COUNT or not all(suites.values()) or not facts["overall"]:
            failing = [name for name, ok in suites.items() if not ok]
            problems.append(f"{len(suites)} suites reported, failing: {failing}")
        return problems

    if facts["violations"]:
        problems.append(f"{facts['violations']} monitor violations")
    if not facts["clearance"] > OBSTACLE_RADIUS:
        problems.append(f"clearance {facts['clearance']:.6g} <= radius")
    if facts["max_estimate"] > ESTIMATE_BOUND + 1e-9:
        problems.append(f"estimate norm {facts['max_estimate']:.6g} > {ESTIMATE_BOUND}")
    if facts["final_time"] != spec.t_max:
        problems.append(f"stopped at t={facts['final_time']:.6g} < t_max")
    if spec.converge:
        if facts["dist"] > CONVERGED_DIST:
            problems.append(f"final |z| = {facts['dist']:.4g} > {CONVERGED_DIST}")
        if spec.kind != "nominal" and facts["est_err"] > CONVERGED_EST_ERR:
            problems.append(
                f"final estimate error {facts['est_err']:.4g} > {CONVERGED_EST_ERR}"
            )
    sep = facts["min_jump_sep"]
    if sep is not None and sep < MIN_JUMP_SEPARATION:
        problems.append(f"jump separation {sep:.3g} < {MIN_JUMP_SEPARATION}")
    if spec.jump_band and not spec.jump_band[0] <= facts["jumps"] <= spec.jump_band[1]:
        problems.append(f"{facts['jumps']} jumps outside {spec.jump_band}")

    if golden is not None:
        entry = golden.get(spec.name)
        if entry is None:
            problems.append("no golden entry")
            return problems
        gap = float(np.max(np.abs(np.subtract(facts["final_state"], entry["final_state"]))))
        if not gap <= GOLDEN_STATE_TOL:
            problems.append(f"final state off golden by {gap:.3g}")
        if abs(facts["jumps"] - entry["jumps"]) > GOLDEN_JUMP_TOL:
            problems.append(f"{facts['jumps']} jumps, golden {entry['jumps']}")
        if (sep is None) != (entry["min_jump_sep"] is None) or (
            sep is not None and abs(sep - entry["min_jump_sep"]) > GOLDEN_SEP_TOL
        ):
            problems.append(f"min jump separation {sep}, golden {entry['min_jump_sep']}")
    return problems


def golden_entry(facts: dict) -> dict:
    """The facts a golden file records for one run."""
    return {k: facts[k] for k in ("final_state", "jumps", "min_jump_sep")}


def timed(workload: Workload, spec: RunSpec, outdir: Path) -> tuple[float, Outcome]:
    """Run one spec; a run that raises is a failed run, not a crash."""
    start = time.perf_counter()
    try:
        outcome = workload.execute(spec, outdir)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        outcome = Outcome(status=1, error=f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, outcome
