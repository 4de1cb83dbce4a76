"""Acceptance criteria for the case study and the verification suites.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  The four case-study runs (adaptive and backstepped
controllers, both initial charts) are executed once per session; two
extra runs that start inside the jump set make the jump-decrease
criterion non-vacuous, and two margin-1e-3 backstep runs with 41 and 64
jumps give the no-chattering criterion consecutive jumps to measure.
"""

import math
import time

import numpy as np
import pytest

from hybridfb import (
    HybridSystemDef,
    SolverConfig,
    advance_flow,
    from_cylinder,
    make_scenario,
    monitor_flow_decrease,
    monitor_jump_decrease,
    solve,
    to_cylinder,
    validate_domain,
)
from hybridfb import runner
from hybridfb.obstacle import ObstacleDisk
from hybridfb.runner import (
    ball_distance_oracle_suite,
    jacobian_suite,
    projection_inequality_suite,
    reset_estimate_oracle_suite,
)

SEED = 20240
# (q0, z_init) of tests/test_golden_endpoints.py::test_switching_endpoint.
MANY_JUMP_STARTS = (
    (-1.0, (-0.6732911896168576, 0.9642926804211792)),
    (1.0, (2.431591456777412, 0.023308339735769405)),
)
CASES = (
    ("adaptive", -1.0),
    ("adaptive", 1.0),
    ("backstep", -1.0),
    ("backstep", 1.0),
)


def _report(num, desc, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:>2}: {status} - {desc}{suffix}")
    assert passed, f"criterion {num} failed: {desc}{suffix}"


@pytest.fixture(scope="module")
def case_runs():
    runs = {}
    for kind, q0 in CASES:
        scenario = make_scenario(kind, q0)
        start = time.perf_counter()
        arc = solve(scenario.system, scenario.x0, scenario.config)
        wall = time.perf_counter() - start
        runs[(kind, q0)] = (scenario, arc, wall)
    return runs


@pytest.fixture(scope="module")
def switching_runs():
    """Runs that start inside the jump set (margin 1), so jumps occur."""
    runs = []
    for kind in ("adaptive", "backstep"):
        scenario = make_scenario(kind, q0=-1.0, z_init=(1.8, -1.0))
        arc = solve(scenario.system, scenario.x0, scenario.config)
        runs.append((scenario, arc))
    return runs


def test_criterion_1_adaptive_case_study(case_runs):
    details = []
    ok = True
    for q0 in (-1.0, 1.0):
        scenario, arc, wall = case_runs[("adaptive", q0)]
        dist = float(np.linalg.norm(scenario.planar(arc.final_state)))
        est = float(np.linalg.norm(scenario.estimate(arc.final_state) - scenario.theta))
        ok &= dist <= 0.1 and est <= 0.15 and wall < 5.0
        details.append(f"q0={q0:+.0f}: |z|={dist:.3g}, err={est:.3g}, {wall:.2f}s")
    _report(1, "adaptive controller reaches the target by t=10", ok, "; ".join(details))


def test_criterion_2_backstep_case_study(case_runs, switching_runs):
    details = []
    ok = True
    for q0 in (-1.0, 1.0):
        scenario, arc, wall = case_runs[("backstep", q0)]
        dist = float(np.linalg.norm(scenario.planar(arc.final_state)))
        est = float(np.linalg.norm(scenario.estimate(arc.final_state) - scenario.theta))
        ok &= dist <= 0.1 and est <= 0.15 and wall < 5.0
        details.append(f"q0={q0:+.0f}: |z|={dist:.3g}, err={est:.3g}, {wall:.2f}s")

    # held input continuous along every flow interval (rate-bounded steps)
    worst_step = 0.0
    for q0 in (-1.0, 1.0):
        _, arc, _ = case_runs[("backstep", q0)]
        for times, states in arc.samples:
            for k in range(1, len(times)):
                du = float(np.linalg.norm(states[k][6:8] - states[k - 1][6:8]))
                dt = float(times[k] - times[k - 1])
                excess = du - 20.0 * dt
                worst_step = max(worst_step, excess)
    ok &= worst_step <= 1e-9
    details.append(f"input step excess {worst_step:.2e}")

    # at every jump the input is reset exactly onto the adaptive feedback
    worst_reset = 0.0
    checked = 0
    backstep_arcs = [case_runs[("backstep", q0)] for q0 in (-1.0, 1.0)]
    backstep_arcs = [(s, a) for s, a, _ in backstep_arcs]
    backstep_arcs += [(s, a) for s, a in switching_runs if s.kind == "backstep"]
    for scenario, arc in backstep_arcs:
        ctrl = scenario.controller
        for rec in arc.jump_records:
            x, xi1, u_plus = rec.after[:3], rec.after[3:6], rec.after[6:8]
            gap = float(np.max(np.abs(u_plus - ctrl.adaptive.feedback(x, xi1))))
            worst_reset = max(worst_reset, gap)
            checked += 1
    ok &= worst_reset <= 1e-12 and checked >= 1
    details.append(f"{checked} jump resets, worst |u+ - k1| = {worst_reset:.2e}")
    _report(2, "backstepped controller reaches the target by t=10", ok, "; ".join(details))


def test_criterion_3_obstacle_clearance(case_runs):
    worst = math.inf
    for (kind, q0), (scenario, arc, _) in case_runs.items():
        for _, _, state in arc.iter_samples():
            z = scenario.planar(state)
            clearance = float(
                np.linalg.norm(z - scenario.obstacle.center) - scenario.obstacle.radius
            )
            worst = min(worst, clearance)
    _report(3, "no sample enters the obstacle", worst > 0.0, f"min clearance {worst:.4f}")


def test_criterion_4_lyapunov_flow_monitor(case_runs):
    total = 0
    for (kind, q0), (scenario, arc, _) in case_runs.items():
        violations = monitor_flow_decrease(arc, scenario.true_potential, tol=1e-6)
        total += len(violations)
    _report(
        4,
        "true-parameter potential nonincreasing along flows (tol 1e-6)",
        total == 0,
        f"{total} violations across 4 runs",
    )


def test_criterion_5_jump_decrease(case_runs, switching_runs):
    total_violations = 0
    total_jumps = 0
    arcs = [(s, a) for s, a, _ in case_runs.values()] + list(switching_runs)
    for scenario, arc in arcs:
        violations = monitor_jump_decrease(
            arc, scenario.true_potential, scenario.margin_at, tol=1e-9
        )
        total_violations += len(violations)
        total_jumps += arc.jump_count
    _report(
        5,
        "every jump drops the potential by the unit margin (tol 1e-9)",
        total_violations == 0 and total_jumps >= 1,
        f"{total_jumps} jumps, {total_violations} violations",
    )


def test_criterion_6_estimate_ball_invariance(case_runs, switching_runs):
    worst = 0.0
    arcs = [(s, a) for s, a, _ in case_runs.values()] + list(switching_runs)
    for scenario, arc in arcs:
        for _, _, state in arc.iter_samples():
            worst = max(worst, float(np.linalg.norm(state[4:6])))
    bound = 2.0 + 1e-9
    _report(
        6,
        "estimate never leaves the inflated ball",
        worst <= bound,
        f"max |estimate| = {worst:.6f} <= {bound}",
    )


def test_criterion_7_projection_inequality():
    assert runner.PROJECTION_INEQUALITY_TOL == 1e-12
    result = projection_inequality_suite(SEED, n=10_000)
    _report(7, "projection never degrades the error alignment", result.passed, result.detail)


def test_criterion_8_oracle_equivalence():
    assert (runner.BALL_DISTANCE_GRID, runner.BALL_DISTANCE_TOL) == (1e-3, 1e-3)
    assert (runner.RESET_ESTIMATE_GRID, runner.RESET_ESTIMATE_TOL) == (1e-2, 1e-2)
    dist = ball_distance_oracle_suite(SEED, n=1000)
    reset = reset_estimate_oracle_suite(SEED, n=1000)
    _report(
        8,
        "ball subproblems match grid-search oracles",
        dist.passed and reset.passed,
        f"{dist.detail}; {reset.detail}",
    )


def test_criterion_9_geometry_suite():
    obstacle = ObstacleDisk(center=np.array([1.0, 0.0]), radius=0.5)
    rng = np.random.default_rng(SEED)
    worst_round = 0.0
    checked = 0
    while checked < 1000:
        z = rng.uniform(-5.0, 5.0, size=2)
        if np.linalg.norm(z - obstacle.center) <= obstacle.radius + 1e-6:
            continue
        back = from_cylinder(to_cylinder(z, obstacle), obstacle)
        worst_round = max(worst_round, float(np.max(np.abs(back - z))))
        checked += 1
    for _ in range(1000):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x = np.array([rng.uniform(-3.0, 3.0), math.cos(angle), math.sin(angle)])
        forth = to_cylinder(from_cylinder(x, obstacle), obstacle)
        worst_round = max(worst_round, float(np.max(np.abs(forth - x))))

    assert runner.JACOBIAN_TOL == 1e-6
    jac = jacobian_suite(SEED, n=1000)
    _report(
        9,
        "coordinate round-trips and analytic Jacobians",
        worst_round <= 1e-10 and jac.passed,
        f"round-trip {worst_round:.2e}; {jac.detail}",
    )


def test_criterion_10_solver_suite(case_runs, switching_runs):
    timer = HybridSystemDef(
        flow_map=lambda y: np.ones(1),
        flow_indicator=lambda y: y[0] - 1.0,
        jump_indicator=lambda y: y[0] - 1.0,
        jump_map=lambda y: np.zeros(1),
    )
    arc = solve(timer, np.array([0.0]), SolverConfig(t_max=3.5))
    timer_err = max(abs(rec.t - (k + 1)) for k, rec in enumerate(arc.jump_records))

    decay = HybridSystemDef(
        flow_map=lambda y: -np.asarray(y),
        flow_indicator=lambda y: -1.0,
        jump_indicator=lambda y: -1.0,
        jump_map=lambda y: y,
    )
    (_, states), _, _ = advance_flow(np.array([1.0]), -1.0, decay, SolverConfig(t_max=1.0))
    decay_err = abs(float(states[-1][0]) - math.exp(-1.0))

    arcs = [a for _, a, _ in case_runs.values()]
    arcs += [a for _, a in switching_runs]
    arcs.append(arc)
    domain_problems = sum(len(validate_domain(a)) for a in arcs)

    _report(
        10,
        "timer events to 1e-9, decay endpoint to 1e-8, clean domains",
        timer_err <= 1e-9 and decay_err <= 1e-8 and domain_problems == 0,
        f"timer {timer_err:.2e}, decay {decay_err:.2e}, "
        f"{domain_problems} domain violations over {len(arcs)} arcs",
    )


@pytest.fixture(scope="module")
def many_jump_runs():
    """The backstep margin-1e-3 starts of the golden switching endpoints.

    They make 41 and 64 jumps by t = 2 s, so the no-chattering criterion
    reads real consecutive jump pairs.
    """
    arcs = []
    for q0, z_init in MANY_JUMP_STARTS:
        values = {
            "controller": "backstep", "q0": q0, "z_init": z_init, "t_max": 2.0,
            "delta": 1e-3, "j_max": 1000,
        }
        scenario = runner.build_scenario(runner.config_from_sources({}, values))
        arcs.append(solve(scenario.system, scenario.x0, scenario.config))
    return arcs


def test_criterion_11_no_chattering(case_runs, many_jump_runs):
    arcs = [arc for _, arc, _ in case_runs.values()] + many_jump_runs
    separations = []
    for arc in arcs:
        times = [rec.t for rec in arc.jump_records]
        separations += [b - a for a, b in zip(times, times[1:])]
    min_sep = min(separations, default=math.inf)
    _report(
        11,
        "consecutive jumps separated by at least 1e-3 s of flow",
        len(separations) > 0 and min_sep >= 1e-3,
        f"{sum(a.jump_count for a in arcs)} jumps in {len(arcs)} runs, "
        f"{len(separations)} consecutive pairs, min separation {min_sep:.4f}s",
    )
