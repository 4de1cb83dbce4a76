"""Microseconds per call of the float kernels, on samples of the published runs.

    python3 scripts/kernel_us.py [--root CHECKOUT]

Solves the nine published case-study runs (each controller kind from
``q0 = -1`` and ``q0 = +1`` at ``z = (2, 0)`` and the forced switch from
``z = (1.8, -1)``, nominal without disturbance, ``t_max = 10``) and keeps
every run's samples on which the flow map is defined.  On up to 500 of
them per kind it times the kind's flow map, switching indicator,
readout and true potential, ``gradient_feedback_jacobian`` on the
backstep samples and ``ball_distance`` on the adaptive and backstep
samples; the ``flow_map.list`` line times the flow map on the same
samples as lists of floats, as the solver hands them (``-`` for a
checkout whose flow maps take only arrays).  Each kind's ``jump_map`` line times its jump map on the
pre-jump states of the three backstep runs with margin 1e-3 from the
published starts (their leading entries, for the smaller kinds), since
the published runs jump once each.  The ``backstep.locate`` line times
the solver's location of each jump-set crossing
(``hybrid._locate_crossing``) over one backstep run with margin 1e-3
from ``z = (1.8, -1)``, ``q0 = -1``, ``t_max = 2``, and gives its
located crossings and indicator calls per crossing.  On the same run,
counted rather than timed, ``backstep.flow_calls_per_step`` gives the
accepted steps and the flow-map calls per step, and
``backstep.flow_calls_per_jump`` the jumps and the flow-map calls each
jump costs beyond its interval's tries (:func:`_flow_call_figures`).
The ``RK45.step`` line times one step of the stepper on a trivial
right-hand side that returns the same 8 floats, ``max_step = 0.01``.
The parameter-ball lines time the property suites' calls on their own
kind of input, drawn as the suites draw them (seed 1):
``adaptive.project_rate`` on 2000 ``projection_lipschitz`` draws of an
estimate in the inflated unit ball and a drive, in the type the
checkout's ``runner._random_ball`` returns, and
``adaptive.central_difference`` on the three probes ``jacobian_fd``
takes at each of 300 of its states (``to_cylinder`` at the planar
preimage, ``gradient_feedback`` and ``chart_potential``).
Each figure is the minimum over repeated sweeps of the time per call.
``--root`` names the checkout whose ``src/`` to measure (default: the
one holding this script), so two checkouts can be compared on the same
host.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

KINDS = ("nominal", "adaptive", "backstep")
MAX_SAMPLES = 500
REPEATS = 7
# Chart index and planar start of the published runs.
PUBLISHED_STARTS = ((-1.0, (2.0, 0.0)), (1.0, (2.0, 0.0)), (-1.0, (1.8, -1.0)))


def _per_call_us(fn, args: list, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for arg in args:
            fn(*arg)
        best = min(best, time.perf_counter() - start)
    return best / len(args) * 1e6


def _published_samples(runner, chart_singular, kind: str):
    """The kind's last built scenario and the samples of its published runs."""
    states = []
    for q0, z_init in PUBLISHED_STARTS:
        values = {"controller": kind, "q0": q0, "t_max": 10.0, "z_init": z_init}
        if kind == "nominal":
            values["theta"] = (0.0, 0.0)
        scenario = runner.build_scenario(runner.config_from_sources({}, values))
        arc, _ = runner.run(runner.config_from_sources({}, values))
        for _, _, state in arc.iter_samples():
            try:
                scenario.system.flow_map(state)
            except chart_singular:  # a pre-jump sample off its chart
                continue
            states.append(state.copy())
    step = max(1, len(states) // MAX_SAMPLES)
    return scenario, states[::step][:MAX_SAMPLES]


def _step_us(hybrid, steps: int = 2000, repeats: int = REPEATS) -> float:
    """Microseconds per ``RK45.step`` on a constant 8-float right-hand side."""
    rates = [0.1, -0.2, 0.3, 0.0, 0.05, -0.05, 0.2, -0.1]
    best = float("inf")
    for _ in range(repeats):
        stepper = hybrid.RK45(lambda t, y: rates, 0.0, [1.0] * 8, 1e9, 0.01, 1e-9, 1e-9)
        start = time.perf_counter()
        for _ in range(steps):
            stepper.step()
        best = min(best, time.perf_counter() - start)
    return best / steps * 1e6


def _pre_jump_states(hybrid, make_scenario):
    """Pre-jump states of backstep runs with margin 1e-3 from the published starts."""
    states = []
    for q0, z_init in PUBLISHED_STARTS:
        scenario = make_scenario("backstep", q0=q0, z_init=z_init, margin=1e-3)
        arc = hybrid.solve(scenario.system, scenario.x0, scenario.config)
        states += [record.before for record in arc.jump_records]
    return states


def _switching_run(hybrid, make_scenario):
    """The backstep run with margin 1e-3 from the forced-switch start, to t = 2."""
    return make_scenario(
        "backstep", q0=-1.0, z_init=(1.8, -1.0), margin=1e-3,
        config=hybrid.SolverConfig(t_max=2.0),
    )


def _locate_figures(hybrid, scenario, repeats: int = REPEATS):
    """Crossings, us per crossing and indicator calls per crossing, one run."""
    gap_indicator = scenario.system.jump_indicator
    calls = [0]

    def indicator(state):
        calls[0] += 1
        return gap_indicator(state)

    system = dataclasses.replace(
        scenario.system, flow_indicator=indicator, jump_indicator=indicator
    )
    locate = hybrid._locate_crossing
    spans = []

    def timed(*args):
        before = calls[0]
        start = time.perf_counter()
        located = locate(*args)
        spans.append((time.perf_counter() - start, calls[0] - before))
        return located

    best = float("inf")
    hybrid._locate_crossing = timed
    try:
        for _ in range(repeats):
            spans.clear()
            hybrid.solve(system, scenario.x0, scenario.config)
            best = min(best, sum(s for s, _ in spans) / len(spans))
    finally:
        hybrid._locate_crossing = locate
    return len(spans), best * 1e6, sum(n for _, n in spans) / len(spans)


def _flow_call_figures(hybrid, scenario):
    """Accepted steps, jumps, and flow-map calls per step and per jump, one run.

    The flow map, indicator and jump map are wrapped by
    ``dataclasses.replace``.  The solver calls the indicator once per
    state it records or the locator samples, and a try of the stepper
    makes six flow-map calls, so of the calls between two indicator calls
    all but the remainder below six are tries.  The remainder that
    follows a jump (from its post-jump indicator call to the next one) is
    what the jump cost: the first stage at the post-jump state, and the
    initial step's probe where a new stepper is built (this run's first
    jump, at t = 0, comes before the solve's stepper is built).
    """
    base = scenario.system
    counts = {"flow": 0, "window": 0, "jump_calls": 0}
    marks = {"jumped": False, "after_jump": False}

    def flow_map(state):
        counts["flow"] += 1
        counts["window"] += 1
        return base.flow_map(state)

    def indicator(state):
        if marks["after_jump"]:
            counts["jump_calls"] += counts["window"] % 6
        counts["window"] = 0
        marks["after_jump"], marks["jumped"] = marks["jumped"], False
        return base.jump_indicator(state)

    def jump_map(state):
        marks["jumped"] = True
        return base.jump_map(state)

    system = dataclasses.replace(
        base, flow_map=flow_map, flow_indicator=indicator,
        jump_indicator=indicator, jump_map=jump_map,
    )
    arc = hybrid.solve(system, scenario.x0, scenario.config)
    steps = sum(len(times) - 1 for times, _ in arc.samples)
    jumps = arc.jump_count
    return steps, jumps, counts["flow"] / steps, counts["jump_calls"] / jumps


def _suite_calls(adaptive, obstacle, runner, n_rates: int = 2000, n_states: int = 300):
    """``(project_rate args, central_difference args)`` drawn as the suites draw them."""
    import numpy as np

    rng = np.random.default_rng(1)
    ball = adaptive.ParamBall(radius=1.0, eps=1.0, gain=np.eye(2))
    rates = []
    for _ in range(n_rates):
        theta_hat = runner._random_ball(rng, 2, 2.0)
        eta = rng.normal(scale=2.0, size=2)
        rates.append((eta.tolist() if type(theta_hat) is list else eta, theta_hat, ball))
    disk = obstacle.ObstacleDisk(center=np.array([1.0, 0.0]), radius=0.5)
    probes = []
    for x, q in runner._random_cylinder_states(rng, disk, n_states):
        probes += [
            (lambda p: obstacle.to_cylinder(p, disk), obstacle.from_cylinder(x, disk)),
            (lambda p, q=q: obstacle.gradient_feedback(p, q, disk), x),
            (lambda p, q=q: obstacle.chart_potential(p, q, disk), x),
        ]
    return rates, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent
    )
    args = parser.parse_args(argv)
    src = args.root.resolve() / "src"
    sys.path.insert(0, str(src))
    import hybridfb
    from hybridfb import adaptive, hybrid, obstacle, runner
    from hybridfb.errors import ChartSingular

    if Path(hybridfb.__file__).resolve().parent != src / "hybridfb":
        print(f"imported hybridfb from {hybridfb.__file__}, not {src}", file=sys.stderr)
        return 1

    pre_jump = _pre_jump_states(hybrid, obstacle.make_scenario)
    print(f"{'kernel':<40} {'samples':>7} {'us/call':>8}")
    for kind in KINDS:
        scenario, states = _published_samples(runner, ChartSingular, kind)
        system = scenario.system
        rows = [
            ("flow_map", system.flow_map, [(s,) for s in states]),
            ("indicator", system.flow_indicator, [(s,) for s in states]),
            ("readout", scenario.readout, [(s,) for s in states]),
            ("true_potential", scenario.true_potential, [(s,) for s in states]),
            ("jump_map", system.jump_map,
             [(s[: scenario.x0.size].copy(),) for s in pre_jump]),
        ]
        if kind == "backstep":
            args_jac = [(s[:3].copy(), float(s[3]), scenario.obstacle) for s in states]
            rows.append(
                ("gradient_feedback_jacobian", obstacle.gradient_feedback_jacobian, args_jac)
            )
        if kind != "nominal":
            args_ball = [(s[4:6].copy(), scenario.ball) for s in states]
            rows.append(("ball_distance", adaptive.ball_distance, args_ball))
        for name, fn, calls in rows:
            print(f"{kind + '.' + name:<40} {len(calls):>7} {_per_call_us(fn, calls):>8.2f}")
        lists = [(s.tolist(),) for s in states]
        try:
            figure = f"{_per_call_us(system.flow_map, lists):>8.2f}"
        except (AttributeError, TypeError):  # flow maps that take only arrays
            figure = f"{'-':>8}"
        print(f"{kind + '.flow_map.list':<40} {len(lists):>7} {figure}")
    rates, probes = _suite_calls(adaptive, obstacle, runner)
    for name, fn, calls in (
        ("adaptive.project_rate", adaptive.project_rate, rates),
        ("adaptive.central_difference", adaptive.central_difference, probes),
    ):
        print(f"{name:<40} {len(calls):>7} {_per_call_us(fn, calls):>8.2f}")
    print(f"{'RK45.step':<40} {2000:>7} {_step_us(hybrid):>8.2f}")
    scenario = _switching_run(hybrid, obstacle.make_scenario)
    steps, jumps, per_step, per_jump = _flow_call_figures(hybrid, scenario)
    print(f"{'backstep.flow_calls_per_step':<40} {steps:>7} {per_step:>8.2f}")
    print(f"{'backstep.flow_calls_per_jump':<40} {jumps:>7} {per_jump:>8.2f}")
    located, us, calls_per = _locate_figures(hybrid, scenario)
    print(f"{'backstep.locate':<40} {located:>7} {us:>8.2f}"
          f"  ({calls_per:.1f} indicator calls per crossing)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
