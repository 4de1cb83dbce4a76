"""Whole hybrid arcs against an independent reference integrator.

The reference simulates each arc the way the HyEQ toolbox does: an ODE
solver with a terminal event.  scipy's ``solve_ivp`` (DOP853, ``rtol =
atol = 1e-12``, the run's ``max_step``) integrates the composed closed
loop, ``compose_closed_loop`` on the scenario's plant, true parameter and
controller with the circle projection, and stops on the event ``jump
indicator of the projected state`` crossing zero upward.  There it
applies the composed jump map, projects, and restarts; a state already
in the jump set jumps at once, as the solver's does.  So the reference
shares neither the stepper, nor the event locator, nor the float kernels
with the solver it judges.

The runs are the benchmark's eight switching runs at seed 1 (backstep,
margin 1e-3, ``t_max = 2``, 40-75 jumps each) and the 64-jump start of
the switching goldens; the 41-jump golden start is the seed-1 run
``start1_q-1``.  Each solver arc must make the reference's jumps in the
same charts, at times within ``JUMP_TIME_TOL`` and ending within
``FINAL_STATE_TOL``.  Planted defects (a locator that returns the step's
end, an estimate rate of zero, a jump map that keeps the chart) must
fail it; each is built around the scenario, never in the library.
"""

import dataclasses
import math

import numpy as np
import pytest

from hybridfb import hybrid, runner, solve
from hybridfb.errors import ZenoSuspected
from hybridfb.obstacle import renormalize_circle
from hybridfb.synergistic import compose_closed_loop

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

# Jump-time and final-state bounds.  The solver and the reference differ
# by at most 5.5e-8 s and 5.4e-8 on these runs; with the located samples
# of plain bisection, by 4.2e-7 s and 1.3e-7.
JUMP_TIME_TOL = 5e-7
FINAL_STATE_TOL = 2.5e-7

# The benchmark's switching starts at seed 1: each sector (bearing from
# the obstacle centre (1, 0) in degrees, distance) jittered by up to 3
# degrees and 0.1, drawn from ``default_rng([seed, 1])``.
SECTORS = ((0.0, 1.5), (150.0, 2.0), (190.0, 1.5), (330.0, 1.5))


def _switching_starts(seed: int = 1) -> dict:
    rng = np.random.default_rng([seed, 1])
    starts = {}
    for k, (bearing, dist) in enumerate(SECTORS):
        angle = math.radians(bearing + rng.uniform(-3.0, 3.0))
        r = dist + rng.uniform(-0.1, 0.1)
        z = (1.0 + r * math.cos(angle), r * math.sin(angle))
        for q0 in (-1.0, 1.0):
            starts[f"start{k}_q{q0:+.0f}"] = (q0, z)
    return starts


STARTS = _switching_starts()
STARTS["golden_q+1"] = (1.0, (2.431591456777412, 0.023308339735769405))


def _scenario(name):
    q0, z = STARTS[name]
    values = {
        "controller": "backstep", "q0": q0, "z_init": z, "t_max": 2.0,
        "delta": 1e-3, "j_max": 1000,
    }
    return runner.build_scenario(runner.config_from_sources({}, values))


def reference_arc(sc):
    """The scenario's arc by DOP853 with terminal events on the composed loop.

    Returns ``(jumps, final_state)``: one ``(t, chart before, chart after)``
    per jump, and the projected state at ``sc.config.t_max``.
    """
    sys = compose_closed_loop(
        sc.plant, sc.theta, sc.controller, project_state=renormalize_circle
    )
    cfg = sc.config

    def event(_t, y):
        return sys.jump_indicator(renormalize_circle(y))

    event.terminal = True
    event.direction = 1.0

    def jump(t, y):
        after = renormalize_circle(np.asarray(sys.jump_map(y), dtype=float))
        jumps.append((t, y[3], after[3]))
        return after

    jumps = []
    t, y = 0.0, renormalize_circle(np.asarray(sc.x0, dtype=float))
    while t < cfg.t_max:
        if sys.jump_indicator(y) >= -cfg.event_tol:
            if len(jumps) >= cfg.j_max:
                break
            y = jump(t, y)
            continue
        sol = solve_ivp(
            lambda _t, s: sys.flow_map(s), (t, cfg.t_max), y, method="DOP853",
            rtol=1e-12, atol=1e-12, max_step=cfg.max_step, events=event,
        )
        assert sol.success, sol.message
        if sol.status == 1:
            t = float(sol.t_events[0][0])
            y = jump(t, renormalize_circle(sol.y_events[0][0]))
        else:
            t, y = float(sol.t[-1]), renormalize_circle(sol.y[:, -1])
    return jumps, y


def _disagreement(arc, reference):
    """Why ``arc`` fails the reference, or ``None`` when it agrees."""
    jumps, final_state = reference
    records = arc.jump_records
    if len(records) != len(jumps):
        return f"{len(records)} jumps against the reference's {len(jumps)}"
    charts = [(r.before[3], r.after[3]) for r in records]
    if charts != [(q, q_after) for _, q, q_after in jumps]:
        return "chart sequence differs"
    time_gap = max((abs(r.t - t) for r, (t, _, _) in zip(records, jumps)), default=0.0)
    if not time_gap <= JUMP_TIME_TOL:
        return f"jump times differ by {time_gap:.3e} s"
    state_gap = float(np.max(np.abs(arc.final_state - final_state)))
    if not state_gap <= FINAL_STATE_TOL:
        return f"final states differ by {state_gap:.3e}"
    return None


@pytest.fixture(scope="module")
def references():
    """The reference arc of each start, computed once for the module."""
    return {name: reference_arc(_scenario(name)) for name in STARTS}


def test_golden_switching_starts_are_covered():
    # The 41-jump golden start is the seed-1 run start1_q-1.
    assert STARTS["start1_q-1"] == (-1.0, (-0.6732911896168576, 0.9642926804211792))


@pytest.mark.parametrize("name", list(STARTS))
def test_solver_arc_matches_the_reference(references, name):
    sc = _scenario(name)
    arc = solve(sc.system, sc.x0, sc.config)
    assert arc.final_time == sc.config.t_max
    assert arc.jump_count >= 40
    assert _disagreement(arc, references[name]) is None


# The planted defects run on the start whose reference makes 50 jumps.
BITE_START = "start0_q-1"


def test_reference_of_the_bite_start_jumps_50_times(references):
    assert len(references[BITE_START][0]) == 50


def test_locator_returning_the_step_end_fails(references, monkeypatch):
    def step_end(dense, sys, t_lo, g_lo, t_hi, y_hi, g_hi, event_tol):
        return t_hi, y_hi, g_hi

    monkeypatch.setattr(hybrid, "_locate_crossing", step_end)
    sc = _scenario(BITE_START)
    arc = solve(sc.system, sc.x0, sc.config)
    assert _disagreement(arc, references[BITE_START]) is not None


def test_zero_estimate_rate_fails(references):
    sc = _scenario(BITE_START)
    flow_map = sc.system.flow_map

    def frozen_estimate(state):
        rate = list(flow_map(state))
        rate[4:6] = [0.0, 0.0]
        return rate

    system = dataclasses.replace(sc.system, flow_map=frozen_estimate)
    arc = solve(system, sc.x0, sc.config)
    assert _disagreement(arc, references[BITE_START]) is not None


def test_jump_map_keeping_the_chart_fails():
    # The jump leaves the state in the jump set, so the run spends its
    # jump budget at one instant.
    sc = _scenario(BITE_START)
    jump_map = sc.system.jump_map

    def same_chart(state):
        after = list(jump_map(state))
        after[3] = state[3]
        return after

    system = dataclasses.replace(sc.system, jump_map=same_chart)
    with pytest.raises(ZenoSuspected):
        solve(system, sc.x0, sc.config)
