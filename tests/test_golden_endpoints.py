"""Golden endpoints of the nine case-study runs.

The published nominal, adaptive and backstepped runs from z = (2, 0)
with both initial charts, and the three forced switches from
z = (1.8, -1) with q0 = -1, each to t = 10, built from the same config
values the command line uses.  A rewrite of the geometry, the lifts or
the solver must land every run on the recorded final state to 1e-10
with the recorded number of jumps.
"""

import numpy as np
import pytest

from hybridfb import runner, solve

GOLDEN_TOL = 1e-10

GOLDEN = {
    ("nominal", -1.0, (2.0, 0.0)): (
        [-0.6931471805599466, -0.9999839639812597, 0.005663195240028122, -1.0],
        0,
    ),
    ("nominal", 1.0, (2.0, 0.0)): (
        [-0.6931471805599466, -0.9999839639812597, -0.005663195240028122, 1.0],
        0,
    ),
    ("nominal", -1.0, (1.8, -1.0)): (
        [-0.693147180559944, -0.9999954148394885, -0.003028250319823047, 1.0],
        1,
    ),
    ("adaptive", -1.0, (2.0, 0.0)): (
        [-0.6929846789727893, -0.9998129523405691, 0.019340639390542043, -1.0,
         0.707193404048035, 0.7029064812797695],
        0,
    ),
    ("adaptive", 1.0, (2.0, 0.0)): (
        [-0.6930614722682759, -0.9998771733308486, -0.015672850790848507, 1.0,
         0.7071786846434849, 0.7077435739186844],
        0,
    ),
    ("adaptive", -1.0, (1.8, -1.0)): (
        [-0.693095699389135, -0.9999273359930527, -0.012054987923537153, 1.0,
         0.7071982205918282, 0.703978327158628],
        1,
    ),
    ("backstep", -1.0, (2.0, 0.0)): (
        [-0.6931697508349349, -0.9999874032819507, 0.005019290529685142, -1.0,
         0.7069325840066248, 0.7082516612691243, -0.7069346085358614,
         -0.7161445761145391],
        0,
    ),
    ("backstep", 1.0, (2.0, 0.0)): (
        [-0.6930760588449127, -0.9999826226006288, -0.005895294459861175, 1.0,
         0.7069880502410946, 0.7060024819810626, -0.7069789231074894,
         -0.6969723798876927],
        0,
    ),
    ("backstep", -1.0, (1.8, -1.0)): (
        [-0.6931174419288377, -0.9999739968611706, -0.007211490934301601, 1.0,
         0.7071738393261287, 0.7074562035692223, -0.707227776892597,
         -0.6995912321021657],
        1,
    ),
}


@pytest.mark.parametrize(
    "kind, q0, z_init",
    list(GOLDEN),
    ids=[f"{k}-q{q:+.0f}-z{z[0]:g},{z[1]:g}" for k, q, z in GOLDEN],
)
def test_case_study_endpoint(kind, q0, z_init):
    values = {"controller": kind, "q0": q0, "z_init": z_init, "t_max": 10.0}
    if kind == "nominal":
        values["theta"] = (0.0, 0.0)
    scenario = runner.build_scenario(runner.config_from_sources({}, values))
    arc = solve(scenario.system, scenario.x0, scenario.config)
    final_state, jumps = GOLDEN[(kind, q0, z_init)]
    assert arc.final_time == 10.0
    assert arc.jump_count == jumps
    assert np.max(np.abs(arc.final_state - np.array(final_state))) <= GOLDEN_TOL
