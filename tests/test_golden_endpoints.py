"""Golden endpoints of the case-study, general-gain and switching runs.

The published nominal, adaptive and backstepped runs from z = (2, 0)
with both initial charts, and the three forced switches from
z = (1.8, -1) with q0 = -1, each to t = 10, built from the same config
values the command line uses.  Besides those: adaptive and backstep runs
with general SPD gains and an initial estimate outside the admissible
ball (t = 6), and two backstep runs with margin 1e-3 that jump 41 and 64
times by t = 2.  A rewrite of the geometry, the lifts or the solver must
land every run on the recorded final state to 1e-10 with the recorded
number of jumps.  The switching runs amplify a move of a located jump
within its ``[0, event_tol]`` band about a thousandfold, so a change that
moves them is judged against the independent reference of
``test_arc_oracle.py`` before they are recorded again.
"""

import numpy as np
import pytest

from hybridfb import SolverConfig, make_scenario, runner, solve

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


GAMMA1 = np.array([[2.0, 0.3], [0.3, 1.0]])
GAMMA2 = np.array([[1.5, -0.2], [-0.2, 0.8]])

GENERAL_GAIN = {
    ("adaptive", (1.189791099759238, 1.0542719149080342)): (
        [-0.6994343880908859, -0.9974919172457317, -0.07078047067824848, -1.0,
         0.6947416507263051, 0.7152150074941046],
        0,
    ),
    ("backstep", (1.3154917861386868, 0.8823473289949773)): (
        [-0.698730054182801, -0.9999932996854177, 0.0036606808479134573, -1.0,
         0.6992534749871101, 0.7331523628970534, -0.702710789216875,
         -0.7767566238489488],
        0,
    ),
    ("adaptive", (0.9824753684634528, 1.2913907775222835)): (
        [-0.699439763714868, -0.9973668915920005, -0.072520918058934, -1.0,
         0.6948134146666591, 0.7166257361356618],
        0,
    ),
    ("backstep", (1.3091121769537506, 0.732687053578092)): (
        [-0.6990577806691338, -0.9999959145822198, 0.0028584644251285407, -1.0,
         0.6985583361123625, 0.7325629994848254, -0.7020560337577438,
         -0.77529527139407],
        0,
    ),
}


@pytest.mark.parametrize(
    "kind, theta_hat0", list(GENERAL_GAIN),
    ids=[f"{k}-th{t[0]:.3f},{t[1]:.3f}" for k, t in GENERAL_GAIN],
)
def test_general_gain_endpoint(kind, theta_hat0):
    scenario = make_scenario(
        kind, q0=-1.0, theta_hat0=np.array(theta_hat0), gamma1=GAMMA1,
        gamma2=GAMMA2, config=SolverConfig(t_max=6.0),
    )
    arc = solve(scenario.system, scenario.x0, scenario.config)
    final_state, jumps = GENERAL_GAIN[(kind, theta_hat0)]
    assert arc.final_time == 6.0
    assert arc.jump_count == jumps
    assert np.max(np.abs(arc.final_state - np.array(final_state))) <= GOLDEN_TOL


SWITCHING = {
    (-1.0, (-0.6732911896168576, 0.9642926804211792)): (
        [-0.6911420381351705, -0.28088613726159056, 0.9597410994087223, -1.0,
         0.2500660186241011, 0.5278940130897947, -0.6942579967173161,
         -0.6661051689140661],
        41,
    ),
    (1.0, (2.431591456777412, 0.023308339735769405)): (
        [-0.09514887861263487, -0.02185829200588992, 0.999761078993669, -1.0,
         0.9660118122364739, 0.2905296960711977, -1.3126715169636318,
         -0.9625834770093855],
        64,
    ),
}


@pytest.mark.parametrize(
    "q0, z_init", list(SWITCHING),
    ids=[f"q{q:+.0f}-z{z[0]:.3f},{z[1]:.3f}" for q, z in SWITCHING],
)
def test_switching_endpoint(q0, z_init):
    values = {
        "controller": "backstep", "q0": q0, "z_init": z_init, "t_max": 2.0,
        "delta": 1e-3, "j_max": 1000,
    }
    scenario = runner.build_scenario(runner.config_from_sources({}, values))
    arc = solve(scenario.system, scenario.x0, scenario.config)
    final_state, jumps = SWITCHING[(q0, z_init)]
    assert arc.final_time == 2.0
    assert arc.jump_count == jumps
    assert np.max(np.abs(arc.final_state - np.array(final_state))) <= GOLDEN_TOL
