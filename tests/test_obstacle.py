"""Geometry, chart potentials, nominal controller, scenario factories."""

import functools
import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from hybridfb import (
    ChartSingular,
    ControllerData,
    DomainEscape,
    InfeasibleCandidates,
    IntegrationStalled,
    SolverConfig,
    InsideObstacle,
    ObstacleDisk,
    adaptive_true_potential,
    backstep_true_potential,
    compose_closed_loop,
    build_nominal_controller,
    central_difference,
    chart_potential,
    chart_potential_gradient,
    from_cylinder,
    gradient_feedback,
    gradient_feedback_jacobian,
    make_affine_plant,
    make_scenario,
    min_over_candidates,
    select_jump,
    solve,
    to_cylinder,
)
from hybridfb.adaptive import _norm
from hybridfb.obstacle import SINGULAR_GUARD, cylinder_input_matrix, renormalize_circle
from hybridfb.runner import _random_cylinder_states, jacobian_suite
from hybridfb.synergistic import GAP_SENTINEL

OBS = ObstacleDisk(center=np.array([1.0, 0.0]), radius=0.5)
LOG_HALF = math.log(0.5)


class TestObstacleDisk:
    def test_origin_inside_rejected(self):
        with pytest.raises(ValueError):
            ObstacleDisk(center=np.array([0.3, 0.0]), radius=0.5)
        with pytest.raises(ValueError):
            ObstacleDisk(center=np.array([1.0, 0.0]), radius=0.0)

    @pytest.mark.parametrize(
        "center, radius",
        [
            ((math.nan, 0.0), 0.5),
            ((1.0, math.inf), 0.5),
            ((1.0, 0.0), math.nan),
        ],
        ids=["center-nan", "center-inf", "radius-nan"],
    )
    def test_non_finite_rejected(self, center, radius):
        with pytest.raises(ValueError, match="finite"):
            ObstacleDisk(center=np.array(center), radius=radius)

    def test_target_is_origin_image(self):
        assert OBS.target == pytest.approx(np.array([LOG_HALF, -1.0, 0.0]))

    def test_chart_targets_cached(self):
        for q in (-1.0, 1.0):
            assert OBS.chart_targets[q] == tuple(_ref_chart(OBS.target, q).tolist())

    @pytest.mark.parametrize("center", [(0.0, 1.0), (0.0, -1.0), (0.0, 3.0)])
    def test_center_on_vertical_axis_rejected(self, center):
        # The target then sits on one chart's excluded point, so that
        # chart's potential is infinite everywhere.
        with pytest.raises(ValueError, match="excluded point"):
            ObstacleDisk(center=np.array(center), radius=0.5)

    def test_center_just_off_vertical_axis_accepted(self):
        disk = ObstacleDisk(center=np.array([1e-3, 1.0]), radius=0.5)
        assert all(math.isfinite(c) for t in disk.chart_targets.values() for c in t)


class TestCoordinateChange:
    def test_origin_maps_to_target(self):
        assert to_cylinder(np.zeros(2), OBS) == pytest.approx(
            np.array([LOG_HALF, -1.0, 0.0])
        )

    def test_start_point(self):
        assert to_cylinder(np.array([2.0, 0.0]), OBS) == pytest.approx(
            np.array([LOG_HALF, 1.0, 0.0])
        )

    def test_inverse_example(self):
        z = from_cylinder(np.array([LOG_HALF, -1.0, 0.0]), OBS)
        assert z == pytest.approx(np.zeros(2), abs=1e-15)

    def test_deep_heights_approach_boundary_from_outside(self):
        for height in (-5.0, -15.0, -30.0):
            z = from_cylinder(np.array([height, 0.0, 1.0]), OBS)
            dist = np.linalg.norm(z - OBS.center)
            assert dist > OBS.radius
            assert dist - OBS.radius == pytest.approx(math.exp(height), rel=1e-12)

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 1000:
            z = rng.uniform(-5.0, 5.0, size=2)
            if np.linalg.norm(z - OBS.center) <= OBS.radius + 1e-6:
                continue
            assert from_cylinder(to_cylinder(z, OBS), OBS) == pytest.approx(
                z, abs=1e-10
            )
            checked += 1

    def test_round_trip_random_cylinder_points(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            x = np.array([rng.uniform(-3.0, 3.0), math.cos(angle), math.sin(angle)])
            assert to_cylinder(from_cylinder(x, OBS), OBS) == pytest.approx(
                x, abs=1e-10
            )

    def test_inside_obstacle_raises(self):
        with pytest.raises(InsideObstacle):
            to_cylinder(np.array([1.0, 0.1]), OBS)
        with pytest.raises(InsideObstacle):
            to_cylinder(np.array([1.5, 0.0]), OBS)  # on the disk boundary


class TestCylinderJacobian:
    # cylinder_input_matrix is the Jacobian of to_cylinder at the planar
    # preimage, written in cylinder coordinates.

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            z = rng.uniform(-4.0, 4.0, size=2)
            if np.linalg.norm(z - OBS.center) <= OBS.radius + 0.05:
                continue
            jac = cylinder_input_matrix(to_cylinder(z, OBS), OBS)
            numeric = central_difference(lambda p: to_cylinder(p, OBS), z)
            assert np.max(np.abs(jac - numeric)) <= 1e-6 * max(
                1.0, float(np.max(np.abs(jac)))
            )

    def test_full_rank_and_circle_rows_tangent(self):
        rng = np.random.default_rng(20)
        for x, _ in _random_cylinder_states(rng, OBS, 100):
            jac = cylinder_input_matrix(x, OBS)
            assert np.linalg.matrix_rank(jac) == 2
            s = x[1:]
            # differentiating the unit-norm constraint: s^T d(s)/dz = 0
            assert s @ jac[1:] == pytest.approx(np.zeros(2), abs=1e-12)

    def test_input_matrix_agrees_on_manifold(self):
        # from_cylinder inverts to_cylinder, so its derivative is a left
        # inverse of the input matrix on the cylinder.
        rng = np.random.default_rng(21)
        for x, _ in _random_cylinder_states(rng, OBS, 50):
            inverse = central_difference(lambda p: from_cylinder(p, OBS), x)
            product = inverse @ cylinder_input_matrix(x, OBS)
            assert product == pytest.approx(np.eye(2), abs=1e-6)


class TestChartPotential:
    def test_zero_at_target_for_both_charts(self):
        for q in (-1.0, 1.0):
            assert chart_potential(OBS.target, q, OBS) == 0.0

    def test_infinite_off_chart(self):
        x = np.array([0.2, 0.0, 1.0])
        assert chart_potential(x, 1.0, OBS) == math.inf
        assert chart_potential(x, -1.0, OBS) < math.inf

    def test_start_state_value_both_charts(self):
        x = to_cylinder(np.array([2.0, 0.0]), OBS)
        for q in (-1.0, 1.0):
            assert chart_potential(x, q, OBS) == pytest.approx(2.0, abs=1e-12)

    def test_both_charts_finite_away_from_poles(self):
        rng = np.random.default_rng(24)
        ctrl = build_nominal_controller(OBS)
        for _ in range(100):
            angle = rng.uniform(0.05, math.pi - 0.05)  # x3 in (-1, 1)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            x = np.array(
                [rng.uniform(-2.0, 2.0), math.sin(angle), sign * math.cos(angle)]
            )
            for q in (-1.0, 1.0):
                assert math.isfinite(chart_potential(x, q, OBS))
                assert math.isfinite(ctrl.gap(x, np.array([q])))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for x, q in _random_cylinder_states(rng, OBS, 100):
            grad = chart_potential_gradient(x, q, OBS)
            h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
            numeric = np.empty(3)
            for i in range(3):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                numeric[i] = (
                    chart_potential(xp, q, OBS) - chart_potential(xm, q, OBS)
                ) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - numeric)) / scale <= 1e-6


class TestGradientFeedback:
    def test_zero_at_target(self):
        for q in (-1.0, 1.0):
            assert gradient_feedback(OBS.target, q, OBS) == pytest.approx(
                np.zeros(2), abs=1e-15
            )

    def test_start_state_drives_potential_down(self):
        x = to_cylinder(np.array([2.0, 0.0]), OBS)
        u = gradient_feedback(x, 1.0, OBS)
        assert np.linalg.norm(u) > 0.0
        # flow derivative of the potential along the closed loop is -|u|^2
        h = 1e-7
        step = cylinder_input_matrix(x, OBS) @ u
        dv = (
            chart_potential(x + h * step, 1.0, OBS)
            - chart_potential(x - h * step, 1.0, OBS)
        ) / (2 * h)
        assert dv < 0.0

    def test_flow_derivative_identity(self):
        # Directional derivative of the potential along the closed loop
        # equals minus the squared feedback norm.
        rng = np.random.default_rng(23)
        worst = 0.0
        for x, q in _random_cylinder_states(rng, OBS, 1000):
            u = gradient_feedback(x, q, OBS)
            analytic = -float(u @ u)
            step = cylinder_input_matrix(x, OBS) @ u
            h = 1e-6 / max(1.0, float(np.linalg.norm(step)))
            numeric = (
                chart_potential(x + h * step, q, OBS)
                - chart_potential(x - h * step, q, OBS)
            ) / (2 * h)
            scale = max(1.0, abs(analytic))
            worst = max(worst, abs(numeric - analytic) / scale)
        assert worst <= 1e-5

    def test_analytic_jacobian_matches_fd(self):
        result = jacobian_suite(seed=31, n=200)
        assert result.passed, result.detail

    def test_singular_chart_raises(self):
        with pytest.raises(ChartSingular):
            gradient_feedback(np.array([0.0, 0.0, 1.0]), 1.0, OBS)
        with pytest.raises(ChartSingular):
            gradient_feedback_jacobian(np.array([0.0, 0.0, 1.0]), 1.0, OBS)



@pytest.mark.parametrize("q", [0.0, 0.5, -2.0, math.nan])
class TestChartIndexValidated:
    """A chart index outside {-1, +1} raises wherever a chart is read."""

    X = np.array([0.3, 0.6, 0.8])

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x, q: chart_potential(x, q, OBS),
            lambda x, q: chart_potential_gradient(x, q, OBS),
            lambda x, q: gradient_feedback(x, q, OBS),
            lambda x, q: gradient_feedback_jacobian(x, q, OBS),
        ],
        ids=[
            "chart_potential", "chart_potential_gradient",
            "gradient_feedback", "gradient_feedback_jacobian",
        ],
    )
    def test_geometry(self, q, fn):
        with pytest.raises(ValueError, match="chart index"):
            fn(self.X, q)

    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_flow_map(self, q, kind):
        sc = make_scenario(kind, q0=-1.0)
        state = sc.x0.copy()
        state[3] = q
        with pytest.raises(ValueError, match="chart index"):
            sc.system.flow_map(state)


# The numpy expressions of the geometry before its rewrite in scalar
# math, kept verbatim as the reference the rewrite must reproduce.
def _ref_cylinder_input_matrix(x, obstacle):
    x = np.asarray(x, dtype=float).reshape(3)
    s = x[1:]
    boundary_dist = math.exp(x[0])
    rho = boundary_dist + obstacle.radius
    mat = np.empty((3, 2))
    mat[0] = s / boundary_dist
    mat[1:] = (np.eye(2) - np.outer(s, s)) / rho
    return mat


def _ref_chart(x, q):
    x = np.asarray(x, dtype=float).reshape(3)
    denom = 1.0 - q * x[2]
    return np.array([x[0], x[1] / denom])


def _ref_chart_jacobian(x, q):
    x = np.asarray(x, dtype=float).reshape(3)
    denom = 1.0 - q * x[2]
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0 / denom, q * x[1] / denom**2],
        ]
    )


def _ref_chart_potential_gradient(x, q, obstacle):
    err = _ref_chart(x, q) - _ref_chart(obstacle.target, q)
    return _ref_chart_jacobian(x, q).T @ err


def _ref_gradient_feedback(x, q, obstacle):
    grad = _ref_chart_potential_gradient(x, q, obstacle)
    return -(_ref_cylinder_input_matrix(x, obstacle).T @ grad)


def _ref_gradient_feedback_jacobian(x, q, obstacle):
    x = np.asarray(x, dtype=float).reshape(3)
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    denom = 1.0 - q * x3

    s = x[1:]
    a = math.exp(-x1)
    rho = math.exp(x1) + obstacle.radius
    c = _ref_chart(obstacle.target, q)
    e1 = x1 - float(c[0])
    e2 = x2 / denom - float(c[1])

    # Gradient split: first component e1, circle components v.
    v = np.array([e2 / denom, q * x2 * e2 / denom**2])
    proj = np.eye(2) - np.outer(s, s)
    ea = np.array([1.0, 0.0])
    eb = np.array([0.0, 1.0])

    dv_dx2 = np.array(
        [1.0 / denom**2, q * (e2 + x2 / denom) / denom**2]
    )
    dv_dx3 = np.array(
        [
            q * x2 / denom**3 + q * e2 / denom**2,
            (q * x2) ** 2 / denom**4 + 2.0 * q * q * x2 * e2 / denom**3,
        ]
    )
    dproj_dx2 = -(np.outer(ea, s) + np.outer(s, ea))
    dproj_dx3 = -(np.outer(eb, s) + np.outer(s, eb))

    col1 = a * (1.0 - e1) * s - (proj @ v) * (rho - obstacle.radius) / rho**2
    col2 = e1 * a * ea + (dproj_dx2 @ v + proj @ dv_dx2) / rho
    col3 = e1 * a * eb + (dproj_dx3 @ v + proj @ dv_dx3) / rho
    return -np.column_stack([col1, col2, col3])


REFERENCE_OBSTACLES = (
    OBS,
    ObstacleDisk(center=np.array([-0.7, 1.3]), radius=0.9),
)
REFERENCE_RTOL = 1e-12


class TestAgainstReferenceFormulas:
    """The scalar geometry against its earlier numpy form, both charts."""

    @staticmethod
    def _states(seed, n=500):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            yield np.array(
                [rng.uniform(-3.0, 3.0), math.cos(angle), math.sin(angle)]
            )

    @staticmethod
    def _assert_close(got, ref):
        assert got.shape == ref.shape
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert float(np.max(np.abs(got - ref))) <= REFERENCE_RTOL * scale

    @pytest.mark.parametrize("which", [0, 1], ids=["published", "shifted"])
    def test_matches_reference_on_random_states(self, which):
        obstacle = REFERENCE_OBSTACLES[which]
        for x in self._states(seed=40 + which):
            self._assert_close(
                cylinder_input_matrix(x, obstacle),
                _ref_cylinder_input_matrix(x, obstacle),
            )
            for q in (-1.0, 1.0):
                grad = _ref_chart_potential_gradient(x, q, obstacle)
                self._assert_close(chart_potential_gradient(x, q, obstacle), grad)
                err = _ref_chart(x, q) - _ref_chart(obstacle.target, q)
                assert chart_potential(x, q, obstacle) == pytest.approx(
                    0.5 * float(err @ err), rel=REFERENCE_RTOL
                )
                self._assert_close(
                    gradient_feedback(x, q, obstacle),
                    _ref_gradient_feedback(x, q, obstacle),
                )
                self._assert_close(
                    gradient_feedback_jacobian(x, q, obstacle),
                    _ref_gradient_feedback_jacobian(x, q, obstacle),
                )

    @pytest.mark.parametrize("q", [-1.0, 1.0])
    @pytest.mark.parametrize("gap", [0.0, 5e-13], ids=["pole", "in-band"])
    def test_guard_band_at_excluded_point(self, q, gap):
        x3 = q * (1.0 - gap)
        x = np.array([0.3, math.sqrt(1.0 - x3 * x3), x3])
        assert chart_potential(x, q, OBS) == math.inf
        for fn in (
            lambda: chart_potential_gradient(x, q, OBS),
            lambda: gradient_feedback(x, q, OBS),
            lambda: gradient_feedback_jacobian(x, q, OBS),
        ):
            with pytest.raises(ChartSingular):
                fn()
        # The other chart is finite there, and so is the input matrix.
        assert math.isfinite(chart_potential(x, -q, OBS))
        assert np.all(np.isfinite(gradient_feedback_jacobian(x, -q, OBS)))
        assert np.all(np.isfinite(cylinder_input_matrix(x, OBS)))

    @pytest.mark.parametrize("q", [-1.0, 1.0])
    def test_just_outside_guard_band_is_finite(self, q):
        x3 = q * (1.0 - 1e-11)
        x = np.array([0.3, math.sqrt(1.0 - x3 * x3), x3])
        assert math.isfinite(chart_potential(x, q, OBS))
        assert np.all(np.isfinite(gradient_feedback_jacobian(x, q, OBS)))

class TestNominalController:
    def test_gap_zero_on_equator(self):
        ctrl = build_nominal_controller(OBS)
        x = np.array([0.7, 1.0, 0.0])
        for q in (-1.0, 1.0):
            assert ctrl.gap(x, np.array([q])) == 0.0

    def test_gap_infinite_at_chart_boundary(self):
        ctrl = build_nominal_controller(OBS)
        x = np.array([0.2, 0.0, 1.0])
        assert ctrl.gap(x, np.array([1.0])) == math.inf

    def test_argmin_is_other_chart_when_better(self):
        ctrl = build_nominal_controller(OBS)
        # x3 > 0 makes chart +1's denominator small, so chart -1 is better
        x = np.array([0.1, math.sqrt(1 - 0.9**2), 0.9])
        _, minimizers, _ = min_over_candidates(ctrl, x, np.array([1.0]))
        assert [float(g[0]) for g in minimizers] == [-1.0]
        assert select_jump(ctrl, x, np.array([1.0]))[0] == -1.0

    def test_candidates_listed_minus_then_plus(self):
        ctrl = build_nominal_controller(OBS)
        cands = ctrl.candidates(np.array([0.0, 1.0, 0.0]), np.array([1.0]))
        assert [float(g[0]) for g in cands] == [-1.0, 1.0]

    def test_zero_margin_rejected_at_construction(self):
        with pytest.raises(ValueError):
            build_nominal_controller(OBS, margin=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_margin_rejected_at_construction(self, value):
        with pytest.raises(ValueError, match="finite"):
            build_nominal_controller(OBS, margin=value)

    def test_state_dependent_margin_refused(self):
        # The margin is the one constant delta; a function of the state is
        # not a number and fails at construction.
        with pytest.raises(TypeError):
            build_nominal_controller(OBS, margin=lambda x, xi: 1.0 + 0.1 * x[0] ** 2)
        with pytest.raises(TypeError):
            make_scenario("backstep", q0=-1.0, margin=lambda x, xi: 1.0)

    @pytest.mark.parametrize("q", [-1.0, 1.0])
    def test_plant_disturbance_matched_by_construction(self, q):
        # matched_matrix is the identity, so the derived disturbance matrix
        # is the input matrix entry for entry at every cylinder point.
        points = [OBS.target] + [
            np.array([height, s1, s2])
            for height in (-1.0, 0.0, 1.0)
            for s1, s2 in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
        ]
        plant = make_affine_plant(OBS)
        for p in points:
            xi_c = np.array([q])
            assert np.array_equal(
                plant.disturbance_matrix(p, xi_c), plant.input_matrix(p, xi_c)
            )


class TestScenarioFactory:
    def test_defaults_echo_case_study_parameters(self):
        sc = make_scenario("backstep", q0=-1.0)
        assert sc.obstacle.center.tolist() == [1.0, 0.0]
        assert sc.obstacle.radius == 0.5
        assert sc.theta == pytest.approx(
            np.array([math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0])
        )
        assert sc.ball.radius == 1.0
        assert sc.ball.eps == 1.0
        assert np.array_equal(sc.ball.gain, np.eye(2))
        assert np.array_equal(sc.gains.gain, np.eye(2))
        assert sc.gains.damping == 1.0
        assert sc.margin_at(sc.x0) == 1.0
        assert sc.config.t_max == 10.0
        # starts at z = (2, 0)
        assert sc.planar(sc.x0) == pytest.approx(np.array([2.0, 0.0]), abs=1e-12)

    def test_adaptive_initial_estimate_is_zero(self):
        sc = make_scenario("adaptive", q0=1.0)
        assert sc.x0[4:6].tolist() == [0.0, 0.0]
        assert sc.x0.shape == (6,)

    def test_backstep_starts_on_feedback_manifold(self):
        sc = make_scenario("backstep", q0=1.0)
        x, xi1, u = sc.x0[:3], sc.x0[3:6], sc.x0[6:8]
        assert np.array_equal(u, sc.controller.adaptive.feedback(x, xi1))

    def test_backstep_zero_input_policy(self):
        sc = make_scenario("backstep", q0=1.0, u0="zero")
        assert sc.x0[6:8].tolist() == [0.0, 0.0]

    def test_backstep_unknown_input_policy_refused(self):
        with pytest.raises(ValueError, match="unknown initial-input policy 'bogus'"):
            make_scenario("backstep", q0=1.0, u0="bogus")

    @pytest.mark.parametrize("kind", ["nominal", "adaptive"])
    def test_kinds_without_held_input_refuse_unknown_policy(self, kind):
        # As the backstep kind does (the test above), though they ignore u0.
        with pytest.raises(ValueError, match="unknown initial-input policy 'bogus'"):
            make_scenario(kind, q0=-1.0, u0="bogus")

    def test_nominal_state_layout(self):
        sc = make_scenario("nominal", q0=-1.0)
        assert sc.x0.shape == (4,)
        assert sc.x0[3] == -1.0
        assert sc.estimate(sc.x0).tolist() == [0.0, 0.0]

    def test_parameter_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            make_scenario("adaptive", q0=1.0, theta=np.array([1.2, 0.0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_scenario("magic", q0=1.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"damping": math.nan},
            {"damping": math.inf},
            {"theta": [math.nan, 0.0]},
            {"margin": math.nan},
            {"margin": math.inf},
            {"theta_hat0": [math.nan, 0.0]},
            {"z_init": (math.nan, 0.0)},
        ],
        ids=[
            "damping-nan", "damping-inf", "theta-nan", "margin-nan",
            "margin-inf", "theta_hat0-nan", "z_init-nan",
        ],
    )
    def test_non_finite_input_rejected(self, overrides):
        with pytest.raises(ValueError, match="finite"):
            make_scenario(
                "backstep", q0=1.0, config=SolverConfig(t_max=0.05), **overrides
            )

    @pytest.mark.parametrize(
        "kind, name, value, shape",
        [
            ("adaptive", "theta_hat0", (0.1, 0.2, 0.3), (3,)),
            ("backstep", "theta_hat0", (0.1,), (1,)),
            ("adaptive", "theta", (0.1, 0.2, 0.3), (3,)),
            ("nominal", "z_init", (2.0, 0.0, 0.0), (3,)),
            ("adaptive", "gamma1", np.eye(3), (3, 3)),
            ("backstep", "gamma2", np.eye(1), (1, 1)),
        ],
        ids=[
            "theta_hat0-3", "theta_hat0-1", "theta-3", "z_init-3",
            "gamma1-3x3", "gamma2-1x1",
        ],
    )
    def test_wrong_shape_named(self, kind, name, value, shape):
        expected = (2, 2) if name.startswith("gamma") else (2,)
        message = f"{name} must have shape {expected}, got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_scenario(kind, q0=-1.0, **{name: value})


GAMMA1 = np.array([[2.0, 0.3], [0.3, 1.0]])
GAMMA2 = np.array([[1.5, -0.2], [-0.2, 0.8]])
GAINS = {
    "unit": {},
    "general": {"gamma1": GAMMA1, "gamma2": GAMMA2, "damping": 0.7},
}
# Estimate norms inside the admissible ball, in the inflated shell and
# beyond it.
ESTIMATE_NORMS = (0.5, 1.5, 2.5)


class TestFlowKernel:
    """``make_scenario``'s flow map against ``compose_closed_loop``'s composition."""

    @staticmethod
    def _pair(kind, gains):
        sc = make_scenario(kind, q0=-1.0, **GAINS[gains])
        return sc, compose_closed_loop(sc.plant, sc.theta, sc.controller).flow_map

    @staticmethod
    def _states(sc, rng, n):
        for x, q in _random_cylinder_states(rng, OBS, n, chart_clearance=1e-6):
            xi = np.array([q])
            if sc.kind == "nominal":
                yield np.concatenate([x, xi])
                continue
            # The adaptive estimate's drive is minus the nominal feedback:
            # an estimate along it or against it takes each projection
            # branch once the estimate is outside the admissible ball.
            drive = -gradient_feedback(x, q, OBS)
            direction = drive / _norm(drive)
            for norm in ESTIMATE_NORMS:
                for sign in (1.0, -1.0):
                    xi1 = np.concatenate([xi, sign * norm * direction])
                    if sc.kind == "adaptive":
                        yield np.concatenate([x, xi1])
                    else:
                        u_err = rng.normal(size=2)
                        u = sc.controller.adaptive.feedback(x, xi1) + u_err
                        yield np.concatenate([x, xi1, u])

    @pytest.mark.parametrize(
        "kind, gains",
        [
            ("nominal", "unit"),
            ("adaptive", "unit"),
            ("adaptive", "general"),
            ("backstep", "unit"),
            ("backstep", "general"),
        ],
    )
    def test_matches_composed_flow(self, kind, gains):
        sc, composed = self._pair(kind, gains)
        charts = set()
        for state in self._states(sc, np.random.default_rng(11), n=400):
            charts.add(float(state[3]))
            expected = composed(state)
            got = sc.system.flow_map(state)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert charts == {-1.0, 1.0}

    @pytest.mark.parametrize("band", [0.0, 5e-13], ids=["excluded", "guard_band"])
    @pytest.mark.parametrize("q", [-1.0, 1.0])
    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_singular_on_both_sides(self, kind, q, band):
        sc, composed = self._pair(kind, "general")
        x3 = q * (1.0 - band)
        state = sc.x0.copy()
        state[:4] = [0.1, math.sqrt(1.0 - x3 * x3), x3, q]
        for flow in (composed, sc.system.flow_map):
            with pytest.raises(ChartSingular):
                flow(state)

    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_exp_x1_underflow_inside_obstacle(self, kind):
        # exp(-30) is inside the guard band to_cylinder refuses, exp(-720)
        # is subnormal and exp(-800) is 0: each point is on the disk.
        sc = make_scenario(kind, q0=-1.0)
        for x1 in (-30.0, -720.0, -800.0):
            state = sc.x0.copy()
            state[0] = x1
            for evaluate in (
                lambda: sc.system.flow_map(state),
                lambda: cylinder_input_matrix(state[:3], OBS),
                lambda: gradient_feedback(state[:3], -1.0, OBS),
                lambda: gradient_feedback_jacobian(state[:3], -1.0, OBS),
            ):
                with pytest.raises(InsideObstacle, match="exp"):
                    evaluate()
            if kind == "backstep":
                # The input error has no feedback to read there.
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    outputs = sc.readout(state)
                    scalars = sc.true_potential(state), sc.switching_gap(state)
                assert all(math.isnan(v) for v in outputs[-2:] + scalars)

    def test_exp_minus_x1_overflow_inside_obstacle(self):
        # exp(720) overflows; exp(-720) is subnormal, inside the guard band.
        sc = make_scenario("backstep", q0=-1.0)
        state = sc.x0.copy()
        state[0] = -720.0
        for evaluate in (
            lambda: sc.system.flow_map(state),
            lambda: gradient_feedback_jacobian(state[:3], -1.0, OBS),
        ):
            with pytest.raises(InsideObstacle, match="exp"):
                evaluate()

    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_guard_band_edge(self, kind):
        # The largest x1 with exp(x1) <= SINGULAR_GUARD, and the next float.
        edge = math.log(SINGULAR_GUARD)
        while math.exp(edge) > SINGULAR_GUARD:
            edge = math.nextafter(edge, -math.inf)
        while math.exp(math.nextafter(edge, math.inf)) <= SINGULAR_GUARD:
            edge = math.nextafter(edge, math.inf)
        sc = make_scenario(kind, q0=-1.0)

        def guarded(x1):
            state = sc.x0.copy()
            state[0] = x1
            return (
                lambda: sc.system.flow_map(state),
                lambda: cylinder_input_matrix(state[:3], OBS),
                lambda: gradient_feedback(state[:3], -1.0, OBS),
                lambda: gradient_feedback_jacobian(state[:3], -1.0, OBS),
            )

        message = (
            f"cylinder height x1={edge} is in the disk's guard band: "
            f"exp(x1) <= {SINGULAR_GUARD:g}"
        )
        for evaluate in guarded(edge):
            with pytest.raises(InsideObstacle) as info:
                evaluate()
            assert str(info.value) == message
        for evaluate in guarded(math.nextafter(edge, math.inf)):
            evaluate()


def _flow_map_digest(kind, gains):
    """SHA-256 over the bytes of the flow map at ``TestFlowKernel``'s states."""
    sc = make_scenario(kind, q0=-1.0, **GAINS[gains])
    digest = hashlib.sha256()
    for state in TestFlowKernel._states(sc, np.random.default_rng(11), n=400):
        digest.update(np.asarray(sc.system.flow_map(state), dtype=float).tobytes())
    return digest.hexdigest()


def _feedback_jacobian_digest(which):
    """SHA-256 over ``gradient_feedback_jacobian``'s bytes, both charts."""
    obstacle = REFERENCE_OBSTACLES[which]
    digest = hashlib.sha256()
    for x in TestAgainstReferenceFormulas._states(seed=40 + which):
        for q in (-1.0, 1.0):
            digest.update(gradient_feedback_jacobian(x, q, obstacle).tobytes())
    return digest.hexdigest()


class TestKernelBits:
    """The float kernels' outputs pinned to the last bit.

    ``TestFlowKernel`` and ``TestAgainstReferenceFormulas`` compare to a
    relative 1e-12, which a reassociated sum passes while it moves every
    trajectory.  The Jacobian digests were recorded at commit 6787824,
    from the kernels as they stood before they took their floats from one
    helper per evaluation, with CPython's float arithmetic and glibc's
    ``exp`` on x86-64.  The flow-map digests were recorded again once the
    input states were built without BLAS (``_norm`` in
    ``_random_cylinder_states`` and ``TestFlowKernel._states``), so they
    read the same under every BLAS kernel; the states the earlier inputs
    gave, fed to the same kernels, still give the earlier digests.  A
    rewrite must keep every operation's order and association to match
    them; another ``libm`` may round ``exp`` differently, and then the
    digests must be recorded again from the same code.
    """

    FLOW_DIGESTS = {
        ("nominal", "unit"): (
            "b08e5923c0c6fa9049e468394193fbcfa4576282d0c0fb2476e6161cd3c691ae"
        ),
        ("adaptive", "unit"): (
            "aad51dc35b48f94ff17639d6b23730efa80f60f5118457f48e2853bcbd929301"
        ),
        ("adaptive", "general"): (
            "9f8911ffe9e49edf3ddb495c725620d313d174de04194bd4ae55a923fdf83ecc"
        ),
        ("backstep", "unit"): (
            "2db73e4f020600f8c53809cc6bbeb5ed8f2d19b70a37e2f47408a6f0424e1f98"
        ),
        ("backstep", "general"): (
            "54da0d2fb427364413585a82d5d3d1e931a8938c2f28f1da200115a1b297f958"
        ),
    }
    JACOBIAN_DIGESTS = (
        "57f5a5848f3684bb9f1c8a364be60accce2e92c93f6b2161e3d311dc81fc8de4",
        "a46cd28f83d8f016a21ec66727198494d79f12ae3bbc6d5001d1d9b6b420d986",
    )

    @pytest.mark.parametrize("kind, gains", sorted(FLOW_DIGESTS))
    def test_flow_map_bits(self, kind, gains):
        assert _flow_map_digest(kind, gains) == self.FLOW_DIGESTS[kind, gains]

    @pytest.mark.parametrize("which", [0, 1], ids=["published", "shifted"])
    def test_feedback_jacobian_bits(self, which):
        assert _feedback_jacobian_digest(which) == self.JACOBIAN_DIGESTS[which]


class TestClosedLoopScalars:
    """``make_scenario``'s float gap and true potential against the controllers.

    Both must equal the controllers' values bit for bit: the lifts' closed
    form gap, enumeration for the nominal one, and the true potentials of
    ``chart_potential``, ``adaptive_true_potential`` and
    ``backstep_true_potential``.
    """

    # The offset obstacle gives the two charts different target
    # coordinates; the published one gives both the same.
    OBSTACLES = {
        "published": OBS,
        "offset": ObstacleDisk(center=np.array([1.0, 0.6]), radius=0.5),
    }
    # Estimate norms inside the admissible ball, in the inflated shell and
    # beyond it (radius 1, eps 1).
    SHELLS = ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))

    @classmethod
    def _scenario(cls, kind, gains="general", obstacle="offset"):
        return make_scenario(
            kind, q0=-1.0, obstacle=cls.OBSTACLES[obstacle], **GAINS[gains]
        )

    @staticmethod
    def _reference_potential(sc):
        if sc.kind == "nominal":
            return lambda x, xi: chart_potential(x, xi[0], sc.obstacle)
        if sc.kind == "adaptive":
            return adaptive_true_potential(sc.controller, sc.theta)
        return backstep_true_potential(sc.controller, sc.theta)

    @classmethod
    def _states(cls, sc, rng, n):
        for x, q in _random_cylinder_states(rng, sc.obstacle, n, 1e-6):
            xi = np.array([q])
            if sc.kind == "nominal":
                yield np.concatenate([x, xi])
                continue
            for lo, hi in cls.SHELLS:
                direction = rng.normal(size=2)
                norm = rng.uniform(lo, hi)
                xi1 = np.concatenate([xi, norm * direction / np.linalg.norm(direction)])
                if sc.kind == "adaptive":
                    yield np.concatenate([x, xi1])
                else:
                    u = sc.controller.adaptive.feedback(x, xi1) + rng.normal(size=2)
                    yield np.concatenate([x, xi1, u])

    @pytest.mark.parametrize("obstacle", ["published", "offset"])
    @pytest.mark.parametrize("gains", ["unit", "general"])
    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_equal_to_controllers(self, kind, gains, obstacle):
        sc = self._scenario(kind, gains, obstacle)
        ctrl = sc.controller
        potential = self._reference_potential(sc)
        indicator = compose_closed_loop(sc.plant, sc.theta, ctrl).jump_indicator
        charts, shells = set(), set()
        for state in self._states(sc, np.random.default_rng(29), n=150):
            x, xi = state[:3], state[3:]
            gap = sc.switching_gap(state)
            assert gap == ctrl.gap(x, xi)
            assert sc.true_potential(state) == potential(x, xi)
            assert sc.system.jump_indicator(state) == indicator(state)
            # The lifts' closed form agrees with enumerating their candidates
            # to the last few ulps only (TestClosedFormGap).
            enumerated = ControllerData.gap(ctrl, x, xi)
            assert abs(gap - enumerated) <= 1e-12 * (1.0 + abs(enumerated))
            charts.add(float(state[3]))
            if kind != "nominal":
                shells.add(int(np.linalg.norm(state[4:6])))
        assert charts == {-1.0, 1.0}
        assert shells == ({0, 1, 2} if kind != "nominal" else set())

    @pytest.mark.parametrize("band", [0.0, 5e-13], ids=["excluded", "guard_band"])
    @pytest.mark.parametrize("q", [-1.0, 1.0])
    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_infinite_on_both_sides(self, kind, q, band):
        sc = self._scenario(kind)
        potential = self._reference_potential(sc)
        x3 = q * (1.0 - band)
        state = sc.x0.copy()
        state[:4] = [0.1, math.sqrt(1.0 - x3 * x3), x3, q]
        if kind != "nominal":
            state[4:6] = [1.2, -0.9]
        x, xi = state[:3], state[3:]
        assert sc.switching_gap(state) == math.inf
        assert sc.controller.gap(x, xi) == math.inf
        assert sc.true_potential(state) == math.inf
        assert potential(x, xi) == math.inf
        assert sc.system.jump_indicator(state) == GAP_SENTINEL - 1.0

    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_disk_guard_band_is_nan_where_backstep_controllers_raise(self, kind):
        # x1 = -35.5 is in the disk's guard band.  The nominal and adaptive
        # gaps need no feedback and agree at 0.0; the backstep input error
        # does, so the float side is NaN where the composed side raises.
        # Either way the solver ends the run.
        sc = self._scenario(kind, "unit", "published")
        potential = self._reference_potential(sc)
        state = sc.x0.copy()
        state[0] = -35.5
        x, xi = state[:3], state[3:]
        if kind != "backstep":
            assert sc.switching_gap(state) == sc.controller.gap(x, xi) == 0.0
            assert sc.true_potential(state) == potential(x, xi)
            return
        assert math.isnan(sc.switching_gap(state))
        assert math.isnan(sc.true_potential(state))
        assert math.isnan(sc.readout(state)[-1])
        with pytest.raises(InsideObstacle, match="guard band"):
            sc.controller.gap(x, xi)
        with pytest.raises(InsideObstacle, match="guard band"):
            potential(x, xi)
        with pytest.raises(DomainEscape, match="jump indicator is nan"):
            solve(sc.system, state, sc.config)

    @pytest.mark.parametrize("q", [0.0, 0.5, -2.0, math.nan])
    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_chart_index_outside_pair_raises(self, kind, q):
        sc = self._scenario(kind)
        potential = self._reference_potential(sc)
        state = sc.x0.copy()
        state[3] = q
        x, xi = state[:3], state[3:]
        for fn in (
            sc.switching_gap,
            sc.true_potential,
            lambda s: sc.controller.gap(x, xi),
            lambda s: potential(x, xi),
        ):
            with pytest.raises(ValueError, match="chart index"):
                fn(state)


def _readout_reference(sc, state):
    """One sample's outputs from the ``Scenario`` methods, as the CSV prints them."""
    values = (
        *sc.planar(state),
        *state[:3],
        float(state[3]),
        *sc.estimate(state),
        *sc.applied_input(state),
        sc.true_potential(state),
        sc.switching_gap(state),
    )
    return [f"{float(v):.17g}" for v in values]


class TestScenarioReadout:
    """``Scenario.readout`` against the per-sample methods, signed zeros included."""

    @pytest.mark.parametrize("obstacle", ["published", "offset"])
    @pytest.mark.parametrize("gains", ["unit", "general"])
    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_equal_to_scenario_methods(self, kind, gains, obstacle):
        sc = TestClosedLoopScalars._scenario(kind, gains, obstacle)
        states = TestClosedLoopScalars._states(sc, np.random.default_rng(31), n=60)
        for state in states:
            readout = [f"{v:.17g}" for v in sc.readout(state)]
            assert readout == _readout_reference(sc, state)

    @pytest.mark.parametrize("q", [-1.0, 1.0])
    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_excluded_point_and_signed_zeros(self, kind, q):
        sc = TestClosedLoopScalars._scenario(kind)
        # On the chart's excluded point: NaN input, infinite V and gap.
        singular = sc.x0.copy()
        singular[:4] = [0.1, 0.0, q, q]
        # At the target, with a -0.0 estimate: the feedback is -0.0, and the
        # adaptive input is -0.0 - (+0.0), not -0.0 - (-0.0).
        target = sc.x0.copy()
        target[:3] = sc.obstacle.target
        target[4:] = -0.0
        for state in (singular, target):
            readout = [f"{v:.17g}" for v in sc.readout(state)]
            assert readout == _readout_reference(sc, state)
        assert math.isinf(sc.readout(singular)[-1])
        if kind != "backstep":
            assert math.isnan(sc.readout(singular)[8])
            assert [f"{v:.17g}" for v in sc.readout(target)[8:10]] == ["-0", "-0"]

    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_chart_index_outside_pair_raises(self, kind):
        sc = TestClosedLoopScalars._scenario(kind)
        state = sc.x0.copy()
        state[3] = 0.5
        with pytest.raises(ValueError, match="chart index"):
            sc.readout(state)

    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_disk_guard_band(self, kind):
        # exp(-30) is inside the disk's guard band: the nominal and adaptive
        # feedbacks are undefined there, and so the backstep input error.
        sc = TestClosedLoopScalars._scenario(kind)
        state = sc.x0.copy()
        state[0] = -30.0
        readout = [f"{v:.17g}" for v in sc.readout(state)]
        assert readout == _readout_reference(sc, state)
        if kind != "backstep":
            assert readout[8:10] == ["nan", "nan"]

    @pytest.mark.parametrize(
        "estimate", [(math.inf, 0.0), (0.3, math.inf), (-math.inf, -0.0), (math.nan, 0.5)]
    )
    def test_adaptive_input_at_non_finite_estimate(self, estimate):
        # The identity times an infinite estimate has a NaN in the other
        # component (0 * inf), and the readout's input must carry it as
        # ``applied_input`` does.
        sc = TestClosedLoopScalars._scenario("adaptive")
        state = sc.x0.copy()
        state[4:6] = estimate
        with np.errstate(invalid="ignore"):
            reference = _readout_reference(sc, state)
        readout = [f"{v:.17g}" for v in sc.readout(state)]
        assert readout == reference
        assert readout[8:10].count("nan") >= 1

    @pytest.mark.parametrize(
        "estimate", [(1e200, 0.0), (math.inf, 0.0), (math.nan, 0.0)],
        ids=["huge", "inf", "nan"],
    )
    @pytest.mark.parametrize("kind", ["adaptive", "backstep"])
    def test_extreme_estimates(self, kind, estimate):
        # Each of V_true and the gap adds its terms while it is finite, so
        # an infinite V_true must not make the gap infinite too.
        sc = TestClosedLoopScalars._scenario(kind)
        state = sc.x0.copy()
        state[4:6] = estimate
        x, xi = state[:3], state[3:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            readout = sc.readout(state)
            kernels = sc.true_potential(state), sc.switching_gap(state)
        # The composed feedback multiplies the identity by the estimate, and
        # numpy flags the 0 * inf of an infinite one.
        with np.errstate(invalid="ignore"):
            potential = TestClosedLoopScalars._reference_potential(sc)
            controllers = potential(x, xi), sc.controller.gap(x, xi)
        strings = [[f"{v:.17g}" for v in values] for values in (kernels, controllers)]
        assert [f"{v:.17g}" for v in readout[-2:]] == strings[0] == strings[1]


# Bearing from the obstacle centre (1, 0) in degrees, and distance: the
# switching starts, run at margin 1e-3.
SWITCHING_STARTS = ((0.0, 1.5), (150.0, 2.0), (190.0, 1.5), (330.0, 1.5))
# Chart index and planar start of the published runs.
PUBLISHED_STARTS = ((-1.0, (2.0, 0.0)), (1.0, (2.0, 0.0)), (-1.0, (1.8, -1.0)))

# Estimates inside, just outside and about 1e6 from the unit ball.
TIE_ESTIMATES = ((0.3, -0.2), (1.2, -0.9), (6e5, -8e5))


@functools.lru_cache(maxsize=None)
def _pre_jump_states(kind):
    """The kind's scenario and the pre-jump states of its switching and published runs.

    The nominal and adaptive runs jump less often; their list also holds
    the leading entries of the backstep runs' pre-jump states.
    """
    runs = []
    for bearing, dist in SWITCHING_STARTS:
        angle = math.radians(bearing)
        z = (1.0 + dist * math.cos(angle), dist * math.sin(angle))
        for q0 in (-1.0, 1.0):
            runs.append(dict(q0=q0, z_init=z, margin=1e-3, config=SolverConfig(
                t_max=2.0, j_max=1000
            )))
    theta = np.zeros(2) if kind == "nominal" else None
    runs += [dict(q0=q0, z_init=z, theta=theta) for q0, z in PUBLISHED_STARTS]
    states = []
    for run in runs:
        sc = make_scenario(kind, **run)
        arc = solve(sc.system, sc.x0, sc.config)
        states += [rec.before for rec in arc.jump_records]
    if kind != "backstep":
        states += [s[: sc.x0.size].copy() for s in _pre_jump_states("backstep")[1]]
    return sc, states


class TestJumpMapKernel:
    """``make_scenario``'s float jump map against the composed one, byte for byte."""

    @pytest.fixture(params=["nominal", "adaptive", "backstep"])
    def runs(self, request):
        return _pre_jump_states(request.param)

    @staticmethod
    def _composed(sc):
        return compose_closed_loop(sc.plant, sc.theta, sc.controller).jump_map

    def test_pre_jump_states(self, runs):
        sc, states = runs
        assert len(states) >= 400
        composed = self._composed(sc)
        resets = set()
        for state in states:
            got = sc.system.jump_map(state)
            assert got.dtype == np.float64
            assert got.tobytes() == composed(state).tobytes()
            resets.add((float(state[3]), float(got[3])))
        assert {after for _, after in resets} == {-1.0, 1.0}

    @pytest.mark.parametrize(
        "estimate", [(-0.0, 0.3), (0.4, -0.0), (-0.0, -0.0), (1.2, -0.9), (-1.9, 0.2)],
        ids=["neg_zero_1", "neg_zero_2", "neg_zeros", "outside", "far_outside"],
    )
    @pytest.mark.parametrize("kind", ["adaptive", "backstep"])
    def test_estimate_edge_cases(self, kind, estimate):
        sc, states = _pre_jump_states(kind)
        composed = self._composed(sc)
        for state in states[:: max(1, len(states) // 10)]:
            state = state.copy()
            state[4:6] = estimate
            got = sc.system.jump_map(state)
            assert got.tobytes() == composed(state).tobytes()
            if math.hypot(*estimate) <= 1.0:  # kept as is, signed zeros too
                assert got[4:6].tobytes() == np.array(estimate).tobytes()

    @pytest.mark.parametrize("gap", [0.0, 5e-13, 2e-12])
    @pytest.mark.parametrize("q", [-1.0, 1.0])
    def test_chart_potentials_tie(self, runs, q, gap):
        # On the published obstacle's x3 = 0 both charts read the same
        # potential; near (x2, x3) = (1, 0) they differ by about 4 * x3, and
        # near (-1, 0) only at second order, so those states tie.
        sc, _ = runs
        composed = self._composed(sc)
        x3 = gap / 4.0
        estimates = [None] if sc.kind == "nominal" else TIE_ESTIMATES
        for x1, x2, estimate in itertools.product((-3.0, 0.4, 5.0), (1.0, -1.0), estimates):
            state = sc.x0.copy()
            state[:4] = [x1, x2 * math.sqrt(1.0 - x3 * x3), x3, q]
            if estimate is not None:
                state[4:6] = estimate
            got = sc.system.jump_map(state)
            assert got.tobytes() == composed(state).tobytes()
            low, high = (chart_potential(state[:3], c, sc.obstacle) for c in (-1.0, 1.0))
            tied = not (low > high + 1e-12 or high > low + 1e-12)
            assert tied == (gap < 1e-12 or x2 < 0.0)
            if tied:
                assert got[3] == -1.0  # the first-listed chart

    @pytest.mark.parametrize("height", [math.inf, -math.inf, math.nan])
    def test_non_finite_height_raises(self, runs, height):
        # Both chart potentials are +inf or NaN there: no candidate resets.
        sc, _ = runs
        state = sc.x0.copy()
        state[0] = height
        for jump_map in (sc.system.jump_map, self._composed(sc)):
            with pytest.raises(InfeasibleCandidates):
                jump_map(state)

    @pytest.mark.parametrize(
        "state",
        [
            # x3 = +-inf with a finite x2: one chart value is finite, but the
            # feedback there, so the reset's held input, is NaN.
            [0.3, 0.2, math.inf, -1.0, 0.1, 0.2, 0.5, -0.5],
            [5.0, -1.0, -math.inf, 1.0, 0.1, 0.2, 0.5, -0.5],
            # An overflowing feedback: the held input would be +inf.
            [0.3, 1e154, 0.3, -1.0, 0.1, 0.2, 0.5, -0.5],
            # A NaN estimate: the reset estimate, so the held input, is NaN.
            [0.3, 0.3, 0.3, -1.0, math.nan, 0.1, 0.5, -0.5],
        ],
        ids=["x3_inf", "x3_neg_inf", "input_overflow", "nan_estimate"],
    )
    def test_non_finite_reset_raises(self, state):
        # The composed candidate's potential is +inf or NaN there, so
        # select_jump refuses it; the float map once reset to it instead.
        sc = make_scenario("backstep", q0=-1.0)
        for jump_map in (sc.system.jump_map, self._composed(sc)):
            # The composed input error subtracts inf from inf.
            with pytest.raises(InfeasibleCandidates), np.errstate(invalid="ignore"):
                jump_map(np.array(state))

    @pytest.mark.parametrize("estimate", [(math.inf, 0.0), (math.nan, 0.1)])
    def test_non_finite_adaptive_estimate_raises(self, estimate):
        sc = make_scenario("adaptive", q0=-1.0)
        state = np.array([0.3, 0.3, 0.3, -1.0, *estimate])
        for jump_map in (sc.system.jump_map, self._composed(sc)):
            with pytest.raises(InfeasibleCandidates):
                jump_map(state)

    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_chart_index_outside_pair_raises(self, kind):
        sc, states = _pre_jump_states(kind)
        state = states[0].copy()
        state[3] = 0.5
        with pytest.raises(ValueError, match="chart index"):
            sc.system.jump_map(state)
        if kind != "nominal":
            with pytest.raises(ValueError, match="chart index"):
                self._composed(sc)(state)


class TestClosedLoopGeometry:
    def test_renormalize_collapsed_circle_raises(self):
        state = np.array([0.2, 0.0, 0.0, 1.0])
        with pytest.raises(DomainEscape, match="collapsed") as info:
            renormalize_circle(state)
        assert info.value.state is state
        for bad in (math.nan, math.inf, -math.inf):
            for state in (np.array([0.2, bad, 0.0, 1.0]), [0.2, 0.3, bad, 1.0]):
                with pytest.raises(DomainEscape, match="is not finite$") as info:
                    renormalize_circle(state)
                # DomainEscape keeps a float array of the state it was given.
                np.testing.assert_array_equal(info.value.state, state)

    def test_agrees_with_independent_integrator(self):
        # Method-independent check of the whole closed-loop right-hand
        # side: a jump-free window integrated by LSODA at tight tolerance
        # must land on the same endpoint.
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

        sc = make_scenario("backstep", q0=-1.0, config=SolverConfig(t_max=2.0))
        arc = solve(sc.system, sc.x0, sc.config)
        assert arc.jump_count == 0
        ref = solve_ivp(
            lambda t, y: sc.system.flow_map(y),
            (0.0, 2.0),
            sc.x0,
            method="LSODA",
            rtol=1e-11,
            atol=1e-11,
        )
        assert ref.success
        assert np.max(np.abs(arc.final_state - ref.y[:, -1])) <= 1e-6

    def test_unit_norm_drift_bounded(self):
        sc = make_scenario("adaptive", q0=-1.0)
        arc = solve(sc.system, sc.x0, sc.config)
        worst = max(
            abs(math.hypot(s[1], s[2]) - 1.0) for _, _, s in arc.iter_samples()
        )
        assert worst <= 1e-9

    def test_chart_flip_on_forced_jump(self):
        # Start inside the jump set: the controller state must flip to the
        # chart with the smaller potential at t = 0.
        sc = make_scenario("adaptive", q0=-1.0, z_init=(1.8, -1.0))
        arc = solve(sc.system, sc.x0, sc.config)
        rec = arc.jump_records[0]
        assert rec.t == 0.0
        assert rec.before[3] == -1.0
        assert rec.after[3] == 1.0
        assert np.array_equal(rec.before[:3], rec.after[:3])

    def test_mid_flight_switch_located_on_boundary(self):
        sc = make_scenario(
            "adaptive",
            q0=1.0,
            z_init=(2.0, 0.2),
            margin=0.3,
            theta_hat0=(-1.0, -1.0),
        )
        arc = solve(sc.system, sc.x0, sc.config)
        mid = [r for r in arc.jump_records if r.t > 0.0]
        assert mid, "expected a mid-flight switch"
        for rec in mid:
            boundary = sc.switching_gap(rec.before) - sc.margin_at(rec.before)
            assert abs(boundary) <= sc.config.event_tol

    @pytest.mark.xfail(strict=True, raises=IntegrationStalled)
    def test_start_near_the_disk_runs(self):
        # A start 1e-6 off the disk takes legitimately tiny first steps,
        # which the absolute MIN_STEP stall rule reads as a stall.
        z_init = (1.5 + 1e-6, 0.0)
        sc = make_scenario("backstep", q0=-1.0, z_init=z_init, u0="zero")
        arc = solve(sc.system, sc.x0, sc.config)
        assert arc.final_time == sc.config.t_max
