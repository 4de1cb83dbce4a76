"""Geometry, chart potentials, nominal controller, scenario factories."""

import math

import numpy as np
import pytest

from hybridfb import (
    ChartSingular,
    DomainEscape,
    SolverConfig,
    InsideObstacle,
    ObstacleDisk,
    build_nominal_controller,
    central_difference,
    chart,
    chart_jacobian,
    chart_potential,
    chart_potential_gradient,
    from_cylinder,
    gap_value,
    gradient_feedback,
    gradient_feedback_jacobian,
    make_scenario,
    min_over_candidates,
    select_jump,
    solve,
    to_cylinder,
)
from hybridfb.obstacle import cylinder_input_matrix, renormalize_circle
from hybridfb.runner import _random_cylinder_states, jacobian_suite

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


class TestChart:
    def test_example_value(self):
        assert chart(np.array([0.5, 1.0, 0.0]), 1.0) == pytest.approx(
            np.array([0.5, 1.0])
        )

    def test_equator_agrees_for_both_charts(self):
        x = np.array([0.3, 1.0, 0.0])
        assert chart(x, 1.0)[1] == chart(x, -1.0)[1] == x[1]

    def test_singular_point_raises(self):
        with pytest.raises(ChartSingular):
            chart(np.array([0.0, 0.0, 1.0]), 1.0)
        with pytest.raises(ChartSingular):
            chart_jacobian(np.array([0.0, 0.0, -1.0]), -1.0)

    def test_chart_index_validated(self):
        with pytest.raises(ValueError):
            chart(np.array([0.0, 1.0, 0.0]), 0.5)


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
                assert math.isfinite(gap_value(ctrl, x, np.array([q])))

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


class TestNominalController:
    def test_gap_zero_on_equator(self):
        ctrl = build_nominal_controller(OBS)
        x = np.array([0.7, 1.0, 0.0])
        for q in (-1.0, 1.0):
            assert gap_value(ctrl, x, np.array([q])) == 0.0

    def test_gap_infinite_at_chart_boundary(self):
        ctrl = build_nominal_controller(OBS)
        x = np.array([0.2, 0.0, 1.0])
        assert gap_value(ctrl, x, np.array([1.0])) == math.inf

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
        with pytest.raises(ValueError):
            build_nominal_controller(OBS, margin=lambda x, xi: -1.0)

    def test_state_dependent_margin_accepted(self):
        ctrl = build_nominal_controller(OBS, margin=lambda x, xi: 1.0 + 0.1 * x[0] ** 2)
        assert ctrl.margin(np.array([2.0, 1.0, 0.0]), np.array([1.0])) == 1.4


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

    def test_backstep_explicit_input(self):
        sc = make_scenario("backstep", q0=1.0, u0=np.array([0.1, 0.2]))
        assert sc.x0[6:8].tolist() == [0.1, 0.2]

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


class TestClosedLoopGeometry:
    def test_renormalize_collapsed_circle_raises(self):
        state = np.array([0.2, 0.0, 0.0, 1.0])
        with pytest.raises(DomainEscape, match="collapsed") as info:
            renormalize_circle(state)
        assert info.value.state is state

    def test_agrees_with_independent_integrator(self):
        # Method-independent check of the whole closed-loop right-hand
        # side: a jump-free window integrated by LSODA at tight tolerance
        # must land on the same endpoint.
        from scipy.integrate import solve_ivp

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
