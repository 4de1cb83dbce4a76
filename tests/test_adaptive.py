"""Projection law, adaptive and backstepping lifts and their gaps."""

import math

import numpy as np
import pytest

from hybridfb import (
    AffinePlant,
    BackstepGains,
    ControllerData,
    NonFiniteJacobian,
    ParamBall,
    SolverConfig,
    adaptive_true_potential,
    ball_distance,
    ball_excess,
    central_difference,
    estimate_flow,
    lift_adaptive,
    lift_backstep,
    make_scenario,
    monitor_flow_decrease,
    monitor_jump_decrease,
    min_over_candidates,
    project_rate,
    reset_estimate,
    solve,
)
from hybridfb.obstacle import _flow_terms, gradient_feedback_jacobian
from hybridfb.runner import (
    _disk_rows,
    _drop_objective,
    _generic_ball,
    _grid_min_distance,
    _norm,
    _random_ball,
    _random_cylinder_states,
    _row_search_max,
    ball_distance_oracle_suite,
    projection_inequality_suite,
    projection_lipschitz_suite,
    reset_estimate_oracle_suite,
)

UNIT_BALL = ParamBall(radius=1.0, eps=1.0, gain=np.eye(2))


class TestBallTypes:
    def test_param_ball_validation(self):
        with pytest.raises(ValueError):
            ParamBall(radius=0.0, eps=1.0, gain=np.eye(2))
        with pytest.raises(ValueError):
            ParamBall(radius=1.0, eps=0.0, gain=np.eye(2))
        with pytest.raises(ValueError):
            ParamBall(radius=1.0, eps=1.0, gain=np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            ParamBall(radius=1.0, eps=1.0, gain=np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "radius, eps, gain",
        [
            (math.nan, 1.0, np.eye(2)),
            (math.inf, 1.0, np.eye(2)),
            (1.0, math.nan, np.eye(2)),
            (1.0, math.inf, np.eye(2)),
            (1.0, 1.0, np.diag([math.inf, 1.0])),
        ],
        ids=["radius-nan", "radius-inf", "eps-nan", "eps-inf", "gain-inf"],
    )
    def test_param_ball_rejects_non_finite(self, radius, eps, gain):
        with pytest.raises(ValueError, match="finite"):
            ParamBall(radius=radius, eps=eps, gain=gain)

    @pytest.mark.parametrize(
        "radius, eps, gain, match",
        [
            (1e-320, 1.0, np.eye(2), r"radius\*\*2 = 0,"),
            (1e-200, 1e-200, np.eye(2), r"radius\*\*2 = 0,"),
            (1e160, 1.0, np.eye(2), r"radius\*\*2 = inf,"),
            (1e-150, 1e-200, np.eye(2), r"eps\*\*2 \+ 2\*eps\*radius = 0,"),
            (1.0, 1e160, np.eye(2), r"eps\*\*2 \+ 2\*eps\*radius = inf,"),
            (1.0, 1e300, np.eye(2), r"eps\*\*2 \+ 2\*eps\*radius = inf,"),
            (1.0, 1.0, 1e-320 * np.eye(2), "finite inverse"),
        ],
        ids=["radius-sq-underflow", "tiny-radius-and-eps", "radius-sq-overflow",
             "excess-scale-underflow", "eps-1e160", "eps-1e300", "gain-inverse-inf"],
    )
    def test_param_ball_rejects_unusable_derived_constants(
        self, radius, eps, gain, match
    ):
        # The squared radius, the excess scale and the gain's inverse must
        # each be positive and finite; nothing overflows on the way.
        with pytest.raises(ValueError, match=match):
            ParamBall(radius=radius, eps=eps, gain=gain)

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_param_ball_keeps_wide_radius_and_eps(self, scale):
        ball = ParamBall(radius=scale, eps=scale, gain=np.eye(2))
        assert ball.radius_sq == scale * scale
        assert ball.excess_scale == pytest.approx(3.0 * scale * scale, rel=1e-15)

    def test_scalar_gain_detection(self):
        assert ParamBall(1.0, 1.0, 2.5 * np.eye(3)).scalar_gain == 2.5
        general = ParamBall(1.0, 1.0, np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert general.scalar_gain is None

    def test_backstep_gains_validation(self):
        with pytest.raises(ValueError):
            BackstepGains(gain=np.eye(2), damping=0.0)
        with pytest.raises(ValueError):
            BackstepGains(gain=-np.eye(2), damping=1.0)

    def test_backstep_gain_inverse_must_be_finite(self):
        with pytest.raises(ValueError, match="inverse"):
            BackstepGains(gain=1e-320 * np.eye(2), damping=1.0)

    @pytest.mark.parametrize("damping", [math.nan, math.inf])
    def test_backstep_damping_must_be_finite(self, damping):
        with pytest.raises(ValueError, match="finite"):
            BackstepGains(gain=np.eye(2), damping=damping)


class TestBallExcess:
    def test_at_origin(self):
        # (0 - 1) / (1 + 2) with unit radius and margin
        assert ball_excess(np.zeros(2), UNIT_BALL) == pytest.approx(-1.0 / 3.0)

    def test_on_admissible_boundary(self):
        assert ball_excess(np.array([1.0, 0.0]), UNIT_BALL) == pytest.approx(0.0)

    def test_on_inflated_boundary(self):
        assert ball_excess(np.array([0.0, 2.0]), UNIT_BALL) == pytest.approx(1.0)


class TestProjectRate:
    def test_inside_ball_passthrough(self):
        eta = np.array([5.0, -7.0])
        out = project_rate(eta, np.zeros(2), UNIT_BALL)
        assert np.array_equal(out, eta)

    def test_outward_rate_cancelled_on_inflated_boundary(self):
        out = project_rate(np.array([1.0, 0.0]), np.array([2.0, 0.0]), UNIT_BALL)
        assert out == pytest.approx(np.zeros(2), abs=1e-15)

    def test_tangential_rate_unchanged(self):
        eta = np.array([0.0, 1.0])
        out = project_rate(eta, np.array([2.0, 0.0]), UNIT_BALL)
        assert np.array_equal(out, eta)

    def test_inward_rate_unchanged_outside(self):
        eta = np.array([-3.0, 0.0])
        out = project_rate(eta, np.array([1.5, 0.0]), UNIT_BALL)
        assert np.array_equal(out, eta)

    @pytest.mark.parametrize("theta_hat", [(0.0, 0.0), (-0.0, -0.0), (0.3, -0.4)])
    def test_passthrough_keeps_bits(self, theta_hat):
        # Inside the admissible ball, the drive comes back bit for bit,
        # signed zeros included, at the origin and at -0.0.
        for eta in ([5.0, -7.0], [-0.0, 0.0], [1e-300, -1e300]):
            out = project_rate(eta, theta_hat, UNIT_BALL)
            assert np.array(out).tobytes() == np.array(eta).tobytes()

    @pytest.mark.parametrize("eta", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_drive_propagates(self, eta):
        # Inside the ball the drive passes through; outside, a NaN outward
        # component takes the correction branch and reaches both entries.
        inside = project_rate(list(eta), [0.1, 0.2], UNIT_BALL)
        assert [math.isnan(v) for v in inside] == [math.isnan(v) for v in eta]
        outside = project_rate(list(eta), [1.5, 0.5], UNIT_BALL)
        assert all(math.isnan(v) for v in outside)

    def test_matches_numpy_formula(self):
        # The written-out sums against numpy's ``@`` (a BLAS dot that a
        # kernel may fuse): the same formula, within a few rounding errors.
        rng = np.random.default_rng(12)
        eps = np.finfo(float).eps
        hits = 0
        for _ in range(2000):
            theta_hat = rng.normal(size=2) * rng.uniform(0.5, 2.0)
            eta = rng.normal(scale=2.0, size=2)
            grad = 2.0 * theta_hat / UNIT_BALL.excess_scale
            p = ball_excess(theta_hat, UNIT_BALL)
            outward = float(grad @ eta)
            expected = eta
            if p > 0.0 and outward > 0.0:
                expected = eta - (p * outward / float(grad @ grad)) * grad
                hits += 1
            out = project_rate(eta, theta_hat, UNIT_BALL)
            assert np.allclose(out, expected, rtol=8 * eps, atol=8 * eps * np.abs(eta).max())
        assert hits > 200

    def test_matches_adaptive_flow_map(self):
        # With the identity gain, the adaptive flow map's estimate rate is
        # the projected drive, bit for bit, on and around the ball boundary.
        sc = make_scenario("adaptive", q0=-1.0)
        ball = sc.ball
        rng = np.random.default_rng(13)
        radii = [0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5, 2.0 - 1e-12, 2.0]
        states = _random_cylinder_states(rng, sc.obstacle, 40)
        projected = 0
        for x, q in states:
            e1, v1, v2, b11, b12, b21, cross, b32, _, _ = _flow_terms(
                *x.tolist(), q, sc.obstacle
            )
            drive = [b11 * e1 + b21 * v1 + cross * v2, b12 * e1 + cross * v1 + b32 * v2]
            for radius in radii:
                angle = rng.uniform(0.0, 2.0 * math.pi)
                theta_hat = [radius * math.cos(angle), radius * math.sin(angle)]
                rate = sc.system.flow_map(np.concatenate([x, [q], theta_hat]))[4:6]
                out = project_rate(drive, theta_hat, ball)
                assert np.array(out).tobytes() == np.array(rate, dtype=float).tobytes()
                projected += out != drive
        assert projected > 20

    def test_error_alignment_inequality(self):
        result = projection_inequality_suite(seed=2024)
        assert result.passed, result.detail

    def test_lipschitz_probe(self):
        result = projection_lipschitz_suite(seed=2024)
        assert result.passed, result.detail


class TestBallDistance:
    def test_inside_is_zero(self):
        dist_sq, nearest = ball_distance(np.array([0.3, 0.4]), UNIT_BALL)
        assert dist_sq == 0.0
        assert nearest.tolist() == [0.3, 0.4]

    def test_inside_test_is_numpy_norm(self):
        # The inside-ball test must agree bit for bit with np.linalg.norm,
        # so no estimate (least of all a just-reset one on the sphere)
        # changes sides.
        rng = np.random.default_rng(11)
        states = rng.normal(scale=2.0, size=(300, 8))
        vectors = [rng.normal(scale=s, size=d) for s in (1e-3, 1.0, 1e3) for d in (2, 3)]
        vectors += [row[4:6] for row in states]
        vectors += [row[1::3] for row in states] + [row[::-4] for row in states]
        # Norms 5, 1 and 7 exactly.
        vectors += [np.array([3.0, 4.0]), np.array([0.0, -1.0]), np.array([2.0, 3.0, 6.0])]
        for v in vectors:
            norm = float(np.linalg.norm(v))
            assert math.sqrt(float(v.dot(v))) == norm
            on_sphere = ParamBall(radius=norm, eps=1.0, gain=np.eye(len(v)))
            dist_sq, nearest = ball_distance(v, on_sphere)
            assert dist_sq == 0.0
            assert nearest.tolist() == v.tolist()

    def test_scalar_gain_closed_form(self):
        dist_sq, nearest = ball_distance(np.array([2.0, 0.0]), UNIT_BALL)
        assert dist_sq == pytest.approx(1.0)
        assert nearest == pytest.approx(np.array([1.0, 0.0]))

    def test_scalar_gain_scales_distance(self):
        ball = ParamBall(radius=1.0, eps=1.0, gain=4.0 * np.eye(2))
        dist_sq, _ = ball_distance(np.array([0.0, 1.5]), ball)
        assert dist_sq == pytest.approx(0.5**2 / 4.0)

    def test_general_gain_kkt_conditions(self):
        rng = np.random.default_rng(3)
        basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        ill_3x3 = (basis * np.array([1e-4, 1.0, 1e3])) @ basis.T
        tilted = np.array([[2.0, 0.4], [0.4, 0.7]])
        eigvec = np.linalg.eigh(tilted)[1][:, 0]
        cases = [
            (tilted, np.array([1.6, -0.9])),
            # Nearly singular gain: a multiplier near 5e12.
            (np.diag([1e-13, 1.0]), np.array([1.5, 0.3])),
            # 3x3 gain with condition number 1e7.
            (0.5 * (ill_3x3 + ill_3x3.T), np.array([1.2, -0.7, 0.9])),
            # Estimate along a gain eigenvector.
            (tilted, 1.7 * eigvec),
        ]
        for gain, theta_hat in cases:
            ball = ParamBall(radius=1.0, eps=1.0, gain=gain)
            dist_sq, nearest = ball_distance(theta_hat, ball)
            # nearest sits on the ball boundary, never outside it ...
            assert np.linalg.norm(nearest) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(nearest) <= ball.radius + 1e-9
            # ... and the metric residual is anti-parallel to it (KKT with
            # a nonnegative multiplier)
            residual = ball.gain_inv @ (nearest - theta_hat)
            lam = -float(residual @ nearest) / float(nearest @ nearest)
            assert lam >= 0.0
            assert residual + lam * nearest == pytest.approx(
                np.zeros(len(theta_hat)), abs=1e-8
            )
            diff = theta_hat - nearest
            assert dist_sq == pytest.approx(float(diff @ ball.gain_inv @ diff))

    def test_general_gain_grid_oracle(self):
        result = ball_distance_oracle_suite(seed=5, n=100)
        assert result.passed, result.detail


class TestGridMinDistance:
    # Off-diagonal 9.9 times the leading entry: on most grid rows the
    # parabola's vertex lies outside the row, so a row end wins.
    ANISOTROPIC = np.array([[1.0, 9.9], [9.9, 100.0]])

    @pytest.mark.parametrize("resolution", [2e-2, 1e-2])
    def test_matches_brute_force(self, resolution):
        rng = np.random.default_rng(21)
        metrics = [_generic_ball(rng).gain_inv for _ in range(3)]
        metrics += [self.ANISOTROPIC, self.ANISOTROPIC * [[1.0, -1.0], [-1.0, 1.0]]]
        rows = _disk_rows(resolution, 1.0)
        grid = rows.points()
        points = np.array(
            [_random_ball(rng, 2, 2.0) for _ in range(60)]
            + [[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.3, -0.7], grid[7], grid[-3]]
        )
        assert np.any(np.linalg.norm(points, axis=1) < 1.0)
        assert np.any(np.linalg.norm(points, axis=1) > 1.0)
        for metric in metrics:
            fast = _grid_min_distance(rows, metric, points)
            for p, value in zip(points, fast):
                diff = grid - p
                brute = float(np.min(np.einsum("ij,jk,ik->i", diff, metric, diff)))
                assert abs(value - brute) <= 1e-12

    @pytest.mark.parametrize(
        "resolution, radius", [(1e-3, 1.0), (1e-2, 2.0), (2e-2, 1.0), (3e-3, 0.7)]
    )
    def test_grid_disk_matches_meshgrid_reference(self, resolution, radius):
        axis = np.arange(-radius, radius + resolution / 2.0, resolution)
        gx, gy = np.meshgrid(axis, axis)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        reference = pts[np.einsum("ij,ij->i", pts, pts) <= radius**2]
        rows = _disk_rows(resolution, radius)
        assert np.array_equal(rows.axis, axis)
        assert np.all(rows.first <= rows.last)
        grid = rows.points()
        assert grid.shape == reference.shape
        assert np.array_equal(grid, reference)
        row_first, row_last = rows.flat_bounds()
        assert np.array_equal(grid[row_first, 0], axis[rows.first])
        assert np.array_equal(grid[row_last, 0], axis[rows.last])
        assert np.array_equal(grid[row_first, 1], rows.y)
        assert row_first[0] == 0 and row_last[-1] == len(grid) - 1
        assert np.array_equal(row_first[1:], row_last[:-1] + 1)


class TestResetRowSearch:
    """``_row_search_max`` against a scan of every lattice point."""

    @staticmethod
    def _inputs(rng, grid, metric):
        thetas = [_random_ball(rng, 2, 2.0) for _ in range(40)]
        # Cone tips on a lattice point, at the centre, on and beyond the
        # lattice's rim.
        thetas += [grid[11], grid[len(grid) // 2], grid[-5], [0.0, 0.0]]
        thetas += [[2.0, 0.0], [0.0, -2.0], [1.9, 1.9], [-3.0, 0.5]]
        thetas = np.array(thetas, dtype=float)
        mth = np.array([metric @ th for th in thetas])
        mth_sq = np.array([m @ m for m in mth])
        return mth, mth_sq

    @pytest.mark.parametrize("resolution", [2e-2, 1e-2])
    def test_matches_exhaustive_scan(self, resolution):
        rng = np.random.default_rng(33)
        metrics = [_generic_ball(rng).gain_inv for _ in range(3)]
        metrics += [
            TestGridMinDistance.ANISOTROPIC,
            TestGridMinDistance.ANISOTROPIC * [[1.0, -1.0], [-1.0, 1.0]],
            np.eye(2),
        ]
        rows = _disk_rows(resolution, 2.0)
        grid = rows.points()
        row_first, row_last = rows.flat_bounds()
        every = np.arange(len(grid))[None, :]
        for metric in metrics:
            value = _drop_objective(grid, metric, 1.0)
            mth, mth_sq = self._inputs(rng, grid, metric)
            found = _row_search_max(
                lambda idx: value(idx, mth, mth_sq), row_first, row_last, len(mth)
            )
            for k in range(len(mth)):
                scan = value(every, mth[k : k + 1], mth_sq[k : k + 1])
                assert found[k] == np.max(scan)

    def test_values_match_full_scan_formula(self):
        # Gathered points get the bits a product over the whole lattice
        # gives them, so the oracle's maxima are those of a full scan.
        rng = np.random.default_rng(34)
        grid = _disk_rows(1e-2, 2.0).points()
        for metric in [_generic_ball(rng).gain_inv for _ in range(3)]:
            value = _drop_objective(grid, metric, 1.0)
            grid_metric = grid @ metric.T
            grid_metric_sq = np.einsum("ij,ij->i", grid_metric, grid_metric)
            grid_quad = np.einsum("ij,ij->i", grid, grid_metric)
            mth, mth_sq = self._inputs(rng, grid, metric)
            idx = rng.integers(0, len(grid), size=(len(mth), 300))
            gathered = value(idx, mth, mth_sq)
            for k in range(len(mth)):
                dist_sq = grid_metric_sq - 2.0 * grid_metric @ mth[k] + mth[k] @ mth[k]
                scan = -2.0 * np.sqrt(np.maximum(dist_sq, 0.0)) - grid_quad
                assert np.array_equal(gathered[k], scan[idx[k]])

    def test_window_finds_peak_past_a_misleading_bisection(self):
        # A row that rises, dips one point below its neighbour and peaks
        # right after: bisection ends at index 3, one short of the peak
        # at index 5, which only the window reaches.
        row = np.array([0.0, 1.0, 2.0, 3.0, 2.9, 3.1, 1.0, 0.0])
        first, last = np.array([0]), np.array([len(row) - 1])
        assert _row_search_max(lambda idx: row[idx], first, last, 1) == [3.1]


def _written_out_norm(v) -> float:
    """The 2-norm with its squares added left to right from 0.0, on floats."""
    total = 0.0
    for x in np.asarray(v, dtype=float).tolist():
        total += x * x
    return math.sqrt(total)


class TestSuiteNorms:
    """``_norm`` is the written-out 2-norm, whose bits no BLAS kernel changes.

    ``np.linalg.norm`` is a BLAS dot, which a kernel may fuse; ``_norm``
    must equal the written-out reference bit for bit and lie within 8
    epsilons of ``np.linalg.norm`` (1.2 seen).
    """

    def test_norm_matches_linalg_norm(self):
        rng = np.random.default_rng(8)
        eps = np.finfo(float).eps
        for dim in (1, 2, 3, 8):
            for scale in (1e-300, 1e-8, 1.0, 1e8, 1e150):
                for v in scale * rng.normal(size=(500, dim)):
                    assert _norm(v) == _written_out_norm(v)
                    assert math.isclose(_norm(v), np.linalg.norm(v), rel_tol=8 * eps)

    @pytest.mark.parametrize("dim, radius", [(2, 2.0), (2, 1.0), (3, 0.5), (8, 3.0)])
    def test_random_ball_matches_linalg_norm_reference(self, dim, radius):
        ours, reference = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2000):
            direction = reference.normal(size=dim)
            direction /= _written_out_norm(direction)
            expected = radius * reference.uniform() ** (1.0 / dim) * direction
            assert np.array(_random_ball(ours, dim, radius)).tobytes() == expected.tobytes()


class TestResetEstimate:
    def test_inside_unchanged(self):
        out = reset_estimate(np.array([0.3, 0.4]), UNIT_BALL)
        assert out.tolist() == [0.3, 0.4]

    def test_outside_rescaled_to_boundary(self):
        out = reset_estimate(np.array([2.0, 0.0]), UNIT_BALL)
        assert out == pytest.approx(np.array([1.0, 0.0]))

    def test_objective_grid_oracle(self):
        result = reset_estimate_oracle_suite(seed=5, n=100)
        assert result.passed, result.detail


class TestRobustGap:
    @staticmethod
    def _nominal():
        cands = [np.array([-1.0]), np.array([1.0])]
        values = {-1.0: 1.0, 1.0: 3.0}
        return ControllerData(
            n_state=1,
            feedback=lambda x, xi: np.zeros(2),
            potential=lambda x, xi: values[float(xi[0])],
            candidates=lambda x, xi: cands,
            controller_flow=lambda x, xi: np.zeros(1),
            margin=1.0,
        )

    @staticmethod
    def _robust_gap(nominal, x, xi_c, theta_hat):
        lifted = lift_adaptive(
            nominal, simple_plant(), UNIT_BALL,
            grad_potential=lambda x, xi: np.zeros_like(x),
        )
        return lifted.gap(x, np.concatenate([xi_c, theta_hat]))

    def test_estimate_inside_gives_nominal_gap(self):
        nominal = self._nominal()
        x = np.zeros(1)
        gap = self._robust_gap(nominal, x, np.array([1.0]), np.array([0.5, 0.0]))
        assert gap == nominal.gap(x, np.array([1.0])) == 2.0

    def test_estimate_outside_adds_half_distance(self):
        nominal = self._nominal()
        gap = self._robust_gap(
            nominal, np.zeros(1), np.array([1.0]), np.array([2.0, 0.0])
        )
        assert gap == pytest.approx(2.0 + 0.5)

    def test_lower_bounds_true_parameter_gap(self):
        rng = np.random.default_rng(99)
        nominal = self._nominal()
        x = np.zeros(1)
        for _ in range(200):
            theta_hat = rng.normal(size=2) * 1.5
            theta = rng.normal(size=2)
            theta *= min(1.0, 1.0 / np.linalg.norm(theta))
            true_gap = nominal.gap(x, np.array([1.0])) + 0.5 * float(
                (theta - theta_hat) @ (theta - theta_hat)
            )
            robust = self._robust_gap(nominal, x, np.array([1.0]), theta_hat)
            assert robust <= true_gap + 1e-12


def simple_plant():
    """Identity-channel plant: xdot = u + theta on the plane."""
    eye2 = np.eye(2)
    return AffinePlant(
        drift=lambda x, xi: np.zeros(2),
        input_matrix=lambda x, xi: eye2,
        matched_matrix=lambda x, xi: eye2,
        n_x=2,
        n_u=2,
    )


def quadratic_gradient(x, xi):
    """Gradient of :func:`quadratic_nominal`'s potential |x|^2/2."""
    return x


def minus_identity_jacobian(x, xi):
    """x-Jacobian of a feedback ``-x`` plus terms free of ``x``."""
    return -np.eye(len(x))


def quadratic_nominal():
    """Single-candidate controller with V = |x|^2/2 and gradient feedback."""
    cands = [np.array([0.0])]
    return ControllerData(
        n_state=1,
        feedback=lambda x, xi: -x,
        potential=lambda x, xi: 0.5 * float(x @ x),
        candidates=lambda x, xi: cands,
        controller_flow=lambda x, xi: np.zeros(1),
        margin=1.0,
    )


class TestEstimateFlow:
    def test_zero_gradient_gives_zero_flow(self):
        plant = simple_plant()
        out = estimate_flow(
            np.zeros(2),
            np.zeros(1),
            np.array([0.4, 0.1]),
            plant,
            UNIT_BALL,
            grad_potential=lambda x, xi: np.zeros(2),
        )
        assert out == pytest.approx(np.zeros(2))

    def test_identity_gain_inside_ball_is_plain_drive(self):
        plant = simple_plant()
        x = np.array([0.7, -0.2])
        out = estimate_flow(
            x,
            np.zeros(1),
            np.zeros(2),
            plant,
            UNIT_BALL,
            grad_potential=lambda x_, xi: x_,
        )
        assert out == pytest.approx(x)

    def test_radial_flow_vanishes_on_inflated_boundary(self):
        plant = simple_plant()
        direction = np.array([0.6, 0.8])
        theta_hat = 2.0 * direction
        out = estimate_flow(
            np.ones(2),
            np.zeros(1),
            theta_hat,
            plant,
            UNIT_BALL,
            grad_potential=lambda x, xi: 3.0 * direction,
        )
        assert abs(float(out @ direction)) <= 1e-12


class TestLiftAdaptive:
    def test_zero_estimate_recovers_nominal_feedback(self):
        ctrl = lift_adaptive(
            quadratic_nominal(), simple_plant(), UNIT_BALL, quadratic_gradient
        )
        x = np.array([1.0, 2.0])
        xi1 = np.array([0.0, 0.0, 0.0])
        assert ctrl.feedback(x, xi1) == pytest.approx(-x)

    def test_feedback_subtracts_matched_compensation(self):
        ctrl = lift_adaptive(
            quadratic_nominal(), simple_plant(), UNIT_BALL, quadratic_gradient
        )
        x = np.array([1.0, 2.0])
        xi1 = np.array([0.0, 0.3, -0.4])
        assert ctrl.feedback(x, xi1) == pytest.approx(-x - np.array([0.3, -0.4]))

    def test_jump_candidates_pair_minimizer_with_reset(self):
        nominal = quadratic_nominal()
        ctrl = lift_adaptive(nominal, simple_plant(), UNIT_BALL, quadratic_gradient)
        x = np.array([1.0, 0.0])
        theta_hat = np.array([1.5, 0.0])
        cands = ctrl.candidates(x, np.concatenate([[0.0], theta_hat]))
        assert len(cands) == 1
        assert cands[0][:1].tolist() == [0.0]
        assert cands[0][1:] == pytest.approx(reset_estimate(theta_hat, UNIT_BALL))

    def test_true_potential_at_exact_estimate_equals_nominal(self):
        nominal = quadratic_nominal()
        ctrl = lift_adaptive(nominal, simple_plant(), UNIT_BALL, quadratic_gradient)
        theta = np.array([0.5, -0.5])
        v_true = adaptive_true_potential(ctrl, theta)
        x = np.array([2.0, 1.0])
        xi1 = np.concatenate([[0.0], theta])
        assert v_true(x, xi1) == nominal.potential(x, np.array([0.0]))

    def test_implementable_gap_is_robust_gap(self):
        nominal = quadratic_nominal()
        ball = ParamBall(radius=1.0, eps=1.0, gain=np.array([[1.5, 0.2], [0.2, 0.8]]))
        ctrl = lift_adaptive(nominal, simple_plant(), ball, quadratic_gradient)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=2)
            theta_hat = rng.normal(size=2) * 1.2
            xi1 = np.concatenate([[0.0], theta_hat])
            lifted = ControllerData.gap(ctrl, x, xi1)
            direct = ctrl.gap(x, xi1)
            assert lifted == pytest.approx(direct, abs=1e-12)

    def test_gradient_is_required(self):
        with pytest.raises(TypeError, match="grad_potential"):
            lift_adaptive(quadratic_nominal(), simple_plant(), UNIT_BALL)

    def test_controller_flow_stacks_estimate_law(self):
        nominal = quadratic_nominal()
        plant = simple_plant()
        ctrl = lift_adaptive(
            nominal, plant, UNIT_BALL, grad_potential=lambda x, xi: x
        )
        x = np.array([0.5, 0.25])
        xi1 = np.zeros(3)
        rate = ctrl.controller_flow(x, xi1)
        assert rate[:1] == pytest.approx(np.zeros(1))
        assert rate[1:] == pytest.approx(x)


class TestFeedbackJacobian:
    def test_scalar_function_gives_gradient(self):
        x = np.array([1.0, -2.0])
        grad = central_difference(lambda p: 0.5 * float(p @ p), x)
        assert grad.shape == (2,)
        assert grad == pytest.approx(x, abs=1e-8)

    def test_linear_feedback_exact(self):
        mat = np.array([[1.0, 2.0], [-0.5, 0.3]])
        jac = central_difference(lambda x: mat @ x, np.array([0.4, 0.8]))
        assert jac == pytest.approx(mat, abs=1e-9)

    def test_constant_feedback_zero(self):
        jac = central_difference(lambda x: np.array([2.0, 3.0]), np.array([1.0, 1.0]))
        assert jac == pytest.approx(np.zeros((2, 2)), abs=1e-12)

    def test_singular_probe_raises(self):
        def feedback(x):
            if x[0] > 1.0:
                raise_from = math.inf
                return np.array([raise_from])
            return np.array([0.0])

        with pytest.raises(NonFiniteJacobian):
            central_difference(feedback, np.array([1.0]))

    def test_obstacle_analytic_matches_fd(self):
        scenario = make_scenario("adaptive", q0=1.0)
        ctrl = scenario.controller
        x = scenario.x0[:3]
        xi1 = np.array([1.0, 0.2, -0.1])
        analytic = gradient_feedback_jacobian(x, 1.0, scenario.obstacle)
        numeric = central_difference(lambda p: ctrl.feedback(p, xi1), x)
        scale = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(analytic - numeric)) / scale <= 1e-6


def _backstep_rates(adaptive, gains, x, xi2, jac):
    """Estimate and input rates of the backstepping controller flow.

    With a unit adaptation gain and the estimate inside the admissible
    ball, the estimate rate equals the adaptation drive.
    """
    n_nom = adaptive.nominal.n_state
    flow = lift_backstep(adaptive, gains, jac=jac).controller_flow(x, xi2)
    return flow[n_nom:adaptive.n_state], flow[adaptive.n_state:]


class TestBackstepDrive:
    def test_reduces_to_plain_drive_on_manifold(self):
        adaptive = lift_adaptive(
            quadratic_nominal(), simple_plant(), UNIT_BALL,
            grad_potential=lambda x, xi: x,
        )
        gains = BackstepGains(gain=np.eye(2), damping=1.0)
        x = np.array([0.8, -0.6])
        theta_hat = np.array([0.2, 0.1])
        xi1 = np.concatenate([[0.0], theta_hat])
        u = adaptive.feedback(x, xi1)
        xi2 = np.concatenate([xi1, u])
        drive, _ = _backstep_rates(adaptive, gains, x, xi2, minus_identity_jacobian)
        assert drive == pytest.approx(x, abs=1e-9)

    def test_zero_at_origin_on_manifold(self):
        adaptive = lift_adaptive(
            quadratic_nominal(), simple_plant(), UNIT_BALL,
            grad_potential=lambda x, xi: x,
        )
        gains = BackstepGains(gain=np.eye(2), damping=1.0)
        x = np.zeros(2)
        xi1 = np.array([0.0, 0.3, 0.1])
        u = adaptive.feedback(x, xi1)
        xi2 = np.concatenate([xi1, u])
        drive, _ = _backstep_rates(adaptive, gains, x, xi2, minus_identity_jacobian)
        assert drive == pytest.approx(np.zeros(2), abs=1e-9)

    def test_correction_term_sign(self):
        # With V = |x|^2/2 the lifted feedback has x-Jacobian -I, so the
        # drive is x + gain^{-1} (u - kappa1).
        gamma2 = np.array([[2.0, 0.0], [0.0, 0.5]])
        adaptive = lift_adaptive(
            quadratic_nominal(), simple_plant(), UNIT_BALL,
            grad_potential=lambda x, xi: x,
        )
        gains = BackstepGains(gain=gamma2, damping=1.0)
        x = np.array([1.0, 1.0])
        xi1 = np.array([0.0, 0.0, 0.0])
        u_err = np.array([0.4, -0.2])
        u = adaptive.feedback(x, xi1) + u_err
        xi2 = np.concatenate([xi1, u])
        drive, _ = _backstep_rates(adaptive, gains, x, xi2, minus_identity_jacobian)
        expected = x + np.linalg.inv(gamma2) @ u_err
        assert drive == pytest.approx(expected, abs=1e-9)


class TestInputFlow:
    def test_pure_damping_when_everything_else_vanishes(self):
        # No disturbance channel, flat potential, constant feedback:
        # udot = -damping * (u - kappa1).
        plant = AffinePlant(
            drift=lambda x, xi: np.zeros(2),
            input_matrix=lambda x, xi: np.eye(2),
            matched_matrix=lambda x, xi: np.zeros((2, 2)),
            n_x=2,
            n_u=2,
        )
        const = np.array([1.0, -1.0])
        nominal = ControllerData(
            n_state=1,
            feedback=lambda x, xi: const,
            potential=lambda x, xi: 0.0,
            candidates=lambda x, xi: [np.array([0.0])],
            controller_flow=lambda x, xi: np.zeros(1),
            margin=1.0,
        )
        adaptive = lift_adaptive(
            nominal, plant, UNIT_BALL, grad_potential=lambda x, xi: np.zeros(2)
        )
        gains = BackstepGains(gain=np.eye(2), damping=3.0)
        x = np.array([0.2, 0.4])
        xi1 = np.array([0.0, 0.1, 0.2])
        u = const + np.array([0.5, 0.0])
        xi2 = np.concatenate([xi1, u])
        _, rate = _backstep_rates(
            adaptive, gains, x, xi2, jac=lambda x, xi1: np.zeros((2, 2))
        )
        assert rate == pytest.approx(-3.0 * np.array([0.5, 0.0]), abs=1e-9)

    def test_matches_assembly_from_fd_jacobian(self):
        # Assemble the input rate from its four terms using an
        # independently finite-differenced feedback Jacobian.
        scenario = make_scenario("backstep", q0=1.0)
        ctrl = scenario.controller
        adaptive = ctrl.adaptive
        plant = adaptive.plant
        ball = adaptive.ball
        gains = ctrl.gains
        x = scenario.x0[:3]
        theta_hat = np.array([0.3, -0.2])
        xi1 = np.concatenate([[1.0], theta_hat])
        u = np.array([0.5, 0.8])
        xi2 = np.concatenate([xi1, u])

        jac_fd = central_difference(lambda p: adaptive.feedback(p, xi1), x)
        xi_c = np.array([1.0])
        grad_v = adaptive.grad_potential(x, xi_c)
        psi_t = plant.disturbance_matrix(x, xi_c)
        u_err = u - adaptive.feedback(x, xi1)
        drive = psi_t.T @ grad_v - psi_t.T @ (jac_fd.T @ (gains.gain_inv @ u_err))
        projected = project_rate(drive, theta_hat, ball)
        expected = (
            -plant.matched_matrix(x, xi_c) @ (ball.gain @ projected)
            - gains.damping * u_err
            - gains.gain @ (plant.input_matrix(x, xi_c).T @ grad_v)
            + jac_fd @ plant.f(x, xi_c, u, theta_hat)
        )
        actual = ctrl.controller_flow(x, xi2)[3:]
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(actual - expected)) / scale <= 1e-6

    def test_flowing_nominal_state_matches_assembly_from_fd_jacobian(self):
        # A nominal state that flows between jumps feeds the input rate
        # through the feedback's Jacobian in that state; assemble the rate
        # with finite-differenced Jacobians in both x and the state.
        direction = np.array([1.0, 0.5])
        nominal = ControllerData(
            n_state=1,
            feedback=lambda x, xi: -x + math.sin(xi[0]) * direction,
            potential=lambda x, xi: 0.5 * float(x @ x),
            candidates=lambda x, xi: [np.array([0.0])],
            controller_flow=lambda x, xi: np.array([x[0] - xi[0]]),
            margin=1.0,
        )
        plant = simple_plant()
        adaptive = lift_adaptive(
            nominal, plant, UNIT_BALL, grad_potential=lambda x, xi: x
        )
        gains = BackstepGains(gain=np.array([[2.0, 0.3], [0.3, 1.0]]), damping=1.5)
        ctrl = lift_backstep(
            adaptive, gains, jac=minus_identity_jacobian,
            controller_jacobian=lambda x, xi1: math.cos(xi1[0]) * direction[:, None],
        )
        x = np.array([0.9, -0.4])
        xi_c, theta_hat = np.array([0.3]), np.array([0.2, -0.1])
        xi1 = np.concatenate([xi_c, theta_hat])
        u = np.array([0.5, 0.8])

        jac_x = central_difference(lambda p: adaptive.feedback(p, xi1), x)
        jac_c = central_difference(
            lambda c: adaptive.feedback(x, np.concatenate([c, theta_hat])), xi_c
        )
        f_c = nominal.controller_flow(x, xi_c)
        u_err = u - adaptive.feedback(x, xi1)
        psi_t = plant.disturbance_matrix(x, xi_c)
        drive = psi_t.T @ (x - jac_x.T @ (gains.gain_inv @ u_err))
        estimate_rate = UNIT_BALL.gain @ project_rate(drive, theta_hat, UNIT_BALL)
        without_term = (
            -plant.matched_matrix(x, xi_c) @ estimate_rate
            - gains.damping * u_err
            - gains.gain @ (plant.input_matrix(x, xi_c).T @ x)
            + jac_x @ plant.f(x, xi_c, u, theta_hat)
        )
        expected = without_term + jac_c @ f_c
        flow = ctrl.controller_flow(x, np.concatenate([xi1, u]))
        assert flow[0] == f_c[0] != 0.0
        assert np.max(np.abs(flow[3:] - expected)) <= 1e-6
        assert np.max(np.abs(flow[3:] - without_term)) > 0.1

    def test_tracks_feedback_derivative_along_arc(self):
        # Along a finely sampled backstep flow, the held input's rate and
        # the estimate's rate must reproduce the chain rule for the
        # adaptive feedback: d/dt kappa1 = Dx kappa1 xdot - psi_th thdot.
        config = SolverConfig(t_max=0.5, max_step=1e-3)
        scenario = make_scenario("backstep", q0=-1.0, config=config)
        ctrl = scenario.controller
        adaptive = ctrl.adaptive
        plant = adaptive.plant
        arc = solve(scenario.system, scenario.x0, scenario.config)
        times, states = arc.samples[0]
        worst = 0.0
        for k in range(5, len(times) - 5, 7):
            t_m, t_p = times[k - 1], times[k + 1]
            s_m, s_p = states[k - 1], states[k + 1]
            s = states[k]
            k_m = adaptive.feedback(s_m[:3], s_m[3:6])
            k_p = adaptive.feedback(s_p[:3], s_p[3:6])
            fd_rate = (k_p - k_m) / (t_p - t_m)

            x, xi1 = s[:3], s[3:6]
            xi_c, theta_hat = xi1[:1], xi1[1:]
            u = s[6:8]
            xdot = plant.f(x, xi_c, u, scenario.theta)
            flow = ctrl.controller_flow(x, s[3:])
            theta_dot = flow[1:3]
            jac = gradient_feedback_jacobian(x, xi1[0], scenario.obstacle)
            chain = jac @ xdot - plant.matched_matrix(x, xi_c) @ theta_dot
            scale = max(1.0, float(np.max(np.abs(chain))))
            worst = max(worst, float(np.max(np.abs(fd_rate - chain))) / scale)
        assert worst <= 1e-5


class TestLiftBackstep:
    @staticmethod
    def _controllers(gamma2=None):
        adaptive = lift_adaptive(
            quadratic_nominal(), simple_plant(), UNIT_BALL,
            grad_potential=lambda x, xi: x,
        )
        gains = BackstepGains(
            gain=np.eye(2) if gamma2 is None else gamma2, damping=1.0
        )
        return adaptive, lift_backstep(adaptive, gains, minus_identity_jacobian)

    def test_feedback_jacobian_is_required(self):
        adaptive, _ = self._controllers()
        with pytest.raises(TypeError, match="jac"):
            lift_backstep(adaptive, BackstepGains(gain=np.eye(2), damping=1.0))

    def test_gap_equals_adaptive_gap_on_manifold(self):
        adaptive, backstep = self._controllers()
        x = np.array([1.0, 1.0])
        xi1 = np.array([0.0, 0.4, 0.0])
        u = adaptive.feedback(x, xi1)
        xi2 = np.concatenate([xi1, u])
        assert backstep.gap(x, xi2) == pytest.approx(adaptive.gap(x, xi1), abs=1e-14)

    def test_unit_gain_gap_increment(self):
        adaptive, backstep = self._controllers()
        x = np.array([1.0, 1.0])
        xi1 = np.array([0.0, 0.0, 0.0])
        u = adaptive.feedback(x, xi1) + np.array([0.2, 0.0])
        xi2 = np.concatenate([xi1, u])
        increment = backstep.gap(x, xi2) - adaptive.gap(x, xi1)
        assert increment == pytest.approx(0.02, abs=1e-12)

    def test_jump_resets_input_onto_feedback_exactly(self):
        adaptive, backstep = self._controllers()
        x = np.array([2.0, -1.0])
        xi1 = np.array([0.0, 1.7, 0.3])
        xi2 = np.concatenate([xi1, np.array([5.0, 5.0])])
        for cand in backstep.candidates(x, xi2):
            g1, gu = cand[:3], cand[3:]
            assert np.array_equal(gu, adaptive.feedback(x, g1))

    def test_requires_controller_jacobian_for_flowing_nominal_state(self):
        flowing_nominal = ControllerData(
            n_state=1,
            feedback=lambda x, xi: -x,
            potential=lambda x, xi: 0.5 * float(x @ x),
            candidates=lambda x, xi: [np.array([0.0])],
            controller_flow=lambda x, xi: np.ones(1),
            margin=1.0,
        )
        adaptive = lift_adaptive(
            flowing_nominal, simple_plant(), UNIT_BALL,
            grad_potential=lambda x, xi: x,
        )
        backstep = lift_backstep(
            adaptive, BackstepGains(gain=np.eye(2), damping=1.0),
            minus_identity_jacobian,
        )
        xi2 = np.concatenate([np.zeros(3), np.zeros(2)])
        with pytest.raises(ValueError):
            backstep.controller_flow(np.ones(2), xi2)

    def test_flow_uses_corrected_drive(self):
        adaptive, backstep = self._controllers()
        x = np.array([0.5, 0.5])
        xi1 = np.array([0.0, 0.0, 0.0])
        u = adaptive.feedback(x, xi1) + np.array([0.3, 0.0])
        xi2 = np.concatenate([xi1, u])
        flow = backstep.controller_flow(x, xi2)
        # V = |x|^2/2 and feedback -x - theta_hat: the feedback's
        # x-Jacobian is -I, so the drive gains gain^{-1} u_err over the
        # plain drive x.
        u_err = u - adaptive.feedback(x, xi1)
        drive = x + u_err
        estimate_rate = UNIT_BALL.gain @ project_rate(drive, xi1[1:], UNIT_BALL)
        assert flow[1:3] == pytest.approx(estimate_rate)
        # -matched @ rate - damping * u_err - gain @ grad V + jac @ xdot
        assert flow[3:] == pytest.approx(-estimate_rate - u_err - x - u)


class TestBallInvarianceOnArcs:
    def test_estimate_stays_in_inflated_ball(self):
        # Start on the inflated boundary; the projection must keep the
        # estimate inside it (up to integration error).
        config = SolverConfig(t_max=4.0)
        scenario = make_scenario(
            "adaptive", q0=-1.0, theta_hat0=(1.99, 0.0), config=config
        )
        arc = solve(scenario.system, scenario.x0, scenario.config)
        worst = max(
            float(np.linalg.norm(state[4:6])) for _, _, state in arc.iter_samples()
        )
        assert worst <= 2.0 + 1e-9


class TestGeneralGainClosedLoop:
    # Identity gains mask gain-vs-inverse wiring mistakes; the Lyapunov
    # monitors expose them, since the decrease algebra needs every
    # gain/inverse pairing to match.
    GAMMA1 = np.array([[2.0, 0.3], [0.3, 1.0]])
    GAMMA2 = np.array([[1.5, -0.2], [-0.2, 0.8]])

    @pytest.mark.parametrize("kind", ["adaptive", "backstep"])
    def test_monitors_clean_under_general_gains(self, kind):
        scenario = make_scenario(
            kind,
            q0=-1.0,
            gamma1=self.GAMMA1,
            gamma2=self.GAMMA2,
            config=SolverConfig(t_max=6.0),
        )
        arc = solve(scenario.system, scenario.x0, scenario.config)
        assert monitor_flow_decrease(arc, scenario.true_potential, 1e-6) == []
        assert (
            monitor_jump_decrease(
                arc, scenario.true_potential, scenario.margin_at, 1e-9
            )
            == []
        )
        assert np.linalg.norm(scenario.planar(arc.final_state)) < 0.5

    def test_reset_uses_metric_projection_at_jump(self):
        scenario = make_scenario(
            "adaptive",
            q0=-1.0,
            z_init=(1.8, -1.0),
            theta_hat0=(1.2, -0.9),
            gamma1=self.GAMMA1,
            config=SolverConfig(t_max=4.0),
        )
        arc = solve(scenario.system, scenario.x0, scenario.config)
        rec = arc.jump_records[0]
        assert rec.t == 0.0
        expected = reset_estimate(rec.before[4:6], scenario.ball)
        assert rec.after[4:6] == pytest.approx(expected, abs=1e-12)
        assert np.linalg.norm(rec.after[4:6]) == pytest.approx(1.0, abs=1e-9)
        assert (
            monitor_jump_decrease(
                arc, scenario.true_potential, scenario.margin_at, 1e-9
            )
            == []
        )


class TestClosedFormGap:
    # Each lift's closed-form gap against enumeration over its own reset
    # candidates, ControllerData.gap called through the base class, with
    # the scaled tolerance of gap_identity_suite.
    GAINS = {
        "scalar": {},
        "general": {
            "gamma1": np.array([[2.0, 0.3], [0.3, 1.0]]),
            "gamma2": np.array([[1.5, -0.2], [-0.2, 0.8]]),
        },
    }
    # Estimate norms: inside the admissible ball, in the inflated shell,
    # and beyond the inflated ball (radius 1, eps 1).
    SHELLS = ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))

    @classmethod
    def _lifts(cls, gains):
        scenario = make_scenario("backstep", q0=-1.0, **cls.GAINS[gains])
        return scenario, scenario.controller.adaptive, scenario.controller

    @pytest.mark.parametrize("gains", ["scalar", "general"])
    def test_matches_enumeration(self, gains):
        scenario, adaptive, backstep = self._lifts(gains)
        rng = np.random.default_rng(71)
        worst = 0.0
        compared = 0
        for x, _ in _random_cylinder_states(rng, scenario.obstacle, 150, 1e-3):
            for q in (-1.0, 1.0):
                v0 = float(scenario.nominal.potential(x, np.array([q])))
                for lo, hi in self.SHELLS:
                    direction = rng.normal(size=2)
                    norm = rng.uniform(lo, hi)
                    theta_hat = norm * direction / np.linalg.norm(direction)
                    xi1 = np.concatenate([[q], theta_hat])
                    xi2 = np.concatenate([xi1, rng.normal(scale=2.0, size=2)])
                    for ctrl, xi in ((adaptive, xi1), (backstep, xi2)):
                        closed = ctrl.gap(x, xi)
                        enumerated = ControllerData.gap(ctrl, x, xi)
                        assert math.isfinite(enumerated)
                        scale = 1.0 + abs(enumerated) + v0
                        worst = max(worst, abs(closed - enumerated) / scale)
                        compared += 1
        assert compared == 150 * 2 * 3 * 2
        assert worst <= 1e-12

    @pytest.mark.parametrize("gains", ["scalar", "general"])
    @pytest.mark.parametrize("q", [-1.0, 1.0])
    def test_infinite_at_excluded_point(self, gains, q):
        _, adaptive, backstep = self._lifts(gains)
        for h in (-1.0, 0.0, 0.8):
            x = np.array([h, 0.0, q])
            for theta_hat in ((0.3, -0.2), (1.2, 0.9), (0.0, -2.5)):
                xi1 = np.concatenate([[q], theta_hat])
                xi2 = np.concatenate([xi1, [0.7, -1.3]])
                for ctrl, xi in ((adaptive, xi1), (backstep, xi2)):
                    assert ctrl.gap(x, xi) == math.inf
                    assert ControllerData.gap(ctrl, x, xi) == math.inf


class TestGapOrderingOnArcs:
    def test_robust_gap_lower_bounds_true_gap_along_arc(self):
        # The implementable gap never exceeds the true-parameter gap at
        # any sampled state of a simulated run.
        config = SolverConfig(t_max=3.0)
        scenario = make_scenario(
            "adaptive", q0=-1.0, theta_hat0=(0.5, -1.2), config=config
        )
        nominal = scenario.nominal
        arc = solve(scenario.system, scenario.x0, scenario.config)
        for _, _, state in arc.iter_samples():
            x, xi1 = state[:3], state[3:]
            min_value, _, _ = min_over_candidates(nominal, x, xi1[:1])
            true_gap = scenario.true_potential(state) - min_value
            assert scenario.switching_gap(state) <= true_gap + 1e-9


class TestJumpDecreaseBound:
    # The true-parameter potential must drop by at least the implementable
    # (worst-case) gap at each jump, which in turn dominates the margin.
    @pytest.mark.parametrize("kind", ["adaptive", "backstep"])
    def test_drop_dominates_robust_gap(self, kind):
        scenario = make_scenario(
            kind, q0=-1.0, z_init=(1.8, -1.0), theta_hat0=(1.2, -0.9)
        )
        arc = solve(scenario.system, scenario.x0, scenario.config)
        assert arc.jump_count >= 1
        for rec in arc.jump_records:
            drop = scenario.true_potential(rec.before) - scenario.true_potential(
                rec.after
            )
            implementable = scenario.switching_gap(rec.before)
            assert drop >= implementable - 1e-9
            assert drop >= scenario.margin_at(rec.before) - 1e-9

    def test_upsilon_with_fd_jacobian_matches_analytic(self):
        scenario = make_scenario("backstep", q0=1.0)
        ctrl = scenario.controller
        x = scenario.x0[:3]
        xi2 = np.concatenate([[1.0], [0.3, -0.2], [0.4, 0.1]])
        adaptive = ctrl.adaptive

        def fd_jac(p, xi1):
            return central_difference(lambda y: adaptive.feedback(y, xi1), p)

        with_fd, _ = _backstep_rates(adaptive, ctrl.gains, x, xi2, fd_jac)
        with_analytic = ctrl.controller_flow(x, xi2)[1:3]
        scale = max(1.0, float(np.max(np.abs(with_analytic))))
        assert np.max(np.abs(with_fd - with_analytic)) / scale <= 1e-6
