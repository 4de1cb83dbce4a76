"""Planar obstacle-avoidance case study on the punctured plane.

The plane minus a closed disk is diffeomorphic to a cylinder (a line
times the unit circle): the height coordinate is the log-distance to
the disk boundary and the circle coordinate is the bearing from the
disk center.  Driving the vehicle to the origin in the plane becomes
setpoint stabilization on the cylinder, where a pair of stereographic
charts (indexed by ``q`` in {-1, +1}) yields two quadratic potentials
whose gradient feedbacks, glued by synergistic switching, stabilize the
target from every initial condition while the obstacle is never
touched (points inside the disk have no cylinder coordinates at all).

Cylinder points are arrays ``[x1, s1, s2]`` with ``(s1, s2)`` on the
unit circle; planar points are arrays ``[z1, z2]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import adaptive
from .adaptive import BackstepGains, ParamBall, _norm, lift_adaptive, lift_backstep
from .errors import ChartSingular, DomainEscape, InfeasibleCandidates, InsideObstacle
from .hybrid import SolverConfig, _floats
from .synergistic import TIE_TOL, AffinePlant, ControllerData, build_closed_loop

# Guard band on chart denominators and on the distance to the disk
# boundary: closer evaluations raise typed errors instead of overflowing.
SINGULAR_GUARD = 1e-12

CHART_INDICES = (-1.0, 1.0)


@dataclass(frozen=True)
class ObstacleDisk:
    """Closed disk obstacle ``center + radius * unit ball``.

    The origin (the stabilization target) must lie strictly outside, and
    the center off the vertical axis through the origin.  Caches
    ``target`` (the origin's cylinder coordinates) and ``chart_targets``
    (its chart coordinates as float pairs, keyed by chart index).
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(2)
        object.__setattr__(self, "center", center)
        if not np.all(np.isfinite(center)):
            raise ValueError(f"obstacle center must be finite, got {center}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError("obstacle radius must be positive and finite")
        dist = _norm(center)
        if dist <= self.radius:
            raise ValueError(
                "the origin must lie outside the obstacle "
                f"(|center| = {dist} <= radius = {self.radius})"
            )
        # Cylinder coordinates of the origin: the stabilization target.
        target = np.concatenate([[math.log(dist - self.radius)], -center / dist])
        object.__setattr__(self, "target", target)
        # Its chart coordinates, per chart index.  A center on the
        # vertical axis through the origin puts the target on one chart's
        # excluded point, where that chart's potential is infinite
        # everywhere and the chart pair is no longer synergistic.
        height, t2, t3 = target.tolist()
        chart_targets = {}
        for q in CHART_INDICES:
            denom = 1.0 - q * t3
            if denom < SINGULAR_GUARD:
                raise ValueError(
                    f"obstacle center {center.tolist()} puts the target on "
                    f"the excluded point of chart q={q:+.0f}"
                )
            chart_targets[q] = (height, t2 / denom)
        object.__setattr__(self, "chart_targets", chart_targets)


def to_cylinder(z: np.ndarray, obstacle: ObstacleDisk) -> np.ndarray:
    """Map a planar point outside the obstacle to cylinder coordinates.

    Raises :class:`InsideObstacle` within ``1e-12`` of the disk.  Worked
    on floats, elementwise as numpy would.
    """
    z1, z2 = _floats(z)
    center1, center2 = obstacle.center.tolist()
    w1, w2 = z1 - center1, z2 - center2
    rho = _norm([w1, w2])
    if rho <= obstacle.radius + SINGULAR_GUARD:
        raise InsideObstacle(
            f"point at distance {rho} from the obstacle center "
            f"(radius {obstacle.radius})"
        )
    return np.array([math.log(rho - obstacle.radius), w1 / rho, w2 / rho])


def from_cylinder(x: np.ndarray, obstacle: ObstacleDisk) -> np.ndarray:
    """Inverse of :func:`to_cylinder`, worked on floats."""
    x1, x2, x3 = _floats(x)
    center1, center2 = obstacle.center.tolist()
    rho = math.exp(x1) + obstacle.radius
    return np.array([center1 + rho * x2, center2 + rho * x3])


def _boundary_distance(x1: float) -> float:
    """``exp(x1)``, the distance from a cylinder point to the disk.

    Raises :class:`InsideObstacle` where it is at most ``SINGULAR_GUARD``,
    the band :func:`to_cylinder` refuses.
    """
    boundary_dist = math.exp(x1)
    if boundary_dist <= SINGULAR_GUARD:
        raise InsideObstacle(
            f"cylinder height x1={x1} is in the disk's guard band: "
            f"exp(x1) <= {SINGULAR_GUARD:g}"
        )
    return boundary_dist


def _chart_error(
    x1: float, x2: float, x3: float, q: float, obstacle: ObstacleDisk
) -> tuple:
    """Chart ``q``'s denominator and error at a point's floats.

    Returns ``(denom, e1, e2)``: ``1 - q * x3`` and the errors of the
    height and of the second chart coordinate from the chart's target,
    the quantities every chart potential, gradient and feedback is built
    from.  Raises ``ValueError`` for a chart index outside {-1, +1} and
    :class:`ChartSingular` in the chart's guard band.
    """
    target = obstacle.chart_targets.get(q)
    if target is None:
        raise ValueError(f"chart index must be -1 or +1, got {q}")
    denom = 1.0 - q * x3
    if denom < SINGULAR_GUARD:
        raise ChartSingular(f"chart q={q:+.0f} evaluated at x3={x3}")
    return denom, x1 - target[0], x2 / denom - target[1]


def _chart_value(
    x1: float, x2: float, x3: float, q: float, obstacle: ObstacleDisk
) -> float:
    """:func:`chart_potential` at a point's floats; +inf in the guard band."""
    try:
        _, e1, e2 = _chart_error(x1, x2, x3, q, obstacle)
    except ChartSingular:
        return math.inf
    return 0.5 * (e1 * e1 + e2 * e2)


def _flow_terms(
    x1: float, x2: float, x3: float, q: float, obstacle: ObstacleDisk
) -> tuple:
    """Everything a flow map needs of the geometry, from a point's floats.

    Returns ``(e1, v1, v2, b11, b12, b21, cross, b32, k1, k2)``: the
    ambient gradient of :func:`chart_potential` (its height error ``e1``
    followed by its circle components ``v``), the entries of
    :func:`cylinder_input_matrix` (``cross`` is both ``b22`` and ``b31``)
    and :func:`gradient_feedback`, each with those functions' operations
    in their order.  Raises as :func:`_chart_error` and
    :func:`_boundary_distance` do.
    """
    denom, e1, e2 = _chart_error(x1, x2, x3, q, obstacle)
    v1 = e2 / denom
    v2 = q * x2 / denom**2 * e2
    boundary_dist = _boundary_distance(x1)
    rho = boundary_dist + obstacle.radius
    b11 = x2 / boundary_dist
    b12 = x3 / boundary_dist
    along = x2 * v1 + x3 * v2  # the feedback's (I - s s^T) v
    return (
        e1, v1, v2, b11, b12, (1.0 - x2 * x2) / rho, -(x2 * x3) / rho,
        (1.0 - x3 * x3) / rho,
        -(b11 * e1 + (v1 - x2 * along) / rho),
        -(b12 * e1 + (v2 - x3 * along) / rho),
    )


def cylinder_input_matrix(x: np.ndarray, obstacle: ObstacleDisk) -> np.ndarray:
    """Input matrix of the cylinder-coordinates plant at a cylinder point.

    This is the Jacobian (3 x 2) of :func:`to_cylinder` at the planar
    preimage :func:`from_cylinder` ``(x)``, written directly in the
    ambient cylinder coordinates (so its finite-difference derivatives
    are taken of this same expression): the height row is ``s / exp(x1)``
    and the circle rows are ``(I - s s^T) / rho``, with ``s = (x2, x3)``
    and ``rho = exp(x1) + radius`` the distance to the disk center.
    Raises :class:`InsideObstacle` where ``exp(x1) <= SINGULAR_GUARD``.
    """
    x1, x2, x3 = _floats(x)
    boundary_dist = _boundary_distance(x1)
    rho = boundary_dist + obstacle.radius
    cross = -(x2 * x3) / rho
    return np.array([
        [x2 / boundary_dist, x3 / boundary_dist],
        [(1.0 - x2 * x2) / rho, cross],
        [cross, (1.0 - x3 * x3) / rho],
    ])


def chart_potential(x: np.ndarray, q, obstacle: ObstacleDisk) -> float:
    """Quadratic chart potential; +inf off the chart's domain."""
    x1, x2, x3 = _floats(x)
    return _chart_value(x1, x2, x3, float(q), obstacle)


def chart_potential_gradient(
    x: np.ndarray, q, obstacle: ObstacleDisk
) -> np.ndarray:
    """Ambient gradient (3,) of :func:`chart_potential` on the chart domain."""
    x1, x2, x3 = _floats(x)
    return np.array(_flow_terms(x1, x2, x3, float(q), obstacle)[:3])


def gradient_feedback(x: np.ndarray, q, obstacle: ObstacleDisk) -> np.ndarray:
    """Chart gradient-descent feedback pulled back to the plane (2,).

    Minus the transposed :func:`cylinder_input_matrix` times the chart
    potential's gradient.  Along the unperturbed closed loop the
    potential's flow derivative is minus the squared norm of this input.
    """
    x1, x2, x3 = _floats(x)
    return np.array(_flow_terms(x1, x2, x3, float(q), obstacle)[-2:])


def gradient_feedback_jacobian(
    x: np.ndarray, q, obstacle: ObstacleDisk
) -> np.ndarray:
    """Analytic ambient Jacobian (2 x 3) of :func:`gradient_feedback`.

    Raises :class:`InsideObstacle` where ``exp(x1) <= SINGULAR_GUARD``.
    """
    x1, x2, x3 = _floats(x)
    q = float(q)
    denom, e1, e2 = _chart_error(x1, x2, x3, q, obstacle)
    v1, v2 = e2 / denom, q * x2 / denom**2 * e2  # the potential's gradient
    boundary_dist = _boundary_distance(x1)
    a = math.exp(-x1)
    rho = boundary_dist + obstacle.radius
    w = x2 / denom  # second chart coordinate
    d2 = denom * denom

    # Derivatives of the gradient's circle components v along x2 and x3
    # (the potential's Hessian is symmetric, so dv2/dx2 = dv1/dx3).
    cross = q * (e2 + w) / d2
    dv1_dx2, dv2_dx2 = 1.0 / d2, cross
    dv1_dx3, dv2_dx3 = cross, w * (w + 2.0 * e2) / d2

    # Column 1: the height derivative; columns 2-3: the circle
    # derivatives, where d(I - s s^T)/dx2 v = -(2 x2 v1 + x3 v2, x3 v1)
    # and d(I - s s^T)/dx3 v = -(x2 v2, x2 v1 + 2 x3 v2).  The ``along``
    # terms are s^T v and s^T of each derivative of v, for (I - s s^T).
    along = x2 * v1 + x3 * v2
    along2 = x2 * dv1_dx2 + x3 * dv2_dx2
    along3 = x2 * dv1_dx3 + x3 * dv2_dx3
    height = a * (1.0 - e1)
    shrink = boundary_dist / rho**2
    return np.array(
        [
            [
                -(height * x2 - (v1 - x2 * along) * shrink),
                -(e1 * a + (dv1_dx2 - x2 * along2 - (2.0 * x2 * v1 + x3 * v2)) / rho),
                -((dv1_dx3 - x2 * along3 - x2 * v2) / rho),
            ],
            [
                -(height * x3 - (v2 - x3 * along) * shrink),
                -((dv2_dx2 - x3 * along2 - x3 * v1) / rho),
                -(e1 * a + (dv2_dx3 - x3 * along3 - (x2 * v1 + 2.0 * x3 * v2)) / rho),
            ],
        ]
    )


def make_affine_plant(obstacle: ObstacleDisk) -> AffinePlant:
    """Cylinder-coordinates plant: velocity input plus matched constant drift."""
    eye2 = np.eye(2)
    zero3 = np.zeros(3)

    def drift(x, xi_c):
        return zero3

    def input_matrix(x, xi_c):
        return cylinder_input_matrix(x, obstacle)

    def matched_matrix(x, xi_c):
        return eye2

    return AffinePlant(
        drift=drift,
        input_matrix=input_matrix,
        matched_matrix=matched_matrix,
        n_x=3,
        n_u=2,
    )


def build_nominal_controller(
    obstacle: ObstacleDisk,
    margin: float = 1.0,
) -> ControllerData:
    """Nominal synergistic controller for the obstacle world.

    Controller state is the chart index ``q`` (a length-1 vector held
    constant along flows); reset candidates are listed as (-1, +1); the
    potential is the chart potential and the feedback its pulled-back
    gradient descent.  ``margin`` is the constant hysteresis margin,
    checked positive and finite by :class:`ControllerData`.
    """
    cands = [np.array([-1.0]), np.array([1.0])]

    def feedback(x, xi_c):
        return gradient_feedback(x, xi_c[0], obstacle)

    def potential(x, xi_c):
        return chart_potential(x, xi_c[0], obstacle)

    def candidates(x, xi_c):
        return cands

    def controller_flow(x, xi_c):
        return np.zeros(1)

    return ControllerData(
        n_state=1,
        feedback=feedback,
        potential=potential,
        candidates=candidates,
        controller_flow=controller_flow,
        margin=margin,
    )


def renormalize_circle(state):
    """Project a closed-loop state back onto the cylinder (unit circle part).

    The state is a list of floats or an array, and a copy of the same
    type is returned; a state whose circle component has norm exactly 1
    is returned as is.  Raises :class:`DomainEscape` for a circle
    component that is zero or not finite.
    """
    norm = math.hypot(state[1], state[2])
    if norm == 1.0:
        return state
    if not 0.0 < norm < math.inf:
        reason = "collapsed to zero" if norm == 0.0 else "is not finite"
        raise DomainEscape(f"circle component {reason}", state=state)
    out = state.copy()
    out[1] /= norm
    out[2] /= norm
    return out


def _closed_loop_kernels(
    kind: str,
    obstacle: ObstacleDisk,
    theta: np.ndarray,
    ball: Optional[ParamBall] = None,
    gains: Optional[BackstepGains] = None,
) -> tuple[Callable, Callable, Callable, Callable, Callable]:
    """The flow map, switching gap, true potential, readout and jump map of one kind.

    Returns ``(flow_map, gap, true_potential, readout, jump_map)``,
    functions of the closed-loop state written out on floats for this
    plant: the vector field and the jump map that
    :func:`~hybridfb.synergistic.compose_closed_loop` composes from
    ``plant.f`` and the lift's ``controller_flow`` and from
    :func:`~hybridfb.synergistic.select_jump`, the controller's
    :meth:`~hybridfb.synergistic.ControllerData.gap`, the true-parameter
    Lyapunov value (:func:`chart_potential`,
    :func:`~hybridfb.adaptive.adaptive_true_potential` or
    :func:`~hybridfb.adaptive.backstep_true_potential`) and
    :attr:`Scenario.readout`.  Each takes the state as
    the list of floats the solver hands it, or as an array that it reads
    through one ``tolist()``; the flow maps return lists and the jump map
    an array.

    A kind's own code is its flow map and its added terms; the other four
    functions are shared.  A flow map reads the state once and makes one
    :func:`_flow_terms` call; the ``B u`` and ``B^T y`` products and the
    projected estimate rate are written out on those floats (the matched
    matrix is the identity, so the disturbance enters through the input
    matrix).  The backstep map also calls
    :func:`gradient_feedback_jacobian`, through this module's attribute.
    ``TestKernelBits`` pins the flow maps' bytes: every operation keeps its
    order and association, since a reassociated sum moves every trajectory.

    The added terms are the lifts': the gap's half squared distance of the
    estimate to the ball (from :func:`~hybridfb.adaptive.ball_distance`),
    the true potential's estimate error, and the input error that both add
    last (the gains' ``error_term``).  The gap starts from the current
    chart's value minus the lower chart value, the true potential from the
    current chart's value, and each adds its terms by the lifts' ``_plus``
    rule (``add_terms``).  So both equal the controllers' values bit for
    bit, NaN included (the tests compare with ``==``), with one exception:
    in the disk's guard band (``exp(x1) <= SINGULAR_GUARD``) the backstep
    input error needs the undefined feedback, so there the backstep gap and
    true potential are NaN while the controller's ``gap`` and
    :func:`~hybridfb.adaptive.backstep_true_potential` raise
    :class:`InsideObstacle`; the nominal and adaptive ones agree there.  The
    solver ends a run either way, since a NaN indicator is a
    :class:`~hybridfb.errors.DomainEscape`.  The readout takes both from one
    read of the state and one pair of chart values, and evaluates the input
    error once.  The jump map resets the chart by the rule of
    :func:`~hybridfb.synergistic.select_jump` (a tie within ``TIE_TOL`` goes
    to -1; a least value of +inf or NaN raises
    :class:`InfeasibleCandidates`), the estimate by
    :func:`~hybridfb.adaptive.reset_estimate` and the held input to the
    adaptive feedback there; a reset estimate or input that is not finite
    raises :class:`InfeasibleCandidates` too, as the composed candidate's
    potential is then +inf or NaN.
    """
    theta1, theta2 = theta.tolist()
    radius = obstacle.radius
    center1, center2 = obstacle.center.tolist()

    def chart_values(values):
        """``(here, gap, low, high)`` at a state's floats: the current
        chart's value, the nominal gap and both chart values."""
        x1, x2, x3, q = values[:4]
        low = _chart_value(x1, x2, x3, -1.0, obstacle)
        high = _chart_value(x1, x2, x3, 1.0, obstacle)
        # _chart_error raises for any other index.
        here = high if q == 1.0 else low if q == -1.0 else _chart_value(*values[:4], obstacle)
        # The two excluded points are antipodal, so one candidate is finite.
        # ``min(low, high)`` written out: the same value, NaN included,
        # without the call's cost.
        gap = math.inf if math.isinf(here) else here - (high if high < low else low)
        return here, gap, low, high

    def add_terms(value, terms, values):
        """``value`` plus each of ``terms`` at ``values``, left to right; +inf
        stays +inf and the later terms are not evaluated, the lifts' ``_plus``
        rule."""
        for term in terms:
            if math.isinf(value):
                break
            value += term(values)
        return value

    def chart_feedback(x1, x2, x3, q):
        """:func:`gradient_feedback` at the point's floats; NaN off the chart
        and in the disk's guard band."""
        try:
            return _flow_terms(x1, x2, x3, q, obstacle)[-2:]
        except (ChartSingular, InsideObstacle):
            return math.nan, math.nan

    def matched_product(th1, th2):
        """The matched matrix (the identity) times the estimate, as numpy's
        ``eye(2) @ th`` gives it: each ``+ 0.0`` turns -0.0 into +0.0, and
        the ``0.0 *`` products carry an infinite or NaN entry into the other
        component.  A finite estimate gives ``(th1 + 0.0, th2 + 0.0)``."""
        return (th1 + 0.0) + 0.0 * th2, 0.0 * th1 + (th2 + 0.0)

    def kernels(flow_map, gap_only=(), true_only=(), both=()):
        """The five functions, from the kind's flow map and added terms."""
        gap_terms, true_terms = gap_only + both, true_only + both

        def gap(state):
            values = _floats(state)
            return add_terms(chart_values(values)[1], gap_terms, values)

        def true_potential(state):
            values = _floats(state)
            x1, x2, x3, q = values[:4]
            return add_terms(_chart_value(x1, x2, x3, q, obstacle), true_terms, values)

        def readout(state):
            values = _floats(state)
            x1, x2, x3, q = values[:4]
            v_true, gap_value, _, _ = chart_values(values)
            gap_value = add_terms(gap_value, gap_only, values)
            v_true = add_terms(v_true, true_only, values)
            for term in both:  # evaluated once for the two values
                added = term(values)
                if not math.isinf(v_true):
                    v_true += added
                if not math.isinf(gap_value):
                    gap_value += added
            if kind == "backstep":
                controls = values[4:8]  # the held input is the applied one
            else:
                th1, th2 = values[4:6] if kind == "adaptive" else (0.0, 0.0)
                k1, k2 = chart_feedback(x1, x2, x3, q)
                m1, m2 = matched_product(th1, th2)
                controls = th1, th2, k1 - m1, k2 - m2
            rho = math.exp(x1) + radius  # from_cylinder's operations
            return (
                center1 + rho * x2, center2 + rho * x3, *values[:4],
                *controls, v_true, gap_value,
            )

        def jump_map(state):
            values = _floats(state)
            x1, x2, x3 = values[:3]
            _, _, low, high = chart_values(values)
            least = high if high < low else low  # min(low, high), NaN included
            if not least < math.inf:
                raise InfeasibleCandidates(
                    f"no reset candidate has finite potential (least {least})"
                )
            q = -1.0 if low <= least + TIE_TOL else 1.0
            reset = [x1, x2, x3, q]
            if kind != "nominal":
                th1, th2 = adaptive.reset_estimate(values[4:6], ball).tolist()
                reset += [th1, th2]
            if kind == "backstep":
                # The adaptive feedback at the reset, as in the readout.
                k1, k2 = _flow_terms(x1, x2, x3, q, obstacle)[-2:]
                m1, m2 = matched_product(th1, th2)
                reset += [k1 - m1, k2 - m2]
            # The composed candidate's potential is then +inf or NaN.
            if not all(map(math.isfinite, reset[4:])):
                raise InfeasibleCandidates(f"non-finite reset estimate or input {reset[4:]}")
            return np.array(reset)

        return flow_map, gap, true_potential, readout, jump_map

    if kind == "nominal":
        def nominal_flow(state):
            x1, x2, x3, q = _floats(state)
            _, _, _, b11, b12, b21, cross, b32, k1, k2 = _flow_terms(
                x1, x2, x3, q, obstacle
            )
            return [
                b11 * k1 + b12 * k2 + (b11 * theta1 + b12 * theta2),
                b21 * k1 + cross * k2 + (b21 * theta1 + cross * theta2),
                cross * k1 + b32 * k2 + (cross * theta1 + b32 * theta2),
                0.0,
            ]

        return kernels(nominal_flow)

    (a11, a12), (a21, a22) = ball.gain.tolist()
    radius_sq, excess_scale = ball.radius_sq, ball.excess_scale

    def estimate_rate(d1, d2, th1, th2):
        """The adaptation gain times :func:`project_rate` of the drive ``d``."""
        excess = (th1 * th1 + th2 * th2 - radius_sq) / excess_scale
        if excess > 0.0:
            n1, n2 = 2.0 * th1 / excess_scale, 2.0 * th2 / excess_scale
            outward = n1 * d1 + n2 * d2
            if outward > 0.0:
                shrink = excess * outward / (n1 * n1 + n2 * n2)
                d1, d2 = d1 - shrink * n1, d2 - shrink * n2
        return a11 * d1 + a12 * d2, a21 * d1 + a22 * d2

    def distance_term(values):
        """The gap's term: half the estimate's squared distance to the ball."""
        return 0.5 * adaptive.ball_distance(values[4:6], ball)[0]

    def true_term(values):
        """The true potential's term: the estimation error's ``error_term``."""
        th1, th2 = values[4:6]
        return ball.error_term([theta1 - th1, theta2 - th2])

    if kind == "adaptive":
        def adaptive_flow(state):
            x1, x2, x3, q, th1, th2 = _floats(state)
            e1, v1, v2, b11, b12, b21, cross, b32, k1, k2 = _flow_terms(
                x1, x2, x3, q, obstacle
            )
            u1, u2 = k1 - th1, k2 - th2
            r1, r2 = estimate_rate(
                b11 * e1 + b21 * v1 + cross * v2,
                b12 * e1 + cross * v1 + b32 * v2,
                th1, th2,
            )
            return [
                b11 * u1 + b12 * u2 + (b11 * theta1 + b12 * theta2),
                b21 * u1 + cross * u2 + (b21 * theta1 + cross * theta2),
                cross * u1 + b32 * u2 + (cross * theta1 + b32 * theta2),
                0.0,
                r1,
                r2,
            ]

        return kernels(adaptive_flow, (distance_term,), (true_term,))

    (c11, c12), (c21, c22) = gains.gain.tolist()
    (w11, w12), (w21, w22) = gains.gain_inv.tolist()
    damping = float(gains.damping)

    def backstep_flow(state):
        values = _floats(state)
        x1, x2, x3, q, th1, th2, u1, u2 = values
        e1, v1, v2, b11, b12, b21, cross, b32, k1, k2 = _flow_terms(
            x1, x2, x3, q, obstacle
        )
        err1, err2 = u1 - (k1 - th1), u2 - (k2 - th2)
        (j11, j12, j13), (j21, j22, j23) = gradient_feedback_jacobian(
            values[:3], q, obstacle
        ).tolist()
        s1, s2 = w11 * err1 + w12 * err2, w21 * err1 + w22 * err2
        y1 = e1 - (j11 * s1 + j21 * s2)
        y2 = v1 - (j12 * s1 + j22 * s2)
        y3 = v2 - (j13 * s1 + j23 * s2)
        r1, r2 = estimate_rate(
            b11 * y1 + b21 * y2 + cross * y3,
            b12 * y1 + cross * y2 + b32 * y3,
            th1, th2,
        )
        g1 = b11 * e1 + b21 * v1 + cross * v2
        g2 = b12 * e1 + cross * v1 + b32 * v2
        # The plant's rate with the estimate in place of the true parameter.
        m1 = b11 * u1 + b12 * u2 + (b11 * th1 + b12 * th2)
        m2 = b21 * u1 + cross * u2 + (b21 * th1 + cross * th2)
        m3 = cross * u1 + b32 * u2 + (cross * th1 + b32 * th2)
        return [
            b11 * u1 + b12 * u2 + (b11 * theta1 + b12 * theta2),
            b21 * u1 + cross * u2 + (b21 * theta1 + cross * theta2),
            cross * u1 + b32 * u2 + (cross * theta1 + b32 * theta2),
            0.0,
            r1,
            r2,
            -r1 - damping * err1 - (c11 * g1 + c12 * g2) + (j11 * m1 + j12 * m2 + j13 * m3),
            -r2 - damping * err2 - (c21 * g1 + c22 * g2) + (j21 * m1 + j22 * m2 + j23 * m3),
        ]

    def input_error_term(values):
        """The term both add: the input error's ``error_term`` (NaN off the chart)."""
        x1, x2, x3, q, th1, th2, u1, u2 = values
        k1, k2 = chart_feedback(x1, x2, x3, q)
        return gains.error_term([u1 - (k1 - th1), u2 - (k2 - th2)])

    return kernels(backstep_flow, (distance_term,), (true_term,), (input_error_term,))


DEFAULT_THETA = np.array([math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0])


@dataclass(frozen=True)
class Scenario:
    """A fully assembled closed-loop simulation of the obstacle world.

    The closed-loop state stacks the cylinder point (3), the chart index
    (1), and, depending on ``kind``, the parameter estimate (2) and the
    held input (2).  ``true_potential(state)`` is the Lyapunov value at
    the true parameter (the monitors' and the CSV's), and
    ``switching_gap(state)`` the implementable synergy gap that drives
    the switching logic (the CSV's ``gap_robust``); both equal the
    controllers' values, except in the disk's guard band of a backstep
    state, where they are NaN and the controllers raise
    :class:`InsideObstacle`.  :func:`make_scenario`
    writes both on floats, with the flow map, the readout and the jump
    map: each kind gives its flow map and its added terms, and one gap,
    one true potential and one readout read them for all three kinds.
    The indicator uses the same gap.
    ``readout(state)`` is one sample's outputs ``(z1, z2, x1, x2, x3, q,
    that1, that2, u1, u2, V_true, gap)``: :meth:`planar`, the state,
    :meth:`estimate`, :meth:`applied_input`, ``true_potential`` and
    ``switching_gap``, bit for bit (NaN and signed zeros included), from
    one read of the state.
    """

    kind: str
    obstacle: ObstacleDisk
    plant: AffinePlant
    nominal: ControllerData
    controller: ControllerData
    system: HybridSystemDef
    x0: np.ndarray
    theta: np.ndarray
    config: SolverConfig
    true_potential: Callable[[np.ndarray], float]
    switching_gap: Callable[[np.ndarray], float]
    readout: Callable[[np.ndarray], tuple]
    ball: Optional[ParamBall] = None
    gains: Optional[BackstepGains] = None

    def planar(self, state: np.ndarray) -> np.ndarray:
        return from_cylinder(state[:3], self.obstacle)

    def estimate(self, state: np.ndarray) -> np.ndarray:
        """Parameter estimate; identically zero for the nominal controller."""
        if self.kind == "nominal":
            return np.zeros(2)
        return state[4:6]

    def applied_input(self, state: np.ndarray) -> np.ndarray:
        """Input the controller commands at ``state``.

        NaN at a state outside the current chart's domain (reachable only
        as the pre-jump sample of a forced switch; no flow happens there)
        and in the disk's guard band, as in :attr:`readout`.
        """
        try:
            return self.controller.feedback(state[:3], state[3:])
        except (ChartSingular, InsideObstacle):
            return np.full(2, math.nan)

    def margin_at(self, state: np.ndarray) -> float:
        """The hysteresis margin, a constant, in the form the monitors take."""
        return self.controller.margin


def _shaped(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a new float array of ``shape``, else ``ValueError``."""
    array = np.array(value, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    return array


def make_scenario(
    kind: str,
    q0,
    obstacle: Optional[ObstacleDisk] = None,
    *,
    theta: Optional[np.ndarray] = None,
    theta_hat0: Optional[np.ndarray] = None,
    u0: str = "feedback",
    z_init=(2.0, 0.0),
    margin: float = 1.0,
    theta_bound: float = 1.0,
    eps: float = 1.0,
    gamma1: Optional[np.ndarray] = None,
    gamma2: Optional[np.ndarray] = None,
    damping: float = 1.0,
    config: Optional[SolverConfig] = None,
) -> Scenario:
    """Assemble a case-study scenario with the published defaults.

    Defaults: obstacle disk of radius 0.5 centered at (1, 0); true
    parameter ``(sqrt(2)/2, sqrt(2)/2)``; unit adaptation and
    backstepping gains; ``eps = theta_bound = damping = 1``; constant
    hysteresis margin 1; start at rest from ``z = (2, 0)``; zero initial
    estimate.  For the backstepping controller, ``u0`` is ``"feedback"``
    ("at rest": the held input starts on the adaptive feedback) or
    ``"zero"``; the other kinds hold no input and ignore it.  Any other
    ``u0`` or ``q0``, a ``theta``, ``theta_hat0`` or ``z_init`` not of
    shape (2,) or ``gamma1`` or ``gamma2`` not (2, 2) (for every kind), a
    ``margin`` at or below ``config.event_tol``, or ``u0="feedback"`` where
    chart ``q0`` has no feedback at ``z_init``, raises :class:`ValueError`.

    The closed loop comes from :func:`build_closed_loop`, with the flow
    map, the switching gap, the true potential, the readout and the jump
    map written out on floats by one ``_closed_loop_kernels`` call: the
    flow map is ``kind``'s own, and the other four are shared by the
    kinds and read ``kind``'s added terms.  The indicator (gap minus the
    constant ``margin``) uses the gap, the runner's outputs (monitors,
    clearance, CSV) the readout, and the jump map gives the controllers'
    reset byte for byte, by :func:`~hybridfb.synergistic.select_jump`'s
    rule written on the two chart values.
    """
    if kind not in ("nominal", "adaptive", "backstep"):
        raise ValueError(f"unknown scenario kind {kind!r}")
    if obstacle is None:
        obstacle = ObstacleDisk(center=np.array([1.0, 0.0]), radius=0.5)
    q0 = float(q0)
    if q0 not in obstacle.chart_targets:
        raise ValueError(f"chart index must be -1 or +1, got {q0}")
    if u0 not in ("feedback", "zero"):
        raise ValueError(f"unknown initial-input policy {u0!r}")
    theta = _shaped("theta", DEFAULT_THETA if theta is None else theta, (2,))
    theta_hat0 = _shaped(
        "theta_hat0", (0.0, 0.0) if theta_hat0 is None else theta_hat0, (2,)
    )
    z_init = _shaped("z_init", z_init, (2,))
    gamma1 = _shaped("gamma1", np.eye(2) if gamma1 is None else gamma1, (2, 2))
    gamma2 = _shaped("gamma2", np.eye(2) if gamma2 is None else gamma2, (2, 2))
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"true parameter must be finite, got {theta.tolist()}")
    theta_norm = _norm(theta)
    if theta_norm > theta_bound + 1e-12:
        raise ValueError(
            f"true parameter norm {theta_norm} exceeds the "
            f"admissible bound {theta_bound}"
        )
    config = SolverConfig() if config is None else config

    plant = make_affine_plant(obstacle)
    nominal = build_nominal_controller(obstacle, margin)
    if nominal.margin <= config.event_tol:
        raise ValueError(
            f"hysteresis margin {nominal.margin:g} is not above the solver's "
            f"event_tol {config.event_tol:g}, so every state is in the jump set"
        )
    x_init = to_cylinder(z_init, obstacle)

    if kind == "nominal":
        controller: ControllerData = nominal
        x0 = np.concatenate([x_init, [q0]])
        ball = None
        gains = None
    else:
        ball = ParamBall(radius=theta_bound, eps=eps, gain=gamma1)

        def grad_potential(x, xi_c):
            return chart_potential_gradient(x, xi_c[0], obstacle)

        adaptive_ctrl = lift_adaptive(nominal, plant, ball, grad_potential)
        if kind == "adaptive":
            controller = adaptive_ctrl
            gains = None
            x0 = np.concatenate([x_init, [q0], theta_hat0])
        else:
            gains = BackstepGains(gain=gamma2, damping=damping)

            def feedback_jac(x, xi_c1):
                # The matched compensation is state-independent here, so
                # the lifted feedback's x-Jacobian is the nominal one.
                return gradient_feedback_jacobian(x, xi_c1[0], obstacle)

            controller = lift_backstep(adaptive_ctrl, gains, jac=feedback_jac)
            xi1_init = np.concatenate([[q0], theta_hat0])
            if u0 == "feedback":
                try:
                    u_init = adaptive_ctrl.feedback(x_init, xi1_init)
                except ChartSingular as exc:
                    raise ValueError(
                        f"z_init = {z_init[0]}, {z_init[1]} with q0 = {q0:+.0f} "
                        f"and u0_policy = feedback has no initial input ({exc}); "
                        f"u0_policy = zero or q0 = {-q0:+.0f} runs from there"
                    ) from exc
            else:
                u_init = np.zeros(2)
            x0 = np.concatenate([x_init, xi1_init, u_init])
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"initial state must be finite, got {x0.tolist()}")

    flow_map, gap, true_potential, readout, jump_map = _closed_loop_kernels(
        kind, obstacle, theta, ball, gains
    )
    system = build_closed_loop(flow_map, gap, jump_map, controller, renormalize_circle)
    return Scenario(
        kind=kind,
        obstacle=obstacle,
        plant=plant,
        nominal=nominal,
        controller=controller,
        system=system,
        x0=x0,
        theta=theta,
        config=config,
        true_potential=true_potential,
        switching_gap=gap,
        readout=readout,
        ball=ball,
        gains=gains,
    )
