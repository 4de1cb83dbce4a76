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
from typing import Callable, Optional, Union

import numpy as np

from .adaptive import (
    BackstepGains,
    ParamBall,
    adaptive_true_potential,
    backstep_true_potential,
    lift_adaptive,
    lift_backstep,
)
from .errors import ChartSingular, DomainEscape, InsideObstacle
from .hybrid import HybridSystemDef, SolverConfig
from .synergistic import (
    AffinePlant,
    ControllerData,
    build_closed_loop,
    gap_value,
)

# Guard band on chart denominators and on the distance to the disk
# boundary: closer evaluations raise typed errors instead of overflowing.
SINGULAR_GUARD = 1e-12

CHART_INDICES = (-1.0, 1.0)


def _check_chart_index(q) -> float:
    q = float(q)
    if q not in (-1.0, 1.0):
        raise ValueError(f"chart index must be -1 or +1, got {q}")
    return q


@dataclass(frozen=True)
class ObstacleDisk:
    """Closed disk obstacle ``center + radius * unit ball``.

    The origin (the stabilization target) must lie strictly outside.
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
        dist = float(np.linalg.norm(center))
        if dist <= self.radius:
            raise ValueError(
                "the origin must lie outside the obstacle "
                f"(|center| = {dist} <= radius = {self.radius})"
            )
        # Cylinder coordinates of the origin: the stabilization target.
        object.__setattr__(
            self,
            "target",
            np.concatenate(
                [[math.log(dist - self.radius)], -center / dist]
            ),
        )


def to_cylinder(z: np.ndarray, obstacle: ObstacleDisk) -> np.ndarray:
    """Map a planar point outside the obstacle to cylinder coordinates.

    Raises :class:`InsideObstacle` within ``1e-12`` of the disk.
    """
    z = np.asarray(z, dtype=float).reshape(2)
    w = z - obstacle.center
    rho = float(np.linalg.norm(w))
    if rho <= obstacle.radius + SINGULAR_GUARD:
        raise InsideObstacle(
            f"point at distance {rho} from the obstacle center "
            f"(radius {obstacle.radius})"
        )
    return np.concatenate([[math.log(rho - obstacle.radius)], w / rho])


def from_cylinder(x: np.ndarray, obstacle: ObstacleDisk) -> np.ndarray:
    """Inverse of :func:`to_cylinder`."""
    x = np.asarray(x, dtype=float).reshape(3)
    return obstacle.center + (math.exp(x[0]) + obstacle.radius) * x[1:]


def cylinder_input_matrix(x: np.ndarray, obstacle: ObstacleDisk) -> np.ndarray:
    """Input matrix of the cylinder-coordinates plant at a cylinder point.

    This is the Jacobian (3 x 2) of :func:`to_cylinder` at the planar
    preimage :func:`from_cylinder` ``(x)``, written directly in the
    ambient cylinder coordinates (so its finite-difference derivatives
    are taken of this same expression).
    """
    x = np.asarray(x, dtype=float).reshape(3)
    s = x[1:]
    boundary_dist = math.exp(x[0])
    rho = boundary_dist + obstacle.radius
    mat = np.empty((3, 2))
    mat[0] = s / boundary_dist
    mat[1:] = (np.eye(2) - np.outer(s, s)) / rho
    return mat


def chart(x: np.ndarray, q) -> np.ndarray:
    """Stereographic chart of the cylinder, indexed by ``q`` in {-1, +1}.

    Defined where ``q * x3 != 1``; raises :class:`ChartSingular` within
    the ``1e-12`` guard band of the excluded point.
    """
    q = _check_chart_index(q)
    x = np.asarray(x, dtype=float).reshape(3)
    denom = 1.0 - q * x[2]
    if denom < SINGULAR_GUARD:
        raise ChartSingular(f"chart q={q:+.0f} evaluated at x3={x[2]}")
    return np.array([x[0], x[1] / denom])


def chart_jacobian(x: np.ndarray, q) -> np.ndarray:
    """Jacobian (2 x 3) of :func:`chart` in the ambient cylinder coordinates."""
    q = _check_chart_index(q)
    x = np.asarray(x, dtype=float).reshape(3)
    denom = 1.0 - q * x[2]
    if denom < SINGULAR_GUARD:
        raise ChartSingular(f"chart q={q:+.0f} evaluated at x3={x[2]}")
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0 / denom, q * x[1] / denom**2],
        ]
    )


def chart_target(q, obstacle: ObstacleDisk) -> np.ndarray:
    """Chart coordinates of the stabilization target."""
    return chart(obstacle.target, q)


def chart_potential(x: np.ndarray, q, obstacle: ObstacleDisk) -> float:
    """Quadratic chart potential; +inf off the chart's domain."""
    try:
        err = chart(x, q) - chart_target(q, obstacle)
    except ChartSingular:
        return math.inf
    return 0.5 * float(err @ err)


def chart_potential_gradient(
    x: np.ndarray, q, obstacle: ObstacleDisk
) -> np.ndarray:
    """Ambient gradient (3,) of :func:`chart_potential` on the chart domain."""
    err = chart(x, q) - chart_target(q, obstacle)
    return chart_jacobian(x, q).T @ err


def gradient_feedback(x: np.ndarray, q, obstacle: ObstacleDisk) -> np.ndarray:
    """Chart gradient-descent feedback pulled back to the plane (2,).

    Along the unperturbed closed loop the potential's flow derivative is
    minus the squared norm of this input.
    """
    grad = chart_potential_gradient(x, q, obstacle)
    return -(cylinder_input_matrix(x, obstacle).T @ grad)


def gradient_feedback_jacobian(
    x: np.ndarray, q, obstacle: ObstacleDisk
) -> np.ndarray:
    """Analytic ambient Jacobian (2 x 3) of :func:`gradient_feedback`."""
    q = _check_chart_index(q)
    x = np.asarray(x, dtype=float).reshape(3)
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    denom = 1.0 - q * x3
    if denom < SINGULAR_GUARD:
        raise ChartSingular(f"chart q={q:+.0f} evaluated at x3={x3}")

    s = x[1:]
    a = math.exp(-x1)
    rho = math.exp(x1) + obstacle.radius
    c = chart_target(q, obstacle)
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
        disturbance_matrix=input_matrix,
        matched_matrix=matched_matrix,
        n_x=3,
        n_u=2,
        n_theta=2,
    )


# Cylinder points used to spot-check state-dependent controller data at
# construction time (margin positivity, matched factorization).
def _probe_states(obstacle: ObstacleDisk) -> list:
    probes = [obstacle.target]
    for height in (-1.0, 0.0, 1.0):
        for s in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
            probes.append(np.array([height, s[0], s[1]]))
    return probes


def build_nominal_controller(
    obstacle: ObstacleDisk,
    margin: Union[float, Callable] = 1.0,
) -> ControllerData:
    """Nominal synergistic controller for the obstacle world.

    Controller state is the chart index ``q`` (a length-1 vector held
    constant along flows); reset candidates are listed as (-1, +1); the
    potential is the chart potential and the feedback its pulled-back
    gradient descent.  ``margin`` may be a positive constant or a
    state-dependent function ``(x, xi_c) -> float``; positivity is
    spot-checked at construction.
    """
    if callable(margin):
        margin_fn = margin
    else:
        margin_value = float(margin)

        def margin_fn(x, xi_c):
            return margin_value

    for probe in _probe_states(obstacle):
        for q in CHART_INDICES:
            value = float(margin_fn(probe, np.array([q])))
            if value <= 0.0:
                raise ValueError(
                    f"hysteresis margin must be positive; got {value} at a "
                    "probe state"
                )

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
        margin=margin_fn,
    )


def renormalize_circle(state: np.ndarray) -> np.ndarray:
    """Project a closed-loop state back onto the cylinder (unit circle part)."""
    out = state.copy()
    norm = math.hypot(out[1], out[2])
    if not norm > 0.0:
        raise DomainEscape("circle component collapsed to zero", state=state)
    out[1] /= norm
    out[2] /= norm
    return out


DEFAULT_THETA = np.array([math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0])


@dataclass(frozen=True)
class Scenario:
    """A fully assembled closed-loop simulation of the obstacle world.

    The closed-loop state stacks the cylinder point (3), the chart index
    (1), and, depending on ``kind``, the parameter estimate (2) and the
    held input (2).
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
    ball: Optional[ParamBall] = None
    gains: Optional[BackstepGains] = None

    def chart_index(self, state: np.ndarray) -> float:
        return float(state[3])

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
        as the pre-jump sample of a forced switch; no flow happens there).
        """
        try:
            return self.controller.feedback(state[:3], state[3:])
        except ChartSingular:
            return np.full(2, math.nan)

    def switching_gap(self, state: np.ndarray) -> float:
        """The implementable synergy gap driving the switching logic."""
        return gap_value(self.controller, state[:3], state[3:])

    def margin_at(self, state: np.ndarray) -> float:
        return float(self.controller.margin(state[:3], state[3:]))

    def true_potential(self, state: np.ndarray) -> float:
        """Lyapunov value at the scenario's true parameter."""
        x, xi_c = state[:3], state[3:]
        if self.kind == "nominal":
            return float(self.nominal.potential(x, xi_c))
        if self.kind == "adaptive":
            return adaptive_true_potential(self.controller, self.theta)(x, xi_c)
        return backstep_true_potential(self.controller, self.theta)(x, xi_c)


def make_scenario(
    kind: str,
    q0,
    obstacle: Optional[ObstacleDisk] = None,
    *,
    theta: Optional[np.ndarray] = None,
    theta_hat0: Optional[np.ndarray] = None,
    u0: Union[str, np.ndarray] = "feedback",
    z_init=(2.0, 0.0),
    margin: Union[float, Callable] = 1.0,
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
    estimate.  For the backstepping controller, "at rest" initializes
    the held input on the adaptive feedback (``u0="feedback"``); pass
    ``u0="zero"`` or an explicit vector to override.
    """
    if kind not in ("nominal", "adaptive", "backstep"):
        raise ValueError(f"unknown scenario kind {kind!r}")
    q0 = _check_chart_index(q0)
    if obstacle is None:
        obstacle = ObstacleDisk(center=np.array([1.0, 0.0]), radius=0.5)
    theta = DEFAULT_THETA.copy() if theta is None else np.asarray(theta, dtype=float)
    if float(np.linalg.norm(theta)) > theta_bound + 1e-12:
        raise ValueError(
            f"true parameter norm {np.linalg.norm(theta)} exceeds the "
            f"admissible bound {theta_bound}"
        )
    config = SolverConfig() if config is None else config

    plant = make_affine_plant(obstacle)
    mismatches = plant.check_matched(
        [(p, np.array([q])) for p in _probe_states(obstacle) for q in CHART_INDICES]
    )
    if mismatches:
        raise ValueError("matched-uncertainty check failed: " + mismatches[0])

    nominal = build_nominal_controller(obstacle, margin)
    x_init = to_cylinder(np.asarray(z_init, dtype=float), obstacle)

    if kind == "nominal":
        controller: ControllerData = nominal
        x0 = np.concatenate([x_init, [q0]])
        ball = None
        gains = None
    else:
        gamma1 = np.eye(2) if gamma1 is None else np.asarray(gamma1, dtype=float)
        ball = ParamBall(radius=theta_bound, eps=eps, gain=gamma1)
        theta_hat0 = (
            np.zeros(2) if theta_hat0 is None else np.asarray(theta_hat0, dtype=float)
        )

        def grad_potential(x, xi_c):
            return chart_potential_gradient(x, xi_c[0], obstacle)

        adaptive_ctrl = lift_adaptive(nominal, plant, ball, grad_potential)
        if kind == "adaptive":
            controller = adaptive_ctrl
            gains = None
            x0 = np.concatenate([x_init, [q0], theta_hat0])
        else:
            gamma2 = np.eye(2) if gamma2 is None else np.asarray(gamma2, dtype=float)
            gains = BackstepGains(gain=gamma2, damping=damping)

            def feedback_jac(x, xi_c1):
                # The matched compensation is state-independent here, so
                # the lifted feedback's x-Jacobian is the nominal one.
                return gradient_feedback_jacobian(x, xi_c1[0], obstacle)

            controller = lift_backstep(adaptive_ctrl, gains, jac=feedback_jac)
            xi1_init = np.concatenate([[q0], theta_hat0])
            if isinstance(u0, str):
                if u0 == "feedback":
                    u_init = adaptive_ctrl.feedback(x_init, xi1_init)
                elif u0 == "zero":
                    u_init = np.zeros(2)
                else:
                    raise ValueError(f"unknown initial-input policy {u0!r}")
            else:
                u_init = np.asarray(u0, dtype=float).reshape(2)
            x0 = np.concatenate([x_init, xi1_init, u_init])

    system = build_closed_loop(
        plant, theta, controller, project_state=renormalize_circle
    )
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
        ball=ball,
        gains=gains,
    )
