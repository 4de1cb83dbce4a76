"""Adaptive and backstepped lifts of a nominal synergistic controller.

Starting from a nominal synergistic controller for the unperturbed
affine plant, the adaptive lift appends a parameter estimate driven by a
Lipschitz projection law (keeping the estimate inside an inflated ball
around the admissible parameter set), replaces the feedback with a
certainty-equivalent compensation, and switches on an implementable
synergy gap: the nominal gap plus half the squared metric distance of
the estimate to the admissible ball.  The backstepping lift then turns
the input into a controller state with a designed rate so the composite
potential still decreases, resetting the input onto the adaptive
feedback at every jump; its gap adds half the input error's squared
metric norm.  Both lifts compute their gap by this identity in closed
form; their reset candidates define the reset.

The parameter-ball subproblem (metric projection / worst-case distance)
is solved exactly by Newton on the secular equation of the ball
constraint's multiplier, in the gain eigenbasis cached on ParamBall.

The simulation path and the property suites take no sum through BLAS:
:func:`ball_distance`, :func:`project_rate`, :func:`ball_excess`, the
gains' ``error_term`` and :func:`_norm` add their products left to right
on Python floats (:func:`_dot`), so their bits do not depend on the BLAS
kernel or on the Python version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ChartSingular, InsideObstacle, NonFiniteJacobian
from .hybrid import _finite, _floats
from .synergistic import AffinePlant, ControllerData, min_over_candidates

# Secular-equation Newton: relative norm tolerance and step budget.
NEWTON_RTOL = 1e-12
NEWTON_ITERS = 40

# Relative step for finite-difference Jacobians and gradients.
FD_REL_STEP = 1e-6


def _dot(a, b) -> float:
    """``sum(a[i] * b[i])`` over two sequences of floats, added left to right.

    Written out, so its bits depend neither on a BLAS kernel (which may
    fuse or reorder the multiply-adds) nor on the Python version (``sum``
    compensates its float additions since Python 3.12).
    """
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _check_spd(name: str, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate an SPD gain with a finite inverse; return both."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} must be finite")
    if float(np.max(np.abs(mat - mat.T))) > 1e-12 * max(1.0, float(np.max(np.abs(mat)))):
        raise ValueError(f"{name} must be symmetric")
    if float(np.min(np.linalg.eigvalsh(mat))) <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    inv = np.linalg.inv(mat)
    if not np.all(np.isfinite(inv)):
        raise ValueError(f"{name} must have a finite inverse")
    return mat, inv


def _scalar_multiple(mat: np.ndarray) -> Optional[float]:
    """Return gamma when ``mat == gamma * I`` exactly, else None."""
    diag = np.diag(mat)
    if np.all(diag == diag[0]) and np.all(mat == np.diag(diag)):
        return float(diag[0])
    return None


class _GainMetric:
    """What :class:`ParamBall` and :class:`BackstepGains` share: an SPD
    ``gain``, its cached inverse ``gain_inv`` and :meth:`error_term`."""

    def _set_gain(self, name: str) -> np.ndarray:
        """Check ``gain`` (:func:`_check_spd`), cache its inverse, return it."""
        gain, gain_inv = _check_spd(name, self.gain)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "gain_inv", gain_inv)
        object.__setattr__(self, "_inv_columns", tuple(gain_inv.T.tolist()))
        return gain

    def error_term(self, err: Sequence[float]) -> float:
        """Half the squared ``gain^{-1}`` norm of an error: ``0.5 * err @ gain_inv @ err``.

        The estimation error for :class:`ParamBall`, the input error for
        :class:`BackstepGains`.  Written out on floats, for the float
        kernels and the controllers alike: each entry of ``err @ gain_inv``
        adds its products left to right, as :func:`_dot` does, and so does
        the sum of those entries times ``err``.
        """
        v = _floats(err)
        total = 0.0
        for column, x in zip(self._inv_columns, v):
            w = 0.0
            for y, c in zip(v, column):
                w += y * c
            total += w * x
        return 0.5 * total


@dataclass(frozen=True)
class ParamBall(_GainMetric):
    """Admissible parameter ball, projection margin, and adaptation gain.

    The unknown parameter satisfies ``norm(theta) <= radius``; the
    estimate is allowed to roam the inflated ball of radius ``radius +
    eps``; ``gain`` is the symmetric positive-definite adaptation gain.
    Caches ``gain_inv``, ``radius_sq``, ``excess_scale``, the gain's
    eigenpairs ``(g, v)`` as floats, and ``scalar_gain``, which only the
    benchmark tracer (perfbench) reads.  Refuses (``ValueError``) a ball
    whose ``radius_sq``, ``excess_scale`` or ``gain_inv`` is zero or not
    finite.
    """

    radius: float
    eps: float
    gain: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError("ball radius must be positive and finite")
        if not 0.0 < self.eps < math.inf:
            raise ValueError("projection margin eps must be positive and finite")
        radius_sq = self.radius * self.radius
        excess_scale = self.eps * self.eps + 2.0 * self.eps * self.radius
        derived = (("radius**2", radius_sq), ("eps**2 + 2*eps*radius", excess_scale))
        for name, value in derived:
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"ball radius {self.radius:g} and eps {self.eps:g} give "
                    f"{name} = {value:g}, not positive and finite"
                )
        gain = self._set_gain("adaptation gain")
        vals, vecs = np.linalg.eigh(gain)
        pairs = tuple(zip(vals.tolist(), vecs.T.tolist()))
        object.__setattr__(self, "eigenpairs", pairs)
        object.__setattr__(self, "scalar_gain", _scalar_multiple(gain))
        object.__setattr__(self, "radius_sq", radius_sq)
        object.__setattr__(self, "excess_scale", excess_scale)


@dataclass(frozen=True)
class BackstepGains(_GainMetric):
    """Backstepping gains: input-error metric ``gain`` and damping rate; caches ``gain_inv``."""

    gain: np.ndarray
    damping: float

    def __post_init__(self):
        if not 0.0 < self.damping < math.inf:
            raise ValueError("damping gain must be positive and finite")
        self._set_gain("backstepping gain")


def ball_excess(theta_hat: np.ndarray, ball: ParamBall) -> float:
    """Normalized indicator of how far the estimate exceeds the ball.

    Nonpositive inside the admissible ball, zero on its boundary, and
    exactly one on the boundary of the inflated ball.  The squared norm
    is added left to right (:func:`_dot`).
    """
    th = _floats(theta_hat)
    return (_dot(th, th) - ball.radius_sq) / ball.excess_scale


def project_rate(
    rate: Sequence[float], theta_hat: Sequence[float], ball: ParamBall
) -> list:
    """Lipschitz projection of an adaptation rate, as a list of floats.

    Passes ``rate`` through unchanged inside the admissible ball or when
    the rate does not push outward; otherwise returns ``rate - shrink *
    n``, with ``n = 2 theta_hat / excess_scale`` the excess gradient and
    ``shrink = excess * (n . rate) / (n . n)``, so the estimate can never
    leave the inflated ball.  ``n`` vanishes only at the origin, where the
    first branch applies, so the second never divides by zero; a NaN
    excess or outward component takes it and reaches every entry.  No
    BLAS: each sum is added left to right (:func:`_dot`), the arithmetic
    of the float kernels' ``estimate_rate``.
    """
    rate = _floats(rate)
    th = _floats(theta_hat)
    excess = ball_excess(th, ball)
    if excess <= 0.0:
        return rate
    n = [2.0 * t / ball.excess_scale for t in th]
    outward = _dot(n, rate)
    if outward <= 0.0:
        return rate
    shrink = excess * outward / _dot(n, n)
    return [r - shrink * g for r, g in zip(rate, n)]


def ball_distance(
    theta_hat: np.ndarray, ball: ParamBall
) -> tuple[float, np.ndarray]:
    """Squared gain-metric distance of the estimate to the ball, and the
    nearest point.

    Minimizes ``(theta - theta_hat)^T gain^{-1} (theta - theta_hat)``
    over ``norm(theta) <= radius``: zero (with ``theta = theta_hat``)
    inside the ball, else ``p_i = c_i / (1 + lam * g_i)``, with ``c`` the
    estimate in the cached gain eigenbasis and ``lam`` the root of
    ``1/norm(p) = 1/radius``.  ``1/norm(p)`` is concave and increasing in
    ``lam``, so Newton from 0 rises to the root without overshoot (More &
    Sorensen 1983); for a scalar gain it is linear and one step is exact.
    Stops at ``norm(p) <= (1 + NEWTON_RTOL) * radius`` or NEWTON_ITERS.
    Every sum is written out on floats (:func:`_dot`).
    """
    comps = _floats(theta_hat)
    if _norm(comps) <= ball.radius:
        return 0.0, np.array(comps, dtype=float)
    r = ball.radius
    coords = [(g, _dot(v, comps)) for g, v in ball.eigenpairs]
    lam = 0.0
    for _ in range(NEWTON_ITERS):
        p = []
        sq = slope = 0.0
        for g, c in coords:
            den = 1.0 + lam * g
            x = c / den
            p.append(x)
            sq += x * x
            slope += g * x * x / den
        p_norm = math.sqrt(sq)
        if p_norm - r <= NEWTON_RTOL * r:
            break
        lam += (p_norm - r) * sq / (r * slope)
    dist_sq = 0.0
    for (g, c), x in zip(coords, p):
        dist_sq += (c - x) ** 2 / g
    nearest = [0.0] * len(comps)
    for x, (_, v) in zip(p, ball.eigenpairs):
        nearest = [n + x * vi for n, vi in zip(nearest, v)]
    return dist_sq, np.array(nearest)


def reset_estimate(theta_hat: np.ndarray, ball: ParamBall) -> np.ndarray:
    """Jump update of the estimate: its gain-metric projection onto the ball.

    For a scalar gain this is ``min(1, radius/norm) * theta_hat``; it is
    the maximizer of the worst-case potential drop over admissible
    parameters (the max-min reset rule), which reduces to the metric
    projection.
    """
    return ball_distance(theta_hat, ball)[1]


def _norm(v: Sequence[float]) -> float:
    """2-norm of a 1-D float vector: ``sqrt`` of its squares added left to right.

    Written out as :func:`_dot` is, not through BLAS, so a start built with it
    (:func:`~hybridfb.obstacle.to_cylinder`) has the same bits under every
    BLAS kernel.
    """
    total = 0.0
    for x in _floats(v):
        total += x * x
    return math.sqrt(total)


def central_difference(
    fun: Callable[[np.ndarray], object],
    x: np.ndarray,
) -> np.ndarray:
    """Central-difference derivative of ``fun`` at ``x``.

    Steps ``FD_REL_STEP * max(1, norm(x))`` along each ambient coordinate of
    ``x``.  Returns the gradient (n,) of a scalar ``fun`` or the Jacobian
    (m, n) of a vector-valued one; an analytic derivative checked against
    it must agree to within 1e-6 relative at nonsingular points.
    Raises :class:`NonFiniteJacobian` if a probe hits a singularity or an
    infinite branch.  ``fun`` is handed each probe as an array; the probes,
    the finiteness check and the differences are worked on lists of floats,
    with no BLAS and no numpy reduction.
    """
    x = _floats(x)
    h = FD_REL_STEP * max(1.0, _norm(x))
    two_h = 2.0 * h
    cols = []
    scalar = True
    for i in range(len(x)):
        plus, minus = x.copy(), x.copy()
        plus[i] += h
        minus[i] -= h
        try:
            fp = np.asarray(fun(np.array(plus)), dtype=float).tolist()
            fm = np.asarray(fun(np.array(minus)), dtype=float).tolist()
        except (ChartSingular, InsideObstacle) as exc:
            raise NonFiniteJacobian(f"probe {i} hit a singularity") from exc
        scalar = type(fp) is float
        if not _finite([fp, fm] if scalar else fp + fm):
            raise NonFiniteJacobian(f"probe {i} produced a non-finite value")
        if scalar:
            cols.append((fp - fm) / two_h)
        else:
            cols.append([(p - m) / two_h for p, m in zip(fp, fm)])
    return np.array(cols if scalar else list(zip(*cols)))


def _plus(inner: float, term: Callable, x: np.ndarray, xi: np.ndarray) -> float:
    """A lift's value: the value ``inner`` below it plus ``term(x, xi)``.

    +inf where ``inner`` is, and ``term`` is then not evaluated: the
    backstep term evaluates a feedback that raises :class:`ChartSingular`
    where the chart potential is infinite.
    """
    inner = float(inner)
    return math.inf if math.isinf(inner) else inner + term(x, xi)


def estimate_flow(
    x: np.ndarray,
    xi_c: np.ndarray,
    theta_hat: np.ndarray,
    plant: AffinePlant,
    ball: ParamBall,
    grad_potential: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Projected gradient adaptation law for the parameter estimate."""
    drive = plant.disturbance_matrix(x, xi_c).T @ grad_potential(x, xi_c)
    return ball.gain @ project_rate(drive, theta_hat, ball)


@dataclass(frozen=True)
class AdaptiveController(ControllerData):
    """Adaptive lift of a nominal synergistic controller.

    Carries the construction data so the backstepping lift (and the
    monitors) can reuse it.
    """

    nominal: ControllerData
    plant: AffinePlant
    ball: ParamBall
    grad_potential: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def split(self, xi_c1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.nominal.n_state
        return xi_c1[:n], xi_c1[n:]

    def term(self, x, xi_c1) -> float:
        """The lift's added term: half the estimate's squared distance to the ball.

        The worst case over admissible parameters: it never depends on the
        true parameter, so the lifted gap lower-bounds the true-parameter gap.
        """
        return 0.5 * ball_distance(self.split(xi_c1)[1], self.ball)[0]

    def gap(self, x, xi_c1) -> float:
        """The nominal gap plus :meth:`term`."""
        return _plus(self.nominal.gap(x, self.split(xi_c1)[0]), self.term, x, xi_c1)


def lift_adaptive(
    nominal: ControllerData,
    plant: AffinePlant,
    ball: ParamBall,
    grad_potential: Callable,
) -> AdaptiveController:
    """Build the adaptive controller from a nominally synergistic one.

    The lifted controller state stacks the nominal controller state and
    the parameter estimate.  Feedback subtracts the matched compensation
    ``matched_matrix @ estimate``; the estimate flows with the projected
    gradient law; jumps reset the nominal part to a potential minimizer
    and the estimate to its ball projection.  The lifted potential is
    the worst case over admissible parameters, so its gap is the
    implementable (robust) one, never the true-parameter gap; the lift
    computes it in closed form, and enumerating its candidates gives
    the same value.

    ``grad_potential(x, xi_c)`` is the nominal potential's gradient in ``x``.
    """
    # The closures read ``ctrl``, the lift built below.
    def feedback(x, xi_c1):
        xi_c, th = ctrl.split(xi_c1)
        return nominal.feedback(x, xi_c) - plant.matched_matrix(x, xi_c) @ th

    def potential(x, xi_c1):
        return _plus(nominal.potential(x, ctrl.split(xi_c1)[0]), ctrl.term, x, xi_c1)

    def candidates(x, xi_c1):
        xi_c, th = ctrl.split(xi_c1)
        target = reset_estimate(th, ball)
        _, minimizers, _ = min_over_candidates(nominal, x, xi_c)
        return [
            np.concatenate([np.asarray(g, dtype=float), target])
            for g in minimizers
        ]

    def controller_flow(x, xi_c1):
        xi_c, th = ctrl.split(xi_c1)
        return np.concatenate(
            [
                np.asarray(nominal.controller_flow(x, xi_c), dtype=float),
                estimate_flow(x, xi_c, th, plant, ball, grad_potential),
            ]
        )

    ctrl = AdaptiveController(
        n_state=nominal.n_state + ball.gain.shape[0],
        feedback=feedback,
        potential=potential,
        candidates=candidates,
        controller_flow=controller_flow,
        margin=nominal.margin,
        nominal=nominal,
        plant=plant,
        ball=ball,
        grad_potential=grad_potential,
    )
    return ctrl


@dataclass(frozen=True)
class BackstepController(ControllerData):
    """Backstepping lift of an adaptive synergistic controller."""

    adaptive: AdaptiveController
    gains: BackstepGains

    def split(self, xi_c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.adaptive.n_state
        return xi_c2[:n], xi_c2[n:]

    def term(self, x, xi_c2) -> float:
        """The lift's added term: the input error's :meth:`BackstepGains.error_term`."""
        xi_c1, u = self.split(xi_c2)
        return self.gains.error_term(u - self.adaptive.feedback(x, xi_c1))

    def gap(self, x, xi_c2) -> float:
        """The adaptive gap plus :meth:`term`."""
        return _plus(self.adaptive.gap(x, self.split(xi_c2)[0]), self.term, x, xi_c2)


def lift_backstep(
    adaptive: AdaptiveController,
    gains: BackstepGains,
    jac: Callable,
    controller_jacobian: Optional[Callable] = None,
) -> BackstepController:
    """Build the backstepping controller from an adaptive one.

    The controller state gains the input as a component.  The estimate
    flows with the gradient drive corrected for the input error through
    the feedback Jacobian; the input rate combines damping toward the
    adaptive feedback, the potential-descent coupling term, compensation
    of the estimate motion, and feedforward of the feedback's drift along
    the certainty-equivalent model (the true parameter replaced by the
    estimate).
    Jump candidates pair each adaptive candidate with the input value
    the adaptive feedback would command there, so the input error is
    reset to exactly zero at every jump and the implementable gap gains
    the input error's :meth:`BackstepGains.error_term`.

    ``jac(x, xi_c1)`` is the adaptive feedback's x-Jacobian.  Its
    Jacobian in the nominal controller state, ``controller_jacobian``,
    may be omitted only when that state does not flow, which is verified
    at every flow evaluation.
    """
    plant = adaptive.plant
    ball = adaptive.ball

    # The closures read ``ctrl``, the lift built below.
    def feedback(x, xi_c2):
        return ctrl.split(xi_c2)[1]

    def potential(x, xi_c2):
        return _plus(adaptive.potential(x, ctrl.split(xi_c2)[0]), ctrl.term, x, xi_c2)

    def candidates(x, xi_c2):
        return [
            np.concatenate([g1, np.asarray(adaptive.feedback(x, g1), dtype=float)])
            for g1 in adaptive.candidates(x, ctrl.split(xi_c2)[0])
        ]

    def controller_flow(x, xi_c2):
        xi_c1, u = ctrl.split(xi_c2)
        xi_c, th = adaptive.split(xi_c1)
        # Every term shared by the rates is evaluated once per call.
        u_err = u - adaptive.feedback(x, xi_c1)
        jac_k1 = jac(x, xi_c1)
        grad_v = adaptive.grad_potential(x, xi_c)
        input_mat = plant.input_matrix(x, xi_c)
        psi_theta = plant.disturbance_matrix(x, xi_c)
        # plant.f with the estimate in place of the true parameter.
        model = plant.drift(x, xi_c) + input_mat @ u + psi_theta @ th

        drive = psi_theta.T @ (grad_v - jac_k1.T @ (gains.gain_inv @ u_err))
        estimate_rate = ball.gain @ project_rate(drive, th, ball)
        input_rate = (
            -plant.matched_matrix(x, xi_c) @ estimate_rate
            - gains.damping * u_err
            - gains.gain @ (input_mat.T @ grad_v)
            + jac_k1 @ model
        )
        f_c = np.asarray(adaptive.nominal.controller_flow(x, xi_c), dtype=float)
        if controller_jacobian is not None:
            input_rate = input_rate + controller_jacobian(x, xi_c1) @ f_c
        elif np.any(f_c != 0.0):
            raise ValueError(
                "controller_jacobian is required when the nominal "
                "controller state flows"
            )
        return np.concatenate([f_c, estimate_rate, input_rate])

    ctrl = BackstepController(
        n_state=adaptive.n_state + plant.n_u,
        feedback=feedback,
        potential=potential,
        candidates=candidates,
        controller_flow=controller_flow,
        margin=adaptive.margin,
        adaptive=adaptive,
        gains=gains,
    )
    return ctrl


def adaptive_true_potential(
    ctrl: AdaptiveController, theta: np.ndarray
) -> Callable[[np.ndarray, np.ndarray], float]:
    """True-parameter Lyapunov function of the adaptive closed loop.

    Not implementable as controller data (it depends on the unknown
    parameter); used only by monitors and tests.
    """
    theta = np.asarray(theta, dtype=float)

    def term(x, xi_c1):
        return ctrl.ball.error_term(theta - ctrl.split(xi_c1)[1])

    def value(x, xi_c1):
        return _plus(ctrl.nominal.potential(x, ctrl.split(xi_c1)[0]), term, x, xi_c1)

    return value


def backstep_true_potential(
    ctrl: BackstepController, theta: np.ndarray
) -> Callable[[np.ndarray, np.ndarray], float]:
    """True-parameter Lyapunov function of the backstepping closed loop."""
    inner = adaptive_true_potential(ctrl.adaptive, theta)

    def value(x, xi_c2):
        return _plus(inner(x, ctrl.split(xi_c2)[0]), ctrl.term, x, xi_c2)

    return value
