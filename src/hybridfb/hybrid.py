"""Hybrid time domains, hybrid arcs, and an event-located hybrid solver.

A hybrid system alternates continuous flow (an ODE restricted to a flow
set) with discrete jumps (a reset map on a jump set).  Solutions are
parametrized by hybrid time ``(t, j)``: ordinary time ``t`` and the jump
count ``j``.  Flow and jump sets are described by scalar indicator
functions; the flow set is where ``flow_indicator <= 0`` and the jump
set where ``jump_indicator >= 0``.

A solution is a :class:`HybridArc`, stored as its samples: one
``(times, states)`` pair per flow interval.  Its hybrid time domain and
its jump records are read off those samples, never stored beside them.

Flow segments are integrated with :class:`RK45`, the Dormand-Prince
5(4) pair with Shampine's quartic dense output, stepped manually so the
solver can project states back onto a manifold after each accepted step,
locate jump-set boundary crossings on the dense output, and stay
bit-for-bit deterministic.  A crossing's located sample is the one that
bisecting the jump indicator would return; an Illinois regula falsi
estimate of the root lets the bisection be replayed with calls only near
it, and plain bisection runs when no usable estimate is found (Shampine
& Thompson, "Event location for ordinary differential equations",
2000).  The stepper repeats the arithmetic of the
reference ``RK45`` implementation operation for operation, so its steps
match that reference bit for bit (``TestRK45Oracle`` in the tests);
numpy is the only runtime dependency.

Each state the solver records is projected once, where it is made, and
its jump indicator is evaluated once.  The value travels with the state
into the jump decision, :func:`apply_jump` and the next flow interval.
When a projection moves an accepted state, the stepper is reseated on it
in place instead of being rebuilt.  A non-finite state, indicator value
or flow-map value raises :class:`DomainEscape`, and one solve takes at
most ``MAX_STEPS`` accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal, Optional

import numpy as np

from .errors import (
    DomainEscape,
    IntegrationStalled,
    JumpOutsideJumpSet,
    ZenoSuspected,
)

ExitReason = Literal["time", "jump_boundary"]

# Step sizes below this (seconds) count as an integrator stall.
MIN_STEP = 1e-14
# Accepted steps one solve may take; the published runs take ~1000.
MAX_STEPS = 10**7
# Maximum halvings of the bisection that locates a jump-set crossing,
# replayed or run in full.
MAX_BISECT = 60
# Indicator calls the root estimate may make before plain bisection runs
# instead, and the |g| (in units of event_tol) that ends it.
ESTIMATE_BUDGET = 8
ESTIMATE_TOL = 1e-3
# Half-width of the band around the estimated root, in units of
# event_tol / slope, inside which the replayed bisection evaluates.
LOCATE_BAND = 4.0
# Flow time (seconds) over the trailing 10 jumps below which a run that
# exhausts its jump budget is flagged as suspected Zeno behavior.
ZENO_WINDOW = 1e-6
ZENO_JUMPS = 10


@dataclass(frozen=True)
class JumpRecord:
    """One jump: time, index of the interval being left, and both states."""

    t: float
    j: int
    before: np.ndarray
    after: np.ndarray


@dataclass(frozen=True)
class HybridArc:
    """A hybrid solution, stored as its samples.

    ``samples[k]`` is a pair ``(times, states)`` for flow interval ``k``
    (jump index ``j = k``), with ``times`` of shape (m,) and ``states`` of
    shape (m, n); an interval without flow holds its one entry sample.
    The time domain and the jump records are read off the samples: the
    interval spans its first and last time, and jump ``k`` leaves the
    last sample of interval ``k`` for the first sample of interval
    ``k+1``.
    """

    samples: tuple

    @cached_property
    def domain(self) -> tuple:
        """The hybrid time domain: one ``(t_start, t_end, j)`` per interval."""
        return tuple(
            (float(times[0]), float(times[-1]), k)
            for k, (times, _) in enumerate(self.samples)
        )

    @cached_property
    def jump_records(self) -> tuple:
        return tuple(
            JumpRecord(t=float(times[-1]), j=k, before=states[-1], after=after[0])
            for k, ((times, states), (_, after)) in enumerate(
                zip(self.samples, self.samples[1:])
            )
        )

    @property
    def final_time(self) -> float:
        return float(self.samples[-1][0][-1])

    @property
    def jump_count(self) -> int:
        return len(self.samples) - 1

    @property
    def final_state(self) -> np.ndarray:
        return self.samples[-1][1][-1]

    def iter_samples(self):
        """Yield (t, j, state) over all samples in hybrid-time order."""
        for j, (times, states) in enumerate(self.samples):
            for t, y in zip(times, states):
                yield float(t), j, y

    def total_flow_time(self) -> float:
        return sum(b - a for a, b, _ in self.domain)


@dataclass(frozen=True)
class HybridSystemDef:
    """Single-valued hybrid system data consumed by the solver.

    The flow and jump maps are deterministic selections chosen by the
    caller; set-valued dynamics are outside the solver's scope.
    ``project_state``, when given, is applied to every accepted state to
    pull it back onto an invariant manifold (e.g. renormalizing a unit
    vector component).  It returns a new array, or its argument when that
    needs no change, and never modifies its argument: the stepper keeps
    stepping from the accepted state it is given.
    """

    flow_map: Callable[[np.ndarray], np.ndarray]
    flow_indicator: Callable[[np.ndarray], float]
    jump_indicator: Callable[[np.ndarray], float]
    jump_map: Callable[[np.ndarray], np.ndarray]
    project_state: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def project(self, state: np.ndarray) -> np.ndarray:
        if self.project_state is None:
            return state
        return self.project_state(state)


@dataclass(frozen=True)
class SolverConfig:
    """Termination rules and integrator tolerances for :func:`solve`.

    A run stops at the flow-time horizon ``t_max`` or when the jump
    budget ``j_max`` is spent.  ``t_max`` and tolerances must be finite,
    and ``t_max / max_step`` at most ``MAX_STEPS``.
    """

    t_max: float = 10.0
    j_max: int = 100
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    event_tol: float = 1e-10
    max_step: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.t_max < math.inf:
            raise ValueError("t_max must be nonnegative and finite")
        if self.j_max < 0:
            raise ValueError("j_max must be nonnegative")
        for name in ("abs_tol", "rel_tol", "event_tol", "max_step"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.t_max / self.max_step > MAX_STEPS:
            raise ValueError(
                f"t_max / max_step exceeds the step budget MAX_STEPS={MAX_STEPS}"
            )


def _rms(x: np.ndarray) -> np.float64:
    """Root-mean-square norm, computed as the reference stepper computes it.

    The result stays a numpy scalar, so dividing by a zero norm gives inf
    with a warning, as in the reference, instead of raising.
    """
    return np.sqrt(x.dot(x)) / x.size ** 0.5


class RK45:
    """Dormand-Prince 5(4) stepper with Shampine's dense output, forward in time.

    A replica, operation for operation, of the reference ``RK45`` that
    the tests step beside it (``TestRK45Oracle``): the tableau, stage
    sums, RMS error norm, step-size rule, initial step, ``rtol`` floor
    and dense-output polynomial are the reference's, so every step and
    interpolant is bit-identical to it (Hairer, Norsett & Wanner,
    *Solving ODEs I*, II.4-II.6).  ``t_bound`` must exceed ``t0``.

    Between steps the caller may reassign ``y`` together with ``f``
    (``fun`` at ``(t, y)``, the first stage of the next step).  ``step``
    returns ``None``, or a message when the step size fell below ten
    times the spacing of floats at ``t``; ``status`` is then
    ``"failed"``.  ``nonfinite_rejection`` tells whether the last
    ``step`` call rejected a try whose error norm was not finite (the
    flow map returned a non-finite stage).  A non-finite ``y0`` raises
    :class:`DomainEscape`.

    The stage array ``K`` and the views of it that the stage sums read
    (``K[:s].T``, ``K[:-1].T``, ``K.T``, with their tableau rows) are built
    once per stepper and reused by every step and every reseat.  Each sum
    stays one ``np.dot`` over the same view, so its bits are the
    reference's.
    """

    C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
    A = np.array([
        [0, 0, 0, 0, 0],
        [1/5, 0, 0, 0, 0],
        [3/40, 9/40, 0, 0, 0],
        [44/45, -56/15, 32/9, 0, 0],
        [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
    ])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
    # Shampine's dense-output coefficients, for the optimum c_6.
    P = np.array([
        [1, -8048581381/2820520608, 8663915743/2820520608,
         -12715105075/11282082432],
        [0, 0, 0, 0],
        [0, 131558114200/32700410799, -68118460800/10900136933,
         87487479700/32700410799],
        [0, -1754552775/470086768, 14199869525/1410260304,
         -10690763975/1880347072],
        [0, 127303824393/49829197408, -318862633887/49829197408,
         701980252875 / 199316789632],
        [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
        [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
    ])
    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 10
    ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
    RTOL_FLOOR = 100 * np.finfo(float).eps
    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

    def __init__(self, fun, t0, y0, t_bound, max_step, rtol, atol, first_step=None):
        y = np.asarray(y0, dtype=float)
        if not np.isfinite(y).all():
            raise DomainEscape(
                f"flow started from a non-finite state at t={t0:.6g}",
                state=y,
                t=t0,
            )
        self.fun, self.t, self.y, self.t_bound = fun, t0, y, t_bound
        self.max_step, self.atol = max_step, atol
        self.rtol = max(rtol, self.RTOL_FLOOR)
        self.t_old = self.y_old = None
        self.status = "running"
        self.nonfinite_rejection = False
        self.f = np.asarray(fun(t0, y), dtype=float)
        self.K = K = np.empty((len(self.C) + 1, y.size))
        # The views of K that the stage sums read, with their tableau rows
        # and nodes.  K lives as long as the stepper, a reseat included.
        self._stages = [
            (K[:s].T, self.A[s, :s], float(self.C[s])) for s in range(1, len(self.C))
        ]
        self._K_body, self._K_all = K[:-1].T, K.T
        self._sqrt_size = y.size ** 0.5
        self.h_abs = self._initial_step() if first_step is None else first_step

    def _initial_step(self) -> float:
        """Empirical initial step of Hairer et al., II.4."""
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval_length, self.max_step)

    def step(self) -> Optional[str]:
        """Advance by one accepted step, retrying rejected ones."""
        t, y, K = self.t, self.y, self.K
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        rejected = self.nonfinite_rejection = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return self.TOO_SMALL_STEP
            t_new = min(t + h_abs, self.t_bound)
            h = h_abs = t_new - t

            # Each sum is formed as ``y + h * (K^T w)``, in place.
            K[0] = self.f
            for s, (K_used, a, c) in enumerate(self._stages, start=1):
                y_stage = np.dot(K_used, a)
                y_stage *= h
                y_stage += y
                K[s] = self.fun(t + c * h, y_stage)
            y_new = np.dot(self._K_body, self.B)
            y_new *= h
            y_new += y
            K[-1] = f_new = self.fun(t + h, y_new)

            scale = np.abs(y_new)
            np.maximum(np.abs(y), scale, out=scale)
            scale *= self.rtol
            scale += self.atol
            err = np.dot(self._K_all, self.E)
            err *= h
            err /= scale
            error_norm = math.sqrt(err.dot(err)) / self._sqrt_size
            if error_norm < 1:
                if error_norm == 0:
                    factor = self.MAX_FACTOR
                else:
                    factor = min(
                        self.MAX_FACTOR,
                        self.SAFETY * error_norm ** self.ERROR_EXPONENT,
                    )
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(
                self.MIN_FACTOR, self.SAFETY * error_norm ** self.ERROR_EXPONENT
            )
            rejected = True
            if not math.isfinite(error_norm):
                self.nonfinite_rejection = True

        self.t_old, self.y_old = t, y
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        if t_new >= self.t_bound:
            self.status = "finished"
        return None

    def dense_output(self) -> Callable[[float], np.ndarray]:
        """Shampine's quartic interpolant over the last accepted step."""
        t_old, y_old = self.t_old, self.y_old
        h = self.t - t_old
        Q = self.K.T.dot(self.P)

        def interpolant(t: float) -> np.ndarray:
            # The powers x, x^2, x^3, x^4 multiplied left to right, as the
            # reference's cumulative product forms them.
            x = (t - t_old) / h
            x2 = x * x
            x3 = x2 * x
            return h * np.dot(Q, np.array([x, x2, x3, x3 * x])) + y_old

        return interpolant


def _indicator_value(indicator, y: np.ndarray, t: float, kind: str) -> float:
    """Evaluate a flow or jump indicator; a non-finite value is a DomainEscape."""
    value = float(indicator(y))
    if not math.isfinite(value):
        raise DomainEscape(
            f"{kind} indicator is {value} at t={t:.6g}", state=y, t=t
        )
    return value


def _estimate_root(dense, sys, t_lo, g_lo, t_hi, g_hi, tol):
    """Illinois regula falsi for the jump indicator's root over one step.

    Starts from the bracket ``g_lo < 0 <= g_hi`` at ``t_lo < t_hi`` and
    replaces an end by each new iterate; an end kept twice in a row has
    its value halved in the secant (Dowell & Jarratt 1971).  Returns
    ``(t_root, slope)`` once an iterate has ``|g| <= tol``, with ``slope``
    the secant of the last bracket's true (unhalved) values, or ``None``
    when no iterate converges within ``ESTIMATE_BUDGET`` calls or the
    slope is not positive and finite.
    """
    a, g_a, w_a = t_lo, g_lo, g_lo
    b, g_b, w_b = t_hi, g_hi, g_hi
    kept = 0  # +1: ``a`` kept by the last iterate, -1: ``b`` kept
    for _ in range(ESTIMATE_BUDGET):
        t = (a * w_b - b * w_a) / (w_b - w_a)
        if not a < t < b:
            return None
        y_t = sys.project(np.asarray(dense(t), dtype=float))
        g_t = _indicator_value(sys.jump_indicator, y_t, t, "jump")
        if g_t >= 0.0:
            b, g_b, w_b = t, g_t, g_t
            if kept == 1:
                w_a *= 0.5
            kept = 1
        else:
            a, g_a, w_a = t, g_t, g_t
            if kept == -1:
                w_b *= 0.5
            kept = -1
        if abs(g_t) <= tol:
            slope = (g_b - g_a) / (b - a)
            return (t, slope) if 0.0 < slope < math.inf else None
    return None


def _bisect(dense, sys, a, b, y_b, g_b, event_tol, root=0.0, band=math.inf):
    """Bisect the jump indicator on ``[a, b]`` until ``g_b <= event_tol``.

    Each midpoint within ``band`` of ``root`` is projected and its
    indicator evaluated; a midpoint farther out is placed on its side of
    ``root`` without a call.  With the default infinite band this is the
    plain bisection; with a finite one it replays it wherever the
    crossing lies within ``band`` of ``root`` and the indicator keeps its
    sign on each side outside the band.  Returns the last evaluated
    sample ``(t, y, g)`` that became ``b``: the bisection's sample, or
    one with ``g > event_tol`` when a replay ends on a ``b`` placed
    without a call.
    """
    t_b = b
    for _ in range(MAX_BISECT):
        if g_b <= event_tol:
            break
        m = 0.5 * (a + b)
        if m <= a or m >= b:  # interval exhausted at float resolution
            break
        if abs(m - root) > band:
            # Beyond the band the indicator is above event_tol, or below 0.
            if m > root:
                b = m
            else:
                a = m
            continue
        y_m = sys.project(np.asarray(dense(m), dtype=float))
        g_m = _indicator_value(sys.jump_indicator, y_m, m, "jump")
        if g_m >= 0.0:
            b = t_b = m
            y_b, g_b = y_m, g_m
        else:
            a = m
    return t_b, y_b, g_b


def _locate_crossing(dense, sys, t_lo, g_lo, t_hi, y_hi, g_hi, event_tol):
    """Locate the bisection's boundary sample over one accepted step.

    Precondition: ``g_lo < 0`` at ``t_lo`` and ``g_hi >= 0`` at ``t_hi``.
    Returns the sample ``(t, state, g)`` that bisecting the jump indicator
    on ``[t_lo, t_hi]`` until ``0 <= g <= event_tol`` (up to
    ``MAX_BISECT`` halvings) returns, bit for bit, at a fraction of its
    indicator calls.  :func:`_estimate_root` first estimates the root on
    the dense output; :func:`_bisect` then replays the bisection and
    evaluates only the midpoints within ``LOCATE_BAND * event_tol /
    slope`` of the estimate.  Plain bisection runs instead when there is
    no estimate, when the replay ends before an evaluated midpoint has
    ``g <= event_tol``, or when either phase raises :class:`DomainEscape`,
    so an unusable estimate gives the plain bisection's result or
    exception.  The replay never evaluates the midpoints it skips, so a
    non-finite indicator there goes unseen.
    """
    try:
        estimate = _estimate_root(
            dense, sys, t_lo, g_lo, t_hi, g_hi, ESTIMATE_TOL * event_tol
        )
        if estimate is not None:
            root, slope = estimate
            t, y, g = _bisect(
                dense, sys, t_lo, t_hi, y_hi, g_hi, event_tol,
                root, LOCATE_BAND * event_tol / slope,
            )
            if g <= event_tol:
                return t, y, g
    except DomainEscape:
        pass
    return _bisect(dense, sys, t_lo, t_hi, y_hi, g_hi, event_tol)


def advance_flow(
    state: np.ndarray,
    g: float,
    sys: HybridSystemDef,
    cfg: SolverConfig,
    t0: float = 0.0,
    max_steps: int = MAX_STEPS,
) -> tuple[tuple, float, ExitReason]:
    """Integrate one flow interval from ``state`` at time ``t0``.

    ``state`` is taken as already projected and ``g`` as its jump
    indicator value; neither is recomputed.  Returns ``(samples, g_end,
    reason)``: ``samples`` is the pair ``(times, states)`` of the
    interval, entry sample included; ``g_end`` is the jump indicator at
    the last sample; ``reason`` is ``time`` when ``cfg.t_max`` is
    reached, or ``jump_boundary`` when the jump indicator crosses zero
    from below.
    Boundary crossings are located by :func:`_locate_crossing`, which
    returns the bisection's sample, so that the final sample satisfies
    ``0 <= jump_indicator <= cfg.event_tol`` (up to ``MAX_BISECT``
    halvings); the step's bracket ``(t_prev, g_prev)``, ``(t_new,
    g_new)`` starts its root estimate.

    Each accepted state is projected once and its jump indicator
    evaluated once.  When ``sys.flow_indicator is sys.jump_indicator``
    (as :func:`~hybridfb.synergistic.build_closed_loop` builds them), the
    flow indicator's value at a state is that jump value, so the entry
    state and each accepted state cost one indicator call.  When the
    projection moves the state, the stepper is reseated on the projected
    state in place, keeping its step size.

    Raises
    ------
    DomainEscape
        If the flow indicator exceeds ``event_tol`` at the initial state
        or at an accepted step whose state is also outside the jump set,
        if a state or an indicator value is not finite, or if the flow
        map returns a non-finite value at a finite state, also when the
        step size underflows while the stepper rejects such values.
    IntegrationStalled
        If an interior accepted step is shorter than ``1e-14`` s, or the
        stepper fails on its minimum step, with the flow map finite on
        every try; or if the interval would take more than ``max_steps``
        accepted steps.
    """
    y0 = np.asarray(state, dtype=float)
    shared = sys.flow_indicator is sys.jump_indicator
    f0 = g if shared else _indicator_value(sys.flow_indicator, y0, t0, "flow")
    if f0 > cfg.event_tol:
        raise DomainEscape(
            f"flow started outside the flow set (indicator {f0:.3e})",
            state=y0,
            t=t0,
        )

    times = [float(t0)]
    states = [y0]

    def _exit(g_end: float, reason: ExitReason):
        samples = (np.asarray(times, dtype=float), np.asarray(states, dtype=float))
        return samples, g_end, reason

    if t0 >= cfg.t_max:
        return _exit(g, "time")

    flow_map = sys.flow_map

    def rhs(_t, y):
        return flow_map(y)

    def flow_map_escape():
        return DomainEscape(
            f"flow map returned a non-finite value near t={solver.t:.6g}",
            state=solver.y,
            t=solver.t,
        )

    def check_flow_values(values):
        if not np.isfinite(values).all():
            raise flow_map_escape()

    g_prev = g
    t_prev = float(t0)
    solver = RK45(
        rhs,
        t_prev,
        y0,
        t_bound=cfg.t_max,
        max_step=cfg.max_step,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
    )
    # A non-finite first stage would make the initial step size NaN, and
    # the stepper would then reject its tries forever.
    check_flow_values(solver.f)

    for _ in range(max_steps):
        message = solver.step()
        if solver.status == "failed":
            # The stages hold the last try: a non-finite one, or a try
            # rejected on a non-finite error norm, means the flow map, not
            # the step size, ended the step.
            if solver.nonfinite_rejection:
                raise flow_map_escape()
            check_flow_values(solver.K)
            raise IntegrationStalled(
                f"integrator failed at t={solver.t:.6g}: {message}"
            )
        t_new = float(solver.t)
        # The final step is truncated to land on t_bound and may be tiny;
        # only an interior micro-step signals a stall.  Micro-steps that
        # creep up to a region where the flow map is not finite come from
        # rejecting tries into it.
        if t_new - t_prev < MIN_STEP and solver.status != "finished":
            if solver.nonfinite_rejection:
                raise flow_map_escape()
            raise IntegrationStalled(
                f"step size underflow at t={t_new:.6g} "
                f"(step {t_new - t_prev:.3e} s)"
            )
        y_raw = solver.y
        y_new = sys.project(y_raw)
        if not np.isfinite(y_new).all():
            raise DomainEscape(
                f"flow reached a non-finite state at t={t_new:.6g}",
                state=y_new,
                t=t_new,
            )
        g_new = _indicator_value(sys.jump_indicator, y_new, t_new, "jump")

        if g_prev < 0.0 <= g_new:
            t_star, y_star, g_star = _locate_crossing(
                solver.dense_output(), sys, t_prev, g_prev, t_new, y_new, g_new,
                cfg.event_tol,
            )
            times.append(t_star)
            states.append(y_star)
            return _exit(g_star, "jump_boundary")

        f_new = (
            g_new if shared
            else _indicator_value(sys.flow_indicator, y_new, t_new, "flow")
        )
        if f_new > cfg.event_tol:
            if g_new >= -cfg.event_tol:
                # Left the flow set but already inside the jump set: the
                # segment started on (or within tolerance of) the
                # boundary, so hand over to the jump logic here.
                times.append(t_new)
                states.append(y_new)
                return _exit(g_new, "jump_boundary")
            raise DomainEscape(
                f"flow left the flow set at t={t_new:.6g} without entering "
                f"the jump set (flow indicator {f_new:.3e})",
                state=y_new,
                t=t_new,
            )

        times.append(t_new)
        states.append(y_new)

        if solver.status == "finished":
            return _exit(g_new, "time")

        if y_new is not y_raw and (y_new != y_raw).any():
            # Projection moved the state: reseat the stepper on it.  Besides
            # t and h_abs, RK45 carries only y and f (the first stage of
            # the next step) between steps, and clips h_abs to max_step
            # and to the horizon itself, so it then steps as one built
            # fresh from (t_new, y_new, h_abs) would (TestStepperReseat).
            solver.y = y_new
            solver.f = solver.fun(t_new, y_new)
            check_flow_values(solver.f)
        t_prev, g_prev = t_new, g_new
    raise IntegrationStalled(
        f"step budget exhausted at t={t_prev:.6g}: one solve takes at most "
        f"MAX_STEPS={MAX_STEPS} accepted steps"
    )


def apply_jump(
    state: np.ndarray, g: float, sys: HybridSystemDef, cfg: SolverConfig
) -> np.ndarray:
    """Apply the jump map at ``state``, whose jump indicator value is ``g``.

    ``g`` is the value the caller evaluated at ``state``; it is checked,
    not recomputed.  Raises :class:`JumpOutsideJumpSet` when it is below
    ``-cfg.event_tol``.  The result is not projected.
    """
    if g < -cfg.event_tol:
        raise JumpOutsideJumpSet(
            f"jump requested outside the jump set (indicator {g:.3e})"
        )
    return np.asarray(sys.jump_map(state), dtype=float)


def solve(
    sys: HybridSystemDef, x0: np.ndarray, cfg: SolverConfig
) -> HybridArc:
    """Simulate the hybrid system from ``x0`` until a termination rule fires.

    The solver alternates :func:`advance_flow` and :func:`apply_jump`.
    Where both actions are admissible (the shared boundary of the flow
    and jump sets), the jump wins.  The run stops at
    ``cfg.t_max`` or when the jump budget ``cfg.j_max`` is exhausted.
    The accepted flow steps of all intervals together may not exceed
    ``MAX_STEPS``.

    Every recorded state is projected once, where it is made (``x0``,
    each accepted step, each jump), and its jump indicator is evaluated
    once.  That value decides the jump, is checked by :func:`apply_jump`
    and starts the next flow interval.  The samples :func:`advance_flow`
    returns become the arc's interval as they are.

    Raises
    ------
    DomainEscape
        If ``x0`` (or a post-jump state) lies outside both sets, or a
        state, an indicator value or a flow-map value is not finite.
    IntegrationStalled
        If the step size underflows or the step budget is exhausted.
    ZenoSuspected
        If the jump budget is exhausted with less than ``1e-6`` s of flow
        since the 10th-to-last jump.
    """
    y = sys.project(np.array(x0, dtype=float))
    t = 0.0
    g = _indicator_value(sys.jump_indicator, y, t, "jump")
    steps = 0
    samples: list[tuple] = []
    # The open interval: its entry sample until it flows.  It flows at most
    # once, since a flow that stops on the jump set is followed by a jump.
    interval = (np.array([t]), np.array([y]))

    while t < cfg.t_max:
        if g >= -cfg.event_tol:
            if len(samples) >= cfg.j_max:
                if len(samples) >= ZENO_JUMPS:
                    window = t - float(samples[-ZENO_JUMPS][0][-1])
                    if window < ZENO_WINDOW:
                        raise ZenoSuspected(
                            f"jump budget j_max={cfg.j_max} exhausted with only "
                            f"{window:.3e} s of flow over the last {ZENO_JUMPS} jumps"
                        )
                break
            y = sys.project(apply_jump(y, g, sys, cfg))
            g = _indicator_value(sys.jump_indicator, y, t, "jump")
            samples.append(interval)
            interval = (np.array([t]), np.array([y]))
            continue

        # Outside the jump set: advance_flow raises DomainEscape if the
        # state is outside the flow set too.
        interval, g, reason = advance_flow(
            y, g, sys, cfg, t0=t, max_steps=MAX_STEPS - steps
        )
        times, states = interval
        steps += len(times) - 1
        t = float(times[-1])
        y = states[-1]
        if reason != "jump_boundary":
            break

    samples.append(interval)
    return HybridArc(samples=tuple(samples))


def validate_domain(arc: HybridArc) -> list[str]:
    """Check that the arc's samples form a hybrid time domain; return violations.

    An empty list means the arc is well formed: it has at least one
    interval, no interval is empty, each interval has as many states as
    times, the first time is nonnegative, times never decrease, and each
    interval starts where the one before it ends.  The domain and the
    jump records are read off the samples, so they agree with them by
    construction and need no check.
    """
    if not arc.samples:
        return ["arc has no intervals"]
    violations: list[str] = []
    end = None
    for k, (times, states) in enumerate(arc.samples):
        if len(times) == 0:
            violations.append(f"interval {k}: no samples")
            end = None
            continue
        if len(times) != len(states):
            violations.append(f"interval {k}: times/states length mismatch")
        start = float(times[0])
        if k == 0 and start < 0.0:
            violations.append(f"interval 0: negative start time {start}")
        if end is not None and start != end:
            violations.append(
                f"intervals {k - 1}->{k}: not contiguous "
                f"(end {end} vs start {start})"
            )
        if np.any(np.diff(times) < 0.0):
            violations.append(f"interval {k}: sample times decrease")
        end = float(times[-1])
    return violations
