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
bit-for-bit deterministic.  A crossing is located by one bracketing
loop on the dense output of the step whose ends bracket it:
Anderson-Bjorck regula falsi iterates, then halvings, until the jump
indicator is within ``[0, event_tol]`` or the bracket runs out (Anderson
& Bjorck 1973; Shampine & Thompson, "Event location for ordinary
differential equations", 2000).  The stepper runs on Python
floats, with every sum written out left to right, and hands every
callback (flow map, indicators, projection, jump map) a list of floats;
no step goes through BLAS, so a trajectory has the same bits whichever
kernel the BLAS library picks.  Its step-size rule is scipy's ``RK45``,
which ``TestRK45Oracle`` steps beside it; numpy is the only runtime
dependency, and builds each interval's sample arrays once.

Each state the solver records is projected once, where it is made
(``x0``, each accepted step, each jump), and its jump indicator is
evaluated once; a flow indicator that is the jump indicator's object, as
:func:`~hybridfb.synergistic.build_closed_loop` builds them, is not
called again.  The value travels with the state into the jump decision,
:func:`apply_jump` and the next flow interval.  One stepper serves a
whole solve.  It is built at the first flow, at two flow-map calls, and
takes six per try.  A projection that moves an accepted state keeps its
last stage as the next first stage (first same as last), and a jump
reseats it at one flow-map call, keeping its step size.  A non-finite
state, indicator value or flow-map value raises :class:`DomainEscape`, a
callback result not of the state's length :class:`StateLengthMismatch`,
and one solve takes at most ``MAX_STEPS`` accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainEscape,
    IntegrationStalled,
    JumpOutsideJumpSet,
    StateLengthMismatch,
    ZenoSuspected,
)

# Step sizes below this (seconds) count as an integrator stall.
MIN_STEP = 1e-14
# Accepted steps one solve may take; the published runs take ~1000.
MAX_STEPS = 10**7
# Regula falsi iterates that locating a jump-set crossing takes before
# it halves the bracket, and the most halvings it takes after them.
ESTIMATE_BUDGET = 8
MAX_BISECT = 60
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
    The solver calls every callback with a state that is a list of
    floats, and takes back any sequence of floats of the state's length.
    A result of another length raises :class:`StateLengthMismatch`; the
    flow map's is checked where each flow interval starts.
    ``project_state``, when given, is applied to every accepted state to
    pull it back onto an invariant manifold (e.g. renormalizing a unit
    vector component).  It returns a new sequence, or its argument when
    that needs no change, and never modifies its argument.  The stepper
    keeps the flow map at the unprojected state as its next first stage,
    so a manifold the flow does not keep shrinks the steps.
    """

    flow_map: Callable[[list], Sequence[float]]
    flow_indicator: Callable[[list], float]
    jump_indicator: Callable[[list], float]
    jump_map: Callable[[list], Sequence[float]]
    project_state: Optional[Callable[[list], Sequence[float]]] = None

    def project(self, state: list) -> list:
        """``project_state`` at ``state``, as a list of floats."""
        if self.project_state is None:
            return state
        return _same_length("project_state", state, _floats(self.project_state(state)))


@dataclass(frozen=True)
class SolverConfig:
    """Termination rules and integrator tolerances for :func:`solve`.

    A run stops at the flow-time horizon ``t_max`` or when the jump
    budget ``j_max`` is spent.  ``t_max`` and tolerances must be finite,
    and ``t_max / max_step`` at most ``MAX_STEPS``.  ``abs_tol`` and
    ``rel_tol`` bound each step's RMS error estimate, not the global
    error.  ``max_step`` caps every step, and at the defaults it binds
    first: 993-999 of the 1001-1005 steps of each published case-study
    run are exactly ``max_step`` long.  ``event_tol`` bounds a located
    crossing's jump indicator to ``[0, event_tol]``, unless the bracket
    runs out first, and is the slack of the flow- and jump-set tests.
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


def _finite(values) -> bool:
    """Whether every value of a sequence of floats is finite."""
    return all(map(math.isfinite, values))


def _floats(values) -> list:
    """``values`` as a list of floats: a list as it is, anything else converted."""
    return values if type(values) is list else np.asarray(values, dtype=float).tolist()


def _same_length(callback: str, state, result):
    """``result``, or :class:`StateLengthMismatch` where its length is not ``state``'s."""
    if len(result) != len(state):
        raise StateLengthMismatch(callback, len(state), len(result))
    return result


def _quotient(num: float, den: float) -> float:
    """``num / den``, with IEEE's ``±inf`` or NaN where ``den`` is zero."""
    if den:
        return num / den
    if num != num or num == 0.0:
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _rms(values, scale) -> float:
    """Root-mean-square of ``values[i] / scale[i]``, its squares added left to right."""
    sq = 0.0
    for v, s in zip(values, scale):
        v /= s
        sq += v * v
    return math.sqrt(sq) / len(scale) ** 0.5


# The Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, II.5): nodes
# C, stage weights A, fifth-order weights B and the error weights E of the
# embedded pair.  B2, B7 and E2 are zero, and stages 6 and 7 sit at C = 1.
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
)
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
)
# Shampine's dense output for the optimum c_6: each stage's coefficients
# of x^2, x^3 and x^4.  Stage 2's are zero, and x's is 1 for stage 1 and 0
# for the others.
P1 = (-8048581381 / 2820520608, 8663915743 / 2820520608,
      -12715105075 / 11282082432)
P3 = (131558114200 / 32700410799, -68118460800 / 10900136933,
      87487479700 / 32700410799)
P4 = (-1754552775 / 470086768, 14199869525 / 1410260304,
      -10690763975 / 1880347072)
P5 = (127303824393 / 49829197408, -318862633887 / 49829197408,
      701980252875 / 199316789632)
P6 = (-282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844)
P7 = (40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)


class RK45:
    """Dormand-Prince 5(4) stepper with Shampine's dense output, forward in time.

    It runs on Python floats.  The state ``y`` and the stages are lists of
    floats; ``fun(t, y)`` is called with a list and may return any
    sequence of floats.  Every stage sum, the RMS error norm, the initial
    step and the dense output are written out, each sum added left to
    right in tableau order, so no step goes through BLAS and the bits of
    every step are the same under every BLAS kernel.  The step-size rule,
    initial step (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4), the
    ``rtol`` floor and the dense-output polynomial are those of scipy's
    ``RK45``, which ``TestRK45Oracle`` steps beside it.  ``t_bound`` must
    exceed ``t0``.

    Between steps the caller may reassign ``y`` alone, keeping ``f``, the
    next step's first stage, at the state the last step reached (first
    same as last), or :meth:`reseat` the stepper, keeping ``h_abs``.  ``step``
    returns ``None``, or a message when the step size fell below ten
    times the spacing of floats at ``t``; ``status`` is then
    ``"failed"``.  ``K`` holds the seven stages of the last try.
    ``nonfinite_rejection`` tells whether the last ``step`` call rejected
    a try whose error norm was not finite (the flow map returned a
    non-finite stage).  A non-finite ``y0`` raises :class:`DomainEscape`.
    Where Python would raise on a division by zero, the initial step takes
    IEEE's ``inf`` or NaN instead, as numpy would.
    """

    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 10
    ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
    RTOL_FLOOR = 100 * np.finfo(float).eps
    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

    def __init__(self, fun, t0, y0, t_bound, max_step, rtol, atol):
        self.fun, self.t_bound = fun, t_bound
        self.max_step, self.atol = max_step, atol
        self.rtol = max(rtol, self.RTOL_FLOOR)
        self.t_old = self.y_old = self.K = None
        self.nonfinite_rejection = False
        self.reseat(t0, np.asarray(y0, dtype=float).tolist())
        self.h_abs = self._initial_step()

    def reseat(self, t: float, y: list) -> None:
        """Run on from ``(t, y)`` with ``f = fun(t, y)``, keeping ``h_abs``.

        ``y`` is a list of floats; a non-finite one raises :class:`DomainEscape`.
        """
        if not _finite(y):
            raise DomainEscape(
                f"flow started from a non-finite state at t={t:.6g}",
                state=y,
                t=t,
            )
        self.t, self.y, self.status = t, y, "running"
        self.f = self.fun(t, y)

    def _initial_step(self) -> float:
        """Empirical initial step of Hairer et al., II.4."""
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = abs(self.t_bound - t0)
        atol, rtol = self.atol, self.rtol
        scale = [atol + abs(v) * rtol for v in y0]
        d0, d1 = _rms(y0, scale), _rms(f0, scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0, [v + h0 * a for v, a in zip(y0, f0)])
        d2 = _quotient(_rms([b - a for a, b in zip(f0, f1)], scale), h0)
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = _quotient(0.01, max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval_length, self.max_step)

    def step(self) -> Optional[str]:
        """Advance by one accepted step, retrying rejected ones."""
        t, y, fun, k1 = self.t, self.y, self.fun, self.f
        atol, rtol = self.atol, self.rtol
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

            # Each stage's state is y + h * (its weighted stages).
            k2 = fun(t + C2 * h, [v + h * (A21 * a) for v, a in zip(y, k1)])
            k3 = fun(t + C3 * h, [
                v + h * (A31 * a + A32 * b) for v, a, b in zip(y, k1, k2)
            ])
            k4 = fun(t + C4 * h, [
                v + h * (A41 * a + A42 * b + A43 * c)
                for v, a, b, c in zip(y, k1, k2, k3)
            ])
            k5 = fun(t + C5 * h, [
                v + h * (A51 * a + A52 * b + A53 * c + A54 * d)
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)
            ])
            k6 = fun(t + h, [
                v + h * (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e)
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
            ])
            y_new = [
                v + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * g)
                for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
            ]
            k7 = fun(t + h, y_new)
            self.K = (k1, k2, k3, k4, k5, k6, k7)

            # The error weights keep stage 2's zero, so a non-finite second
            # stage makes the norm NaN and rejects the try.
            sq = 0.0
            for v, w, a, b, c, d, e, g, p in zip(y, y_new, k1, k2, k3, k4, k5, k6, k7):
                v, w = abs(v), abs(w)
                err = h * (
                    E1 * a + 0.0 * b + E3 * c + E4 * d + E5 * e + E6 * g + E7 * p
                ) / (atol + (v if v > w else w) * rtol)
                sq += err * err
            error_norm = math.sqrt(sq) / len(y) ** 0.5
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
        self.t, self.y, self.f, self.h_abs = t_new, y_new, k7, h_abs
        if t_new >= self.t_bound:
            self.status = "finished"
        return None

    def dense_output(self) -> Callable[[float], list]:
        """Shampine's quartic interpolant over the last accepted step.

        The value at ``t`` is ``y_old + h * (q1 x + q2 x^2 + q3 x^3 + q4
        x^4)`` with ``x = (t - t_old) / h``: per component, ``q1`` is the
        first stage and ``q2``-``q4`` the stages weighted by ``P1``-``P7``,
        each sum left to right.
        """
        t_old, y_old = self.t_old, self.y_old
        h = self.t - t_old
        k1, _, k3, k4, k5, k6, k7 = self.K
        Q = [
            (a, *(
                p1 * a + p3 * c + p4 * d + p5 * e + p6 * g + p7 * r
                for p1, p3, p4, p5, p6, p7 in zip(P1, P3, P4, P5, P6, P7)
            ))
            for a, c, d, e, g, r in zip(k1, k3, k4, k5, k6, k7)
        ]

        def interpolant(t: float) -> list:
            # The powers x, x^2, x^3, x^4 multiplied left to right.
            x = (t - t_old) / h
            x2 = x * x
            x3 = x2 * x
            x4 = x3 * x
            return [
                v + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4)
                for v, (q1, q2, q3, q4) in zip(y_old, Q)
            ]

        return interpolant


def _indicator_value(indicator, y: list, t: float, kind: str) -> float:
    """Evaluate a flow or jump indicator; a non-finite value is a DomainEscape."""
    value = float(indicator(y))
    if not math.isfinite(value):
        raise DomainEscape(
            f"{kind} indicator is {value} at t={t:.6g}", state=y, t=t
        )
    return value


def _locate_crossing(dense, sys, t_lo, g_lo, t_hi, y_hi, g_hi, event_tol):
    """Locate a sample on the jump set's boundary within one accepted step.

    Precondition: ``g_lo < 0`` at ``t_lo`` and ``g_hi >= 0`` at ``t_hi``.
    Shrinks the bracket ``[a, b]``, whose jump indicator is below zero at
    ``a`` and at or above zero at ``b``, by one projected dense-output
    sample per iteration.  The first ``ESTIMATE_BUDGET`` samples are
    Anderson-Bjorck regula falsi iterates, the later ones midpoints, and
    so is an iterate that rounds onto an end.  When an end is kept twice
    in a row, its value in the secant is weighted by ``m = 1 - g_new /
    g_old``, with ``g_old`` the replaced end's value, or by 0.5 where ``m
    <= 0`` (Anderson & Bjorck 1973).  Returns the upper end ``(t, state,
    g)`` once ``0 <= g <= event_tol`` there, or when the bracket is
    exhausted at float resolution or after ``MAX_BISECT`` halvings.  A
    non-finite indicator at a sample raises :class:`DomainEscape`.
    """
    # Each end's weight in the secant; an end just replaced weighs its value.
    a, w_a = t_lo, g_lo
    b, y_b, g_b, w_b = t_hi, y_hi, g_hi, g_hi
    kept = 0  # +1: ``a`` kept by the last iterate, -1: ``b`` kept
    for k in range(ESTIMATE_BUDGET + MAX_BISECT):
        if g_b <= event_tol:
            break
        t = 0.5 * (a + b)
        if t <= a or t >= b:  # bracket exhausted at float resolution
            break
        if k < ESTIMATE_BUDGET:
            secant = (a * w_b - b * w_a) / (w_b - w_a)
            if a < secant < b:
                t = secant
        y_t = sys.project(dense(t))
        g_t = _indicator_value(sys.jump_indicator, y_t, t, "jump")
        if g_t >= 0.0:
            if kept == 1:
                m = 1.0 - g_t / w_b
                w_a *= m if m > 0.0 else 0.5
            b, y_b, g_b, w_b = t, y_t, g_t, g_t
            kept = 1
        else:
            if kept == -1:
                m = 1.0 - g_t / w_a
                w_b *= m if m > 0.0 else 0.5
            a, w_a = t, g_t
            kept = -1
    return b, y_b, g_b


def apply_jump(
    state: list, g: float, sys: HybridSystemDef, cfg: SolverConfig
) -> list:
    """Apply the jump map at ``state``, whose jump indicator value is ``g``.

    ``g`` is the value the caller evaluated at ``state``; it is checked,
    not recomputed.  Raises :class:`JumpOutsideJumpSet` when it is below
    ``-cfg.event_tol``, and :class:`StateLengthMismatch` when the jump
    map's result is not of the state's length.  The result, a list of
    floats, is not projected.
    """
    if g < -cfg.event_tol:
        raise JumpOutsideJumpSet(
            f"jump requested outside the jump set (indicator {g:.3e})"
        )
    return _same_length("jump_map", state, _floats(sys.jump_map(state)))


def solve(
    sys: HybridSystemDef, x0: np.ndarray, cfg: SolverConfig
) -> HybridArc:
    """Simulate the hybrid system from ``x0`` until a termination rule fires.

    Flow intervals alternate with :func:`apply_jump`; where both are
    admissible (the shared boundary of the flow and jump sets), the jump
    wins.  The run stops at ``cfg.t_max`` or when the jump budget
    ``cfg.j_max`` is spent.  A flow interval ends at ``cfg.t_max``, at a
    crossing into the jump set, or at a step that leaves the flow set
    within ``cfg.event_tol`` of the jump set.  A crossing is located by
    :func:`_locate_crossing` on the step's dense output, from the step's
    two ends, so that the interval's last sample satisfies ``0 <=
    jump_indicator <= cfg.event_tol`` unless the bracket runs out first.

    Raises
    ------
    DomainEscape
        If a flow starts outside the flow set (flow indicator above
        ``event_tol``), or an accepted step leaves it without coming
        within ``event_tol`` of the jump set; if a state or an indicator
        value is not finite, or if the flow map returns a non-finite
        value at a finite state, also when the step size underflows
        while the stepper rejects such values.
    StateLengthMismatch
        If the flow map (at the start of a flow interval), the jump map
        or the projection returns a sequence not of the state's length.
    IntegrationStalled
        If an interior accepted step is shorter than ``1e-14`` s, or the
        stepper fails on its minimum step, with the flow map finite on
        every try; or if the solve would take more than ``MAX_STEPS``
        accepted steps.
    ZenoSuspected
        If the jump budget is exhausted with less than ``1e-6`` s of flow
        since the 10th-to-last jump.
    """
    y = sys.project(np.asarray(x0, dtype=float).tolist())
    t = 0.0
    g = _indicator_value(sys.jump_indicator, y, t, "jump")
    shared = sys.flow_indicator is sys.jump_indicator
    solver = None
    steps = 0
    samples: list[tuple] = []
    # The open interval's samples.  It flows at most once, since a flow
    # that stops on the jump set is followed by a jump.
    times, states = [t], [y]

    def flow_map_escape():
        return DomainEscape(
            f"flow map returned a non-finite value near t={solver.t:.6g}",
            state=solver.y,
            t=solver.t,
        )

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
            samples.append((np.array(times), np.array(states, dtype=float)))
            times, states = [t], [y]
            continue

        # Outside the jump set, so the state must be inside the flow set.
        f = g if shared else _indicator_value(sys.flow_indicator, y, t, "flow")
        if f > cfg.event_tol:
            raise DomainEscape(
                f"flow started outside the flow set (indicator {f:.3e})",
                state=y,
                t=t,
            )
        if solver is None:
            flow_map = sys.flow_map

            def rhs(_t, state):
                return flow_map(state)

            solver = RK45(rhs, t, y, t_bound=cfg.t_max, max_step=cfg.max_step,
                          rtol=cfg.rel_tol, atol=cfg.abs_tol)
        else:
            solver.reseat(t, y)
        _same_length("flow_map", y, solver.f)
        # A non-finite first stage would make the initial step size or every
        # error norm NaN, and the stepper would reject its tries forever.
        if not _finite(solver.f):
            raise flow_map_escape()

        while True:
            if steps >= MAX_STEPS:
                raise IntegrationStalled(
                    f"step budget exhausted at t={t:.6g}: one solve takes at "
                    f"most MAX_STEPS={MAX_STEPS} accepted steps"
                )
            message = solver.step()
            steps += 1
            t_new = float(solver.t)
            # The final step is truncated to land on t_bound and may be tiny;
            # only an interior micro-step signals a stall.
            stall = None
            if solver.status == "failed":
                stall = f"integrator failed at t={t_new:.6g}: {message}"
            elif t_new - t < MIN_STEP and solver.status != "finished":
                stall = f"step size underflow at t={t_new:.6g} (step {t_new - t:.3e} s)"
            if stall is not None:
                # A non-finite stage makes the error norm non-finite and the
                # try rejected: a stall that rejected such a try (failing on
                # it, or creeping up to it in micro-steps) was the flow map's
                # doing.
                if solver.nonfinite_rejection:
                    raise flow_map_escape()
                raise IntegrationStalled(stall)
            y_new = sys.project(solver.y)
            if not _finite(y_new):
                raise DomainEscape(
                    f"flow reached a non-finite state at t={t_new:.6g}",
                    state=y_new,
                    t=t_new,
                )
            g_new = _indicator_value(sys.jump_indicator, y_new, t_new, "jump")

            if g < 0.0 <= g_new:
                t, y, g = _locate_crossing(
                    solver.dense_output(), sys, t, g, t_new, y_new, g_new,
                    cfg.event_tol,
                )
                times.append(t)
                states.append(y)
                break

            f_new = (
                g_new if shared
                else _indicator_value(sys.flow_indicator, y_new, t_new, "flow")
            )
            if f_new > cfg.event_tol and g_new < -cfg.event_tol:
                raise DomainEscape(
                    f"flow left the flow set at t={t_new:.6g} without entering "
                    f"the jump set (flow indicator {f_new:.3e})",
                    state=y_new,
                    t=t_new,
                )
            t, y, g = t_new, y_new, g_new
            times.append(t)
            states.append(y)
            # A step that left the flow set is within event_tol of the jump
            # set: the interval started on (or within tolerance of) the
            # boundary, so it hands over to the jump logic here.
            if f_new > cfg.event_tol or solver.status == "finished":
                break
            # The kept first stage is the step's last, at the unprojected
            # state: finite, since E7 != 0 rejects a try whose k7 is not.
            # Onto an invariant manifold the projection moves the state by
            # about the step's error, so the next step moves by O(h * L * err).
            solver.y = y

    samples.append((np.array(times), np.array(states, dtype=float)))
    return HybridArc(samples=tuple(samples))


def validate_domain(arc: HybridArc) -> list[str]:
    """Check that the arc's samples form a hybrid time domain; return violations.

    An empty list means the arc is well formed: it has at least one
    interval, no interval is empty, each interval has as many states as
    times, the first time is nonnegative, times are numbers that never
    decrease, and each interval starts where the one before it ends.  The domain and the
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
        if k == 0 and not start >= 0.0:
            violations.append(f"interval 0: negative start time {start}")
        if end is not None and start != end:
            violations.append(
                f"intervals {k - 1}->{k}: not contiguous "
                f"(end {end} vs start {start})"
            )
        if not np.all(np.diff(times) >= 0.0):
            violations.append(f"interval {k}: sample times decrease or are NaN")
        end = float(times[-1])
    return violations
