"""Hybrid time domains, hybrid arcs, and an event-located hybrid solver.

A hybrid system alternates continuous flow (an ODE restricted to a flow
set) with discrete jumps (a reset map on a jump set).  Solutions are
parametrized by hybrid time ``(t, j)``: ordinary time ``t`` and the jump
count ``j``.  Flow and jump sets are described by scalar indicator
functions; the flow set is where ``flow_indicator <= 0`` and the jump
set where ``jump_indicator >= 0``.

Flow segments are integrated with an adaptive embedded Runge-Kutta 4(5)
pair (``scipy.integrate.RK45``) stepped manually so the solver can
project states back onto a manifold after each accepted step, locate
jump-set boundary crossings by bisection on the jump indicator, and stay
bit-for-bit deterministic.

Each state the solver records is projected once, where it is made, and
its jump indicator is evaluated once.  The value travels with the state
into the jump decision, :func:`apply_jump` and the next flow interval.
When a projection moves an accepted state, the stepper is reseated on it
in place instead of being rebuilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np
from scipy.integrate import RK45

from .errors import (
    DomainEscape,
    IntegrationStalled,
    JumpOutsideJumpSet,
    ZenoSuspected,
)

ExitReason = Literal["time", "jump_boundary", "converged"]

# Step sizes below this (seconds) count as an integrator stall.
MIN_STEP = 1e-14
# Maximum bisection iterations when locating a jump-set crossing.
MAX_BISECT = 60
# Flow time (seconds) over the trailing 10 jumps below which a run that
# exhausts its jump budget is flagged as suspected Zeno behavior.
ZENO_WINDOW = 1e-6
ZENO_JUMPS = 10


@dataclass(frozen=True)
class HybridTimeDomain:
    """Ordered flow intervals ``(t_start, t_end, j)`` of a hybrid solution.

    Consecutive intervals share the jump instant: interval ``k`` ends at
    ``(t, j)`` and interval ``k+1`` starts at ``(t, j+1)``.
    """

    intervals: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "intervals",
            tuple((float(a), float(b), int(j)) for a, b, j in self.intervals),
        )

    def __len__(self):
        return len(self.intervals)

    @property
    def final_time(self) -> float:
        return self.intervals[-1][1]

    @property
    def jump_count(self) -> int:
        return self.intervals[-1][2] - self.intervals[0][2]


@dataclass(frozen=True)
class JumpRecord:
    """One jump: time, index of the interval being left, and both states."""

    t: float
    j: int
    before: np.ndarray
    after: np.ndarray


@dataclass(frozen=True)
class HybridArc:
    """A hybrid solution: domain, per-interval samples, and jump records.

    ``samples[k]`` is a pair ``(times, states)`` for interval ``k`` with
    ``times`` of shape (m,) and ``states`` of shape (m, n).
    """

    domain: HybridTimeDomain
    samples: tuple
    jump_records: tuple

    @property
    def final_time(self) -> float:
        return self.domain.final_time

    @property
    def jump_count(self) -> int:
        return len(self.jump_records)

    @property
    def final_state(self) -> np.ndarray:
        return self.samples[-1][1][-1]

    def iter_samples(self):
        """Yield (t, j, state) over all samples in hybrid-time order."""
        for (a, b, j), (times, states) in zip(self.domain.intervals, self.samples):
            for t, y in zip(times, states):
                yield float(t), j, y

    def total_flow_time(self) -> float:
        return sum(b - a for a, b, _ in self.domain.intervals)


@dataclass(frozen=True)
class HybridSystemDef:
    """Single-valued hybrid system data consumed by the solver.

    The flow and jump maps are deterministic selections chosen by the
    caller; set-valued dynamics are outside the solver's scope.
    ``project_state``, when given, is applied to every accepted state to
    pull it back onto an invariant manifold (e.g. renormalizing a unit
    vector component).
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

    ``stop_ball`` is an optional ``(distance_fn, radius)`` pair; the run
    stops with exit reason ``converged`` once ``distance_fn(state) <=
    radius`` at an accepted sample.  ``t_max`` and tolerances must be finite.
    """

    t_max: float = 10.0
    j_max: int = 100
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    event_tol: float = 1e-10
    max_step: float = 0.01
    stop_ball: Optional[tuple] = None

    def __post_init__(self):
        if not 0.0 <= self.t_max < math.inf:
            raise ValueError("t_max must be nonnegative and finite")
        if self.j_max < 0:
            raise ValueError("j_max must be nonnegative")
        for name in ("abs_tol", "rel_tol", "event_tol", "max_step"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.stop_ball is not None:
            _, radius = self.stop_ball
            if not radius >= 0.0:
                raise ValueError("stop_ball radius must be nonnegative")


def _locate_crossing(dense, sys, t_lo, t_hi, y_hi, g_hi, event_tol):
    """Bisect the jump indicator over one accepted step.

    Precondition: indicator < 0 at ``t_lo`` and ``g_hi >= 0`` at ``t_hi``.
    Returns the earliest located boundary sample ``(t, state, g)`` with
    ``0 <= g <= event_tol`` (up to the bisection budget).
    """
    a, b = t_lo, t_hi
    y_b, g_b = y_hi, g_hi
    for _ in range(MAX_BISECT):
        if g_b <= event_tol:
            break
        m = 0.5 * (a + b)
        if m <= a or m >= b:  # interval exhausted at float resolution
            break
        y_m = sys.project(np.asarray(dense(m), dtype=float))
        g_m = float(sys.jump_indicator(y_m))
        if g_m >= 0.0:
            b, y_b, g_b = m, y_m, g_m
        else:
            a = m
    return b, y_b, g_b


def advance_flow(
    state: np.ndarray,
    g: float,
    sys: HybridSystemDef,
    cfg: SolverConfig,
    t0: float = 0.0,
) -> tuple[tuple, float, ExitReason]:
    """Integrate one flow interval from ``state`` at time ``t0``.

    ``state`` is taken as already projected and ``g`` as its jump
    indicator value; neither is recomputed.  Returns ``(samples, g_end,
    reason)``: ``samples`` is the pair ``(times, states)`` of the
    interval, entry sample included; ``g_end`` is the jump indicator at
    the last sample; ``reason`` is ``time`` when ``cfg.t_max`` is
    reached, ``converged`` when the optional stop ball is entered, or
    ``jump_boundary`` when the jump indicator crosses zero from below.
    Boundary crossings are located by bisection so that the final sample
    satisfies ``|jump_indicator| <= cfg.event_tol``.

    Each accepted state is projected once and its jump indicator
    evaluated once.  When the projection moves the state, the stepper is
    reseated on the projected state in place, keeping its step size.

    Raises
    ------
    DomainEscape
        If the flow indicator exceeds ``event_tol`` at the initial state
        or at an accepted step whose state is also outside the jump set.
    IntegrationStalled
        If the adaptive step size underflows (below ``1e-14`` s).
    """
    y0 = np.asarray(state, dtype=float)
    f0 = float(sys.flow_indicator(y0))
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
    if cfg.stop_ball is not None:
        dist_fn, radius = cfg.stop_ball
        if float(dist_fn(y0)) <= radius:
            return _exit(g, "converged")

    def rhs(_t, y):
        return sys.flow_map(y)

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

    while True:
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationStalled(
                f"integrator failed at t={solver.t:.6g}: {message}"
            )
        t_new = float(solver.t)
        # The final step is truncated to land on t_bound and may be tiny;
        # only an interior micro-step signals a stall.
        if t_new - t_prev < MIN_STEP and solver.status != "finished":
            raise IntegrationStalled(
                f"step size underflow at t={t_new:.6g} "
                f"(step {t_new - t_prev:.3e} s)"
            )
        y_raw = solver.y
        y_new = sys.project(np.array(y_raw, dtype=float))
        g_new = float(sys.jump_indicator(y_new))

        if g_prev < 0.0 <= g_new:
            t_star, y_star, g_star = _locate_crossing(
                solver.dense_output(), sys, t_prev, t_new, y_new, g_new,
                cfg.event_tol,
            )
            times.append(t_star)
            states.append(y_star)
            return _exit(g_star, "jump_boundary")

        f_new = float(sys.flow_indicator(y_new))
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

        if cfg.stop_ball is not None:
            dist_fn, radius = cfg.stop_ball
            if float(dist_fn(y_new)) <= radius:
                return _exit(g_new, "converged")
        if solver.status == "finished":
            return _exit(g_new, "time")

        if sys.project_state is not None and not np.array_equal(y_new, y_raw):
            # Projection moved the state: reseat the stepper on it.  Besides
            # t and h_abs, RK45 carries only y and f (the first stage of
            # the next step) between steps, and clips h_abs to max_step
            # and to the horizon itself, so it then steps as one built
            # fresh from (t_new, y_new, h_abs) would (TestStepperReseat).
            solver.y = y_new
            solver.f = solver.fun(t_new, y_new)
        t_prev, g_prev = t_new, g_new


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
    ``cfg.t_max``, when the jump budget ``cfg.j_max`` is exhausted, or
    when the optional stop ball is entered.

    Every recorded state is projected once, where it is made (``x0``,
    each accepted step, each jump), and its jump indicator is evaluated
    once.  That value decides the jump, is checked by :func:`apply_jump`
    and starts the next flow interval.

    Raises
    ------
    DomainEscape
        If ``x0`` (or a post-jump state) lies outside both sets.
    ZenoSuspected
        If the jump budget is exhausted with less than ``1e-6`` s of flow
        since the 10th-to-last jump.
    """
    y = sys.project(np.asarray(x0, dtype=float))
    g = float(sys.jump_indicator(y))
    t = 0.0
    j = 0

    intervals: list[tuple] = []
    all_samples: list[tuple] = []
    jump_records: list[JumpRecord] = []

    # Samples of the interval currently being built.
    cur_t0 = t
    cur_times: list[float] = [t]
    cur_states: list[np.ndarray] = [y]

    def _close_interval():
        intervals.append((cur_t0, cur_times[-1], j))
        all_samples.append(
            (np.asarray(cur_times, dtype=float), np.asarray(cur_states, dtype=float))
        )

    def _check_zeno():
        if len(jump_records) >= ZENO_JUMPS:
            window = t - jump_records[-ZENO_JUMPS].t
            if window < ZENO_WINDOW:
                raise ZenoSuspected(
                    f"jump budget j_max={cfg.j_max} exhausted with only "
                    f"{window:.3e} s of flow over the last {ZENO_JUMPS} jumps"
                )

    while t < cfg.t_max:
        if g >= -cfg.event_tol:
            if j >= cfg.j_max:
                _check_zeno()
                break
            y_next = sys.project(apply_jump(y, g, sys, cfg))
            g = float(sys.jump_indicator(y_next))
            jump_records.append(JumpRecord(t=t, j=j, before=y, after=y_next))
            _close_interval()
            j += 1
            y = y_next
            cur_t0 = t
            cur_times = [t]
            cur_states = [y]
            continue

        # Outside the jump set: advance_flow raises DomainEscape if the
        # state is outside the flow set too.
        (times, states), g, reason = advance_flow(y, g, sys, cfg, t0=t)
        # The interval already holds the entry sample; skip the duplicate.
        cur_times.extend(times[1:].tolist())
        cur_states.extend(list(states[1:]))
        t = float(times[-1])
        y = states[-1]
        if reason != "jump_boundary":
            break

    _close_interval()
    return HybridArc(
        domain=HybridTimeDomain(intervals=tuple(intervals)),
        samples=tuple(all_samples),
        jump_records=tuple(jump_records),
    )


def validate_domain(arc: HybridArc) -> list[str]:
    """Check hybrid time domain and arc invariants; return violations.

    An empty list means the arc is well formed: intervals are ordered
    and contiguous, ``j`` increments by exactly one across consecutive
    intervals, every sample lies in its interval, and each jump record's
    post-jump state equals the first sample of the next interval.
    """
    violations: list[str] = []
    intervals = arc.domain.intervals

    if not intervals:
        return ["domain has no intervals"]

    for k, (a, b, j) in enumerate(intervals):
        if a < 0.0:
            violations.append(f"interval {k}: negative start time {a}")
        if j < 0:
            violations.append(f"interval {k}: negative jump index {j}")
        if a > b:
            violations.append(
                f"interval {k}: start time {a} exceeds end time {b}"
            )

    for k in range(len(intervals) - 1):
        _, b, j = intervals[k]
        a_next, _, j_next = intervals[k + 1]
        if b != a_next:
            violations.append(
                f"intervals {k}->{k + 1}: not contiguous "
                f"(end {b} vs start {a_next})"
            )
        if j_next != j + 1:
            violations.append(
                f"intervals {k}->{k + 1}: jump index must increment by 1 "
                f"(got {j} -> {j_next})"
            )

    if len(arc.samples) != len(intervals):
        violations.append(
            f"sample groups ({len(arc.samples)}) do not match "
            f"interval count ({len(intervals)})"
        )
        return violations

    for k, ((a, b, _), (times, states)) in enumerate(
        zip(intervals, arc.samples)
    ):
        if len(times) == 0:
            violations.append(f"interval {k}: no samples")
            continue
        if len(times) != len(states):
            violations.append(f"interval {k}: times/states length mismatch")
            continue
        if float(times[0]) != a or float(times[-1]) != b:
            violations.append(
                f"interval {k}: samples span [{times[0]}, {times[-1]}] "
                f"but interval is [{a}, {b}]"
            )
        if np.any(np.diff(times) < 0.0):
            violations.append(f"interval {k}: sample times decrease")
        if np.any(times < a) or np.any(times > b):
            violations.append(f"interval {k}: sample time outside interval")

    expected_jumps = len(intervals) - 1
    if len(arc.jump_records) != expected_jumps:
        violations.append(
            f"jump record count ({len(arc.jump_records)}) does not match "
            f"interval count - 1 ({expected_jumps})"
        )
        return violations

    for k, rec in enumerate(arc.jump_records):
        _, b, j = intervals[k]
        a_next = intervals[k + 1][0]
        if rec.t != b or rec.t != a_next:
            violations.append(
                f"jump {k}: time {rec.t} does not match interval boundary {b}"
            )
        if rec.j != j:
            violations.append(
                f"jump {k}: jump index {rec.j} does not match interval ({j})"
            )
        first_state = arc.samples[k + 1][1][0]
        if not np.array_equal(rec.after, first_state):
            violations.append(
                f"jump {k}: post-jump state differs from first sample of "
                f"interval {k + 1}"
            )

    return violations
