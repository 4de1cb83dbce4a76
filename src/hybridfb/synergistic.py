"""Synergistic controller algebra and closed-loop assembly.

A synergistic controller is a 4-tuple: a feedback law, a potential
valued in [0, +inf], a finite ordered list of reset candidates for the
controller state, and a controller-state flow, together with a positive
hysteresis margin.  The synergy gap at ``(x, xi_c)`` is the potential's current
value minus the best value reachable by resetting ``xi_c`` to a
candidate; a jump is triggered once the gap reaches the margin, and the
reset picks a minimizing candidate.

This module evaluates the gap, builds the closed-loop hybrid system for
a given plant, and provides post-hoc Lyapunov monitors on hybrid arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InfeasibleCandidates
from .hybrid import HybridArc, HybridSystemDef

# Absolute tolerance for membership in the argmin (candidate ties).
TIE_TOL = 1e-12
# Finite stand-in for an infinite gap inside scalar indicators only;
# potentials and gaps elsewhere stay floats, with ``math.inf`` exact.
GAP_SENTINEL = 1e18


@dataclass(frozen=True)
class AffinePlant:
    """Control-affine plant with matched parametric uncertainty.

    The dynamics are ``drift + input_matrix @ u + disturbance_matrix @
    theta`` where the disturbance enters through the input channel:
    ``disturbance_matrix == input_matrix @ matched_matrix`` everywhere
    (checked numerically by :meth:`check_matched`).
    """

    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    input_matrix: Callable[[np.ndarray, np.ndarray], np.ndarray]
    disturbance_matrix: Callable[[np.ndarray, np.ndarray], np.ndarray]
    matched_matrix: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n_x: int
    n_u: int
    n_theta: int

    def f(self, x, xi_c, u, theta) -> np.ndarray:
        return (
            self.drift(x, xi_c)
            + self.input_matrix(x, xi_c) @ u
            + self.disturbance_matrix(x, xi_c) @ theta
        )

    def f_unperturbed(self, x, xi_c, u) -> np.ndarray:
        return self.drift(x, xi_c) + self.input_matrix(x, xi_c) @ u

    def check_matched(self, states: Sequence[tuple], tol: float = 1e-10) -> list[str]:
        """Verify the matched-uncertainty factorization on sampled states."""
        violations = []
        for k, (x, xi_c) in enumerate(states):
            lhs = self.disturbance_matrix(x, xi_c)
            rhs = self.input_matrix(x, xi_c) @ self.matched_matrix(x, xi_c)
            err = float(np.max(np.abs(lhs - rhs)))
            if err > tol:
                violations.append(
                    f"state {k}: disturbance matrix differs from "
                    f"input_matrix @ matched_matrix by {err:.3e}"
                )
        return violations


@dataclass(frozen=True)
class ControllerData:
    """One synergistic controller: (feedback, potential, candidates, flow).

    ``potential`` returns a float in [0, +inf]; ``candidates`` returns a
    finite ordered list of controller states (order fixes tie-breaking);
    ``margin`` is the positive hysteresis threshold the synergy gap must
    reach to trigger a jump.
    """

    n_state: int
    feedback: Callable[[np.ndarray, np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray, np.ndarray], float]
    candidates: Callable[[np.ndarray, np.ndarray], list]
    controller_flow: Callable[[np.ndarray, np.ndarray], np.ndarray]
    margin: Callable[[np.ndarray, np.ndarray], float]


def _evaluate_candidates(ctrl: ControllerData, x, xi_c):
    """Shared float-valued core of the gap computation.

    Returns ``(value_here, min_value, minimizers)`` where values use
    ``math.inf`` for the infinite branch of the potential.
    """
    cands = list(ctrl.candidates(x, xi_c))
    if not cands:
        raise InfeasibleCandidates("candidate list is empty")
    values = [float(ctrl.potential(x, g)) for g in cands]
    min_value = min(values)
    if math.isinf(min_value):
        raise InfeasibleCandidates(
            "every reset candidate has infinite potential"
        )
    minimizers = [g for g, v in zip(cands, values) if v <= min_value + TIE_TOL]
    value_here = float(ctrl.potential(x, xi_c))
    return value_here, min_value, minimizers


def gap_value(ctrl: ControllerData, x, xi_c) -> float:
    """Synergy gap as a float (``math.inf`` when the potential is infinite)."""
    value_here, min_value, _ = _evaluate_candidates(ctrl, x, xi_c)
    if math.isinf(value_here):
        return math.inf
    return value_here - min_value


def min_over_candidates(
    ctrl: ControllerData, x, xi_c
) -> tuple[float, tuple, float]:
    """Evaluate the potential on every reset candidate at ``(x, xi_c)``.

    Returns ``(min_value, minimizers, gap)``: the minimum, every
    minimizer within the absolute tie tolerance ``1e-12`` (in
    candidate-list order), and the synergy gap.  The gap is
    ``math.inf`` when the current potential is infinite.

    Raises :class:`InfeasibleCandidates` when no candidate has finite
    potential or the gap is negative.
    """
    value_here, min_value, minimizers = _evaluate_candidates(ctrl, x, xi_c)
    gap = math.inf if math.isinf(value_here) else value_here - min_value
    if gap < 0.0:
        raise InfeasibleCandidates(
            "current potential lies below every reset candidate "
            f"(gap {gap}); synergistic controllers keep the current state "
            "reachable from its own candidate list"
        )
    return min_value, tuple(minimizers), gap


def select_jump(ctrl: ControllerData, x, xi_c) -> np.ndarray:
    """Deterministic reset: the first-listed minimizing candidate."""
    _, _, minimizers = _evaluate_candidates(ctrl, x, xi_c)
    return np.asarray(minimizers[0], dtype=float)


def build_closed_loop(
    plant: AffinePlant,
    theta_true: np.ndarray,
    ctrl: ControllerData,
    project_state: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> HybridSystemDef:
    """Interconnect a plant and a synergistic controller.

    The closed-loop state stacks the plant state (first ``plant.n_x``
    entries) and the controller state.  Flow and jump indicators are the
    same function, gap minus margin, so the flow and jump sets cover the
    state space by construction; an infinite gap is clamped to the
    ``1e18`` sentinel inside the indicator only, forcing a jump.
    """
    theta_true = np.asarray(theta_true, dtype=float)
    n_x = plant.n_x

    def flow_map(state: np.ndarray) -> np.ndarray:
        x, xi_c = state[:n_x], state[n_x:]
        u = ctrl.feedback(x, xi_c)
        return np.concatenate(
            [plant.f(x, xi_c, u, theta_true), ctrl.controller_flow(x, xi_c)]
        )

    def indicator(state: np.ndarray) -> float:
        x, xi_c = state[:n_x], state[n_x:]
        gap = gap_value(ctrl, x, xi_c)
        return min(gap, GAP_SENTINEL) - float(ctrl.margin(x, xi_c))

    def jump_map(state: np.ndarray) -> np.ndarray:
        x, xi_c = state[:n_x], state[n_x:]
        return np.concatenate([x, select_jump(ctrl, x, xi_c)])

    return HybridSystemDef(
        flow_map=flow_map,
        flow_indicator=indicator,
        jump_indicator=indicator,
        jump_map=jump_map,
        project_state=project_state,
    )


@dataclass(frozen=True)
class MonitorViolation:
    """One Lyapunov monitor violation along an arc."""

    kind: str  # "flow" or "jump"
    t: float
    j: int
    before: float
    after: float
    excess: float


def monitor_flow_decrease(
    arc: HybridArc,
    potential: Callable[[np.ndarray], float],
    tol: float,
) -> list[MonitorViolation]:
    """Flag potential increases between consecutive same-interval samples.

    ``potential`` evaluates the monitored Lyapunov function on the full
    closed-loop state; an increase larger than ``tol`` between adjacent
    samples of one flow interval is a violation.  Infinite values only
    violate when the potential rises from finite to infinite.
    """
    violations = []
    for (_, _, j), (times, states) in zip(arc.domain.intervals, arc.samples):
        prev_v = None
        for t, y in zip(times, states):
            v = float(potential(y))
            if prev_v is not None and v > prev_v + tol:
                violations.append(
                    MonitorViolation(
                        kind="flow",
                        t=float(t),
                        j=j,
                        before=prev_v,
                        after=v,
                        excess=v - prev_v,
                    )
                )
            prev_v = v
    return violations


def monitor_jump_decrease(
    arc: HybridArc,
    potential: Callable[[np.ndarray], float],
    margin: Callable[[np.ndarray], float],
    tol: float,
) -> list[MonitorViolation]:
    """Flag jumps that fail to decrease the potential by the margin.

    A jump violates when ``potential(after) > potential(before) -
    margin(before) + tol``.  Jumps from an infinite potential never
    violate.
    """
    violations = []
    for rec in arc.jump_records:
        v_before = float(potential(rec.before))
        v_after = float(potential(rec.after))
        bound = v_before - float(margin(rec.before)) + tol
        if v_after > bound:
            violations.append(
                MonitorViolation(
                    kind="jump",
                    t=rec.t,
                    j=rec.j,
                    before=v_before,
                    after=v_after,
                    excess=v_after - bound,
                )
            )
    return violations
