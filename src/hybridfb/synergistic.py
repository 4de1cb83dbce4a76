"""Synergistic controller algebra and closed-loop assembly.

A synergistic controller is a 4-tuple: a feedback law, a potential
valued in [0, +inf], a finite ordered list of reset candidates for the
controller state, and a controller-state flow, together with a positive
hysteresis margin.  The synergy gap at ``(x, xi_c)`` is the potential's current
value minus the best value reachable by resetting ``xi_c`` to a
candidate; a jump is triggered once the gap reaches the margin, and the
reset picks a minimizing candidate.

This module evaluates the gap by enumerating the candidates (the
adaptive and backstepped lifts override it with their closed form),
assembles the closed-loop hybrid system from its maps or composes them
for a given plant, and provides post-hoc Lyapunov monitors on hybrid
arcs.
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
    theta``, where the parameter enters through the input channel: the
    disturbance matrix is ``input_matrix @ matched_matrix``, derived
    rather than stored, so an unmatched plant cannot be built.
    """

    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    input_matrix: Callable[[np.ndarray, np.ndarray], np.ndarray]
    matched_matrix: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n_x: int
    n_u: int

    def disturbance_matrix(self, x, xi_c) -> np.ndarray:
        return self.input_matrix(x, xi_c) @ self.matched_matrix(x, xi_c)

    def f(self, x, xi_c, u, theta) -> np.ndarray:
        return (
            self.drift(x, xi_c)
            + self.input_matrix(x, xi_c) @ u
            + self.disturbance_matrix(x, xi_c) @ theta
        )


@dataclass(frozen=True)
class ControllerData:
    """One synergistic controller: (feedback, potential, candidates, flow).

    ``potential`` returns a float in [0, +inf]; ``candidates`` returns a
    finite ordered list of controller states (order fixes tie-breaking)
    and defines the reset; ``margin`` is the hysteresis constant
    ``delta``, the threshold the synergy gap must reach to trigger a
    jump.  Construction stores it as a float and refuses a margin that is
    not positive and finite (``ValueError``) or not a number
    (``TypeError``).  The lifts override :meth:`gap` with the closed form;
    calling ``ControllerData.gap(lift, x, xi_c)`` enumerates their
    candidates.
    """

    n_state: int
    feedback: Callable[[np.ndarray, np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray, np.ndarray], float]
    candidates: Callable[[np.ndarray, np.ndarray], list]
    controller_flow: Callable[[np.ndarray, np.ndarray], np.ndarray]
    margin: float

    def __post_init__(self):
        margin = float(self.margin)
        if not 0.0 < margin < math.inf:
            raise ValueError(
                f"hysteresis margin must be positive and finite; got {margin}"
            )
        object.__setattr__(self, "margin", margin)

    def gap(self, x, xi_c) -> float:
        """Synergy gap as a float (``math.inf`` when the potential is infinite)."""
        return _gap_above(self, x, xi_c, _minimize_candidates(self, x, xi_c)[0])


def _minimize_candidates(ctrl: ControllerData, x, xi_c):
    """The least candidate potential and its minimizers.

    Returns ``(min_value, minimizers)``: the least candidate potential and
    the candidates within ``TIE_TOL`` of it (none if it is NaN), in list order.
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
    return min_value, [g for g, v in zip(cands, values) if v <= min_value + TIE_TOL]


def _require_minimizers(min_value: float, minimizers: list) -> list:
    """``minimizers``, refused where there are none (a NaN ``min_value``)."""
    if not minimizers:
        raise InfeasibleCandidates(
            f"no reset candidate ties the least potential {min_value}"
        )
    return minimizers


def _gap_above(ctrl: ControllerData, x, xi_c, min_value: float) -> float:
    """The synergy gap over ``min_value``, the least candidate potential:
    the current potential minus it, or ``math.inf`` where the current
    potential is infinite."""
    value_here = float(ctrl.potential(x, xi_c))
    return math.inf if math.isinf(value_here) else value_here - min_value


def min_over_candidates(
    ctrl: ControllerData, x, xi_c
) -> tuple[float, tuple, float]:
    """Evaluate the potential on every reset candidate at ``(x, xi_c)``.

    Returns ``(min_value, minimizers, gap)``: the minimum, every
    minimizer within the absolute tie tolerance ``1e-12`` (in
    candidate-list order), and the synergy gap.  The gap is
    ``math.inf`` when the current potential is infinite.

    Raises :class:`InfeasibleCandidates` when no candidate has finite
    potential, the least is NaN, or the gap is negative.
    """
    min_value, minimizers = _minimize_candidates(ctrl, x, xi_c)
    gap = _gap_above(ctrl, x, xi_c, min_value)
    _require_minimizers(min_value, minimizers)
    if gap < 0.0:
        raise InfeasibleCandidates(
            "current potential lies below every reset candidate "
            f"(gap {gap}); synergistic controllers keep the current state "
            "reachable from its own candidate list"
        )
    return min_value, tuple(minimizers), gap


def select_jump(ctrl: ControllerData, x, xi_c) -> np.ndarray:
    """Deterministic reset: the first-listed minimizing candidate."""
    minimizers = _require_minimizers(*_minimize_candidates(ctrl, x, xi_c))
    return np.asarray(minimizers[0], dtype=float)


def build_closed_loop(
    flow_map: Callable[[list], Sequence[float]],
    gap: Callable[[list], float],
    jump_map: Callable[[list], Sequence[float]],
    ctrl: ControllerData,
    project_state: Optional[Callable[[list], Sequence[float]]] = None,
) -> HybridSystemDef:
    """Assemble a synergistic closed loop from its flow map, gap and jump map.

    Each map is a function of the closed-loop state, which the solver
    passes as a list of floats.  Flow and jump indicators are the same
    function object, ``gap`` minus the constant ``ctrl.margin``, so the
    flow and jump sets cover the state space by construction and the
    solver evaluates it once per state; an infinite gap is clamped to the
    ``1e18`` sentinel inside the indicator only, forcing a jump.  A margin
    at or below the solver's ``event_tol`` puts every state of
    nonnegative gap in the jump set; only
    :func:`~hybridfb.obstacle.make_scenario` refuses such a margin.
    """
    margin = ctrl.margin

    def indicator(state) -> float:
        return min(gap(state), GAP_SENTINEL) - margin

    return HybridSystemDef(flow_map, indicator, indicator, jump_map, project_state)


def compose_closed_loop(
    plant: AffinePlant,
    theta_true: np.ndarray,
    ctrl: ControllerData,
    project_state: Optional[Callable[[list], Sequence[float]]] = None,
) -> HybridSystemDef:
    """Interconnect a plant and a synergistic controller by :func:`build_closed_loop`.

    The closed-loop state stacks the plant state (first ``plant.n_x``
    entries) and the controller state, which the composed maps split into
    arrays.  The flow map composes ``plant.f`` at the controller's
    feedback with ``ctrl.controller_flow``, the gap is ``ctrl.gap``, and
    the jump map keeps the plant state and resets the controller state by
    :func:`select_jump`.
    """
    theta_true = np.asarray(theta_true, dtype=float)
    n_x = plant.n_x

    def split(state) -> tuple[np.ndarray, np.ndarray]:
        state = np.asarray(state, dtype=float)
        return state[:n_x], state[n_x:]

    def flow_map(state) -> np.ndarray:
        x, xi_c = split(state)
        u = ctrl.feedback(x, xi_c)
        return np.concatenate(
            [plant.f(x, xi_c, u, theta_true), ctrl.controller_flow(x, xi_c)]
        )

    def gap(state) -> float:
        return ctrl.gap(*split(state))

    def jump_map(state) -> np.ndarray:
        x, xi_c = split(state)
        return np.concatenate([x, select_jump(ctrl, x, xi_c)])

    return build_closed_loop(flow_map, gap, jump_map, ctrl, project_state)


@dataclass(frozen=True)
class MonitorViolation:
    """One Lyapunov monitor violation along an arc."""

    kind: str  # "flow" or "jump"
    t: float
    j: int
    before: float
    after: float
    excess: float


def _interval_values(arc: HybridArc, potential) -> list[list[float]]:
    """The potential's values at the samples of each flow interval.

    ``potential`` is a function of the state, or its values at every
    sample of ``arc`` in hybrid-time order (a column of one pass over it).
    """
    if callable(potential):
        return [[float(potential(y)) for y in states] for _, states in arc.samples]
    flat = [float(v) for v in potential]
    ends = np.cumsum([0] + [len(times) for times, _ in arc.samples]).tolist()
    if len(flat) != ends[-1]:
        raise ValueError(f"{len(flat)} potential values for {ends[-1]} samples")
    return [flat[start:end] for start, end in zip(ends, ends[1:])]


def monitor_flow_decrease(
    arc: HybridArc,
    potential: Callable[[np.ndarray], float] | Sequence[float],
    tol: float,
) -> list[MonitorViolation]:
    """Flag potential increases between consecutive same-interval samples.

    ``potential`` evaluates the monitored Lyapunov function on the full
    closed-loop state, or holds its value at every sample of the arc in
    hybrid-time order; an increase larger than ``tol`` between adjacent
    samples of one flow interval is a violation, and so is a NaN value
    on either side.  Infinite values only violate when the potential
    rises from finite to infinite.
    """
    violations = []
    for j, ((times, _), values) in enumerate(
        zip(arc.samples, _interval_values(arc, potential))
    ):
        for t, prev_v, v in zip(times[1:].tolist(), values, values[1:]):
            if not v <= prev_v + tol:
                violations.append(
                    MonitorViolation(
                        kind="flow",
                        t=t,
                        j=j,
                        before=prev_v,
                        after=v,
                        excess=v - prev_v,
                    )
                )
    return violations


def monitor_jump_decrease(
    arc: HybridArc,
    potential: Callable[[np.ndarray], float] | Sequence[float],
    margin: Callable[[np.ndarray], float],
    tol: float,
) -> list[MonitorViolation]:
    """Flag jumps that fail to decrease the potential by the margin.

    A jump violates when ``potential(after) > potential(before) -
    margin(before) + tol`` or either value is NaN, so a jump from an
    infinite potential violates only into NaN.  ``potential`` is a
    function of the state, evaluated at the jump records' states, or its
    values at every sample of the arc in hybrid-time order, read at the
    interval ends, which are the records' states.
    """
    if callable(potential):
        pairs = [
            (float(potential(rec.before)), float(potential(rec.after)))
            for rec in arc.jump_records
        ]
    else:
        values = _interval_values(arc, potential)
        pairs = [(left[-1], right[0]) for left, right in zip(values, values[1:])]
    violations = []
    for rec, (v_before, v_after) in zip(arc.jump_records, pairs):
        bound = v_before - float(margin(rec.before)) + tol
        if not v_after <= bound:
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
