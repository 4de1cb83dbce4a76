"""Gap algebra, closed-loop assembly, Lyapunov monitors."""

import dataclasses
import math

import numpy as np
import pytest

from hybridfb import (
    AffinePlant,
    ControllerData,
    HybridSystemDef,
    InfeasibleCandidates,
    SolverConfig,
    build_closed_loop,
    compose_closed_loop,
    hybrid,
    make_scenario,
    min_over_candidates,
    monitor_flow_decrease,
    monitor_jump_decrease,
    select_jump,
    solve,
)
from hybridfb.runner import gap_enumeration_suite
from hybridfb.synergistic import GAP_SENTINEL


def toggle_controller(values, margin=1.0, current_extra=None):
    """Two-candidate controller with stated potential values.

    ``values`` maps candidate value (-1.0 / +1.0) to the potential; the
    potential ignores ``x``.
    """
    table = dict(values)
    if current_extra:
        table.update(current_extra)
    cands = [np.array([-1.0]), np.array([1.0])]
    return ControllerData(
        n_state=1,
        feedback=lambda x, xi: np.zeros(1),
        potential=lambda x, xi: table[float(xi[0])],
        candidates=lambda x, xi: cands,
        controller_flow=lambda x, xi: np.zeros(1),
        margin=margin,
    )


class TestMinOverCandidates:
    def test_two_candidate_example(self):
        # Candidates (-1, +1) with values 1 and 3, current state +1.
        ctrl = toggle_controller({-1.0: 1.0, 1.0: 3.0})
        min_value, minimizers, gap = min_over_candidates(
            ctrl, np.zeros(1), np.array([1.0])
        )
        assert min_value == 1.0
        assert [float(g[0]) for g in minimizers] == [-1.0]
        assert gap == 2.0

    def test_gap_zero_at_minimizer(self):
        ctrl = toggle_controller({-1.0: 1.0, 1.0: 3.0})
        _, _, gap = min_over_candidates(ctrl, np.zeros(1), np.array([-1.0]))
        assert gap == 0.0

    def test_infinite_current_value(self):
        ctrl = toggle_controller({-1.0: 1.0, 1.0: math.inf})
        min_value, _, gap = min_over_candidates(ctrl, np.zeros(1), np.array([1.0]))
        assert min_value == 1.0
        assert gap == math.inf

    def test_all_candidates_infinite(self):
        ctrl = toggle_controller({-1.0: math.inf, 1.0: math.inf})
        with pytest.raises(InfeasibleCandidates):
            min_over_candidates(ctrl, np.zeros(1), np.array([1.0]))

    def test_empty_candidates(self):
        ctrl = ControllerData(
            n_state=1,
            feedback=lambda x, xi: np.zeros(1),
            potential=lambda x, xi: 1.0,
            candidates=lambda x, xi: [],
            controller_flow=lambda x, xi: np.zeros(1),
            margin=1.0,
        )
        with pytest.raises(InfeasibleCandidates):
            min_over_candidates(ctrl, np.zeros(1), np.array([1.0]))

    def test_current_value_below_every_candidate_raises(self):
        # A current state better than all of its own candidates breaks
        # the synergistic structure; the gap would be negative.
        ctrl = toggle_controller({-1.0: 1.0, 1.0: 3.0}, current_extra={0.0: 0.5})
        with pytest.raises(InfeasibleCandidates, match="below every reset candidate"):
            min_over_candidates(ctrl, np.zeros(1), np.array([0.0]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        values = [float(v) for v in rng.uniform(0.0, 5.0, size=6)]
        cands = [np.array([float(k)]) for k in range(6)]

        def make(order):
            ordered = [cands[i] for i in order]
            return ControllerData(
                n_state=1,
                feedback=lambda x, xi: np.zeros(1),
                potential=lambda x, xi: values[int(xi[0])],
                candidates=lambda x, xi: ordered,
                controller_flow=lambda x, xi: np.zeros(1),
                margin=1.0,
            )

        xi = np.array([3.0])
        base = min_over_candidates(make(range(6)), np.zeros(1), xi)
        shuffled = min_over_candidates(make([4, 2, 0, 5, 1, 3]), np.zeros(1), xi)
        assert base[0] == shuffled[0]
        assert base[2] == shuffled[2]
        assert sorted(float(g[0]) for g in base[1]) == sorted(
            float(g[0]) for g in shuffled[1]
        )

    def test_constant_shift_leaves_gap_and_argmin(self):
        rng = np.random.default_rng(11)
        values = [float(v) for v in rng.uniform(0.0, 5.0, size=5)]
        cands = [np.array([float(k)]) for k in range(5)]

        def make(shift):
            return ControllerData(
                n_state=1,
                feedback=lambda x, xi: np.zeros(1),
                potential=lambda x, xi: values[int(xi[0])] + shift,
                candidates=lambda x, xi: cands,
                controller_flow=lambda x, xi: np.zeros(1),
                margin=1.0,
            )

        xi = np.array([2.0])
        base = min_over_candidates(make(0.0), np.zeros(1), xi)
        shifted = min_over_candidates(make(4.25), np.zeros(1), xi)
        assert shifted[0] == pytest.approx(base[0] + 4.25, abs=1e-12)
        assert shifted[2] == pytest.approx(base[2], abs=1e-12)
        assert [float(g[0]) for g in shifted[1]] == [float(g[0]) for g in base[1]]

    def test_gap_zero_for_each_minimizer(self):
        # Constant candidate lists: every minimizer has zero gap itself.
        ctrl = toggle_controller({-1.0: 2.0, 1.0: 2.0})
        _, minimizers, _ = min_over_candidates(ctrl, np.zeros(1), np.array([1.0]))
        for g in minimizers:
            assert ctrl.gap(np.zeros(1), g) == 0.0

    def test_enumeration_oracle(self):
        result = gap_enumeration_suite(seed=123, n=500)
        assert result.passed, result.detail


class TestMargin:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_refused(self, value):
        with pytest.raises(ValueError, match="hysteresis margin"):
            toggle_controller({-1.0: 1.0, 1.0: 3.0}, margin=value)

    def test_callable_refused(self):
        with pytest.raises(TypeError):
            toggle_controller({-1.0: 1.0, 1.0: 3.0}, margin=lambda x, xi: 1.0)

    def test_stored_as_float(self):
        ctrl = toggle_controller({-1.0: 1.0, 1.0: 3.0}, margin=np.float64(0.25))
        assert type(ctrl.margin) is float and ctrl.margin == 0.25

    @pytest.mark.parametrize("value", [0.0, math.nan])
    def test_lift_replace_refused(self, value):
        # The lifts are ControllerData subclasses: a replaced margin is
        # checked like a built one.
        lift = make_scenario("backstep", q0=-1.0).controller
        with pytest.raises(ValueError, match="hysteresis margin"):
            dataclasses.replace(lift, margin=value)
        with pytest.raises(ValueError, match="hysteresis margin"):
            dataclasses.replace(lift.adaptive, margin=value)

    def test_zero_gap_refused_at_margin_zero_flows_at_positive(self):
        # Equal potentials make the gap 0 everywhere.  Margin 0 would put
        # every state in the jump set, and a solve would jump j_max times at
        # t = 0 (ZenoSuspected); it is refused when built.  A margin above
        # the solver's event tolerance keeps the state flowing.
        with pytest.raises(ValueError, match="positive and finite; got 0.0"):
            toggle_controller({-1.0: 1.0, 1.0: 1.0}, margin=0.0)
        ctrl = toggle_controller({-1.0: 1.0, 1.0: 1.0}, margin=1e-6)
        sys = compose_closed_loop(scalar_plant(), np.zeros(1), ctrl)
        arc = solve(sys, np.array([0.5, 1.0]), SolverConfig(t_max=0.1, j_max=10))
        assert arc.jump_count == 0


class TestSelectJump:
    def test_unique_minimizer(self):
        ctrl = toggle_controller({-1.0: 1.0, 1.0: 3.0})
        out = select_jump(ctrl, np.zeros(1), np.array([1.0]))
        assert out[0] == -1.0

    def test_tie_breaks_to_first_listed(self):
        ctrl = toggle_controller({-1.0: 2.0, 1.0: 2.0 + 5e-13})
        out = select_jump(ctrl, np.zeros(1), np.array([1.0]))
        assert out[0] == -1.0

    def test_nan_least_potential_raises(self):
        # min() of [nan, 1.0] is nan, and no candidate lies within the tie
        # tolerance of it, so there is no reset.
        ctrl = toggle_controller(
            {-1.0: math.nan, 1.0: 1.0}, current_extra={0.0: math.inf}
        )
        x, here = np.zeros(1), np.array([0.0])
        with pytest.raises(InfeasibleCandidates, match="least potential nan"):
            select_jump(ctrl, x, here)
        with pytest.raises(InfeasibleCandidates, match="least potential nan"):
            min_over_candidates(ctrl, x, here)
        sys = compose_closed_loop(scalar_plant(), np.zeros(1), ctrl)
        with pytest.raises(InfeasibleCandidates, match="least potential nan"):
            solve(sys, np.array([0.5, 0.0]), SolverConfig(t_max=0.1, j_max=10))
        # The gap stays a float there, as the obstacle kernels' gap does.
        assert ctrl.gap(x, here) == math.inf
        assert math.isnan(ctrl.gap(x, np.array([1.0])))


def scalar_plant():
    """xdot = -x + u, with no disturbance channel."""
    return AffinePlant(
        drift=lambda x, xi: -x,
        input_matrix=lambda x, xi: np.eye(1),
        matched_matrix=lambda x, xi: np.zeros((1, 1)),
        n_x=1,
        n_u=1,
    )


class TestBuildClosedLoop:
    def test_indicator_sign_in_flow_set(self):
        ctrl = toggle_controller({-1.0: 1.0, 1.0: 1.0})
        sys = compose_closed_loop(scalar_plant(), np.zeros(1), ctrl)
        state = np.array([0.5, 1.0])
        assert sys.flow_indicator(state) == -1.0  # gap 0, margin 1
        assert sys.jump_indicator(state) == -1.0

    def test_infinite_gap_clamps_to_sentinel(self):
        ctrl = toggle_controller({-1.0: 1.0, 1.0: math.inf})
        sys = compose_closed_loop(scalar_plant(), np.zeros(1), ctrl)
        state = np.array([0.5, 1.0])
        assert sys.jump_indicator(state) == GAP_SENTINEL - 1.0
        assert sys.jump_indicator(state) > 0.0

    def test_flow_and_jump_indicators_identical(self):
        ctrl = toggle_controller({-1.0: 1.0, 1.0: 2.0})
        sys = compose_closed_loop(scalar_plant(), np.zeros(1), ctrl)
        assert sys.flow_indicator is sys.jump_indicator

    def test_gap_keyword_replaces_controller_gap(self):
        ctrl = toggle_controller({-1.0: 1.0, 1.0: 2.0}, margin=0.25)
        seen = []

        def gap(state):
            seen.append(state.tolist())
            return 3.0 if state[0] > 0.0 else math.inf

        composed = compose_closed_loop(scalar_plant(), np.zeros(1), ctrl)
        sys = build_closed_loop(composed.flow_map, gap, composed.jump_map, ctrl)
        assert sys.jump_indicator(np.array([0.5, 1.0])) == 3.0 - 0.25
        assert sys.jump_indicator(np.array([-0.5, 1.0])) == GAP_SENTINEL - 0.25
        assert seen == [[0.5, 1.0], [-0.5, 1.0]]

    def test_shared_indicator_called_once_per_state(self, monkeypatch):
        # One call for x0, each accepted step and each post-jump state, plus
        # one per dense-output evaluation (the locator's regula falsi
        # iterates and midpoints): the flow set's test reuses the value.
        sc = make_scenario(
            "backstep", q0=-1.0, z_init=(1.8, -1.0), margin=1e-3,
            config=SolverConfig(t_max=2.0),
        )
        calls = []

        def indicator(state):
            calls.append(state)
            return sc.system.jump_indicator(state)

        sys = dataclasses.replace(
            sc.system, flow_indicator=indicator, jump_indicator=indicator
        )
        counts = {"steps": 0, "dense": 0, "located": 0}

        class CountingRK45(hybrid.RK45):
            def step(self):
                message = super().step()
                counts["steps"] += message is None
                return message

            def dense_output(self):
                interpolant = super().dense_output()

                def counted(t):
                    counts["dense"] += 1
                    return interpolant(t)

                return counted

        locate = hybrid._locate_crossing

        def counted_locate(*args):
            counts["located"] += 1
            return locate(*args)

        monkeypatch.setattr(hybrid, "RK45", CountingRK45)
        monkeypatch.setattr(hybrid, "_locate_crossing", counted_locate)
        arc = solve(sys, sc.x0, sc.config)
        monkeypatch.undo()
        assert arc.jump_count > 10
        assert counts["located"] > 10
        assert counts["dense"] > arc.jump_count
        assert counts["steps"] == sum(len(times) - 1 for times, _ in arc.samples)
        expected = 1 + counts["steps"] + arc.jump_count + counts["dense"]
        assert len(calls) == expected
        # Locating a jump costs a few flow steps' worth of indicator calls,
        # not the ~22 of a full bisection to event_tol.
        assert counts["dense"] <= 10 * counts["located"]

    def test_flow_map_stacks_plant_and_controller(self):
        ctrl = ControllerData(
            n_state=1,
            feedback=lambda x, xi: np.array([2.0]),
            potential=lambda x, xi: 0.0,
            candidates=lambda x, xi: [np.array([0.0])],
            controller_flow=lambda x, xi: np.array([-3.0]),
            margin=1.0,
        )
        sys = compose_closed_loop(scalar_plant(), np.zeros(1), ctrl)
        rate = sys.flow_map(np.array([1.0, 0.0]))
        assert rate.tolist() == [-1.0 + 2.0, -3.0]

    def test_jump_map_keeps_plant_state(self):
        ctrl = toggle_controller({-1.0: 1.0, 1.0: 3.0})
        sys = compose_closed_loop(scalar_plant(), np.zeros(1), ctrl)
        out = sys.jump_map(np.array([0.7, 1.0]))
        assert out.tolist() == [0.7, -1.0]


class TestAffinePlant:
    def test_unperturbed_dynamics(self):
        plant = AffinePlant(
            drift=lambda x, xi: np.array([1.0]),
            input_matrix=lambda x, xi: np.array([[2.0]]),
            matched_matrix=lambda x, xi: np.array([[1.0]]),
            n_x=1,
            n_u=1,
        )
        x, xi = np.zeros(1), np.zeros(1)
        assert plant.f(x, xi, np.array([3.0]), np.array([1.0]))[0] == 9.0


def _decay_arc(v0=4.0):
    """Arc of the scalar closed loop xdot = -x with a gap-0 controller."""
    ctrl = toggle_controller({-1.0: 0.0, 1.0: 0.0})
    sys = compose_closed_loop(scalar_plant(), np.zeros(1), ctrl)
    # feedback is 0, so xdot = -x
    return solve(sys, np.array([v0, 1.0]), SolverConfig(t_max=2.0))


class TestMonitors:
    def test_flow_monitor_clean_on_decaying_arc(self):
        arc = _decay_arc()
        violations = monitor_flow_decrease(arc, lambda s: 0.5 * s[0] ** 2, 1e-6)
        assert violations == []

    def test_flow_monitor_flags_unstable_arc(self):
        # xdot = +x grows; the same quadratic potential must increase.
        sys = HybridSystemDef(
            flow_map=lambda y: np.array([y[0], 0.0]),
            flow_indicator=lambda y: -1.0,
            jump_indicator=lambda y: -1.0,
            jump_map=lambda y: y,
        )
        arc = solve(sys, np.array([1.0, 1.0]), SolverConfig(t_max=1.0))
        violations = monitor_flow_decrease(arc, lambda s: 0.5 * s[0] ** 2, 1e-6)
        assert violations
        assert all(v.kind == "flow" for v in violations)

    def test_flow_monitor_constant_arc(self):
        sys = HybridSystemDef(
            flow_map=lambda y: np.zeros(1),
            flow_indicator=lambda y: -1.0,
            jump_indicator=lambda y: -1.0,
            jump_map=lambda y: y,
        )
        arc = solve(sys, np.array([2.0]), SolverConfig(t_max=1.0))
        assert monitor_flow_decrease(arc, lambda s: s[0], 1e-9) == []

    def test_jump_monitor_flags_identity_jump(self):
        # Timer resets to itself: potential unchanged but margin is positive.
        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=lambda y: y[0] - 1.0,
            jump_indicator=lambda y: y[0] - 1.0,
            jump_map=lambda y: np.asarray(y) - 1.0,
        )
        arc = solve(sys, np.array([0.0]), SolverConfig(t_max=2.5))
        violations = monitor_jump_decrease(
            arc, lambda s: 1.0, lambda s: 0.5, tol=1e-9
        )
        assert len(violations) == len(arc.jump_records) > 0

    def test_jump_monitor_accepts_sufficient_drop(self):
        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=lambda y: y[0] - 1.0,
            jump_indicator=lambda y: y[0] - 1.0,
            jump_map=lambda y: np.zeros(1),
        )
        arc = solve(sys, np.array([0.0]), SolverConfig(t_max=1.5))
        violations = monitor_jump_decrease(
            arc, lambda s: float(s[0]), lambda s: 0.5, tol=1e-9
        )
        assert violations == []

    def test_jump_monitor_empty_without_jumps(self):
        arc = _decay_arc()
        assert monitor_jump_decrease(arc, lambda s: 0.0, lambda s: 1.0, 1e-9) == []

    def test_jump_monitor_infinite_before(self):
        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=lambda y: y[0] - 1.0,
            jump_indicator=lambda y: y[0] - 1.0,
            jump_map=lambda y: np.zeros(1),
        )
        arc = solve(sys, np.array([0.0]), SolverConfig(t_max=1.5))
        potential = lambda s: math.inf if s[0] >= 1.0 - 1e-6 else float(s[0])
        assert monitor_jump_decrease(arc, potential, lambda s: 1.0, 1e-9) == []

    def test_flow_monitor_flags_nan_potential(self):
        # A NaN value compares false both ways; it counts as a violation.
        arc = _decay_arc()
        values = [0.5 * s[0] ** 2 for _, _, s in arc.iter_samples()]
        values[3] = math.nan
        violations = monitor_flow_decrease(arc, values, 1e-6)
        assert [v.t for v in violations] == [arc.samples[0][0][k] for k in (3, 4)]
        assert all(v.kind == "flow" for v in violations)

    def test_jump_monitor_flags_nan_potential(self):
        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=lambda y: y[0] - 1.0,
            jump_indicator=lambda y: y[0] - 1.0,
            jump_map=lambda y: np.zeros(1),
        )
        arc = solve(sys, np.array([0.0]), SolverConfig(t_max=1.5))
        for potential in (
            lambda s: math.nan if s[0] == 0.0 else float(s[0]),
            lambda s: math.nan if s[0] >= 1.0 - 1e-6 else float(s[0]),
        ):
            violations = monitor_jump_decrease(arc, potential, lambda s: 0.5, 1e-9)
            assert len(violations) == len(arc.jump_records) == 1
