"""Solver-level tests: flow integration, event location, jumps, domains."""

import copy
import dataclasses
import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hybridfb import (
    DomainEscape,
    HybridArc,
    HybridFeedbackError,
    HybridSystemDef,
    IntegrationStalled,
    JumpOutsideJumpSet,
    JumpRecord,
    SolverConfig,
    StateLengthMismatch,
    ZenoSuspected,
    apply_jump,
    hybrid,
    make_scenario,
    solve,
    validate_domain,
)


def decay_system():
    return HybridSystemDef(
        flow_map=lambda y: -np.asarray(y),
        flow_indicator=lambda y: -1.0,
        jump_indicator=lambda y: -1.0,
        jump_map=lambda y: y,
    )


def timer_system(reset=None):
    return HybridSystemDef(
        flow_map=lambda y: np.ones(1),
        flow_indicator=lambda y: y[0] - 1.0,
        jump_indicator=lambda y: y[0] - 1.0,
        jump_map=(lambda y: np.zeros(1)) if reset is None else reset,
    )


class TestAdvanceFlow:
    """One flow interval of :func:`solve`, read as the arc's first."""

    def test_exponential_decay_endpoint(self):
        cfg = SolverConfig(t_max=1.0)
        arc = solve(decay_system(), np.array([1.0]), cfg)
        times, states = arc.samples[0]
        assert arc.jump_count == 0
        assert times[-1] == 1.0
        assert abs(states[-1][0] - math.exp(-1.0)) <= cfg.abs_tol

    def test_zero_dynamics_constant_segment(self):
        sys = HybridSystemDef(
            flow_map=lambda y: np.zeros(2),
            flow_indicator=lambda y: -1.0,
            jump_indicator=lambda y: -1.0,
            jump_map=lambda y: y,
        )
        cfg = SolverConfig(t_max=5.0)
        arc = solve(sys, np.array([3.0, -2.0]), cfg)
        times, states = arc.samples[0]
        assert arc.jump_count == 0
        assert times[-1] == 5.0
        assert np.all(states == np.array([3.0, -2.0]))

    def test_timer_boundary_location(self):
        cfg = SolverConfig(t_max=1.5)
        sys = timer_system()
        arc = solve(sys, np.array([0.0]), cfg)
        times, states = arc.samples[0]
        assert arc.jump_count == 1
        assert abs(times[-1] - 1.0) <= cfg.event_tol
        # located boundary sample sits on the indicator zero within tolerance
        assert abs(states[-1][0] - 1.0) <= cfg.event_tol
        assert 0.0 <= sys.jump_indicator(states[-1]) <= cfg.event_tol

    def test_precondition_outside_flow_set(self):
        cfg = SolverConfig(t_max=1.0)
        sys = HybridSystemDef(
            flow_map=lambda y: -np.asarray(y),
            flow_indicator=lambda y: 1.0,
            jump_indicator=lambda y: -1.0,
            jump_map=lambda y: y,
        )
        with pytest.raises(DomainEscape, match="started outside the flow set"):
            solve(sys, np.array([1.0]), cfg)

    def test_domain_escape_mid_flow(self):
        # Flow set is x <= 1 but the jump set is far away: leaving C is an error.
        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=lambda y: y[0] - 1.0,
            jump_indicator=lambda y: y[0] - 100.0,
            jump_map=lambda y: y,
        )
        cfg = SolverConfig(t_max=5.0)
        with pytest.raises(DomainEscape) as excinfo:
            solve(sys, np.array([0.0]), cfg)
        assert excinfo.value.state is not None

    def test_left_flow_set_without_entering_jump_set(self):
        # Flow set y <= 0.5, jump set y >= 1: the timer leaves the flow
        # set with the jump set still ahead.
        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=lambda y: y[0] - 0.5,
            jump_indicator=lambda y: y[0] - 1.0,
            jump_map=lambda y: np.zeros(1),
        )
        cfg = SolverConfig(t_max=2.0)
        with pytest.raises(
            DomainEscape, match="left the flow set at t=0.5.* without entering"
        ) as info:
            solve(sys, np.array([0.0]), cfg)
        assert 0.5 < info.value.t <= 0.5 + cfg.max_step + 1e-12
        assert info.value.state[0] == pytest.approx(info.value.t, abs=1e-12)

    def test_left_flow_set_within_event_tol_of_jump_set(self):
        # Above y = 0.5 the jump indicator sits just below zero, within
        # event_tol: on leaving the flow set y <= 0.5 the interval hands
        # over to the jump logic at the first step past 0.5.
        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=lambda y: y[0] - 0.5,
            jump_indicator=lambda y: -1.0 if y[0] <= 0.5 else -0.5e-10,
            jump_map=lambda y: np.zeros(1),
        )
        cfg = SolverConfig(t_max=2.0)
        arc = solve(sys, np.array([0.0]), cfg)
        times, states = arc.samples[0]
        assert 0.5 < times[-1] <= 0.5 + cfg.max_step + 1e-12
        assert times[-2] <= 0.5
        assert states[-1][0] == pytest.approx(times[-1], abs=1e-12)
        assert arc.jump_count >= 1
        assert arc.jump_records[0].t == times[-1]
        assert arc.samples[1][1][0][0] == 0.0

    def test_order_improves_with_tolerance(self):
        errors = []
        for tol in (1e-5, 1e-7, 1e-9, 1e-11):
            cfg = SolverConfig(t_max=1.0, abs_tol=tol, rel_tol=tol, max_step=1.0)
            _, states = solve(decay_system(), np.array([1.0]), cfg).samples[0]
            err = abs(states[-1][0] - math.exp(-1.0))
            assert err <= 10.0 * tol
            errors.append(err)
        assert all(b <= a for a, b in zip(errors, errors[1:]))


def _plane_system(**callbacks):
    """A 2-state timer on ``y[0]`` with jump set ``y[0] >= 1``, callbacks replaced."""
    sys = HybridSystemDef(
        flow_map=lambda y: np.array([1.0, 0.0]),
        flow_indicator=lambda y: y[0] - 1.0,
        jump_indicator=lambda y: y[0] - 1.0,
        jump_map=lambda y: np.array([0.0, y[1]]),
    )
    return dataclasses.replace(sys, **callbacks)


class TestCallbackLength:
    """A callback whose result is not of the state's length is refused."""

    @staticmethod
    def _refused(sys, callback, got):
        with pytest.raises(StateLengthMismatch) as info:
            solve(sys, np.array([0.0, 0.5]), SolverConfig(t_max=1.5))
        assert (info.value.callback, info.value.expected, info.value.got) == (
            callback, 2, got
        )
        assert str(info.value) == f"{callback} returned {got} values for a state of 2"

    def test_three_valued_flow_map(self):
        # It used to run silently, its third rate ignored.
        sys = _plane_system(flow_map=lambda y: np.array([1.0, 0.0, 5.0]))
        self._refused(sys, "flow_map", 3)

    def test_one_valued_flow_map(self):
        # It used to integrate one state and end in numpy's ValueError.
        self._refused(_plane_system(flow_map=lambda y: np.ones(1)), "flow_map", 1)

    def test_three_valued_jump_map(self):
        sys = _plane_system(jump_map=lambda y: np.array([0.0, y[1], 0.0]))
        self._refused(sys, "jump_map", 3)

    def test_one_valued_projection(self):
        # It used to end in a bare IndexError.
        sys = _plane_system(project_state=lambda y: y[:1])
        self._refused(sys, "project_state", 1)

    def test_three_valued_projection(self):
        # It used to return an arc of 3-state samples.
        sys = _plane_system(project_state=lambda y: [*y, 0.0])
        self._refused(sys, "project_state", 3)


class TestCallbackResults:
    """A callback result that is not a state, or not a real number, raises
    a library error that names the callback: never a bare exception, never
    a run on misread values."""

    X0 = np.array([0.0, 0.5])

    @pytest.mark.parametrize(
        "result, error",
        [
            (None, DomainEscape),
            ("ab", DomainEscape),
            (1.0, StateLengthMismatch),
            ([[1.0], [2.0]], StateLengthMismatch),
            ([1j, 0.0], DomainEscape),
            (np.ones((2, 1)), StateLengthMismatch),
        ],
        ids=["none", "string", "scalar", "nested_list", "complex", "column"],
    )
    def test_malformed_flow_map(self, result, error):
        sys = _plane_system(flow_map=lambda y: result)
        with pytest.raises(error, match="^flow_map returned"):
            solve(sys, np.array([1.0, 2.0]), SolverConfig(t_max=0.05))

    def test_dict_flow_map(self):
        # A dict has the state's length, but iterating it gives its keys.
        sys = _plane_system(
            flow_map=lambda y: {0: 1.0, 1: 2.0},
            flow_indicator=lambda y: -1.0,
            jump_indicator=lambda y: -1.0,
        )
        with pytest.raises(DomainEscape, match="^flow_map returned values of dtype object"):
            solve(sys, np.array([1.0, 2.0]), SolverConfig(t_max=0.05))

    @pytest.mark.parametrize("callback", ["project_state", "jump_map"])
    @pytest.mark.parametrize(
        "result, error",
        [(None, DomainEscape), (3.0, StateLengthMismatch), ("ab", DomainEscape)],
        ids=["none", "scalar", "string"],
    )
    def test_malformed_projection_or_jump_map(self, callback, result, error):
        sys = _plane_system(**{callback: lambda y: result})
        with pytest.raises(error, match=f"^{callback} returned"):
            solve(sys, self.X0, SolverConfig(t_max=1.5))

    def test_nested_jump_map_of_one_state(self):
        # [[0.0]] has the state's length: only its shape tells it from a state.
        sys = timer_system(reset=lambda y: [[0.0]])
        with pytest.raises(StateLengthMismatch) as info:
            solve(sys, np.array([0.0]), SolverConfig(t_max=1.5))
        assert str(info.value) == "jump_map returned shape (1, 1) for a state of 1"

    @pytest.mark.parametrize("kind", ["jump", "flow"])
    @pytest.mark.parametrize(
        "value",
        [None, "x", [1.0], np.array([1.0, 2.0]), 1j],
        ids=["none", "string", "list", "array", "complex"],
    )
    def test_indicator_not_a_real_number(self, kind, value):
        sys = _plane_system(**{f"{kind}_indicator": lambda y: value})
        with pytest.raises(
            DomainEscape, match=f"^{kind} indicator returned a value of type"
        ) as info:
            solve(sys, self.X0, SolverConfig(t_max=1.5))
        assert info.value.t == 0.0

    @pytest.mark.parametrize(
        "value", [1, True, np.float32(-0.5), np.int64(-1), np.bool_(False)]
    )
    def test_indicator_real_scalars_accepted(self, value):
        sys = _plane_system(jump_indicator=lambda y: value)
        arc = solve(sys, self.X0, SolverConfig(t_max=0.05, j_max=3))
        assert arc.jump_count == (3 if value >= 0 else 0)

    @pytest.mark.parametrize("result", [(0.0, 0.5), [0, 1], np.array([False, True])])
    def test_real_sequences_accepted(self, result):
        sys = _plane_system(jump_map=lambda y: result, project_state=lambda y: y)
        arc = solve(sys, self.X0, SolverConfig(t_max=1.5))
        assert arc.jump_count == 1
        assert arc.samples[1][1][0].tolist() == [float(v) for v in result]


class TestNonFiniteJump:
    """A non-finite post-jump state raises DomainEscape at the jump."""

    @staticmethod
    def _nan_reset():
        return HybridSystemDef(
            flow_map=lambda y: [1.0],
            flow_indicator=lambda y: -1.0,
            jump_indicator=lambda y: 1.0,
            jump_map=lambda y: [math.nan],
        )

    def test_within_the_jump_budget(self):
        # The indicator keeps every state in the jump set, so no flow
        # starts from the NaN state to refuse it.
        with pytest.raises(DomainEscape, match="jump map returned a non-finite") as info:
            solve(self._nan_reset(), np.array([0.0]), SolverConfig(t_max=1.0, j_max=5))
        assert info.value.t == 0.0 and math.isnan(info.value.state[0])

    def test_not_taken_for_zeno(self):
        # Refused at the first jump, before a spent budget reads as Zeno.
        with pytest.raises(DomainEscape, match="jump map returned a non-finite"):
            solve(self._nan_reset(), np.array([0.0]), SolverConfig(t_max=1.0, j_max=100))


def _stage_timer(bad, first, last=None):
    """A 2-state timer that never jumps, whose flow map returns ``bad`` on
    calls ``first`` to ``last`` (1-based; to the end when ``last`` is None)
    and ``[1.0, 0.5]`` otherwise.  Call 1 is the first stage, call 2 the
    initial-step probe and calls 3-8 stages 2-7 of the first step.

    Returns the system and the list of the states' lengths it was called with.
    """
    lengths = []

    def flow_map(y):
        lengths.append(len(y))
        if first <= len(lengths) and (last is None or len(lengths) <= last):
            return copy.deepcopy(bad)
        return [1.0, 0.5]

    sys = HybridSystemDef(
        flow_map=flow_map,
        flow_indicator=lambda y: -1.0,
        jump_indicator=lambda y: -1.0,
        jump_map=lambda y: y,
    )
    return sys, lengths


class TestFlowMapStages:
    """Every flow-map result the stepper takes, the initial-step probe and
    stages 2-7 included, meets the first stage's contract."""

    CFG = SolverConfig(t_max=1.5)
    X0 = np.array([0.0, 0.0])

    def test_short_stage_after_the_first(self):
        # It used to run ~150 steps on a 1-component state, then fail on
        # stacking the interval's samples.
        sys, lengths = _stage_timer([1.0], first=6)
        with pytest.raises(StateLengthMismatch) as info:
            solve(sys, self.X0, self.CFG)
        assert str(info.value) == "flow_map returned 1 values for a state of 2"
        assert set(lengths) == {2}

    def test_long_stage_after_the_first(self):
        # It used to reach t = 1.5 with the extra value dropped.
        sys, _ = _stage_timer([1.0, 0.5, 7.0], first=6)
        with pytest.raises(StateLengthMismatch) as info:
            solve(sys, self.X0, self.CFG)
        assert str(info.value) == "flow_map returned 3 values for a state of 2"

    @pytest.mark.parametrize(
        "bad", [[1j, 0.0], None, "ab"], ids=["complex", "none", "string"]
    )
    def test_stage_not_real_after_the_first(self, bad):
        sys, _ = _stage_timer(bad, first=6)
        with pytest.raises(DomainEscape, match="^flow_map returned values of dtype"):
            solve(sys, self.X0, self.CFG)

    @pytest.mark.parametrize(
        "bad", [[1.0], [1.0, 0.5, 9.0]], ids=["short", "long"]
    )
    def test_initial_step_probe_of_wrong_length(self, bad):
        sys, lengths = _stage_timer(bad, first=2, last=2)
        with pytest.raises(StateLengthMismatch, match="^flow_map returned"):
            solve(sys, self.X0, self.CFG)
        assert lengths == [2, 2]

    @pytest.mark.parametrize(
        "bad", [None, [1j, 0.0], "ab"], ids=["none", "complex", "string"]
    )
    def test_initial_step_probe_not_real(self, bad):
        sys, _ = _stage_timer(bad, first=2, last=2)
        with pytest.raises(DomainEscape, match="^flow_map returned values of dtype"):
            solve(sys, self.X0, self.CFG)

    def test_short_second_stage_never_shortens_the_next_input(self):
        sys, lengths = _stage_timer([1.0], first=3, last=3)
        with pytest.raises(StateLengthMismatch, match="^flow_map returned 1 values"):
            solve(sys, self.X0, self.CFG)
        assert lengths == [2, 2, 2]

    @pytest.mark.parametrize(
        "bad, error",
        [([1.0], StateLengthMismatch), ([1j, 0.0], DomainEscape)],
        ids=["short", "complex"],
    )
    def test_kept_last_stage(self, bad, error):
        # Call 8 is the first step's last stage, kept as the next first stage.
        sys, lengths = _stage_timer(bad, first=8, last=8)
        with pytest.raises(error, match="^flow_map returned"):
            solve(sys, self.X0, self.CFG)
        assert lengths == [2] * 8

    @pytest.mark.parametrize("first", [2, 6], ids=["probe", "stage"])
    def test_flow_maps_own_type_error_propagates(self, first):
        fault = TypeError("the flow map's own")

        def flow_map(y):
            calls.append(None)
            if len(calls) >= first:
                raise fault
            return [1.0, 0.5]

        calls = []
        sys = dataclasses.replace(_stage_timer([1.0, 0.5], first=math.inf)[0], flow_map=flow_map)
        with pytest.raises(TypeError) as info:
            solve(sys, self.X0, self.CFG)
        assert info.value is fault


class TestInitialState:
    """``solve`` refuses an ``x0`` that is not a non-empty one-dimensional
    sequence of real numbers, naming it."""

    @pytest.mark.parametrize(
        "x0",
        [[], (), [[0.0], [1.0, 2.0]], ["a", "b"], [1j, 0.0], None, 3.0, [[0.0, 0.0]]],
        ids=["empty_list", "empty_tuple", "ragged", "strings", "complex", "none",
             "scalar", "row"],
    )
    def test_refused(self, x0):
        sys, lengths = _stage_timer([1.0, 0.5], first=math.inf)
        with pytest.raises(DomainEscape, match="^x0 is not a non-empty one-dimensional"):
            solve(sys, x0, SolverConfig(t_max=0.1))
        assert lengths == []

    def test_bools_and_ints_run(self):
        sys, _ = _stage_timer([1.0, 0.5], first=math.inf)
        arc = solve(sys, [True, 2], SolverConfig(t_max=0.1))
        assert arc.samples[0][1][0].tolist() == [1.0, 2.0]

    def test_valid_x0_keeps_its_bits(self):
        x0 = [0.1, -3.0000000000000004]
        sys, _ = _stage_timer([1.0, 0.5], first=math.inf)
        for given in (x0, tuple(x0), np.array(x0), np.array(x0, dtype=np.float32)):
            arc = solve(sys, given, SolverConfig(t_max=0.1))
            assert arc.samples[0][1][0].tolist() == np.asarray(given, dtype=float).tolist()


class PlantedFault(Exception):
    """A callback's own exception, which the solver must let through."""


# A fuzzed callback returns its good value for its first ``onset`` calls,
# then one of these on every call; _RAISE raises PlantedFault instead.
_RAISE = object()
_BAD_STATES = [
    [1.0], [1.0, 0.0, 0.0], np.ones(3), None, 1.0, np.float64(1.0), 3, "ab",
    [[1.0], [0.0]], [[1.0], 0.0], {0: 1.0, 1: 0.0}, [1j, 0.0],
    np.array([1.0 + 0j, 0.0]), np.ones((2, 1)), np.ones((1, 2)), [math.inf, 0.0],
    [0.0, -math.inf], [math.nan, 0.0], np.array([0.0, math.nan]), ["1.0", "0.0"],
    [None, 0.0], (0.5, 0.5), [0, 1], [True, False], _RAISE,
]
_BAD_SCALARS = [
    None, "x", "1.5", [1.0], np.array([1.0, 2.0]), np.array(1.0), 1j, math.inf,
    -math.inf, math.nan, np.float64(math.nan), -1, True, np.float32(0.5), _RAISE,
]


# Initial states, each with whether solve takes it.
_X0S = [
    ([], False), ((), False), ([[0.0], [1.0, 2.0]], False), (["a", "b"], False),
    ([1j, 0.0], False), (None, False), (3.0, False), ([[0.0, 0.0]], False),
    (np.ones((2, 1)), False), (np.array([0.5 + 0j, 0.0]), False), ("ab", False),
    ({0: 0.5, 1: 0.0}, False), ([None, 0.0], False), ([0.5, "0.0"], False),
    ([0.5, 0.0], True), ((0.25, -0.5), True), ([True, False], True), ([0, 1], True),
    (np.array([0.5, 0.0], dtype=np.float32), True), (np.array([0, 1]), True),
]


def _faulty(good, bad, onset):
    calls = []

    def callback(y):
        calls.append(None)
        if len(calls) <= onset:
            return good(y)
        if bad is _RAISE:
            raise PlantedFault
        return copy.deepcopy(bad)

    return callback


class TestCallbackFuzz:
    """Seeded fuzz of every callback: each case runs to a well-formed,
    finite arc, or raises a HybridFeedbackError, or the callback's own
    PlantedFault."""

    @staticmethod
    def _system():
        # A 2-state timer on y[0] that resets to 0 at 1, with a projection
        # and separate indicator objects, so that every callback is called.
        return HybridSystemDef(
            flow_map=lambda y: [1.0, 0.0],
            flow_indicator=lambda y: y[0] - 1.0,
            jump_indicator=lambda y: y[0] - 1.0,
            jump_map=lambda y: [0.0, y[1]],
            project_state=lambda y: [y[0], y[1]],
        )

    @staticmethod
    def _outcome(sys, x0, cfg, where):
        """``"ran"`` for a well-formed, finite arc, else the library error's name."""
        try:
            arc = solve(sys, x0, cfg)
        except (HybridFeedbackError, PlantedFault) as exc:
            return type(exc).__name__
        except Exception as exc:
            pytest.fail(f"{where}: bare {type(exc).__name__}: {exc}")
        assert validate_domain(arc) == [], where
        for _, states in arc.samples:
            assert states.shape[1:] == (2,) and np.isfinite(states).all(), where
        return "ran"

    def test_every_case_runs_or_raises_a_library_error(self):
        rng = np.random.default_rng(20261021)
        callbacks = ["flow_map", "jump_map", "project_state", "jump_indicator",
                     "flow_indicator"]
        cfg = SolverConfig(t_max=3.5, max_step=0.1)
        outcomes = set()
        for case in range(1500):
            callback = callbacks[case % len(callbacks)]
            pool = _BAD_SCALARS if callback.endswith("indicator") else _BAD_STATES
            bad = pool[int(rng.integers(len(pool)))]
            # Here the flow map is faulted from its first call on, the first
            # stage of the first interval; the jump map is called once per
            # jump, three times a run.
            onset = {"flow_map": 0, "jump_map": int(rng.integers(0, 4))}.get(
                callback, int(rng.integers(0, 40))
            )
            sys = self._system()
            good = getattr(sys, callback)
            sys = dataclasses.replace(sys, **{callback: _faulty(good, bad, onset)})
            x0 = np.array([rng.uniform(0.0, 0.9), rng.uniform(-1.0, 1.0)])
            where = f"case {case}: {callback} -> {bad!r} from call {onset}"
            outcomes.add(self._outcome(sys, x0, cfg, where))
        assert outcomes >= {
            "ran", "DomainEscape", "StateLengthMismatch", "PlantedFault"
        }

    def test_later_flow_map_faults_and_malformed_x0(self):
        # Even cases fault the flow map from a later call: a later stage, the
        # initial-step probe or a later interval's first stage (a run makes
        # ~230 calls).  Odd cases hand solve an x0 from _X0S.
        rng = np.random.default_rng(20261022)
        cfg = SolverConfig(t_max=3.5, max_step=0.1)
        outcomes = set()
        for case in range(600):
            x0 = [rng.uniform(0.0, 0.9), rng.uniform(-1.0, 1.0)]
            sys = self._system()
            if case % 2:
                x0, valid = _X0S[int(rng.integers(len(_X0S)))]
                where = f"case {case}: x0 = {x0!r}"
                outcome = self._outcome(sys, copy.deepcopy(x0), cfg, where)
                assert outcome == ("ran" if valid else "DomainEscape"), where
            else:
                bad = _BAD_STATES[int(rng.integers(len(_BAD_STATES)))]
                onset = int(rng.integers(1, 240))
                flow_map = _faulty(sys.flow_map, bad, onset)
                sys = dataclasses.replace(sys, flow_map=flow_map)
                where = f"case {case}: flow_map -> {bad!r} from call {onset}"
                outcome = self._outcome(sys, np.array(x0), cfg, where)
            outcomes.add(outcome)
        assert outcomes >= {
            "ran", "DomainEscape", "StateLengthMismatch", "PlantedFault"
        }


class TestApplyJump:
    def test_halving_map(self):
        sys = HybridSystemDef(
            flow_map=lambda y: y,
            flow_indicator=lambda y: 1.0,
            jump_indicator=lambda y: 1.0,
            jump_map=lambda y: np.asarray(y) / 2.0,
        )
        out = apply_jump(np.array([8.0]), 1.0, sys, SolverConfig())
        assert out[0] == 4.0

    def test_identity_map(self):
        sys = HybridSystemDef(
            flow_map=lambda y: y,
            flow_indicator=lambda y: 0.0,
            jump_indicator=lambda y: 0.0,
            jump_map=lambda y: y,
        )
        state = np.array([1.0, 2.0])
        out = apply_jump(state, 0.0, sys, SolverConfig())
        assert np.array_equal(out, state)

    def test_outside_jump_set_raises(self):
        with pytest.raises(JumpOutsideJumpSet):
            apply_jump(np.array([0.0]), -1.0, timer_system(), SolverConfig())

    def test_checks_the_value_passed_in(self):
        # The value is checked as given: the indicator is never called.
        def jump_indicator(y):
            raise AssertionError("jump indicator evaluated by apply_jump")

        sys = HybridSystemDef(
            flow_map=lambda y: y,
            flow_indicator=lambda y: 1.0,
            jump_indicator=jump_indicator,
            jump_map=lambda y: np.asarray(y) + 1.0,
        )
        cfg = SolverConfig()
        assert apply_jump(np.array([0.0]), -cfg.event_tol, sys, cfg)[0] == 1.0
        with pytest.raises(JumpOutsideJumpSet):
            apply_jump(np.array([0.0]), -2.0 * cfg.event_tol, sys, cfg)


class TestSolve:
    def test_timer_three_jumps(self):
        cfg = SolverConfig(t_max=3.5)
        arc = solve(timer_system(), np.array([0.0]), cfg)
        assert arc.jump_count == 3
        assert len(arc.domain) == 4
        for k, rec in enumerate(arc.jump_records):
            assert abs(rec.t - (k + 1)) <= 1e-9
        assert validate_domain(arc) == []

    def test_flow_only_single_interval(self):
        cfg = SolverConfig(t_max=2.0)
        arc = solve(decay_system(), np.array([1.0]), cfg)
        assert arc.jump_count == 0
        assert len(arc.domain) == 1
        assert arc.domain[0] == (0.0, 2.0, 0)

    def test_initial_state_in_jump_set_jumps_at_zero(self):
        # tau starts beyond the threshold: only a jump is admissible.
        cfg = SolverConfig(t_max=2.0)
        arc = solve(timer_system(), np.array([1.5]), cfg)
        assert arc.jump_records[0].t == 0.0
        assert arc.jump_records[0].before[0] == 1.5
        assert arc.jump_records[0].after[0] == 0.0

    def test_jump_records_inside_jump_set(self):
        cfg = SolverConfig(t_max=3.5)
        arc = solve(timer_system(), np.array([0.0]), cfg)
        sys = timer_system()
        for rec in arc.jump_records:
            assert sys.jump_indicator(rec.before) >= -cfg.event_tol

    def test_determinism_bit_identical(self):
        cfg = SolverConfig(t_max=3.5)
        arc1 = solve(timer_system(), np.array([0.0]), cfg)
        arc2 = solve(timer_system(), np.array([0.0]), cfg)
        assert arc1.domain == arc2.domain
        for (t1, s1), (t2, s2) in zip(arc1.samples, arc2.samples):
            assert np.array_equal(t1, t2)
            assert np.array_equal(s1, s2)

    def test_j_max_stops_run(self):
        cfg = SolverConfig(t_max=10.0, j_max=2)
        arc = solve(timer_system(), np.array([0.0]), cfg)
        assert arc.jump_count == 2
        # run stops once the budget is exhausted at the next boundary
        assert arc.final_time < 10.0

    def test_zeno_suspected(self):
        # Identity reset inside the jump set: jumps forever without flowing.
        sys = HybridSystemDef(
            flow_map=lambda y: np.zeros(1),
            flow_indicator=lambda y: 1.0,
            jump_indicator=lambda y: 1.0,
            jump_map=lambda y: y,
        )
        cfg = SolverConfig(t_max=1.0, j_max=20)
        with pytest.raises(ZenoSuspected):
            solve(sys, np.array([0.0]), cfg)

    def test_j_max_below_zeno_window_stops_quietly(self):
        sys = HybridSystemDef(
            flow_map=lambda y: np.zeros(1),
            flow_indicator=lambda y: 1.0,
            jump_indicator=lambda y: 1.0,
            jump_map=lambda y: y,
        )
        cfg = SolverConfig(t_max=1.0, j_max=5)
        arc = solve(sys, np.array([0.0]), cfg)
        assert arc.jump_count == 5

    def test_initial_state_outside_both_sets(self):
        sys = HybridSystemDef(
            flow_map=lambda y: y,
            flow_indicator=lambda y: 1.0,
            jump_indicator=lambda y: -1.0,
            jump_map=lambda y: y,
        )
        with pytest.raises(DomainEscape) as excinfo:
            solve(sys, np.array([0.0]), SolverConfig())
        assert excinfo.value.state.tolist() == [0.0]
        assert excinfo.value.t == 0.0

    def test_post_jump_state_outside_both_sets(self):
        # Flow on [-1, 1], jump at 1 to -5, which is in neither set.
        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=lambda y: abs(y[0]) - 1.0,
            jump_indicator=lambda y: y[0] - 1.0,
            jump_map=lambda y: np.array([-5.0]),
        )
        cfg = SolverConfig(t_max=3.0)
        with pytest.raises(DomainEscape) as excinfo:
            solve(sys, np.array([0.0]), cfg)
        assert excinfo.value.state.tolist() == [-5.0]
        assert abs(excinfo.value.t - 1.0) <= cfg.event_tol

    def test_zero_horizon_echoes_initial_state(self):
        cfg = SolverConfig(t_max=0.0)
        arc = solve(timer_system(), np.array([0.3]), cfg)
        assert arc.jump_count == 0
        assert arc.final_time == 0.0
        assert arc.final_state[0] == 0.3

    def test_start_on_shared_boundary_jumps_first(self):
        # Start exactly on the shared boundary of the flow and jump sets:
        # the jump wins at t = 0, then the timer flows to the next one.
        cfg = SolverConfig(t_max=2.5)
        arc = solve(timer_system(), np.array([1.0]), cfg)
        assert arc.jump_records[0].t == 0.0
        assert arc.jump_records[0].after[0] == 0.0
        assert arc.jump_count == 3
        assert validate_domain(arc) == []

    def test_jump_decision_skips_flow_indicator(self):
        # The flow indicator only decides the outside-both-sets error, so
        # a state the jump indicator admits never needs it.
        admitted = []

        def flow_indicator(y):
            assert y[0] < 1.0, "flow indicator evaluated at an admitted jump"
            admitted.append(y[0])
            return y[0] - 1.0

        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=flow_indicator,
            jump_indicator=lambda y: y[0] - 1.0,
            jump_map=lambda y: np.zeros(1),
        )
        arc = solve(sys, np.array([1.0]), SolverConfig(t_max=2.5))
        assert arc.jump_count == 3
        assert admitted

    def test_priority_on_overlapping_sets(self):
        # Flow and jump sets overlap everywhere: jumps win, so the state
        # jumps in place until the Zeno guard trips.
        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=lambda y: -1.0,
            jump_indicator=lambda y: 1.0,
            jump_map=lambda y: np.zeros(1),
        )
        with pytest.raises(ZenoSuspected):
            solve(sys, np.array([0.0]), SolverConfig(t_max=1.0, j_max=20))


def clock_timer_system(project_state, log=None):
    """Timer ``tau`` with a clock ``t`` that no jump resets.

    The clock keeps every state of a run distinct.  ``log``, when given,
    collects ``("flow", state)`` per flow-map call and ``("jump", state)``
    per jump.
    """

    def flow_map(y):
        if log is not None:
            log.append(("flow", y.copy()))
        return np.ones(2)

    def jump_map(y):
        if log is not None:
            log.append(("jump", y.copy()))
        return np.array([0.0, y[1]])

    return HybridSystemDef(
        flow_map=flow_map,
        flow_indicator=lambda y: y[0] - 1.0,
        jump_indicator=lambda y: y[0] - 1.0,
        jump_map=jump_map,
        project_state=project_state,
    )


class TestOnePassPerState:
    def test_jump_indicator_never_repeats_a_state(self):
        seen = []
        base = clock_timer_system(lambda y: y.copy())

        def jump_indicator(y):
            seen.append(np.asarray(y).tobytes())
            return base.jump_indicator(y)

        sys = dataclasses.replace(base, jump_indicator=jump_indicator)
        arc = solve(sys, np.array([0.0, 0.0]), SolverConfig(t_max=3.5))
        assert arc.jump_count == 3
        assert len(seen) == len(set(seen))

    def test_flow_starts_from_the_recorded_sample(self):
        # A projection that moves every state it is given: each state
        # must be projected exactly once, so the stepper starts each
        # interval from the sample the arc records.
        log = []
        sys = clock_timer_system(lambda y: np.asarray(y) + 2.0**-30, log)
        arc = solve(sys, np.array([0.25, 0.0]), SolverConfig(t_max=3.5))
        assert arc.jump_count == 3
        firsts = [log[0][1]]
        firsts += [log[k + 1][1] for k, (kind, _) in enumerate(log) if kind == "jump"]
        assert len(firsts) == len(arc.samples)
        for k, first in enumerate(firsts):
            assert np.array_equal(first, arc.samples[k][1][0]), k


def rotation_system(growth, calls=None):
    """A rotation, plus ``growth`` times the state, renormalized onto the circle.

    The projection moves every state; the circle is invariant only at
    ``growth = 0``.  ``calls``, when given, collects each flow-map state.
    """

    def flow_map(y):
        if calls is not None:
            calls.append(y)
        return np.array([-y[1], y[0]]) + growth * np.asarray(y)

    return HybridSystemDef(
        flow_map=flow_map,
        flow_indicator=lambda y: -1.0,
        jump_indicator=lambda y: -1.0,
        jump_map=lambda y: y,
        project_state=lambda y: np.asarray(y) / math.hypot(y[0], y[1]),
    )


class TestStepperReseat:
    """One ``hybrid.RK45`` steps a solve; a projection keeps its last stage."""

    @staticmethod
    def _pendulum(t, y):
        return np.array([y[1], -math.sin(y[0]) - 0.3 * y[1]])

    def test_reseated_rk45_steps_like_a_fresh_one(self):
        kwargs = dict(t_bound=50.0, max_step=0.5, rtol=1e-6, atol=1e-8)
        reseated = hybrid.RK45(self._pendulum, 0.0, np.array([2.0, 0.0]), **kwargs)
        for _ in range(4):
            reseated.step()
        t, h = reseated.t, reseated.h_abs
        y = np.asarray(reseated.y) * (1.0 + 1e-9)
        reseated.y = y
        reseated.f = reseated.fun(t, y)
        fresh = hybrid.RK45(self._pendulum, t, y, **kwargs)
        fresh.h_abs = h
        for _ in range(30):
            reseated.step()
            fresh.step()
            assert reseated.t == fresh.t
            assert reseated.h_abs == fresh.h_abs
            assert np.array_equal(reseated.y, fresh.y)
            assert np.array_equal(reseated.f, fresh.f)
            mid = 0.5 * (reseated.t_old + reseated.t)
            assert np.array_equal(
                reseated.dense_output()(mid), fresh.dense_output()(mid)
            )

    def test_advance_flow_builds_one_stepper(self, monkeypatch):
        # Renormalized rotation: every projection moves the state.
        sys = rotation_system(0.05)
        project = sys.project_state
        cfg = SolverConfig(t_max=2.0, max_step=0.1, abs_tol=1e-8, rel_tol=1e-8)
        built = []

        class CountingRK45(hybrid.RK45):
            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hybrid, "RK45", CountingRK45)
        arc = solve(sys, np.array([1.0, 0.0]), cfg)
        monkeypatch.undo()
        times, states = arc.samples[0]
        assert arc.jump_count == 0
        assert built == [0.0]

        # Reference: one stepper that takes the projected y after every
        # step and keeps its last stage, the flow map at the unprojected y.
        def rhs(_t, y):
            return sys.flow_map(y)

        kwargs = dict(max_step=cfg.max_step, rtol=cfg.rel_tol, atol=cfg.abs_tol)
        ref = hybrid.RK45(rhs, 0.0, np.array([1.0, 0.0]), cfg.t_max, **kwargs)
        ref_times, ref_states = [0.0], [np.array([1.0, 0.0])]
        while ref.status == "running":
            ref.step()
            y = project(ref.y).tolist()
            assert y != ref.y
            ref_times.append(ref.t)
            ref_states.append(y)
            ref.y = y
        assert np.array_equal(times, ref_times)
        assert np.array_equal(states, np.array(ref_states))

    def test_advance_flow_call_budget(self):
        # The initial stage and the initial step's probe, then six calls per
        # try (no try is rejected here), and none where a projection moves
        # the state: the last stage is kept.
        calls, moved = [], []
        sys = rotation_system(0.0, calls)
        project = sys.project_state

        def counted_project(y):
            projected = project(y)
            moved.append(not np.array_equal(projected, y))
            return projected

        sys = dataclasses.replace(sys, project_state=counted_project)
        cfg = SolverConfig(t_max=2.0, max_step=0.1, abs_tol=1e-8, rel_tol=1e-8)
        times, _ = solve(sys, np.array([1.0, 0.0]), cfg).samples[0]
        steps = len(times) - 1
        # One projection of x0, which it leaves, then one per step.
        assert steps == len(moved) - 1 > 10
        assert all(moved[1:])
        assert len(calls) == 2 + 6 * steps

    def test_solve_call_budget(self, monkeypatch):
        # One stepper for the whole solve; a jump adds one call (the first
        # stage at the post-jump state), and a projection that moves the
        # state none.
        log = []
        sys = clock_timer_system(lambda y: np.asarray(y) + 2.0**-30, log)
        built = []

        class CountingRK45(hybrid.RK45):
            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hybrid, "RK45", CountingRK45)
        arc = solve(sys, np.array([0.25, 0.0]), SolverConfig(t_max=3.5, max_step=0.1))
        monkeypatch.undo()
        assert built == [0.0]
        assert arc.jump_count == 3
        steps = sum(len(times) - 1 for times, _ in arc.samples)
        flows = sum(kind == "flow" for kind, _ in log)
        assert flows == 2 + 6 * steps + arc.jump_count


def _pendulum(t, y):
    return np.array([y[1], -math.sin(y[0]) - 0.3 * y[1]])


def _van_der_pol(t, y):
    return np.array([y[1], 5.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])


def _forced_oscillator(t, y):
    return np.array([y[1], -y[0] + math.sin(3.0 * t)])


def _nan_after_half(t, y):
    return np.array([math.nan if t > 0.5 else 1.0])


def _ulps(ours, ref) -> float:
    """Largest componentwise difference, in units of the spacing of floats
    at the reference's largest component."""
    ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
    gap = float(np.max(np.abs(ours - ref)))
    return gap / float(np.spacing(np.max(np.abs(ref)))) if gap else 0.0


class TestRK45Oracle:
    """``hybrid.RK45`` against scipy's ``RK45``, re-seeded before every step.

    scipy forms its stage sums and dense output through BLAS, whose
    kernels may fuse or reorder the multiply-adds; ours adds them left to
    right on floats, so the two cannot agree bit for bit under every
    kernel.  Before each step the reference takes our ``t``, ``y``, ``f``
    and ``h_abs``.  Both must then make the same tries (the reference's
    ``nfev`` per step equals our ``fun`` calls), end with the same status
    and message, and agree on ``h_abs`` within ``H_REL``.  A rejected try's
    next step size comes from an error norm that cancels heavily, so the
    reference is then stepped once more from our last state with our
    accepted step: it must land on our ``t``, and agree on ``y``, ``f`` and
    the midpoint dense output within ``Y_ULPS``, ``F_ULPS`` and
    ``MID_ULPS`` spacings of its largest component (:func:`_ulps`).  Each
    bound is about 100 times the largest difference seen over the eleven
    cases here (2, 32 and 256 spacings, and 4.5e-7 relative in the
    ``rtol_floor`` case, whose error norm is at roundoff level).
    ``test_pendulum_steps_pinned`` pins our own steps to the last bit.
    """

    Y_ULPS = 200
    F_ULPS = 3200
    MID_ULPS = 25600
    H_REL = 5e-5

    @staticmethod
    def _reference():
        return pytest.importorskip("scipy.integrate").RK45

    @classmethod
    def _step_beside(cls, ours, ref, max_steps):
        """Step both until ours stops, re-seeding the reference; return the step count."""
        calls = []
        fun = ours.fun
        ours.fun = lambda t, y: calls.append(t) or fun(t, y)
        steps = 0
        while ours.status == "running" and steps < max_steps:
            t, y, f = ours.t, ours.y, ours.f
            ref.t, ref.y, ref.f, ref.h_abs = t, np.array(y), np.array(f), ours.h_abs
            ref.status = "running"
            ref_calls, our_calls = ref.nfev, len(calls)
            assert ours.step() == ref.step()
            steps += 1
            assert ours.status == ref.status
            assert len(calls) - our_calls == ref.nfev - ref_calls
            assert abs(ours.h_abs - ref.h_abs) <= cls.H_REL * ref.h_abs
            if ours.status == "failed":  # the stages then hold the failed tries
                break
            ref.t, ref.y, ref.f = t, np.array(y), np.array(f)
            ref.h_abs, ref.status = ours.t - ours.t_old, "running"
            ref.step()
            assert ref.t == ours.t
            assert _ulps(ours.y, ref.y) <= cls.Y_ULPS
            assert _ulps(ours.f, ref.f) <= cls.F_ULPS
            mid = 0.5 * (ours.t_old + ours.t)
            assert _ulps(ours.dense_output()(mid), ref.dense_output()(mid)) <= cls.MID_ULPS
        ours.fun = fun
        return steps

    @pytest.mark.parametrize(
        "fun, y0, t_bound, max_step, rtol, atol",
        [
            (_pendulum, [2.0, 0.0], 50.0, 0.5, 1e-6, 1e-8),
            (_van_der_pol, [2.0, 0.0], 20.0, math.inf, 1e-6, 1e-8),
            (_forced_oscillator, [0.0, 0.0], 10.0, 0.5, 1e-8, 1e-10),
            (_pendulum, [2.0, 0.0], 1.2345, 0.1, 1e-9, 1e-9),
            (_nan_after_half, [0.0], 1.0, 0.1, 1e-6, 1e-8),
        ],
        ids=["pendulum", "rejections", "time_dependent", "truncated_horizon", "fails"],
    )
    def test_steps_bit_identical(self, fun, y0, t_bound, max_step, rtol, atol):
        kwargs = dict(t_bound=t_bound, max_step=max_step, rtol=rtol, atol=atol)
        ours = hybrid.RK45(fun, 0.0, np.array(y0), **kwargs)
        ref = self._reference()(fun, 0.0, np.array(y0), **kwargs)
        assert abs(ours.h_abs - ref.h_abs) <= self.H_REL * ref.h_abs
        start_calls = ref.nfev
        steps = self._step_beside(ours, ref, max_steps=400)
        if fun is _van_der_pol:
            # 6 RHS calls per try, so more than that means some steps were
            # rejected.
            assert ref.nfev - start_calls > 6 * steps
        elif fun is _nan_after_half:
            assert ours.status == "failed"
        else:
            assert ours.status == "finished"
            assert ours.t == t_bound
            if t_bound == 1.2345:  # the last step is cut short at the horizon
                assert ours.t - ours.t_old < max_step

    def test_pendulum_steps_pinned(self):
        # Every step's t, y, f and h_abs: a change of summation order in the
        # stepper changes this digest.  Like TestKernelBits, it assumes
        # glibc's sin on x86-64.
        ours = hybrid.RK45(_pendulum, 0.0, [2.0, 0.0], 50.0, 0.5, 1e-6, 1e-8)
        digest = hashlib.sha256()
        while ours.status == "running":
            ours.step()
            digest.update(np.array([ours.t, *ours.y, *ours.f, ours.h_abs]).tobytes())
        assert digest.hexdigest() == self.PENDULUM_DIGEST

    PENDULUM_DIGEST = "2fa337abf05ea886d9d76e8623c39ef5de06e0c592918bdcd5c8332a388f4c89"

    @pytest.mark.parametrize("n", [4, 6, 8], ids=["nominal", "adaptive", "backstep"])
    def test_library_state_sizes(self, n):
        # The closed-loop state sizes the library steps, on a time-dependent
        # linear field with a dense seeded matrix.
        rng = np.random.default_rng(n)
        mat = rng.normal(size=(n, n)) / math.sqrt(n) - np.eye(n)
        drive = rng.normal(size=n)

        def fun(t, y):
            return mat @ y + math.sin(3.0 * t) * drive

        kwargs = dict(t_bound=5.0, max_step=0.1, rtol=1e-8, atol=1e-10)
        y0 = rng.normal(size=n)
        ours = hybrid.RK45(fun, 0.0, y0, **kwargs)
        ref = self._reference()(fun, 0.0, y0, **kwargs)
        assert abs(ours.h_abs - ref.h_abs) <= self.H_REL * ref.h_abs
        assert self._step_beside(ours, ref, max_steps=400) >= 50
        assert ours.status == "finished"
        assert len(ours.y) == n

    def test_rtol_floor(self):
        kwargs = dict(t_bound=5.0, max_step=0.5, rtol=1e-16, atol=1e-12)
        ours = hybrid.RK45(_pendulum, 0.0, np.array([2.0, 0.0]), **kwargs)
        with pytest.warns(UserWarning, match="rtol"):
            ref = self._reference()(_pendulum, 0.0, np.array([2.0, 0.0]), **kwargs)
        assert ours.rtol == ref.rtol > 1e-16
        assert self._step_beside(ours, ref, max_steps=200) == 200

    def test_backstep_flow_with_reseats(self):
        from hybridfb.obstacle import make_scenario, renormalize_circle

        sc = make_scenario("backstep", q0=-1.0)
        cfg = sc.config

        def rhs(_t, y):
            return sc.system.flow_map(y)

        kwargs = dict(
            t_bound=cfg.t_max, max_step=cfg.max_step, rtol=cfg.rel_tol, atol=cfg.abs_tol
        )
        ours = hybrid.RK45(rhs, 0.0, sc.x0, **kwargs)
        ref = self._reference()(rhs, 0.0, sc.x0, **kwargs)
        assert abs(ours.h_abs - ref.h_abs) <= self.H_REL * ref.h_abs
        reseats = 0
        for _ in range(200):
            assert self._step_beside(ours, ref, max_steps=1) == 1
            y = renormalize_circle(ours.y)
            if not np.array_equal(y, ours.y):
                reseats += 1
                ours.y, ours.f = y, ours.fun(ours.t, y)
        assert reseats > 0

    def test_non_finite_start_is_domain_escape(self):
        with pytest.raises(DomainEscape) as info:
            hybrid.RK45(_pendulum, 0.5, np.array([math.nan, 0.0]), 1.0, 0.1, 1e-6, 1e-8)
        assert info.value.t == 0.5
        assert math.isnan(info.value.state[0])


def test_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hybridfb; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _threshold(y):
    """+1 at and beyond y = 1, -1 before it and at NaN."""
    return 1.0 if y[0] >= 1.0 else -1.0


class TestNonFinite:
    """A non-finite state or indicator value ends the solve with DomainEscape."""

    def test_nan_indicator_band(self):
        def indicator(y):
            return math.nan if 0.3 < y[0] < 0.4 else y[0] - 1.0

        sys = dataclasses.replace(
            timer_system(), flow_indicator=indicator, jump_indicator=indicator
        )
        cfg = SolverConfig(t_max=2.0, max_step=0.05)
        with pytest.raises(DomainEscape, match="indicator is nan") as info:
            solve(sys, np.array([0.0]), cfg)
        assert 0.3 < info.value.t < 0.4
        assert 0.3 < info.value.state[0] < 0.4

    def test_nan_indicator_at_start(self):
        sys = dataclasses.replace(decay_system(), jump_indicator=lambda y: math.nan)
        with pytest.raises(DomainEscape, match="jump indicator is nan") as info:
            solve(sys, np.array([1.0]), SolverConfig(t_max=1.0))
        assert info.value.t == 0.0

    def test_jump_to_non_finite_state(self):
        # The indicators read NaN as "flow", so only the stepper sees it.
        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=_threshold,
            jump_indicator=_threshold,
            jump_map=lambda y: np.array([math.nan]),
        )
        with pytest.raises(DomainEscape, match="non-finite state") as info:
            solve(sys, np.array([0.0]), SolverConfig(t_max=2.0))
        assert abs(info.value.t - 1.0) <= 0.01
        assert math.isnan(info.value.state[0])

    def test_projection_to_non_finite_state(self):
        sys = HybridSystemDef(
            flow_map=lambda y: np.ones(1),
            flow_indicator=lambda y: -1.0,
            jump_indicator=lambda y: -1.0,
            jump_map=lambda y: y,
            project_state=lambda y: np.asarray(y) * math.nan if y[0] > 0.5 else y,
        )
        cfg = SolverConfig(t_max=1.0, max_step=0.1)
        with pytest.raises(DomainEscape, match="non-finite state") as info:
            solve(sys, np.array([0.0]), cfg)
        assert 0.5 < info.value.t <= 0.6 + 1e-12
        assert math.isnan(info.value.state[0])

    @pytest.mark.parametrize(
        "flow_map, y0, project_state, t_fail",
        [
            # NaN past y = 10: the stepper rejects its tries until the step
            # is below ten spacings of t and fails with NaN stages.
            (lambda y: np.array([math.nan if y[0] > 10.0 else 1.0]), 0.0, None, 10.0),
            # NaN at the start: the first stage is NaN before any step.
            (lambda y: np.array([math.nan]), 1.0, None, 0.0),
            # NaN where a projection moves the state: the reseated stage.
            (
                lambda y: np.array([math.nan if y[0] > 0.55 else 1.0]),
                0.0,
                lambda y: np.asarray(y) + 0.1 if y[0] > 0.5 else y,
                0.5111,
            ),
        ],
        ids=["stages", "start", "reseat"],
    )
    def test_non_finite_flow_map(self, flow_map, y0, project_state, t_fail):
        sys = HybridSystemDef(
            flow_map=flow_map,
            flow_indicator=lambda y: -1.0,
            jump_indicator=lambda y: -1.0,
            jump_map=lambda y: y,
            project_state=project_state,
        )
        cfg = SolverConfig(t_max=20.0, max_step=0.1)
        with pytest.raises(DomainEscape, match="flow map returned a non-finite") as info:
            solve(sys, np.array([y0]), cfg)
        assert abs(info.value.t - t_fail) <= 1e-9
        assert np.isfinite(info.value.state).all()

    @pytest.mark.parametrize("threshold", [0.5, 3.0])
    def test_non_finite_region_reached_by_micro_steps(self, threshold):
        # Below t = 8 the minimum step (ten spacings of t) is below
        # MIN_STEP, so the stepper creeps up to the region through accepted
        # micro-steps, rejecting every try into it.
        sys = dataclasses.replace(
            decay_system(),
            flow_map=lambda y: np.array([math.nan if y[0] > threshold else 1.0]),
        )
        cfg = SolverConfig(t_max=20.0, max_step=0.1)
        with pytest.raises(DomainEscape, match="flow map returned a non-finite") as info:
            solve(sys, np.array([0.0]), cfg)
        assert abs(info.value.t - threshold) <= 1e-9
        assert np.isfinite(info.value.state).all()

    @pytest.mark.parametrize("threshold", [0.5, 3.0])
    def test_finite_micro_step_stall_is_integration_stalled(self, threshold):
        sys = dataclasses.replace(
            decay_system(),
            flow_map=lambda y: np.array([-1e12 if y[0] > threshold else 1.0]),
        )
        cfg = SolverConfig(t_max=20.0, max_step=0.1)
        with pytest.raises(IntegrationStalled, match="step size underflow") as info:
            solve(sys, np.array([0.0]), cfg)
        assert f"t={threshold:g}" in str(info.value)

    def test_stepper_flags_non_finite_rejections(self):
        # A step call that rejected a try into t > 0.5 is flagged; the next
        # call that rejects no such try clears the flag.
        solver = hybrid.RK45(
            _nan_after_half, 0.0, np.array([0.0]), 1.0, max_step=0.3,
            rtol=1e-6, atol=1e-8,
        )
        assert solver.step() is None
        assert not solver.nonfinite_rejection
        while not solver.nonfinite_rejection:
            assert solver.step() is None
        assert solver.t <= 0.5
        assert np.isfinite(solver.y).all()
        solver.fun = lambda t, y: np.ones(1)
        assert solver.step() is None
        assert not solver.nonfinite_rejection

    def test_finite_stall_is_integration_stalled(self):
        sys = dataclasses.replace(
            decay_system(), flow_map=lambda y: np.array([-1e12 if y[0] > 10.0 else 1.0])
        )
        cfg = SolverConfig(t_max=20.0, max_step=0.1)
        with pytest.raises(IntegrationStalled, match="Required step size") as info:
            solve(sys, np.array([0.0]), cfg)
        assert "t=10" in str(info.value)


class TestFloatSemantics:
    """The float stepper ends in the solver's own errors where numpy gave
    inf or NaN: never in ``ZeroDivisionError`` or ``OverflowError``."""

    @staticmethod
    def _flowing(flow_map):
        return HybridSystemDef(
            flow_map=flow_map,
            flow_indicator=lambda y: -1.0,
            jump_indicator=lambda y: -1.0,
            jump_map=lambda y: y,
        )

    def test_infinite_first_stage_norm_gives_zero_initial_step(self):
        # f0 / scale overflows, so d1 is inf and h0 is 0: d2 = 0 / 0 is NaN
        # and the initial step is 0, as with numpy's division.
        solver = hybrid.RK45(lambda t, y: [1e300], 0.0, [1.0], 1.0, 0.01, 1e-9, 1e-9)
        assert solver.h_abs == 0.0
        sys = self._flowing(lambda y: [1e300])
        with pytest.raises(IntegrationStalled, match="step size underflow"):
            solve(sys, np.array([1.0]), SolverConfig(t_max=1.0))

    def test_overflowing_stage(self):
        # Stage 5's weighted sum overflows on every try (A51 * 1e308 is
        # inf); the state itself overflows near t = 1.8.
        sys = self._flowing(lambda y: [1e308])
        with pytest.raises(DomainEscape, match="flow reached a non-finite state") as info:
            solve(sys, np.array([1e300]), SolverConfig(t_max=3.0))
        assert 1.79 < info.value.t < 1.81

    def test_nan_second_stage(self):
        # NaN in every try's second stage, which the fifth-order weights
        # skip: the error weights keep its zero, so every try is rejected.
        calls = []

        def flow_map(y):
            calls.append(y)
            return [math.nan if len(calls) % 6 == 3 else 1.0]

        with pytest.raises(DomainEscape, match="flow map returned a non-finite") as info:
            solve(self._flowing(flow_map), np.array([0.0]), SolverConfig(t_max=1.0))
        assert info.value.t == 0.0
        assert np.isfinite(info.value.state).all()


def _plain_bisection(dense, sys, t_lo, t_hi, y_hi, g_hi, event_tol):
    """Bisect the jump indicator over one step, evaluating every midpoint.

    The reference for a located crossing: the same bracket, ``MAX_BISECT``
    and break tests as the locator's halving, with no regula falsi.
    """
    a, b = t_lo, t_hi
    y_b, g_b = y_hi, g_hi
    for _ in range(hybrid.MAX_BISECT):
        if g_b <= event_tol:
            break
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        y_m = sys.project(np.asarray(dense(m), dtype=float))
        g_m = hybrid._indicator_value(sys.jump_indicator, y_m, m, "jump")
        if g_m >= 0.0:
            b, y_b, g_b = m, y_m, g_m
        else:
            a = m
    return b, y_b, g_b


def _bits(sample):
    t, y, g = sample
    return float(t).hex(), np.asarray(y, dtype=float).tobytes(), float(g).hex()


def _indicator_at(dense, sys, t):
    y = sys.project(dense(t))
    return y, sys.jump_indicator(y)


def _check_boundary_sample(dense, sys, t_lo, t_hi, y_hi, g_hi, event_tol, sample):
    """The located-crossing contract for one step's bracket.

    The sample lies in ``(t_lo, t_hi]``.  It is the upper end itself, or
    its state and indicator are bit for bit those of the projected dense
    output at its time.  Its indicator is in ``[0, event_tol]``, unless
    the bracket ran out at float resolution: then the float below it is
    outside the jump set.
    """
    t, y, g = sample
    assert t_lo < t <= t_hi
    if t == t_hi:
        assert _bits(sample) == _bits((t_hi, y_hi, g_hi))
    else:
        assert _bits(sample) == _bits((t, *_indicator_at(dense, sys, t)))
    assert g >= 0.0
    if g > event_tol:
        assert _indicator_at(dense, sys, math.nextafter(t, -math.inf))[1] < 0.0


@pytest.fixture
def bisection_oracle(monkeypatch):
    """Check every located crossing's contract; list it with plain bisection's.

    Where both samples are within ``[0, event_tol]``, they lie on one
    stretch of that band: so does the time halfway between them.
    """
    located = []
    locate = hybrid._locate_crossing

    def checked(dense, sys, t_lo, g_lo, t_hi, y_hi, g_hi, event_tol):
        got = locate(dense, sys, t_lo, g_lo, t_hi, y_hi, g_hi, event_tol)
        _check_boundary_sample(dense, sys, t_lo, t_hi, y_hi, g_hi, event_tol, got)
        want = _plain_bisection(dense, sys, t_lo, t_hi, y_hi, g_hi, event_tol)
        if got[2] <= event_tol and want[2] <= event_tol:
            halfway = 0.5 * (got[0] + want[0])
            assert 0.0 <= _indicator_at(dense, sys, halfway)[1] <= event_tol
        located.append((got, want))
        return got

    monkeypatch.setattr(hybrid, "_locate_crossing", checked)
    return located


def _line_system(indicator):
    """The flow y' = 1 with ``indicator`` as both indicators.

    From y = 0 at t = 0 its dense output is ``_line``: the state at time
    t is t.
    """
    return HybridSystemDef(
        flow_map=lambda y: np.ones(1),
        flow_indicator=indicator,
        jump_indicator=indicator,
        jump_map=lambda y: y,
    )


def _line(t):
    return np.array([t])


def _recording(indicator, visited):
    def record(y):
        visited.append(float(y[0]))
        return indicator(y)

    return record


def _curve(y):
    return math.expm1(y[0]) - 0.3


def _locate_on_line(curve, indicator):
    """Locate the crossing of ``curve`` over ``[0, 1]`` on ``_line``.

    The bracket's ends take ``curve``'s values and the locator evaluates
    ``indicator``, a recording or holed ``curve``.
    """
    return hybrid._locate_crossing(
        _line, _line_system(indicator), 0.0, curve(_line(0.0)), 1.0,
        _line(1.0), curve(_line(1.0)), 1e-10,
    )


class TestLocateCrossing:
    """A located crossing is a boundary sample of the step, on plain bisection's band."""

    # Bearing from the obstacle centre (1, 0) in degrees, and distance.
    SWITCHING_STARTS = ((0.0, 1.5), (150.0, 2.0), (190.0, 1.5), (330.0, 1.5))

    @pytest.mark.parametrize("q0", [-1.0, 1.0])
    @pytest.mark.parametrize("bearing, dist", SWITCHING_STARTS)
    def test_switching_starts_match_plain_bisection(
        self, bisection_oracle, bearing, dist, q0
    ):
        angle = math.radians(bearing)
        z = (1.0 + dist * math.cos(angle), dist * math.sin(angle))
        sc = make_scenario(
            "backstep", q0=q0, z_init=z, margin=1e-3,
            config=SolverConfig(t_max=2.0, j_max=1000),
        )
        arc = solve(sc.system, sc.x0, sc.config)
        assert arc.jump_count >= 40
        assert len(bisection_oracle) >= 20
        assert all(got[2] <= 1e-10 for got, _ in bisection_oracle)

    def test_switching_starts_take_at_most_six_calls_per_crossing(self, monkeypatch):
        # The count is deterministic: 5.1 calls per crossing, against ~22
        # for plain bisection to event_tol.
        calls, spent = [0], []
        locate = hybrid._locate_crossing

        def counted_locate(*args):
            before = calls[0]
            located = locate(*args)
            spent.append(calls[0] - before)
            return located

        monkeypatch.setattr(hybrid, "_locate_crossing", counted_locate)
        for bearing, dist in self.SWITCHING_STARTS:
            angle = math.radians(bearing)
            z = (1.0 + dist * math.cos(angle), dist * math.sin(angle))
            for q0 in (-1.0, 1.0):
                sc = make_scenario(
                    "backstep", q0=q0, z_init=z, margin=1e-3,
                    config=SolverConfig(t_max=2.0, j_max=1000),
                )
                indicator = sc.system.jump_indicator

                def counted(state, indicator=indicator):
                    calls[0] += 1
                    return indicator(state)

                system = dataclasses.replace(
                    sc.system, flow_indicator=counted, jump_indicator=counted
                )
                solve(system, sc.x0, sc.config)
        assert len(spent) >= 400
        assert sum(spent) / len(spent) <= 6.0

    def test_published_adaptive_start_matches_plain_bisection(self, bisection_oracle):
        sc = make_scenario(
            "adaptive", q0=-1.0, z_init=(2.0, 0.0), margin=1e-2,
            config=SolverConfig(t_max=10.0),
        )
        arc = solve(sc.system, sc.x0, sc.config)
        assert arc.jump_count >= 5
        assert len(bisection_oracle) >= 5
        assert all(got[2] <= 1e-10 for got, _ in bisection_oracle)

    def test_step_indicator_falls_back_to_plain_bisection(self, bisection_oracle):
        # A +-1 indicator never enters the band: the regula falsi spends
        # its budget, the halving runs the bracket out at float
        # resolution, and both end on plain bisection's sample.
        sys = dataclasses.replace(
            timer_system(), flow_indicator=_threshold, jump_indicator=_threshold
        )
        arc = solve(sys, np.array([0.0]), SolverConfig(t_max=2.5))
        assert arc.jump_count == 2
        assert len(bisection_oracle) == 2
        for got, want in bisection_oracle:
            assert got[2] == 1.0
            assert _bits(got) == _bits(want)

    def test_secant_leaving_the_bracket_falls_back(self):
        # g_hi == 0 would put the first secant on t_hi itself; the upper
        # end is already in the band, so it comes back without a call.
        visits = []
        line = _recording(lambda y: y[0] - 1.0, visits)
        upper = _line(1.0)
        got = hybrid._locate_crossing(
            _line, _line_system(line), 0.0, -1.0, 1.0, upper, 0.0, 1e-10
        )
        assert got[0] == 1.0 and got[1] is upper and got[2] == 0.0
        assert visits == []
        # Here the first secant rounds onto t_hi: the midpoint is taken
        # instead, and the bracket runs out below the unrepresentable root.
        def steep(y):
            return 1e10 * (y[0] - 1.0) + 2e-10

        got = _locate_on_line(steep, _recording(steep, visits))
        assert visits[0] == 0.5
        assert got[0] == 1.0 and got[2] == 2e-10
        assert visits[-1] == math.nextafter(1.0, 0.0)

    def test_nan_seen_by_the_estimate_raises_its_escape(self):
        visits = []
        _locate_on_line(_curve, _recording(_curve, visits))
        assert 2 <= len(visits) <= hybrid.ESTIMATE_BUDGET
        for point in visits:
            def holed(y):
                return math.nan if y[0] == point else _curve(y)

            with pytest.raises(DomainEscape, match="jump indicator is nan") as info:
                _locate_on_line(_curve, holed)
            assert info.value.t == point

    def test_nan_seen_by_the_bisection_raises_its_escape(self):
        # The +-1 indicator spends the regula falsi budget, so every later
        # sample is a midpoint.
        visits = []

        def step(y):
            return _threshold([y[0] + 0.3])

        _locate_on_line(step, _recording(step, visits))
        halving = visits[hybrid.ESTIMATE_BUDGET:]
        assert len(halving) > 40
        for point in (halving[0], halving[-1]):
            def holed(y):
                return math.nan if y[0] == point else step(y)

            with pytest.raises(DomainEscape, match="jump indicator is nan") as info:
                _locate_on_line(step, holed)
            assert info.value.t == point

    def test_crossing_between_adjacent_floats_matches_plain_bisection(self):
        # The indicator is just below 0 at the float 0.7 and above
        # event_tol at the next float: the bracket runs out there, and
        # plain bisection, which stops short of event_tol there too, gives
        # the same sample.
        def steep(y):
            return 1e8 * (y[0] - 0.7) - 1e-14

        sys, g_hi = _line_system(steep), steep(_line(1.0))
        got = hybrid._locate_crossing(
            _line, sys, 0.5, steep(_line(0.5)), 1.0, _line(1.0), g_hi, 1e-10
        )
        want = _plain_bisection(_line, sys, 0.5, 1.0, _line(1.0), g_hi, 1e-10)
        assert _bits(got) == _bits(want)
        assert got[0] == math.nextafter(0.7, 1.0) and got[2] > 1e-10

    @pytest.mark.parametrize(
        "roots", [(0.3, 0.55, 0.85), (0.1, 0.2, 0.9), (0.05, 0.45, 0.95)]
    )
    def test_several_crossings_in_one_step_give_a_boundary_sample(self, roots):
        # Up, down and up again within one step: the regula falsi may
        # settle on a root the bisection does not reach.
        def cubic(y):
            return (y[0] - roots[0]) * (y[0] - roots[1]) * (y[0] - roots[2])

        sys = _line_system(cubic)
        t, y, g = hybrid._locate_crossing(
            _line, sys, 0.0, cubic(_line(0.0)), 1.0, _line(1.0),
            cubic(_line(1.0)), 1e-10,
        )
        assert 0.0 <= t <= 1.0
        assert 0.0 <= g <= 1e-10
        assert g == cubic(y) and y[0] == t


class TestStepBudget:
    @pytest.mark.parametrize("field, value", [("t_max", 1e9), ("max_step", 1e-12)])
    def test_config_refuses_more_steps_than_budget(self, field, value):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            SolverConfig(**{field: value})

    def test_budget_counts_accepted_steps_of_the_whole_solve(self, monkeypatch):
        sys, cfg = timer_system(), SolverConfig(t_max=3.5, max_step=0.1)
        arc = solve(sys, np.array([0.0]), cfg)
        steps = sum(len(times) - 1 for times, _ in arc.samples)
        assert arc.jump_count == 3
        assert max(len(times) - 1 for times, _ in arc.samples) < steps - 1
        monkeypatch.setattr(hybrid, "MAX_STEPS", steps)
        rerun = solve(sys, np.array([0.0]), cfg)
        assert np.array_equal(rerun.final_state, arc.final_state)
        monkeypatch.setattr(hybrid, "MAX_STEPS", steps - 1)
        with pytest.raises(IntegrationStalled, match="step budget"):
            solve(sys, np.array([0.0]), cfg)


class TestDomainValidation:
    def test_well_formed_arc(self):
        arc = solve(timer_system(), np.array([0.0]), SolverConfig(t_max=3.5))
        assert validate_domain(arc) == []

    def test_gap_between_intervals(self):
        arc = HybridArc(
            samples=tuple(
                (np.array(span), np.zeros((2, 1))) for span in ([0.0, 1.0], [1.5, 2.0])
            )
        )
        violations = validate_domain(arc)
        assert any("not contiguous" in v for v in violations)

    @pytest.mark.parametrize(
        "samples, message",
        [
            ((), "no intervals"),
            (
                ((np.array([0.0, 1.0]), np.zeros((2, 1))),
                 (np.array([]), np.zeros((0, 1)))),
                "interval 1: no samples",
            ),
            (((np.array([0.0, 1.0]), np.zeros((3, 1))),), "length mismatch"),
            (((np.array([-1.0, 1.0]), np.zeros((2, 1))),), "negative start time"),
            (
                ((np.array([0.0, 2.0, 1.0]), np.zeros((3, 1))),),
                "sample times decrease",
            ),
            (
                ((np.array([0.0, math.nan, 1.0]), np.zeros((3, 1))),),
                "sample times decrease or are NaN",
            ),
            (((np.array([math.nan, 1.0]), np.zeros((2, 1))),), "start time nan"),
            (
                ((np.array([0.0, 1.0, math.nan]), np.zeros((3, 1))),),
                "sample times decrease or are NaN",
            ),
        ],
        ids=["no_interval", "empty_interval", "length_mismatch",
             "negative_start", "decreasing_times", "nan_time", "nan_start",
             "nan_last_time"],
    )
    def test_malformed_arc(self, samples, message):
        violations = validate_domain(HybridArc(samples=samples))
        assert any(message in v for v in violations), violations


class TestDerivedRecords:
    """The domain and the jump records read off the samples are the solver's."""

    def test_hand_built_arc(self):
        # A flowed interval, a jump with no flow between, then a flow.
        arc = HybridArc(
            samples=(
                (np.array([0.0, 1.0]), np.array([[0.0], [1.0]])),
                (np.array([1.0]), np.array([[2.0]])),
                (np.array([1.0, 2.0]), np.array([[3.0], [4.0]])),
            )
        )
        assert validate_domain(arc) == []
        assert arc.domain == ((0.0, 1.0, 0), (1.0, 1.0, 1), (1.0, 2.0, 2))
        assert arc.jump_count == 2
        assert arc.final_time == 2.0
        assert arc.total_flow_time() == 2.0
        records = arc.jump_records
        assert all(isinstance(rec, JumpRecord) for rec in records)
        assert [(rec.t, rec.j) for rec in records] == [(1.0, 0), (1.0, 1)]
        assert [(rec.before[0], rec.after[0]) for rec in records] == [
            (1.0, 2.0), (2.0, 3.0)
        ]
        assert [(t, j) for t, j, _ in arc.iter_samples()] == [
            (0.0, 0), (1.0, 0), (1.0, 1), (1.0, 2), (2.0, 2)
        ]

    @staticmethod
    def _check_against_jump_calls(sys, x0, cfg):
        calls = []

        def jump_map(y):
            out = sys.jump_map(y)
            calls.append((y, out))
            return out

        arc = solve(dataclasses.replace(sys, jump_map=jump_map), x0, cfg)
        assert arc.jump_count > 0
        assert len(calls) == arc.jump_count == len(arc.jump_records)
        intervals = arc.domain
        for k, ((before, out), rec) in enumerate(zip(calls, arc.jump_records)):
            assert rec.j == k
            assert np.array_equal(before, rec.before)
            assert np.array_equal(sys.project(np.asarray(out, dtype=float)), rec.after)
            assert rec.t == intervals[k][1] == intervals[k + 1][0]
        assert validate_domain(arc) == []

    def test_timer_jumps(self):
        self._check_against_jump_calls(
            timer_system(), np.array([0.0]), SolverConfig(t_max=3.5)
        )

    def test_backstep_small_margin_jumps(self):
        from hybridfb.obstacle import make_scenario

        sc = make_scenario(
            "backstep", q0=-1.0, z_init=(2.5, 0.0), margin=1e-3,
            config=SolverConfig(t_max=1.0, j_max=1000),
        )
        self._check_against_jump_calls(sc.system, sc.x0, sc.config)


class TestTypes:
    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(t_max=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(j_max=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_max", math.nan),
            ("t_max", math.inf),
            ("abs_tol", math.nan),
            ("abs_tol", math.inf),
            ("rel_tol", math.nan),
            ("event_tol", math.nan),
            ("max_step", math.nan),
            ("max_step", math.inf),
        ],
    )
    def test_solver_config_rejects_non_finite(self, field, value):
        # t_max = inf would make solve run forever.
        with pytest.raises(ValueError):
            SolverConfig(**{field: value})
