"""Solver-level tests: flow integration, event location, jumps, domains."""

import math

import numpy as np
import pytest

from hybridfb import (
    DomainEscape,
    HybridArc,
    HybridSystemDef,
    HybridTimeDomain,
    JumpOutsideJumpSet,
    JumpRecord,
    SolverConfig,
    ZenoSuspected,
    advance_flow,
    apply_jump,
    solve,
    validate_domain,
)


def decay_system():
    return HybridSystemDef(
        flow_map=lambda y: -y,
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
    def test_exponential_decay_endpoint(self):
        cfg = SolverConfig(t_max=1.0)
        seg, reason = advance_flow(np.array([1.0]), decay_system(), cfg)
        assert reason == "time"
        assert abs(seg.final_state[0] - math.exp(-1.0)) <= cfg.abs_tol

    def test_zero_dynamics_constant_segment(self):
        sys = HybridSystemDef(
            flow_map=lambda y: np.zeros(2),
            flow_indicator=lambda y: -1.0,
            jump_indicator=lambda y: -1.0,
            jump_map=lambda y: y,
        )
        cfg = SolverConfig(t_max=5.0)
        seg, reason = advance_flow(np.array([3.0, -2.0]), sys, cfg)
        assert reason == "time"
        assert seg.t_end == 5.0
        assert np.all(seg.states == np.array([3.0, -2.0]))

    def test_timer_boundary_location(self):
        cfg = SolverConfig(t_max=5.0)
        seg, reason = advance_flow(np.array([0.0]), timer_system(), cfg)
        assert reason == "jump_boundary"
        assert abs(seg.t_end - 1.0) <= cfg.event_tol
        # located boundary sample sits on the indicator zero within tolerance
        assert abs(seg.final_state[0] - 1.0) <= cfg.event_tol

    def test_precondition_outside_flow_set(self):
        cfg = SolverConfig(t_max=1.0)
        sys = HybridSystemDef(
            flow_map=lambda y: -y,
            flow_indicator=lambda y: 1.0,
            jump_indicator=lambda y: -1.0,
            jump_map=lambda y: y,
        )
        with pytest.raises(DomainEscape):
            advance_flow(np.array([1.0]), sys, cfg)

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
            advance_flow(np.array([0.0]), sys, cfg)
        assert excinfo.value.state is not None

    def test_stop_ball_converged(self):
        cfg = SolverConfig(
            t_max=50.0,
            max_step=0.1,
            stop_ball=(lambda y: abs(float(y[0])), 0.01),
        )
        seg, reason = advance_flow(np.array([1.0]), decay_system(), cfg)
        assert reason == "converged"
        assert abs(seg.final_state[0]) <= 0.01
        assert seg.t_end < 50.0

    def test_t0_already_at_horizon(self):
        cfg = SolverConfig(t_max=1.0)
        seg, reason = advance_flow(np.array([2.0]), decay_system(), cfg, t0=1.0)
        assert reason == "time"
        assert len(seg.times) == 1

    def test_order_improves_with_tolerance(self):
        errors = []
        for tol in (1e-5, 1e-7, 1e-9, 1e-11):
            cfg = SolverConfig(t_max=1.0, abs_tol=tol, rel_tol=tol, max_step=1.0)
            seg, _ = advance_flow(np.array([1.0]), decay_system(), cfg)
            err = abs(seg.final_state[0] - math.exp(-1.0))
            assert err <= 10.0 * tol
            errors.append(err)
        assert all(b <= a for a, b in zip(errors, errors[1:]))


class TestApplyJump:
    def test_halving_map(self):
        sys = HybridSystemDef(
            flow_map=lambda y: y,
            flow_indicator=lambda y: 1.0,
            jump_indicator=lambda y: 1.0,
            jump_map=lambda y: y / 2.0,
        )
        out = apply_jump(np.array([8.0]), sys, SolverConfig())
        assert out[0] == 4.0

    def test_identity_map(self):
        sys = HybridSystemDef(
            flow_map=lambda y: y,
            flow_indicator=lambda y: 0.0,
            jump_indicator=lambda y: 0.0,
            jump_map=lambda y: y,
        )
        state = np.array([1.0, 2.0])
        out = apply_jump(state, sys, SolverConfig())
        assert np.array_equal(out, state)

    def test_outside_jump_set_raises(self):
        with pytest.raises(JumpOutsideJumpSet):
            apply_jump(np.array([0.0]), timer_system(), SolverConfig())


class TestSolve:
    def test_timer_three_jumps(self):
        cfg = SolverConfig(t_max=3.5)
        arc = solve(timer_system(), np.array([0.0]), cfg)
        assert arc.jump_count == 3
        assert len(arc.domain.intervals) == 4
        for k, rec in enumerate(arc.jump_records):
            assert abs(rec.t - (k + 1)) <= 1e-9
        assert validate_domain(arc) == []

    def test_flow_only_single_interval(self):
        cfg = SolverConfig(t_max=2.0)
        arc = solve(decay_system(), np.array([1.0]), cfg)
        assert arc.jump_count == 0
        assert len(arc.domain.intervals) == 1
        assert arc.domain.intervals[0] == (0.0, 2.0, 0)

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
        assert arc1.domain.intervals == arc2.domain.intervals
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
        with pytest.raises(DomainEscape):
            solve(sys, np.array([0.0]), SolverConfig())

    def test_zero_horizon_echoes_initial_state(self):
        cfg = SolverConfig(t_max=0.0)
        arc = solve(timer_system(), np.array([0.3]), cfg)
        assert arc.jump_count == 0
        assert arc.final_time == 0.0
        assert arc.final_state[0] == 0.3

    def test_stop_ball_terminates_run(self):
        cfg = SolverConfig(
            t_max=50.0,
            max_step=0.1,
            stop_ball=(lambda y: abs(float(y[0])), 0.01),
        )
        arc = solve(decay_system(), np.array([1.0]), cfg)
        assert arc.final_time < 50.0
        assert abs(arc.final_state[0]) <= 0.01
        assert validate_domain(arc) == []

    def test_start_on_shared_boundary_jumps_first(self):
        # Start exactly on the shared boundary of the flow and jump sets:
        # the jump wins at t = 0, then the timer flows to the next one.
        cfg = SolverConfig(t_max=2.5)
        arc = solve(timer_system(), np.array([1.0]), cfg)
        assert arc.jump_records[0].t == 0.0
        assert arc.jump_records[0].after[0] == 0.0
        assert arc.jump_count == 3
        assert validate_domain(arc) == []

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


class TestDomainValidation:
    def test_well_formed_arc(self):
        arc = solve(timer_system(), np.array([0.0]), SolverConfig(t_max=3.5))
        assert validate_domain(arc) == []

    def test_gap_between_intervals(self):
        arc = _arc_from_intervals([(0.0, 1.0, 0), (1.5, 2.0, 1)])
        violations = validate_domain(arc)
        assert any("not contiguous" in v for v in violations)

    def test_jump_index_increment(self):
        arc = _arc_from_intervals([(0.0, 1.0, 0), (1.0, 2.0, 2)])
        violations = validate_domain(arc)
        assert any("increment by 1" in v for v in violations)

    def test_sample_outside_interval(self):
        times = np.array([0.0, 2.0])
        states = np.zeros((2, 1))
        arc = HybridArc(
            domain=HybridTimeDomain(intervals=((0.0, 1.0, 0),)),
            samples=((times, states),),
            jump_records=(),
        )
        violations = validate_domain(arc)
        assert violations

    def test_jump_record_state_mismatch(self):
        t0 = np.array([0.0, 1.0])
        s0 = np.zeros((2, 1))
        t1 = np.array([1.0, 2.0])
        s1 = np.ones((2, 1))
        rec = JumpRecord(t=1.0, j=0, before=s0[-1], after=np.array([5.0]))
        arc = HybridArc(
            domain=HybridTimeDomain(intervals=((0.0, 1.0, 0), (1.0, 2.0, 1))),
            samples=((t0, s0), (t1, s1)),
            jump_records=(rec,),
        )
        violations = validate_domain(arc)
        assert any("post-jump state" in v for v in violations)


def _arc_from_intervals(intervals):
    samples = []
    for a, b, _ in intervals:
        times = np.array([a, b])
        samples.append((times, np.zeros((2, 1))))
    records = tuple(
        JumpRecord(
            t=intervals[k][1],
            j=intervals[k][2],
            before=np.zeros(1),
            after=np.zeros(1),
        )
        for k in range(len(intervals) - 1)
    )
    return HybridArc(
        domain=HybridTimeDomain(intervals=tuple(intervals)),
        samples=tuple(samples),
        jump_records=records,
    )


class TestTypes:
    def test_domain_contains(self):
        dom = HybridTimeDomain(intervals=((0.0, 1.0, 0), (1.0, 2.0, 1)))
        assert len(dom) == 2
        assert dom.jump_count == 1
        assert dom.final_time == 2.0

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
            ("stop_ball", (abs, math.nan)),
        ],
    )
    def test_solver_config_rejects_non_finite(self, field, value):
        # t_max = inf would make solve run forever.
        with pytest.raises(ValueError):
            SolverConfig(**{field: value})
