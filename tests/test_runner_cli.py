"""Scenario runner, CSV/summary formats, configuration, CLI exit codes."""

import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hybridfb.adaptive as adaptive_mod
import hybridfb.obstacle as obstacle_mod
import hybridfb.runner as runner_mod
from hybridfb import (
    ConfigError,
    DomainEscape,
    HybridArc,
    InfeasibleCandidates,
    MalformedArc,
    ScenarioConfig,
    SolverConfig,
    ZenoSuspected,
    build_scenario,
    config_from_sources,
    emit_csv,
    make_scenario,
    property_suite,
    read_config_file,
    read_csv,
    read_summary,
    run,
)
from hybridfb.adaptive import _norm
from hybridfb.cli import main, run_config_file
from hybridfb.synergistic import monitor_flow_decrease, monitor_jump_decrease
from hybridfb.runner import CSV_HEADER

SRC = Path(__file__).resolve().parents[1] / "src"


class TestScenarioConfig:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.controller == "adaptive"
        assert cfg.theta == pytest.approx(
            (math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0)
        )

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(controller="pid")
        with pytest.raises(ConfigError):
            ScenarioConfig(q0=0.0)
        with pytest.raises(ConfigError, match="unknown configuration key 'scenario'"):
            config_from_sources({"scenario": "obstacle"})
        with pytest.raises(ConfigError):
            ScenarioConfig(u0_policy="random")

    def test_infinite_horizon_rejected(self):
        # An infinite t_max would never end; it is refused before any run.
        with pytest.raises(ConfigError, match="t_max"):
            config_from_sources({"t_max": math.inf})
        with pytest.raises(ConfigError, match="obstacle_center"):
            config_from_sources({"obstacle_center": (math.inf, 0.0)})

    def test_parameter_outside_ball_rejected_at_build(self):
        cfg = ScenarioConfig(theta=(1.3, 0.0))
        with pytest.raises(ConfigError):
            build_scenario(cfg)

    def test_solver_config_mapping(self):
        cfg = ScenarioConfig(t_max=3.0, j_max=7, max_step=0.5)
        solver = cfg.solver_config()
        assert solver.t_max == 3.0
        assert solver.j_max == 7
        assert solver.max_step == 0.5

    @pytest.mark.parametrize("kind", ["nominal", "adaptive", "backstep"])
    def test_defaults_build_the_library_default(self, kind):
        # The published parameters are written twice, as make_scenario's
        # defaults and as ScenarioConfig's; both must build one scenario.
        built = build_scenario(ScenarioConfig(controller=kind))
        library = make_scenario(kind, q0=-1.0)
        assert built.x0.tolist() == library.x0.tolist()
        assert built.theta.tolist() == library.theta.tolist()
        assert built.obstacle.center.tolist() == library.obstacle.center.tolist()
        assert built.obstacle.radius == library.obstacle.radius
        assert built.controller.margin == library.controller.margin
        for field in dataclasses.fields(SolverConfig):
            name = field.name
            assert getattr(built.config, name) == getattr(library.config, name), name
        if kind != "nominal":
            assert built.ball.radius == library.ball.radius
            assert built.ball.eps == library.ball.eps
            assert built.ball.gain.tolist() == library.ball.gain.tolist()
        if kind == "backstep":
            assert built.gains.gain.tolist() == library.gains.gain.tolist()
            assert built.gains.damping == library.gains.damping


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# case study\n"
            "controller = backstep\n"
            "q0 = 1\n"
            "theta = 0.5, 0.5\n"
            "t_max = 2.5\n"
            "strict = true\n"
            "seed = 7\n"
        )
        values = read_config_file(path)
        cfg = config_from_sources(values)
        assert cfg.controller == "backstep"
        assert cfg.q0 == 1.0
        assert cfg.theta == (0.5, 0.5)
        assert cfg.t_max == 2.5
        assert cfg.strict is True
        assert cfg.seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("t_max = soon\n")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config_file(tmp_path / "absent.cfg")

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("t_max = 2.0\ncontroller = nominal\n")
        cfg = config_from_sources(read_config_file(path), {"t_max": 4.0})
        assert cfg.t_max == 4.0
        assert cfg.controller == "nominal"


class TestRun:
    def test_nominal_unperturbed_converges_with_zero_error(self):
        cfg = ScenarioConfig(controller="nominal", q0=-1.0, theta=(0.0, 0.0))
        _, summary = run(cfg)
        assert summary.final_dist_origin <= 0.1
        assert summary.final_estimation_error == 0.0
        assert summary.flow_violations == 0
        assert summary.min_obstacle_clearance > 0.5

    def test_nominal_perturbed_flags_monitor_violations(self):
        cfg = ScenarioConfig(controller="nominal", q0=-1.0, t_max=5.0)
        _, summary = run(cfg)
        assert summary.flow_violations > 0

    def test_zero_horizon_echoes_initial_state(self):
        cfg = ScenarioConfig(controller="adaptive", q0=-1.0, t_max=0.0)
        arc, summary = run(cfg)
        assert summary.final_time == 0.0
        assert summary.jump_count == 0
        assert summary.final_dist_origin == pytest.approx(2.0, abs=1e-12)

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "arc.csv"
        summary_path = tmp_path / "summary.txt"
        cfg = ScenarioConfig(
            controller="adaptive",
            q0=-1.0,
            t_max=1.0,
            out=str(out),
            summary=str(summary_path),
        )
        _, summary = run(cfg)
        assert out.exists() and summary_path.exists()
        parsed = read_summary(summary_path)
        assert tuple(parsed) == runner_mod.SUMMARY_KEYS
        assert parsed["final_time"] == summary.final_time
        assert parsed["jump_count"] == summary.jump_count
        assert parsed["final_dist_origin"] == summary.final_dist_origin

    def test_summary_lines_format(self):
        summary = runner_mod.RunSummary(
            final_time=10.0, jump_count=3, final_dist_origin=0.1,
            final_estimation_error=math.inf, min_obstacle_clearance=1.0 / 3.0,
            flow_violations=0, jump_violations=12, wall_clock_seconds=0.25,
        )
        assert summary.lines() == [
            "final_time = 10",
            "jump_count = 3",
            "final_dist_origin = 0.10000000000000001",
            "final_estimation_error = inf",
            "min_obstacle_clearance = 0.33333333333333331",
            "flow_violations = 0",
            "jump_violations = 12",
            "wall_clock_seconds = 0.25",
        ]

    def test_summary_recomputable_from_csv(self, tmp_path):
        out = tmp_path / "arc.csv"
        cfg = ScenarioConfig(
            controller="backstep", q0=1.0, t_max=2.0, out=str(out)
        )
        _, summary = run(cfg)
        cols = read_csv(out)
        scenario = build_scenario(cfg)
        assert cols["t"][-1] == summary.final_time
        assert int(cols["j"][-1]) == summary.jump_count
        assert cols["dist_origin"][-1] == summary.final_dist_origin
        assert cols["est_err"][-1] == summary.final_estimation_error
        clearance = np.min(
            np.hypot(
                cols["z1"] - scenario.obstacle.center[0],
                cols["z2"] - scenario.obstacle.center[1],
            )
        )
        assert clearance == pytest.approx(summary.min_obstacle_clearance, rel=1e-15)


class TestCsvFormat:
    @staticmethod
    def _two_sample_arc():
        times = np.array([0.0, 1.0])
        states = np.vstack(
            [
                np.array([math.log(0.5), 1.0, 0.0, -1.0, 0.0, 0.0]),
                np.array([0.1, 0.6, 0.8, -1.0, 0.2, -0.1]),
            ]
        )
        return HybridArc(samples=((times, states),))

    def test_two_sample_arc_gives_three_lines(self, tmp_path):
        scenario = build_scenario(ScenarioConfig(controller="adaptive"))
        path = tmp_path / "two.csv"
        emit_csv(self._two_sample_arc(), scenario, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0] == CSV_HEADER

    def test_jump_rows_duplicated_with_incremented_j(self, tmp_path):
        cfg = ScenarioConfig(
            controller="adaptive",
            q0=-1.0,
            z_init=(1.8, -1.0),
            t_max=1.0,
            out=str(tmp_path / "jump.csv"),
        )
        run(cfg)
        cols = read_csv(tmp_path / "jump.csv")
        jump_rows = np.nonzero(np.diff(cols["j"]) == 1.0)[0]
        assert jump_rows.size == 1
        k = jump_rows[0]
        assert cols["t"][k] == cols["t"][k + 1]
        assert cols["q"][k] == -1.0
        assert cols["q"][k + 1] == 1.0

    def test_round_trip_is_bit_identical(self, tmp_path):
        out = tmp_path / "arc.csv"
        cfg = ScenarioConfig(controller="backstep", q0=-1.0, t_max=1.0, out=str(out))
        arc, _ = run(cfg)
        cols = read_csv(out)
        scenario = build_scenario(cfg)
        k = 0
        for t, j, state in arc.iter_samples():
            assert cols["t"][k] == t
            assert cols["x1"][k] == state[0]
            assert cols["x2"][k] == state[1]
            assert cols["x3"][k] == state[2]
            assert cols["that1"][k] == state[4]
            assert cols["u1"][k] == state[6]
            z = scenario.planar(state)
            assert cols["z1"][k] == z[0]
            k += 1
        assert k == len(cols["t"])

    def test_identical_configs_give_identical_files(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run(ScenarioConfig(controller="adaptive", t_max=1.0, out=str(out1)))
        run(ScenarioConfig(controller="adaptive", t_max=1.0, out=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()

    def test_write_failure_carries_path_context(self, tmp_path):
        scenario = build_scenario(ScenarioConfig(controller="adaptive"))
        bad_path = tmp_path / "missing_dir" / "arc.csv"
        with pytest.raises(OSError) as excinfo:
            emit_csv(self._two_sample_arc(), scenario, bad_path)
        assert "arc.csv" in str(excinfo.value)

    def test_start_on_excluded_chart_point_still_emits(self, tmp_path):
        # Directly above the obstacle with the chart whose excluded bearing
        # points up: the potential is infinite, a jump fires at t = 0, and
        # the undefined pre-jump input is written as NaN.
        out = tmp_path / "singular.csv"
        cfg = ScenarioConfig(
            controller="adaptive",
            q0=1.0,
            z_init=(1.0, 2.0),
            t_max=1.0,
            out=str(out),
        )
        arc, summary = run(cfg)
        assert summary.jump_count >= 1
        assert arc.jump_records[0].t == 0.0
        cols = read_csv(out)
        assert math.isnan(cols["u1"][0])
        assert math.isinf(cols["V_true"][0])
        assert not math.isnan(cols["u1"][1])


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _reference_csv(arc, scenario) -> str:
    """The trajectory CSV composed row by row from the per-sample calls."""
    lines = [CSV_HEADER]
    for t, j, state in arc.iter_samples():
        z = scenario.planar(state)
        estimate = scenario.estimate(state)
        u = scenario.applied_input(state)
        row = [
            _fmt(t),
            str(int(j)),
            _fmt(z[0]),
            _fmt(z[1]),
            _fmt(state[0]),
            _fmt(state[1]),
            _fmt(state[2]),
            _fmt(float(state[3])),
            _fmt(estimate[0]),
            _fmt(estimate[1]),
            _fmt(u[0]),
            _fmt(u[1]),
            _fmt(scenario.true_potential(state)),
            _fmt(scenario.switching_gap(state)),
            _fmt(_norm(z)),
            _fmt(_norm(estimate - scenario.theta)),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# Runs whose CSVs the writer must reproduce byte for byte: the forced
# switch of each kind (jump rows), a start on an excluded chart point
# (NaN input, infinite V_true and gap_robust) and a backstep run with a
# small margin that jumps many times.
ORACLE_RUNS = {
    "nominal_forced": dict(controller="nominal", theta=(0.0, 0.0), z_init=(1.8, -1.0)),
    "adaptive_forced": dict(controller="adaptive", z_init=(1.8, -1.0)),
    "backstep_forced": dict(controller="backstep", z_init=(1.8, -1.0)),
    "singular_start": dict(controller="adaptive", q0=1.0, z_init=(1.0, 2.0)),
    "backstep_switching": dict(
        controller="backstep", z_init=(2.5, 0.0), delta=1e-3, j_max=1000, t_max=2.0
    ),
}


class TestCsvWriterOracle:
    """``emit_csv`` against the CSV composed from the per-sample calls."""

    @pytest.mark.parametrize("name", list(ORACLE_RUNS))
    def test_bytes_equal_reference(self, name, tmp_path):
        values = dict(q0=-1.0, t_max=1.0)
        values.update(ORACLE_RUNS[name])
        out = tmp_path / "run.csv"
        cfg = ScenarioConfig(out=str(out), **values)
        arc, _ = run(cfg)
        scenario = build_scenario(cfg)
        reference = _reference_csv(arc, scenario)
        assert out.read_text() == reference
        again = tmp_path / "again.csv"
        emit_csv(arc, scenario, again)
        assert again.read_text() == reference

        cols = read_csv(out)
        jumps = int(cols["j"][-1])
        if name == "backstep_switching":
            assert jumps > 40
        else:
            assert jumps >= 1
        if name == "singular_start":
            assert math.isnan(cols["u1"][0])
            assert math.isinf(cols["V_true"][0]) and math.isinf(cols["gap_robust"][0])


class TestMonitorColumns:
    """The monitors read from a column equal the monitors calling the potential."""

    def test_violation_lists_equal(self):
        cfg = ScenarioConfig(**ORACLE_RUNS["backstep_switching"])
        arc, _ = run(cfg)
        scenario = build_scenario(cfg)
        column = runner_mod.sample_columns(arc, scenario)["V_true"]
        # A planted potential that rises wherever the true one falls: every
        # flow step and every jump violates.
        planted_column = -column

        def planted(state):
            return -scenario.true_potential(state)

        for potential, values in (
            (scenario.true_potential, column), (planted, planted_column)
        ):
            by_call = monitor_flow_decrease(arc, potential, tol=1e-6)
            by_column = monitor_flow_decrease(arc, values, tol=1e-6)
            assert by_column == by_call
            by_call = monitor_jump_decrease(arc, potential, scenario.margin_at, tol=1e-9)
            by_column = monitor_jump_decrease(arc, values, scenario.margin_at, tol=1e-9)
            assert by_column == by_call
        flow = monitor_flow_decrease(arc, planted_column, tol=1e-6)
        jump = monitor_jump_decrease(arc, planted_column, scenario.margin_at, tol=1e-9)
        assert len(flow) > 100 and len(jump) == arc.jump_count > 40
        for violation in flow + jump:
            assert all(
                type(getattr(violation, f)) is float
                for f in ("t", "before", "after", "excess")
            )

    def test_column_of_wrong_length_rejected(self):
        cfg = ScenarioConfig(t_max=0.1)
        arc, _ = run(cfg)
        with pytest.raises(ValueError, match="potential values"):
            monitor_flow_decrease(arc, [0.0], tol=0.0)


class TestZenoConfigInvariant:
    def test_z_init_inside_obstacle_is_config_error(self):
        cfg = ScenarioConfig(z_init=(1.0, 0.1))
        with pytest.raises(ConfigError):
            build_scenario(cfg)


class TestPropertySuite:
    def test_default_seed_passes(self):
        report = property_suite(0)
        assert report.passed
        names = {r.name for r in report.results}
        assert {
            "projection_inequality",
            "projection_lipschitz",
            "gap_enumeration",
            "ball_distance_oracle",
            "reset_estimate_oracle",
            "jacobian_fd",
            "gap_identity",
        } <= names

    def test_determinism(self):
        assert property_suite(3).lines() == property_suite(3).lines()

    def test_thorough_seed_one_report_pinned(self):
        # The acceptance-size report, byte for byte: a changed draw, input
        # count or check changes a line of it.
        pinned = Path(__file__).parent / "data" / "property_suite_seed1_thorough.txt"
        lines = property_suite(1, thorough=True).lines()
        assert "".join(line + "\n" for line in lines) == pinned.read_text()

    def test_cheaper_draws_give_the_same_values(self):
        # The suites draw ``rng.random()`` for ``rng.uniform()`` and
        # ``a + (b - a) * rng.random()`` for ``rng.uniform(a, b)``: the same
        # values bit for bit, with the generators kept in step.
        ours, reference = np.random.default_rng(2026), np.random.default_rng(2026)
        drawn, expected = [], []
        for _ in range(100_000):
            drawn += [ours.random(), 1e-6 + (1e-3 - 1e-6) * ours.random()]
            expected += [reference.uniform(), reference.uniform(1e-6, 1e-3)]
        assert np.array(drawn).tobytes() == np.array(expected).tobytes()
        assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 3])
    def test_pooled_report_equals_in_process_run(self, seed):
        # The reference: the seven suites in this process, in the
        # report's order, each at its own seed.
        in_process = runner_mod.PropertyReport(
            seed=seed,
            results=(
                runner_mod.projection_inequality_suite(seed),
                runner_mod.projection_lipschitz_suite(seed + 1),
                runner_mod.gap_enumeration_suite(seed + 2),
                runner_mod.ball_distance_oracle_suite(seed + 3, n=200),
                runner_mod.reset_estimate_oracle_suite(seed + 4, n=200),
                runner_mod.jacobian_suite(seed + 5, n=200),
                runner_mod.gap_identity_suite(seed + 6),
            ),
        )
        assert property_suite(seed).lines() == in_process.lines()
        assert not multiprocessing.active_children()

    def test_worker_error_raised_and_pool_joined(self):
        with pytest.raises(ValueError) as in_process:
            runner_mod.projection_inequality_suite(-1)
        with pytest.raises(ValueError) as pooled:
            property_suite(-1)
        assert str(pooled.value) == str(in_process.value)
        assert not multiprocessing.active_children()

    def test_console_entry_point_in_fresh_interpreter(self, tmp_path):
        # The console script's own start-up, whose worker processes are
        # forked or spawned by the platform's default start method.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from hybridfb.cli import main; sys.exit(main())",
                "--property-suite",
                "--seed",
                "0",
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "".join(line + "\n" for line in property_suite(0).lines())

    def test_ball_distance_mutation_detected(self, monkeypatch):
        original = runner_mod.ball_distance

        def biased(theta_hat, ball):
            dist_sq, nearest = original(theta_hat, ball)
            return (dist_sq + 3e-3 if dist_sq > 0.0 else dist_sq), nearest

        monkeypatch.setattr(runner_mod, "ball_distance", biased)
        assert not runner_mod.ball_distance_oracle_suite(seed=0, n=100).passed

    def test_reset_estimate_mutation_detected(self, monkeypatch):
        original = runner_mod.reset_estimate

        def shrunk(theta_hat, ball):
            return 0.9 * original(theta_hat, ball)

        monkeypatch.setattr(runner_mod, "reset_estimate", shrunk)
        assert not runner_mod.reset_estimate_oracle_suite(seed=0, n=100).passed

    def test_projection_mutation_detected(self, monkeypatch):
        original = adaptive_mod.project_rate

        def broken(rate, theta_hat, ball):
            out = original(rate, theta_hat, ball)
            p = adaptive_mod.ball_excess(theta_hat, ball)
            if p > 0.0:
                grad = 2.0 * np.asarray(theta_hat, dtype=float) / ball.excess_scale
                if float(grad @ rate) > 0.0:
                    # flip the sign of the correction term
                    return 2.0 * np.asarray(rate, dtype=float) - out
            return out

        monkeypatch.setattr(adaptive_mod, "project_rate", broken)
        result = runner_mod.projection_inequality_suite(seed=0)
        assert not result.passed

    # A planted NaN must fail each suite: a comparison with NaN is false,
    # so a fold with ``max`` or a ``slack < -tol`` test would pass it.
    def test_reset_estimate_nan_detected(self, monkeypatch):
        monkeypatch.setattr(
            runner_mod, "reset_estimate", lambda theta_hat, ball: np.full(2, math.nan)
        )
        result = runner_mod.reset_estimate_oracle_suite(seed=0, n=100)
        assert not result.passed
        assert "nan" in result.detail

    def test_projection_nan_detected(self, monkeypatch):
        monkeypatch.setattr(
            adaptive_mod, "project_rate",
            lambda rate, theta_hat, ball: np.full(2, math.nan),
        )
        result = runner_mod.projection_inequality_suite(seed=0, n=100)
        assert not result.passed
        assert result.detail.startswith("100 violations")

    def test_feedback_jacobian_nan_detected(self, monkeypatch):
        monkeypatch.setattr(
            obstacle_mod, "gradient_feedback_jacobian",
            lambda x, q, obstacle: np.full((2, 3), math.nan),
        )
        result = runner_mod.jacobian_suite(seed=0, n=50)
        assert not result.passed
        assert "nan" in result.detail

    def test_lift_gap_nan_detected(self, monkeypatch):
        monkeypatch.setattr(
            adaptive_mod.BackstepController, "gap", lambda self, x, xi: math.nan
        )
        result = runner_mod.gap_identity_suite(seed=0, n=20)
        assert not result.passed
        assert "nan" in result.detail

    def test_margin_mutation_detected(self):
        from hybridfb import ObstacleDisk, build_nominal_controller

        obstacle = ObstacleDisk(center=np.array([1.0, 0.0]), radius=0.5)
        with pytest.raises(ValueError):
            build_nominal_controller(obstacle, margin=0.0)


class TestCli:
    def test_successful_run_exit_zero(self, tmp_path, capsys):
        code = main(
            [
                "--controller",
                "adaptive",
                "--q0",
                "-1",
                "--t-max",
                "1.0",
                "--out",
                str(tmp_path / "arc.csv"),
                "--summary",
                str(tmp_path / "s.txt"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "final_dist_origin" in captured.out

    def test_config_error_exit_four(self, capsys):
        assert main(["--controller", "nominal", "--q0", "0.5"]) == 4

    @pytest.mark.parametrize(
        "key, value",
        [
            ("theta", "nan 0.5"),
            ("z_init", "2.0 nan"),
            ("obstacle_radius", "nan"),
            ("eps", "nan"),
            ("gamma1", "nan"),
            ("abs_tol", "nan"),
            ("delta", "nan"),
            ("t_max", "nan"),
        ],
    )
    @pytest.mark.parametrize("controller", ["adaptive", "backstep"])
    def test_non_finite_config_value_exit_four(
        self, tmp_path, capsys, key, value, controller
    ):
        path = tmp_path / "bad.cfg"
        path.write_text(f"controller = {controller}\n{key} = {value}\n")
        assert main(["--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert f"configuration error: {key} must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("controller", ["nominal", "backstep"])
    def test_non_positive_delta_exit_four(self, tmp_path, capsys, value, controller):
        path = tmp_path / "bad.cfg"
        path.write_text(f"controller = {controller}\ndelta = {value}\n")
        assert main(["--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert "configuration error: hysteresis margin must be positive" in err
        assert "Traceback" not in err

    def test_margin_within_event_tol_exit_four(self, tmp_path, capsys):
        # A margin the event location cannot resolve puts every state in
        # the jump set; it is refused before the run starts.
        path = tmp_path / "tiny.cfg"
        path.write_text("controller = backstep\ndelta = 1e-11\nt_max = 1\n")
        assert main(["--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert (
            "hysteresis margin 1e-11 is not above the solver's event_tol 1e-10"
        ) in err
        assert "Traceback" not in err
        path.write_text("controller = backstep\ndelta = 2e-10\nt_max = 0.01\n")
        assert main(["--config", str(path)]) == 0

    def test_repeated_key_exit_four(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("controller = backstep\nt_max = 0.1\ncontroller = nominal\n")
        assert main(["--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert f"{path}:3: key 'controller' repeats line 1" in err
        assert "Traceback" not in err

    def test_singular_feedback_start_explained_exit_four(self, tmp_path, capsys):
        # Directly above the obstacle, chart q = +1 has no feedback to
        # initialize the held input from.
        path = tmp_path / "singular.cfg"
        body = "controller = backstep\nz_init = 1.0, 1.2\nt_max = 0.1\n"
        path.write_text(body + "q0 = 1\nu0_policy = feedback\n")
        assert main(["--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert (
            "configuration error: z_init = 1.0, 1.2 with q0 = +1 and "
            "u0_policy = feedback has no initial input "
            "(chart q=+1 evaluated at x3=1.0); "
            "u0_policy = zero or q0 = -1 runs from there"
        ) in err
        assert "Traceback" not in err
        for fix in ("q0 = 1\nu0_policy = zero\n", "q0 = -1\nu0_policy = feedback\n"):
            path.write_text(body + fix)
            assert main(["--config", str(path)]) == 0

    @pytest.mark.parametrize("controller", ["adaptive", "backstep"])
    @pytest.mark.parametrize("key", ["flow_tol", "jump_tol"])
    def test_negative_monitor_tolerance_exit_four(
        self, tmp_path, capsys, key, controller
    ):
        # A negative slack flags every sample of a clean run as a monitor
        # violation; it is refused before the run starts.
        path = tmp_path / "neg.cfg"
        path.write_text(
            f"controller = {controller}\nt_max = 0.1\nstrict = true\n{key} = -1\n"
        )
        assert main(["--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert f"configuration error: {key} must be nonnegative" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["flow_tol", "jump_tol"])
    def test_zero_monitor_tolerance_accepted(self, key):
        assert getattr(ScenarioConfig(**{key: 0.0}), key) == 0.0

    @pytest.mark.parametrize("z_init", ["0.001, 2", "0, 2", "2, 0"])
    def test_obstacle_on_vertical_axis_exit_four(self, tmp_path, capsys, z_init):
        # The target would sit on chart q = -1's excluded point, so the
        # charts are not synergistic; the run is refused before it starts.
        path = tmp_path / "axis.cfg"
        path.write_text(
            "controller = adaptive\nobstacle_center = 0, 1\n"
            f"z_init = {z_init}\nt_max = 1\n"
        )
        assert main(["--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert "excluded point of chart q=-1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("t_max", "1e9"), ("max_step", "1e-12")])
    def test_step_budget_overrun_exit_four(self, tmp_path, capsys, key, value):
        path = tmp_path / "long.cfg"
        path.write_text(f"controller = backstep\n{key} = {value}\n")
        assert main(["--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert "configuration error: t_max / max_step exceeds the step budget" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fault", ["nan_margin_band", "nan_estimate_after_jump"])
    def test_non_finite_solve_exit_three(self, tmp_path, monkeypatch, capsys, fault):
        make_scenario = runner_mod.make_scenario

        def faulty_scenario(*args, **kwargs):
            sc = make_scenario(*args, **kwargs)
            if fault == "nan_margin_band":
                # Gap minus margin turns NaN on a band of x1 the run crosses;
                # one object stays both indicators, as build_closed_loop makes.
                indicator = sc.system.jump_indicator

                def banded(state):
                    if state[0] > -0.6 or state[0] < -0.69:
                        return indicator(state)
                    return math.nan

                system = dataclasses.replace(
                    sc.system, flow_indicator=banded, jump_indicator=banded
                )
            else:
                def jump_map(state):
                    after = sc.system.jump_map(state)
                    return np.concatenate([after[:4], after[4:] * math.nan])

                system = dataclasses.replace(sc.system, jump_map=jump_map)
            return dataclasses.replace(sc, system=system)

        monkeypatch.setattr(runner_mod, "make_scenario", faulty_scenario)
        path = tmp_path / "forced.cfg"
        path.write_text(
            "controller = backstep\nq0 = -1\nt_max = 1\nz_init = 1.8, -1\n"
        )
        assert main(["--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "solver error: jump indicator is nan" in err
        assert "Traceback" not in err

    def test_unknown_flag_exit_four(self, capsys):
        assert main(["--warp", "9"]) == 4

    def test_strict_monitor_violation_exit_two(self, tmp_path, capsys):
        path = tmp_path / "nominal.cfg"
        path.write_text(
            "controller = nominal\nq0 = -1\nt_max = 5.0\nstrict = true\n"
        )
        assert main(["--config", str(path)]) == 2

    def test_non_strict_violation_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "nominal.cfg"
        path.write_text("controller = nominal\nq0 = -1\nt_max = 5.0\n")
        assert main(["--config", str(path)]) == 0

    def test_solver_error_exit_three(self, monkeypatch, capsys):
        def explode(config):
            raise ZenoSuspected("synthetic failure")

        monkeypatch.setattr("hybridfb.cli.run", explode)
        assert main(["--t-max", "1.0"]) == 3

    @pytest.mark.parametrize("error", [MalformedArc, InfeasibleCandidates, DomainEscape])
    def test_batch_worker_solver_error_exit_three(self, tmp_path, monkeypatch, error):
        # The batch worker reports each typed failure instead of raising it
        # into the process pool.
        def explode(config):
            raise error("synthetic failure")

        monkeypatch.setattr("hybridfb.cli.run", explode)
        path = tmp_path / "run.cfg"
        path.write_text("t_max = 0.5\n")
        assert run_config_file(str(path)) == (str(path), 3, "synthetic failure")

    def test_property_suite_flag(self, capsys):
        assert main(["--property-suite", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    @pytest.mark.parametrize(
        "file_seed, flags, expected",
        [(7, [], 7), (7, ["--seed", "9"], 9), (None, [], 0)],
        ids=["config_file", "flag_overrides_file", "default"],
    )
    def test_property_suite_seed_from_sources(
        self, tmp_path, monkeypatch, capsys, file_seed, flags, expected
    ):
        seeds = []

        def suite(seed, thorough=False):
            seeds.append(seed)
            return runner_mod.PropertyReport(seed=seed, results=())

        monkeypatch.setattr("hybridfb.cli.property_suite", suite)
        path = tmp_path / "suite.cfg"
        path.write_text("" if file_seed is None else f"seed = {file_seed}\n")
        assert main(["--property-suite", "--config", str(path), *flags]) == 0
        assert seeds == [expected]
        assert capsys.readouterr().out.startswith(f"property suite (seed {expected})")

    @pytest.mark.parametrize("source", ["flag", "config_file"])
    def test_negative_seed_exit_four(self, tmp_path, capsys, source):
        path = tmp_path / "suite.cfg"
        path.write_text("seed = -1\n" if source == "config_file" else "")
        flags = ["--seed", "-1"] if source == "flag" else []
        assert main(["--property-suite", "--config", str(path), *flags]) == 4
        err = capsys.readouterr().err
        assert err == "configuration error: seed must be nonnegative, got -1\n"
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig(seed=-1)

    @pytest.mark.parametrize("key", ["out", "summary"])
    def test_unwritable_output_exit_four(self, tmp_path, capsys, key):
        bad_path = tmp_path / "missing_dir" / "output"
        code = main(["--controller", "nominal", "--t-max", "0.1", f"--{key}", str(bad_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and str(bad_path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["out", "summary"])
    def test_batch_worker_unwritable_output_exit_four(self, tmp_path, key):
        bad_path = tmp_path / "missing_dir" / "output"
        path = tmp_path / "run.cfg"
        path.write_text(f"controller = nominal\nt_max = 0.1\n{key} = {bad_path}\n")
        worker_path, code, message = run_config_file(str(path))
        assert (worker_path, code) == (str(path), 4)
        assert str(bad_path) in message

    def test_batch_runs_all_files(self, tmp_path, capsys):
        for k, q0 in enumerate((-1, 1)):
            (tmp_path / f"run{k}.cfg").write_text(
                f"controller = adaptive\nq0 = {q0}\nt_max = 0.5\n"
                f"summary = {tmp_path / f'summary{k}.txt'}\n"
            )
        code = main(
            ["--batch", str(tmp_path / "run0.cfg"), str(tmp_path / "run1.cfg")]
        )
        assert code == 0
        assert (tmp_path / "summary0.txt").exists()
        assert (tmp_path / "summary1.txt").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--t-max", "0.01", "--controller", "backstep"], "--controller, --t-max"),
            (["--property-suite"], "--property-suite"),
            (["--seed", "0"], "--seed"),
        ],
    )
    def test_batch_refuses_other_flags_exit_four(self, tmp_path, capsys, flags, named):
        path = tmp_path / "run.cfg"
        summary = tmp_path / "summary.txt"
        path.write_text(f"controller = nominal\nt_max = 0.5\nsummary = {summary}\n")
        assert main(["--batch", str(path), *flags]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: --batch runs each file as written and takes "
            f"no other flag; got {named}\n"
        )
        assert captured.out == ""
        assert not summary.exists()

    def test_batch_output_collision_exit_four(self, tmp_path, capsys):
        shared = tmp_path / "same.csv"
        for k in range(2):
            (tmp_path / f"run{k}.cfg").write_text(
                f"controller = adaptive\nt_max = 0.5\nout = {shared}\n"
            )
        code = main(
            ["--batch", str(tmp_path / "run0.cfg"), str(tmp_path / "run1.cfg")]
        )
        assert code == 4

    def test_out_equal_to_summary_exit_four(self, tmp_path, capsys):
        # The CSV would be overwritten by the summary: refused before the run.
        path = tmp_path / "run.cfg"
        path.write_text("controller = nominal\nt_max = 0.5\n")
        same = tmp_path / "same.txt"
        argv = ["--config", str(path), "--out", str(same), "--summary", str(same)]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: out and summary are both {same}\n"
        assert captured.out == ""
        assert not same.exists()

    def test_out_aliasing_summary_exit_four(self, tmp_path, monkeypatch, capsys):
        # Two spellings of one file: the summary would overwrite the CSV.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("controller = nominal\nt_max = 0.5\n")
        argv = ["--config", "run.cfg", "--out", "./same.txt", "--summary", "same.txt"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err == "configuration error: out and summary are both ./same.txt\n"
        assert captured.out == ""
        assert not (tmp_path / "same.txt").exists()

    def test_batch_aliased_outputs_exit_four(self, tmp_path, monkeypatch, capsys):
        # One file's out is another file's summary, spelled differently.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "b1.cfg").write_text("controller = nominal\nt_max = 0.5\nout = ./b.txt\n")
        (tmp_path / "b2.cfg").write_text("controller = nominal\nt_max = 0.5\nsummary = b.txt\n")
        assert main(["--batch", "b1.cfg", "b2.cfg"]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: output collision: b.txt used by both b1.cfg and b2.cfg\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "b.txt").exists()

    def test_batch_file_with_out_equal_to_summary_exit_four(self, tmp_path, capsys):
        # Only that file is refused; the other file of the batch still runs.
        same = tmp_path / "same.txt"
        bad, good = tmp_path / "bad.cfg", tmp_path / "good.cfg"
        bad.write_text(f"controller = nominal\nt_max = 0.5\nout = {same}\nsummary = {same}\n")
        good.write_text(f"controller = nominal\nt_max = 0.5\nout = {tmp_path / 'good.csv'}\n")
        assert main(["--batch", str(bad), str(good)]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{bad}: exit 4 (out and summary are both {same})"
        assert lines[1].startswith(f"{good}: exit 0 ")
        assert not same.exists()
        assert (tmp_path / "good.csv").exists()


# Configs whose adaptation constants break: the squared radius, the
# excess scale or a gain's inverse underflows to 0 or overflows to inf.
BROKEN_CONSTANTS = {
    "radius-sq-underflow": "theta = 0, 0\ntheta_bound = 1e-320\n",
    "excess-scale-underflow": "theta = 0, 0\ntheta_bound = 1e-200\neps = 1e-200\n",
    "eps-1e160": "eps = 1e160\n",
    "eps-1e300": "eps = 1e300\n",
    "radius-1e160": "theta_bound = 1e160\n",
    "gamma1-inverse": "gamma1 = 1e-320\n",
    "gamma2-inverse": "gamma2 = 1e-320\n",
}


# Only the backstep controller reads gamma2.
BROKEN_CASES = [
    (controller, name)
    for controller in ("adaptive", "backstep")
    for name in BROKEN_CONSTANTS
    if controller == "backstep" or not name.startswith("gamma2")
]


class TestBrokenConstantsRefused:
    @pytest.mark.parametrize(
        "controller, name", BROKEN_CASES, ids=[f"{c}-{n}" for c, n in BROKEN_CASES]
    )
    def test_exit_four_single_and_batch(self, tmp_path, capsys, controller, name):
        text = BROKEN_CONSTANTS[name]
        path = tmp_path / "run.cfg"
        out = tmp_path / "arc.csv"
        path.write_text(f"controller = {controller}\nt_max = 0.01\n{text}")
        assert main(["--config", str(path), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out.exists()
        worker_path, code, message = run_config_file(str(path))
        assert (worker_path, code) == (str(path), 4)
        assert captured.err == f"configuration error: {message}\n"


class TestFlagsThatDoNothingRefused:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--thorough", "--t-max", "0.01"], "--thorough"),
            (["--seed", "3"], "--seed"),
            (["--seed", "0", "--thorough"], "--thorough, --seed"),
        ],
    )
    def test_suite_flags_need_property_suite(self, tmp_path, capsys, argv, named):
        out = tmp_path / "arc.csv"
        assert main([*argv, "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: --thorough and --seed apply only with "
            f"--property-suite; got {named}\n"
        )
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--out", "x.csv", "--seed", "0"], "--out"),
            (["--controller", "backstep", "--q0", "1"], "--controller, --q0"),
            (["--t-max", "1", "--j-max", "5"], "--t-max, --j-max"),
            (["--summary", "s.txt", "--strict", "--thorough"], "--summary, --strict"),
        ],
    )
    def test_simulation_flags_refused_with_property_suite(
        self, monkeypatch, capsys, flags, named
    ):
        def suite(seed, thorough=False):
            raise AssertionError("the suites must not run")

        monkeypatch.setattr("hybridfb.cli.property_suite", suite)
        assert main(["--property-suite", *flags]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: --property-suite runs the verification suites "
            f"and takes no simulation flag; got {named}\n"
        )
        assert captured.out == ""

    def test_config_file_keys_stay_accepted(self, tmp_path, monkeypatch, capsys):
        seeds = []

        def suite(seed, thorough=False):
            seeds.append((seed, thorough))
            return runner_mod.PropertyReport(seed=seed, results=())

        monkeypatch.setattr("hybridfb.cli.property_suite", suite)
        path = tmp_path / "suite.cfg"
        path.write_text("controller = backstep\nt_max = 1\nseed = 5\nstrict = true\n")
        assert main(["--property-suite", "--thorough", "--config", str(path)]) == 0
        assert seeds == [(5, True)]
        run_path = tmp_path / "run.cfg"
        run_path.write_text("controller = nominal\nt_max = 0.01\nseed = 5\n")
        assert main(["--config", str(run_path)]) == 0


def _planted_run(monkeypatch, arc, argv):
    """Run ``main`` with ``runner.solve`` returning ``arc``."""
    monkeypatch.setattr(runner_mod, "solve", lambda system, x0, config: arc)
    return main(argv)


class TestRunChecks:
    def test_malformed_arc_exit_three(self, monkeypatch, capsys):
        empty = HybridArc(samples=((np.empty(0), np.empty((0, 6))),))
        assert _planted_run(monkeypatch, empty, ["--t-max", "0.01"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "solver error: solver produced an ill-formed arc: interval 0: no samples\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("controller", ["nominal", "adaptive", "backstep"])
    def test_sample_on_the_obstacle_exit_three(self, monkeypatch, capsys, controller):
        # At x1 = -800, exp(x1) underflows to 0: the sample's distance to
        # the disk centre is the radius itself, and its feedback is NaN.
        config = ScenarioConfig(controller=controller, t_max=0.01)
        x0 = build_scenario(config).x0
        on_disk = x0.copy()
        on_disk[0] = -800.0
        arc = HybridArc(samples=((np.array([0.0, 0.01]), np.stack([x0, on_disk])),))
        argv = ["--controller", controller, "--t-max", "0.01"]
        assert _planted_run(monkeypatch, arc, argv) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "solver error: trajectory reached distance 0.5 from the obstacle "
            "center (radius 0.5)\n"
        )
        assert captured.out == ""


# Values each numeric key takes in turn; integer keys take only the first two.
EXTREMES = ("0", "-1", "1e-320", "1e-200", "1e160", "1e300", "nan", "inf", "-inf")
# Keys that meet in one derived constant or one check, set together: each
# takes every value but -inf.
EXTREME_PAIRS = (
    ("theta_bound", "eps"),
    ("gamma1", "gamma2"),
    ("theta", "theta_hat0"),
    ("abs_tol", "rel_tol"),
    ("delta", "event_tol"),
)
EXTREME_CASES = [
    ((key, value),)
    for key, parser in runner_mod._FIELD_PARSERS.items()
    if parser in (float, int, runner_mod._parse_vec2)
    for value in (EXTREMES[:2] if parser is int else EXTREMES)
] + [
    ((first, first_value), (second, second_value))
    for first, second in EXTREME_PAIRS
    for first_value in EXTREMES[:-1]
    for second_value in EXTREMES[:-1]
]


class TestConfigExtremes:
    """Every extreme value of one key, or of a pair of keys, runs or is
    refused with an exit code."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("extremes")

    @pytest.mark.parametrize("controller", ["adaptive", "backstep"])
    @pytest.mark.parametrize(
        "settings",
        EXTREME_CASES,
        ids=[",".join(f"{k}={v}" for k, v in case) for case in EXTREME_CASES],
    )
    def test_documented_exit(self, workdir, capsys, controller, settings):
        path = workdir / "run.cfg"
        out = workdir / "arc.csv"
        out.unlink(missing_ok=True)
        lines = {"controller": controller, "t_max": "0.01"}
        for key, value in settings:
            if runner_mod._FIELD_PARSERS[key] is runner_mod._parse_vec2:
                value = f"{value}, {value}"
            lines[key] = value
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        code = main(["--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code == 0:
            assert not np.any(np.isnan(read_csv(out)["V_true"]))

    @pytest.mark.parametrize("setting", ["abs_tol = 1e-320", "gamma1 = 1e300"])
    def test_overflow_prints_one_stderr_line(self, tmp_path, setting):
        # The initial step size overflows here; numpy's warnings must not
        # print ahead of the one error line.
        path = tmp_path / "run.cfg"
        path.write_text(f"t_max = 0.01\n{setting}\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-m", "hybridfb.cli", "--config", str(path)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 3
        assert done.stderr.startswith("solver error: ")
        assert len(done.stderr.splitlines()) == 1, done.stderr
