"""Scenario runner, CSV/summary formats, configuration, CLI exit codes."""

import math

import numpy as np
import pytest

import hybridfb.adaptive as adaptive_mod
import hybridfb.runner as runner_mod
from hybridfb import (
    ConfigError,
    DomainEscape,
    HybridTimeDomain,
    HybridArc,
    InfeasibleCandidates,
    MalformedArc,
    ScenarioConfig,
    ZenoSuspected,
    build_scenario,
    config_from_sources,
    emit_csv,
    property_suite,
    read_config_file,
    read_csv,
    read_summary,
    run,
)
from hybridfb.cli import main, run_config_file
from hybridfb.runner import CSV_HEADER


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
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="pendulum")
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
        return HybridArc(
            domain=HybridTimeDomain(intervals=((0.0, 1.0, 0),)),
            samples=((times, states),),
            jump_records=(),
        )

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
        a = property_suite(3)
        b = property_suite(3)
        assert [r.detail for r in a.results] == [r.detail for r in b.results]

    def test_projection_mutation_detected(self, monkeypatch):
        original = adaptive_mod.project_rate

        def broken(rate, theta_hat, ball):
            out = original(rate, theta_hat, ball)
            p = adaptive_mod.ball_excess(theta_hat, ball)
            if p > 0.0:
                grad = adaptive_mod.ball_excess_gradient(theta_hat, ball)
                if float(grad @ rate) > 0.0:
                    # flip the sign of the correction term
                    return 2.0 * np.asarray(rate, dtype=float) - out
            return out

        monkeypatch.setattr(adaptive_mod, "project_rate", broken)
        result = runner_mod.projection_inequality_suite(seed=0)
        assert not result.passed

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
