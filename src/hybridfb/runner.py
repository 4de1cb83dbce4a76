"""Scenario runner: configuration, execution, outputs, and verification suites.

Configuration is flat ``key = value`` text (``#`` comments allowed);
command-line flags override file values.  Trajectories are emitted as
CSV with 17-significant-digit decimals so a round-trip parse reproduces
every float bit for bit, and run summaries as ``key = value`` text with
fixed key names.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import adaptive as adaptive_mod
from . import obstacle as obstacle_mod
from .adaptive import ParamBall, ball_distance, central_difference, reset_estimate
from .errors import ChartSingular, ConfigError, InsideObstacle, MalformedArc
from .hybrid import HybridArc, SolverConfig, solve, validate_domain
from .obstacle import ObstacleDisk, Scenario, make_scenario
from .synergistic import (
    ControllerData,
    gap_value,
    min_over_candidates,
    monitor_flow_decrease,
    monitor_jump_decrease,
)

CSV_HEADER = (
    "t,j,z1,z2,x1,x2,x3,q,that1,that2,u1,u2,"
    "V_true,gap_robust,dist_origin,est_err"
)

SUMMARY_KEYS = (
    "final_time",
    "jump_count",
    "final_dist_origin",
    "final_estimation_error",
    "min_obstacle_clearance",
    "flow_violations",
    "jump_violations",
    "wall_clock_seconds",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one run.

    ``seed`` only affects the randomized verification suites; the
    simulation itself is deterministic.  Every float and two-component
    field must be finite.
    """

    scenario: str = "obstacle"
    controller: str = "adaptive"
    q0: float = -1.0
    theta: tuple = (math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0)
    theta_hat0: tuple = (0.0, 0.0)
    u0_policy: str = "feedback"
    z_init: tuple = (2.0, 0.0)
    obstacle_center: tuple = (1.0, 0.0)
    obstacle_radius: float = 0.5
    theta_bound: float = 1.0
    eps: float = 1.0
    gamma1: float = 1.0
    gamma2: float = 1.0
    damping: float = 1.0
    delta: float = 1.0
    t_max: float = 10.0
    j_max: int = 100
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    event_tol: float = 1e-10
    max_step: float = 0.01
    flow_tol: float = 1e-6
    jump_tol: float = 1e-9
    out: Optional[str] = None
    summary: Optional[str] = None
    strict: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.scenario != "obstacle":
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.controller not in ("nominal", "adaptive", "backstep"):
            raise ConfigError(f"unknown controller {self.controller!r}")
        if float(self.q0) not in (-1.0, 1.0):
            raise ConfigError(f"q0 must be -1 or 1, got {self.q0}")
        if self.u0_policy not in ("feedback", "zero"):
            raise ConfigError(f"unknown u0 policy {self.u0_policy!r}")
        for name, parser in _FIELD_PARSERS.items():
            value = getattr(self, name)
            if parser in (float, _parse_vec2) and not np.all(np.isfinite(value)):
                raise ConfigError(f"{name} must be finite, got {value}")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            t_max=self.t_max,
            j_max=self.j_max,
            abs_tol=self.abs_tol,
            rel_tol=self.rel_tol,
            event_tol=self.event_tol,
            max_step=self.max_step,
        )


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_vec2(text: str) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ValueError(f"expected two components: {text!r}")
    return (float(parts[0]), float(parts[1]))


_FIELD_PARSERS: dict[str, Callable[[str], object]] = {
    "scenario": str,
    "controller": str,
    "q0": float,
    "theta": _parse_vec2,
    "theta_hat0": _parse_vec2,
    "u0_policy": str,
    "z_init": _parse_vec2,
    "obstacle_center": _parse_vec2,
    "obstacle_radius": float,
    "theta_bound": float,
    "eps": float,
    "gamma1": float,
    "gamma2": float,
    "damping": float,
    "delta": float,
    "t_max": float,
    "j_max": int,
    "abs_tol": float,
    "rel_tol": float,
    "event_tol": float,
    "max_step": float,
    "flow_tol": float,
    "jump_tol": float,
    "out": str,
    "summary": str,
    "strict": _parse_bool,
    "seed": int,
}


def read_config_file(path) -> dict:
    """Parse a flat ``key = value`` configuration file."""
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def config_from_sources(
    file_values: Optional[dict] = None, overrides: Optional[dict] = None
) -> ScenarioConfig:
    """Layer defaults, config-file values, then explicit overrides."""
    merged: dict[str, object] = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"unknown configuration key {key!r}")
            if value is not None:
                merged[key] = value
    try:
        return ScenarioConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Assemble the closed-loop scenario described by ``config``."""
    try:
        return make_scenario(
            kind=config.controller,
            q0=config.q0,
            obstacle=ObstacleDisk(
                center=np.asarray(config.obstacle_center, dtype=float),
                radius=config.obstacle_radius,
            ),
            theta=np.asarray(config.theta, dtype=float),
            theta_hat0=np.asarray(config.theta_hat0, dtype=float),
            u0=config.u0_policy,
            z_init=config.z_init,
            margin=config.delta,
            theta_bound=config.theta_bound,
            eps=config.eps,
            gamma1=config.gamma1 * np.eye(2),
            gamma2=config.gamma2 * np.eye(2),
            damping=config.damping,
            config=config.solver_config(),
        )
    except (ValueError, InsideObstacle, ChartSingular) as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunSummary:
    """Headline numbers of one run, serializable as key = value text."""

    final_time: float
    jump_count: int
    final_dist_origin: float
    final_estimation_error: float
    min_obstacle_clearance: float
    flow_violations: int
    jump_violations: int
    wall_clock_seconds: float

    def lines(self) -> list[str]:
        return [
            f"final_time = {self.final_time:.17g}",
            f"jump_count = {self.jump_count}",
            f"final_dist_origin = {self.final_dist_origin:.17g}",
            f"final_estimation_error = {self.final_estimation_error:.17g}",
            f"min_obstacle_clearance = {self.min_obstacle_clearance:.17g}",
            f"flow_violations = {self.flow_violations}",
            f"jump_violations = {self.jump_violations}",
            f"wall_clock_seconds = {self.wall_clock_seconds:.17g}",
        ]


def run(config: ScenarioConfig) -> tuple[HybridArc, RunSummary]:
    """Execute one scenario: solve, monitor, and write any outputs.

    Both Lyapunov monitors use the true parameter of the scenario; their
    violation counts land in the summary (and drive the strict exit code
    at the CLI).  Obstacle clearance is a hard assertion: a sample on or
    inside the disk raises :class:`InsideObstacle`.
    """
    scenario = build_scenario(config)
    wall_start = time.perf_counter()
    arc = solve(scenario.system, scenario.x0, scenario.config)

    flow_violations = monitor_flow_decrease(
        arc,
        scenario.true_potential,
        tol=config.flow_tol,
    )
    jump_violations = monitor_jump_decrease(
        arc,
        scenario.true_potential,
        scenario.margin_at,
        tol=config.jump_tol,
    )
    domain_problems = validate_domain(arc)
    if domain_problems:
        raise MalformedArc(
            "solver produced an ill-formed arc: " + "; ".join(domain_problems)
        )

    min_clearance = math.inf
    for _, _, state in arc.iter_samples():
        z = scenario.planar(state)
        min_clearance = min(
            min_clearance, float(np.linalg.norm(z - scenario.obstacle.center))
        )
    if not min_clearance > scenario.obstacle.radius:
        raise InsideObstacle(
            f"trajectory reached distance {min_clearance} from the obstacle "
            f"center (radius {scenario.obstacle.radius})"
        )

    final_state = arc.final_state
    final_z = scenario.planar(final_state)
    est_err = float(
        np.linalg.norm(scenario.estimate(final_state) - scenario.theta)
    )
    wall = time.perf_counter() - wall_start

    summary = RunSummary(
        final_time=arc.final_time,
        jump_count=arc.jump_count,
        final_dist_origin=float(np.linalg.norm(final_z)),
        final_estimation_error=est_err,
        min_obstacle_clearance=min_clearance,
        flow_violations=len(flow_violations),
        jump_violations=len(jump_violations),
        wall_clock_seconds=wall,
    )

    if config.out is not None:
        emit_csv(arc, scenario, config.out)
    if config.summary is not None:
        write_summary(summary, config.summary)
    return arc, summary


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def emit_csv(arc: HybridArc, scenario: Scenario, path) -> None:
    """Write the arc as CSV, one row per sample.

    Jump instants produce two rows with the same ``t`` and incremented
    ``j`` (the last sample of one interval and the first of the next).
    Floats are written with 17 significant digits, so parsing the file
    reproduces them exactly.
    """
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
            _fmt(scenario.chart_index(state)),
            _fmt(estimate[0]),
            _fmt(estimate[1]),
            _fmt(u[0]),
            _fmt(u[1]),
            _fmt(scenario.true_potential(state)),
            _fmt(scenario.switching_gap(state)),
            _fmt(np.linalg.norm(z)),
            _fmt(np.linalg.norm(estimate - scenario.theta)),
        ]
        lines.append(",".join(row))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"writing trajectory CSV {path}: {exc}") from exc


def read_csv(path) -> dict[str, np.ndarray]:
    """Parse a trajectory CSV back into named float columns."""
    text = Path(path).read_text().splitlines()
    names = text[0].split(",")
    rows = [line.split(",") for line in text[1:] if line]
    data = np.array([[float(v) for v in row] for row in rows])
    if data.size == 0:
        data = data.reshape(0, len(names))
    return {name: data[:, k] for k, name in enumerate(names)}


def write_summary(summary: RunSummary, path) -> None:
    try:
        Path(path).write_text("\n".join(summary.lines()) + "\n")
    except OSError as exc:
        raise OSError(f"writing summary {path}: {exc}") from exc


def read_summary(path) -> dict[str, float]:
    values: dict[str, float] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        values[key.strip()] = float(value)
    return values


# ---------------------------------------------------------------------------
# Randomized verification suites.  All draw from a seeded generator and are
# deterministic given the seed; the acceptance tests run them at full size.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [f"property suite (seed {self.seed})"]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            out.append(f"  [{status}] {r.name}: {r.detail}")
        out.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return out


def _random_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    return radius * rng.uniform() ** (1.0 / dim) * direction


def projection_inequality_suite(
    seed: int, n: int = 10_000, tol: float = 1e-12
) -> SuiteResult:
    """Estimation-error alignment: projecting the rate never hurts.

    For admissible true parameters, the inner product of the estimation
    error with the projected rate is at least the unprotected one.
    """
    rng = np.random.default_rng(seed)
    ball = ParamBall(radius=1.0, eps=1.0, gain=np.eye(2))
    worst = -math.inf
    violations = 0
    for _ in range(n):
        theta = _random_ball(rng, 2, ball.radius)
        theta_hat = _random_ball(rng, 2, ball.radius + ball.eps)
        eta = rng.normal(scale=2.0, size=2)
        err = theta - theta_hat
        slack = float(err @ adaptive_mod.project_rate(eta, theta_hat, ball)) - float(
            err @ eta
        )
        worst = max(worst, -slack)
        if slack < -tol:
            violations += 1
    return SuiteResult(
        name="projection_inequality",
        passed=violations == 0,
        detail=f"{violations} violations over {n} triples (worst slack {worst:.2e})",
    )


def projection_lipschitz_suite(seed: int, n: int = 10_000) -> SuiteResult:
    """Numeric continuity probe of the rate projection.

    Estimates a Lipschitz ratio over nearby input pairs and checks that
    no pair jumps more than 10x the bulk (99th percentile) ratio, which
    a discontinuity would violate by orders of magnitude.
    """
    rng = np.random.default_rng(seed)
    ball = ParamBall(radius=1.0, eps=1.0, gain=np.eye(2))
    ratios = np.empty(n)
    for k in range(n):
        theta_hat = _random_ball(rng, 2, ball.radius + ball.eps)
        eta = rng.normal(scale=2.0, size=2)
        d_th = rng.normal(size=2)
        d_eta = rng.normal(size=2)
        scale = rng.uniform(1e-6, 1e-3)
        d_th *= scale / max(np.linalg.norm(d_th), 1e-300)
        d_eta *= scale / max(np.linalg.norm(d_eta), 1e-300)
        a = adaptive_mod.project_rate(eta, theta_hat, ball)
        b = adaptive_mod.project_rate(eta + d_eta, theta_hat + d_th, ball)
        dist = float(np.linalg.norm(d_eta) + np.linalg.norm(d_th))
        ratios[k] = float(np.linalg.norm(a - b)) / dist
    bulk = float(np.percentile(ratios, 99))
    worst = float(np.max(ratios))
    bound = 10.0 * max(1.0, bulk)
    return SuiteResult(
        name="projection_lipschitz",
        passed=worst <= bound,
        detail=f"estimated L = {worst:.3f} (99th pct {bulk:.3f}, bound {bound:.3f})",
    )


def gap_enumeration_suite(seed: int, n: int = 500) -> SuiteResult:
    """Gap algebra against exhaustive enumeration on random controllers."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n):
        # The current controller state is always one of the candidates,
        # mirroring the constant-candidate structure of the case study.
        n_cands = int(rng.integers(1, 9))
        values = [
            math.inf if rng.uniform() < 0.2 else float(rng.uniform(0.0, 10.0))
            for _ in range(n_cands)
        ]
        if all(math.isinf(v) for v in values):
            values[int(rng.integers(n_cands))] = float(rng.uniform(0.0, 10.0))
        here_idx = int(rng.integers(n_cands))
        cands = [np.array([float(k)]) for k in range(n_cands)]

        def potential(x, xi, _values=values):
            return _values[int(xi[0])]

        ctrl = ControllerData(
            n_state=1,
            feedback=lambda x, xi: np.zeros(1),
            potential=potential,
            candidates=lambda x, xi, _c=cands: _c,
            controller_flow=lambda x, xi: np.zeros(1),
            margin=lambda x, xi: 1.0,
        )
        x = np.zeros(1)
        xi = np.array([float(here_idx)])
        min_value, minimizers, gap = min_over_candidates(ctrl, x, xi)

        here = values[here_idx]
        best = min(values)
        argmin = [k for k, v in enumerate(values) if v <= best + 1e-12]
        ok = (
            min_value == best
            and [int(g[0]) for g in minimizers] == argmin
            and gap == (math.inf if math.isinf(here) else here - best)
        )
        if not ok:
            failures += 1
    return SuiteResult(
        name="gap_enumeration",
        passed=failures == 0,
        detail=f"{failures} mismatches over {n} random controllers",
    )


def _grid_disk(resolution: float, radius: float) -> np.ndarray:
    axis = np.arange(-radius, radius + resolution / 2.0, resolution)
    gx, gy = np.meshgrid(axis, axis)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts[np.einsum("ij,ij->i", pts, pts) <= radius**2]


def _generic_ball(rng: np.random.Generator) -> ParamBall:
    # Generic (non-scalar) SPD gain; the eigenvalue floor keeps the
    # inverse metric gentle enough that the grid's own discretization
    # bias stays below the agreement tolerance.
    basis = rng.normal(size=(2, 2))
    return ParamBall(radius=1.0, eps=1.0, gain=basis @ basis.T + 2.0 * np.eye(2))


def ball_distance_oracle_suite(
    seed: int, n: int = 1000, resolution: float = 1e-3, tol: float = 1e-3
) -> SuiteResult:
    """Worst-case distance term against a grid search over the ball."""
    rng = np.random.default_rng(seed)
    ball = _generic_ball(rng)
    grid = _grid_disk(resolution, ball.radius)
    # gain_inv = L L^T, so the metric is the Euclidean one after mapping
    # points through L^T; grid rows become grid @ L.  Single precision is
    # ample next to the grid's own discretization error, and the blocked
    # minimum stays cache-resident.
    chol = np.linalg.cholesky(ball.gain_inv)
    grid_m = (grid @ chol).astype(np.float32)
    grid_sq = np.einsum("ij,ij->i", grid_m, grid_m)

    inputs = np.array(
        [_random_ball(rng, 2, ball.radius + ball.eps) for _ in range(n)]
    )
    exact = np.array([ball_distance(th, ball)[0] for th in inputs])

    inputs_m = (inputs @ chol).astype(np.float32)
    best = np.full(n, math.inf, dtype=np.float32)
    block = 16384
    chunk = 512
    for g0 in range(0, grid_m.shape[0], block):
        gm = grid_m[g0 : g0 + block]
        gsq = grid_sq[g0 : g0 + block]
        for i0 in range(0, n, chunk):
            cross = gm @ inputs_m[i0 : i0 + chunk].T
            cross *= -2.0
            cross += gsq[:, None]
            np.minimum(
                best[i0 : i0 + chunk], cross.min(axis=0), out=best[i0 : i0 + chunk]
            )
    brute = best.astype(np.float64) + np.einsum(
        "ij,ij->i", inputs_m.astype(np.float64), inputs_m.astype(np.float64)
    )
    worst = float(np.max(np.abs(exact - brute)))
    return SuiteResult(
        name="ball_distance_oracle",
        passed=worst <= tol,
        detail=f"max |solver - grid| = {worst:.2e} over {n} inputs (tol {tol})",
    )


def reset_estimate_oracle_suite(
    seed: int, n: int = 1000, resolution: float = 1e-2, tol: float = 1e-2
) -> SuiteResult:
    """Estimate reset against a grid search of the worst-case drop objective.

    The reset maximizes, over candidate estimates in the inflated ball,
    the minimum over admissible parameters of the potential drop; the
    inner minimum of the linear-in-parameter part has the closed form
    ``-2 * radius * |metric @ (g - theta_hat)|``.
    """
    rng = np.random.default_rng(seed)
    ball = _generic_ball(rng)
    metric = ball.gain_inv
    grid = _grid_disk(resolution, ball.radius + ball.eps)
    grid_metric = grid @ metric.T
    grid_metric_sq = np.einsum("ij,ij->i", grid_metric, grid_metric)
    grid_quad = np.einsum("ij,ij->i", grid, grid_metric)

    def objective_at(g: np.ndarray, theta_hat: np.ndarray) -> float:
        diff = g - theta_hat
        return float(
            -2.0 * ball.radius * np.linalg.norm(metric @ diff)
            + theta_hat @ metric @ theta_hat
            - g @ metric @ g
        )

    worst = 0.0
    for _ in range(n):
        theta_hat = _random_ball(rng, 2, ball.radius + ball.eps)
        ours = objective_at(reset_estimate(theta_hat, ball), theta_hat)
        mth = metric @ theta_hat
        dist_sq = grid_metric_sq - 2.0 * grid_metric @ mth + mth @ mth
        lin = -2.0 * ball.radius * np.sqrt(np.maximum(dist_sq, 0.0))
        brute = float(np.max(lin - grid_quad)) + float(theta_hat @ mth)
        worst = max(worst, brute - ours)
    return SuiteResult(
        name="reset_estimate_oracle",
        passed=worst <= tol,
        detail=f"max objective shortfall = {worst:.2e} over {n} inputs (tol {tol})",
    )


def _random_cylinder_states(rng, obstacle, n, chart_clearance=0.05):
    """Random nonsingular cylinder states paired with chart indices.

    States closer than ``chart_clearance`` to the chart's excluded point
    are rejected; finite-difference truncation error grows without bound
    there while the analytic formulas stay exact.
    """
    states = []
    while len(states) < n:
        z = rng.uniform(-4.0, 4.0, size=2)
        dist = np.linalg.norm(z - obstacle.center)
        if dist <= obstacle.radius + 0.05:
            continue
        x = obstacle_mod.to_cylinder(z, obstacle)
        q = -1.0 if rng.uniform() < 0.5 else 1.0
        if abs(1.0 - q * x[2]) < chart_clearance:
            continue
        states.append((x, q))
    return states


def jacobian_suite(seed: int, n: int = 1000, tol: float = 1e-6) -> SuiteResult:
    """Analytic geometry Jacobians against central finite differences."""
    rng = np.random.default_rng(seed)
    obstacle = ObstacleDisk(center=np.array([1.0, 0.0]), radius=0.5)
    worst = 0.0
    for x, q in _random_cylinder_states(rng, obstacle, n):
        # The input matrix is the Jacobian of to_cylinder at the preimage.
        jac = obstacle_mod.cylinder_input_matrix(x, obstacle)
        num = central_difference(
            lambda p: obstacle_mod.to_cylinder(p, obstacle),
            obstacle_mod.from_cylinder(x, obstacle),
        )
        worst = max(worst, _rel_err(jac, num))

        jac = obstacle_mod.chart_jacobian(x, q)
        num = central_difference(lambda p: obstacle_mod.chart(p, q), x)
        worst = max(worst, _rel_err(jac, num))

        jac = obstacle_mod.gradient_feedback_jacobian(x, q, obstacle)
        num = central_difference(
            lambda p: obstacle_mod.gradient_feedback(p, q, obstacle), x
        )
        worst = max(worst, _rel_err(jac, num))

        grad = obstacle_mod.chart_potential_gradient(x, q, obstacle)
        num = central_difference(
            lambda p: obstacle_mod.chart_potential(p, q, obstacle), x
        )
        worst = max(worst, _rel_err(grad, num))
    return SuiteResult(
        name="jacobian_fd",
        passed=worst <= tol,
        detail=f"max relative error = {worst:.2e} over {n} states (tol {tol})",
    )


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def gap_identity_suite(seed: int, n: int = 200, tol: float = 1e-12) -> SuiteResult:
    """Backstep gap = robust adaptive gap + input-error quadratic.

    The identity is algebraic; in floats it holds to machine precision
    relative to the potential magnitudes involved (which grow without
    bound near a chart's excluded point), so the comparison is scaled.
    """
    rng = np.random.default_rng(seed)
    scenario = make_scenario("backstep", q0=-1.0)
    ctrl = scenario.controller
    adaptive_ctrl = ctrl.adaptive
    nominal = scenario.nominal
    ball = adaptive_ctrl.ball
    worst = 0.0
    for x, q in _random_cylinder_states(rng, scenario.obstacle, n, chart_clearance=1e-3):
        theta_hat = _random_ball(rng, 2, ball.radius + ball.eps)
        u = rng.normal(scale=2.0, size=2)
        xi1 = np.concatenate([[q], theta_hat])
        xi2 = np.concatenate([xi1, u])
        gap2 = gap_value(ctrl, x, xi2)
        robust = adaptive_mod.robust_gap(nominal, ball, x, np.array([q]), theta_hat)
        u_err = u - adaptive_ctrl.feedback(x, xi1)
        expected = robust + 0.5 * float(u_err @ ctrl.gains.gain_inv @ u_err)
        if math.isinf(gap2) or math.isinf(expected):
            if gap2 != expected:
                worst = math.inf
            continue
        scale = 1.0 + abs(expected) + float(nominal.potential(x, np.array([q])))
        worst = max(worst, abs(gap2 - expected) / scale)
    return SuiteResult(
        name="gap_identity",
        passed=worst <= tol,
        detail=f"max scaled |gap - identity| = {worst:.2e} over {n} states (tol {tol})",
    )


def property_suite(seed: int, thorough: bool = False) -> PropertyReport:
    """Run every randomized verification suite with a shared seed.

    Deterministic given ``seed``.  ``thorough`` bumps the grid-oracle
    input counts to the sizes used by the acceptance tests.
    """
    n_grid = 1000 if thorough else 200
    n_jac = 1000 if thorough else 200
    results = (
        projection_inequality_suite(seed),
        projection_lipschitz_suite(seed + 1),
        gap_enumeration_suite(seed + 2),
        ball_distance_oracle_suite(seed + 3, n=n_grid),
        reset_estimate_oracle_suite(seed + 4, n=n_grid),
        jacobian_suite(seed + 5, n=n_jac),
        gap_identity_suite(seed + 6),
    )
    return PropertyReport(seed=seed, results=results)
