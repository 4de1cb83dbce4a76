"""Scenario runner: configuration, execution, outputs, and verification suites.

Configuration is flat ``key = value`` text (``#`` comments allowed);
command-line flags override file values.  Trajectories are emitted as
CSV with 17-significant-digit decimals so a round-trip parse reproduces
every float bit for bit, and run summaries as ``key = value`` text with
fixed key names.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import adaptive as adaptive_mod
from . import obstacle as obstacle_mod
from .adaptive import (
    ParamBall,
    _dot,
    _norm,
    ball_distance,
    central_difference,
    reset_estimate,
)
from .errors import ChartSingular, ConfigError, InsideObstacle, MalformedArc
from .hybrid import HybridArc, SolverConfig, solve, validate_domain
from .obstacle import ObstacleDisk, Scenario, make_scenario
from .synergistic import (
    ControllerData,
    min_over_candidates,
    monitor_flow_decrease,
    monitor_jump_decrease,
)

CSV_HEADER = (
    "t,j,z1,z2,x1,x2,x3,q,that1,that2,u1,u2,"
    "V_true,gap_robust,dist_origin,est_err"
)
CSV_COLUMNS = tuple(CSV_HEADER.split(","))
# One row and its newline: the jump index as an integer and every float
# with 17 significant digits.
CSV_ROW = ",".join(["%.17g", "%d"] + ["%.17g"] * (len(CSV_COLUMNS) - 2)) + "\n"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one run.

    ``seed`` only affects the randomized verification suites; the
    simulation itself is deterministic.  Every float and two-component
    field must be finite, and the monitor tolerances ``flow_tol`` and
    ``jump_tol`` and the seed nonnegative; ``out`` and ``summary`` must
    name different files.  The declared field types give the configuration
    file's value parsers.
    """

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
    t_max: float = SolverConfig.t_max
    j_max: int = SolverConfig.j_max
    abs_tol: float = SolverConfig.abs_tol
    rel_tol: float = SolverConfig.rel_tol
    event_tol: float = SolverConfig.event_tol
    max_step: float = SolverConfig.max_step
    flow_tol: float = 1e-6
    jump_tol: float = 1e-9
    out: Optional[str] = None
    summary: Optional[str] = None
    strict: bool = False
    seed: int = 0

    def __post_init__(self):
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
        for name in ("flow_tol", "jump_tol", "seed"):
            value = getattr(self, name)
            if value < 0.0:
                raise ConfigError(f"{name} must be nonnegative, got {value}")
        both = self.out is not None and self.summary is not None
        if both and os.path.realpath(self.out) == os.path.realpath(self.summary):
            raise ConfigError(f"out and summary are both {self.out}")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            **{field.name: getattr(self, field.name) for field in fields(SolverConfig)}
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


# Value parser of each configuration key, by its declared field type.
_TYPE_PARSERS = {
    "str": str,
    "Optional[str]": str,
    "float": float,
    "int": int,
    "bool": _parse_bool,
    "tuple": _parse_vec2,
}
_FIELD_PARSERS: dict[str, Callable[[str], object]] = {
    field.name: _TYPE_PARSERS[field.type] for field in fields(ScenarioConfig)
}


def read_config_file(path) -> dict:
    """Parse a flat ``key = value`` configuration file; each key once."""
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
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
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
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
    """Headline numbers of one run, serializable as key = value text.

    ``wall_clock_seconds`` is the host time of the solve, the monitors and
    the checks (domain validation, obstacle clearance), including the one
    pass over the arc they read.  It excludes building the scenario and
    writing the CSV and the summary.  It is the one field that is not
    deterministic.  :meth:`lines` writes the fields in order, each float
    with 17 significant digits.
    """

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
            f"{f.name} = {getattr(self, f.name):{'.17g' if f.type == 'float' else ''}}"
            for f in fields(self)
        ]


SUMMARY_KEYS = tuple(f.name for f in fields(RunSummary))


def run(config: ScenarioConfig) -> tuple[HybridArc, RunSummary]:
    """Execute one scenario: solve, monitor, and write any outputs.

    Both Lyapunov monitors use the true parameter of the scenario; their
    violation counts land in the summary (and drive the strict exit code
    at the CLI).  Obstacle clearance is a hard assertion: a sample on or
    inside the disk raises :class:`InsideObstacle`.  One pass over the
    arc (:func:`sample_columns`) gives the values the monitors, the
    clearance check, the summary and the CSV read.
    """
    scenario = build_scenario(config)
    wall_start = time.perf_counter()
    arc = solve(scenario.system, scenario.x0, scenario.config)
    domain_problems = validate_domain(arc)
    if domain_problems:
        raise MalformedArc(
            "solver produced an ill-formed arc: " + "; ".join(domain_problems)
        )

    columns = sample_columns(arc, scenario)
    potential = columns["V_true"]
    flow_violations = monitor_flow_decrease(arc, potential, tol=config.flow_tol)
    jump_violations = monitor_jump_decrease(
        arc, potential, scenario.margin_at, tol=config.jump_tol
    )

    planar = np.column_stack([columns["z1"], columns["z2"]])
    clearance = _row_norms(planar - scenario.obstacle.center).tolist()
    # A running minimum from +inf, as a loop takes it: NaN never wins.
    min_clearance = min([math.inf, *clearance])
    if not min_clearance > scenario.obstacle.radius:
        raise InsideObstacle(
            f"trajectory reached distance {min_clearance} from the obstacle "
            f"center (radius {scenario.obstacle.radius})"
        )
    wall = time.perf_counter() - wall_start

    summary = RunSummary(
        final_time=arc.final_time,
        jump_count=arc.jump_count,
        final_dist_origin=float(columns["dist_origin"][-1]),
        final_estimation_error=float(columns["est_err"][-1]),
        min_obstacle_clearance=min_clearance,
        flow_violations=len(flow_violations),
        jump_violations=len(jump_violations),
        wall_clock_seconds=wall,
    )

    if config.out is not None:
        emit_csv(arc, scenario, config.out, columns=columns)
    if config.summary is not None:
        write_summary(summary, config.summary)
    return arc, summary


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The 2-norm of each row: ``sqrt`` of its squares added left to right.

    Elementwise products and sums, one column at a time, with no BLAS
    call, so the bits are those of :func:`~hybridfb.adaptive._norm` on
    each row, under every BLAS kernel.
    """
    total = rows[:, 0] * rows[:, 0]
    for k in range(1, rows.shape[1]):
        total += rows[:, k] * rows[:, k]
    return np.sqrt(total)


def sample_columns(arc: HybridArc, scenario: Scenario) -> dict[str, np.ndarray]:
    """Every CSV column of ``arc``, by name, from one pass over its samples.

    Each state is read once, by ``scenario.readout``; ``dist_origin`` and
    ``est_err`` are the norms of the planar point and of the estimation
    error.  Every value is bit for bit the one the per-sample
    ``Scenario`` methods and :func:`~hybridfb.adaptive._norm` give.  The
    readout reads each interval's states through one ``tolist()``.
    """
    readout = scenario.readout
    rows = (
        (t, j, *readout(state))
        for j, (times, states) in enumerate(arc.samples)
        for t, state in zip(times.tolist(), states.tolist())
    )
    # Streamed into the array: no list of every sample's values is kept.
    shape = (sum(len(times) for times, _ in arc.samples), len(CSV_COLUMNS) - 2)
    table = np.fromiter(
        itertools.chain.from_iterable(rows), float, count=shape[0] * shape[1]
    ).reshape(shape)
    columns = dict(zip(CSV_COLUMNS, table.T))
    columns["dist_origin"] = _row_norms(table[:, 2:4])
    columns["est_err"] = _row_norms(table[:, 8:10] - scenario.theta)
    return columns


def emit_csv(arc: HybridArc, scenario: Scenario, path, columns=None) -> None:
    """Write the arc as CSV, one row per sample.

    Jump instants produce two rows with the same ``t`` and incremented
    ``j`` (the last sample of one interval and the first of the next).
    Floats are written with 17 significant digits, so parsing the file
    reproduces them exactly.  ``columns`` are the arc's
    :func:`sample_columns`, built here when not given.
    """
    if columns is None:
        columns = sample_columns(arc, scenario)
    table = np.column_stack([columns[name] for name in CSV_COLUMNS])
    try:
        with open(path, "w") as out:
            out.write(CSV_HEADER + "\n")
            out.writelines(CSV_ROW % tuple(row.tolist()) for row in table)
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


def _worse(worst: float, value: float) -> float:
    """``max(worst, value)``, except that a NaN on either side wins.

    ``max`` keeps its first argument when the second is NaN, so a suite
    folding its error with it would read a NaN result as no error at all;
    with this fold the NaN reaches the suite's ``worst <= tol`` and fails it.
    """
    return value if value > worst or math.isnan(value) else worst


def _random_ball(rng: np.random.Generator, dim: int, radius: float) -> list:
    """A uniform draw from the ``dim``-ball of ``radius``, as a list of floats.

    ``rng.random()`` draws the value ``rng.uniform()`` draws, at a third of
    its cost.
    """
    direction = rng.normal(size=dim).tolist()
    norm = _norm(direction)
    scale = radius * rng.random() ** (1.0 / dim)
    return [scale * (d / norm) for d in direction]


PROJECTION_INEQUALITY_TOL = 1e-12


def projection_inequality_suite(seed: int, n: int = 10_000) -> SuiteResult:
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
        eta = rng.normal(scale=2.0, size=2).tolist()
        err = [a - b for a, b in zip(theta, theta_hat)]
        projected = adaptive_mod.project_rate(eta, theta_hat, ball)
        slack = _dot(err, projected) - _dot(err, eta)
        worst = _worse(worst, -slack)
        if not slack >= -PROJECTION_INEQUALITY_TOL:  # a NaN slack is a violation too
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
    a discontinuity would violate by orders of magnitude.  The pair's
    scale is ``rng.uniform(1e-6, 1e-3)``, drawn as the same value
    ``1e-6 + (1e-3 - 1e-6) * rng.random()``.
    """
    rng = np.random.default_rng(seed)
    ball = ParamBall(radius=1.0, eps=1.0, gain=np.eye(2))
    ratios = np.empty(n)
    for k in range(n):
        theta_hat = _random_ball(rng, 2, ball.radius + ball.eps)
        eta = rng.normal(scale=2.0, size=2).tolist()
        d_th = rng.normal(size=2).tolist()
        d_eta = rng.normal(size=2).tolist()
        scale = 1e-6 + (1e-3 - 1e-6) * rng.random()
        th_step = scale / max(_norm(d_th), 1e-300)
        eta_step = scale / max(_norm(d_eta), 1e-300)
        d_th = [d * th_step for d in d_th]
        d_eta = [d * eta_step for d in d_eta]
        a = adaptive_mod.project_rate(eta, theta_hat, ball)
        b = adaptive_mod.project_rate(
            [e + d for e, d in zip(eta, d_eta)],
            [t + d for t, d in zip(theta_hat, d_th)],
            ball,
        )
        ratios[k] = _norm([x - y for x, y in zip(a, b)]) / (_norm(d_eta) + _norm(d_th))
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
            margin=1.0,
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


@dataclass(frozen=True)
class _DiskRows:
    """Square-lattice points in a disk, stored as one table entry per row.

    The lattice is ``axis x axis`` with ``axis`` the ``np.arange`` from
    ``-radius`` to ``radius`` in steps of ``resolution``.  Row ``i`` holds
    the points ``(axis[k], y[i])`` for ``first[i] <= k <= last[i]``; rows
    run in rising ``y`` and points in rising ``x``, and rows without a
    point in the disk are left out.
    """

    resolution: float
    axis: np.ndarray
    y: np.ndarray
    first: np.ndarray
    last: np.ndarray

    def points(self) -> np.ndarray:
        """The rows' points in order, as an ``(n, 2)`` array."""
        xs = [self.axis[a : b + 1] for a, b in zip(self.first, self.last)]
        ys = np.repeat(self.y, self.last - self.first + 1)
        return np.column_stack([np.concatenate(xs), ys])

    def flat_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Index of each row's first and last point in ``points()``."""
        last = np.cumsum(self.last - self.first + 1) - 1
        return last - (self.last - self.first), last


def _disk_rows(resolution: float, radius: float) -> _DiskRows:
    """Row table of the lattice points ``p`` with ``p . p <= radius**2``.

    Membership is tested one row at a time.  Along a row ``x * x`` falls
    and then rises, so each row's points inside form one run of
    ``axis`` indices and the table stores only its ends.
    """
    axis = np.arange(-radius, radius + resolution / 2.0, resolution)
    row = np.empty((axis.size, 2))
    row[:, 0] = axis
    ys, first, last = [], [], []
    for y in axis:
        row[:, 1] = y
        inside = np.flatnonzero(np.einsum("ij,ij->i", row, row) <= radius**2)
        if inside.size:
            ys.append(y)
            first.append(inside[0])
            last.append(inside[-1])
    return _DiskRows(resolution, axis, np.array(ys), np.array(first), np.array(last))


def _generic_ball(rng: np.random.Generator) -> ParamBall:
    # Generic (non-scalar) SPD gain; the eigenvalue floor keeps the
    # inverse metric gentle enough that the grid's own discretization
    # bias stays below the agreement tolerance.
    basis = rng.normal(size=(2, 2))
    return ParamBall(radius=1.0, eps=1.0, gain=basis @ basis.T + 2.0 * np.eye(2))


def _grid_min_distance(
    rows: _DiskRows, metric: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Exact float64 minimum of ``(g - p)^T metric (g - p)`` over the lattice.

    On a row of ``rows`` the distance is a convex parabola in ``x`` with
    vertex ``x* = p_x - (metric_01 / metric_00) * (y - p_y)``, so the
    row's minimum is at its point nearest ``x*``; the neighbours either
    side cover rounding of that index.  Returns one minimum per point.
    """
    axis, first, last = rows.axis, rows.first, rows.last
    row_x0 = axis[first]
    m00, m01, m11 = metric[0, 0], metric[0, 1], metric[1, 1]
    out = np.empty(len(points))
    # A block of points at a time keeps the (points x rows) work arrays
    # small.
    block = 32
    for lo in range(0, len(points), block):
        px = points[lo : lo + block, :1]
        dy = rows.y - points[lo : lo + block, 1:]
        x_star = px - (m01 / m00) * dy
        nearest = first + np.rint((x_star - row_x0) / rows.resolution)
        dy_term = m11 * dy * dy
        best = np.full(dy.shape, math.inf)
        for offset in (-1, 0, 1):
            idx = np.clip(nearest + offset, first, last).astype(np.intp)
            dx = axis[idx] - px
            np.minimum(best, dx * (m00 * dx + 2.0 * m01 * dy) + dy_term, out=best)
        out[lo : lo + block] = best.min(axis=1)
    return out


BALL_DISTANCE_GRID = 1e-3
BALL_DISTANCE_TOL = 1e-3


def ball_distance_oracle_suite(seed: int, n: int = 1000) -> SuiteResult:
    """Worst-case distance term against a grid search over the ball.

    The oracle is the exact float64 minimum of the gain-metric distance
    over every lattice point of ``_disk_rows(BALL_DISTANCE_GRID, radius)``,
    reduced row by row (``_grid_min_distance``); it never consults the
    solver.
    """
    rng = np.random.default_rng(seed)
    ball = _generic_ball(rng)
    rows = _disk_rows(BALL_DISTANCE_GRID, ball.radius)
    inputs = np.array(
        [_random_ball(rng, 2, ball.radius + ball.eps) for _ in range(n)]
    )
    exact = np.array([ball_distance(th, ball)[0] for th in inputs])
    brute = _grid_min_distance(rows, ball.gain_inv, inputs)
    worst = float(np.max(np.abs(exact - brute)))
    return SuiteResult(
        name="ball_distance_oracle",
        passed=worst <= BALL_DISTANCE_TOL,
        detail=f"max |solver - grid| = {worst:.2e} over {n} inputs (tol {BALL_DISTANCE_TOL})",
    )


def _drop_objective(points: np.ndarray, metric: np.ndarray, radius: float):
    """Per-point objective of the reset oracle, minus its constant term.

    Returns ``value(idx, mth, mth_sq)``: for each input ``b``, with
    ``mth[b] = metric @ theta_hat`` and ``mth_sq[b] = mth[b] @ mth[b]``,
    the value ``-2 radius |metric (g - theta_hat)| - g^T metric g`` at the
    points ``g = points[idx[b]]``.  The cross term is one matrix-vector
    product per input over the gathered points, which gives each point
    the value a product over all of ``points`` gives it.
    """
    grid_metric = points @ metric.T
    grid_metric_sq = np.einsum("ij,ij->i", grid_metric, grid_metric)
    grid_quad = np.einsum("ij,ij->i", points, grid_metric)

    def value(idx: np.ndarray, mth: np.ndarray, mth_sq: np.ndarray) -> np.ndarray:
        gathered = np.take(grid_metric, idx, axis=0)
        cross = np.matmul(gathered, mth[:, :, None])[..., 0]
        dist_sq = np.take(grid_metric_sq, idx) - 2.0 * cross + mth_sq[:, None]
        lin = -2.0 * radius * np.sqrt(np.maximum(dist_sq, 0.0))
        return lin - np.take(grid_quad, idx)

    return value


def _row_search_max(
    value: Callable[[np.ndarray], np.ndarray],
    first: np.ndarray,
    last: np.ndarray,
    n: int,
) -> np.ndarray:
    """Maximum of ``value`` over index rows on which it is unimodal.

    Row ``r`` is the index run ``first[r] .. last[r]``; ``value`` maps an
    ``(n, rows)`` index array to the values of ``n`` inputs there.  Each
    row's maximum is found by bisection on the sign of the forward
    difference, for every row and input at once; the two indices either
    side of the bisection's end are evaluated too, so that a forward
    difference rounded to the wrong sign beside the peak cannot lose it.
    Returns the maximum over all rows, one per input.
    """
    lo = np.repeat(first[None, :], n, axis=0)
    hi = np.repeat(last[None, :], n, axis=0)
    for _ in range(int(np.max(last - first)).bit_length()):
        mid = (lo + hi) // 2
        rising = value(np.minimum(mid + 1, hi)) > value(mid)
        lo = np.where(rising, mid + 1, lo)
        hi = np.where(rising, hi, mid)
    best = value(lo)
    for offset in (-2, -1, 1, 2):
        np.maximum(best, value(np.clip(lo + offset, first, last)), out=best)
    return best.max(axis=1)


RESET_ESTIMATE_GRID = 1e-2
RESET_ESTIMATE_TOL = 1e-2


def reset_estimate_oracle_suite(seed: int, n: int = 1000) -> SuiteResult:
    """Estimate reset against a grid search of the worst-case drop objective.

    The reset maximizes, over candidate estimates in the inflated ball,
    the minimum over admissible parameters of the potential drop; the
    inner minimum of the linear-in-parameter part has the closed form
    ``-2 * radius * |metric @ (g - theta_hat)|``.  The oracle is the
    float64 maximum of that objective over the lattice points of
    ``_disk_rows(RESET_ESTIMATE_GRID, radius + eps)``.  With the metric
    symmetric positive definite the objective is concave (a negated norm of an
    affine map minus a positive definite quadratic), so on each lattice
    row it rises to one peak and then falls: ``_row_search_max`` finds
    each row's maximum by bisection plus a +-2-point window, and returns
    the value a scan of every point returns.
    """
    rng = np.random.default_rng(seed)
    ball = _generic_ball(rng)
    metric = ball.gain_inv
    rows = _disk_rows(RESET_ESTIMATE_GRID, ball.radius + ball.eps)
    value = _drop_objective(rows.points(), metric, ball.radius)
    row_first, row_last = rows.flat_bounds()

    def objective_at(g: np.ndarray, theta_hat: np.ndarray) -> float:
        return float(
            -2.0 * ball.radius * _norm(metric @ (g - theta_hat))
            + theta_hat @ metric @ theta_hat
            - g @ metric @ g
        )

    # Per input: the closed-form reset's objective, metric @ theta_hat,
    # its square and the constant term theta_hat^T metric theta_hat.
    ours, mth, mth_sq, const = np.empty(n), np.empty((n, 2)), np.empty(n), np.empty(n)
    for k in range(n):
        theta_hat = _random_ball(rng, 2, ball.radius + ball.eps)
        ours[k] = objective_at(reset_estimate(theta_hat, ball), theta_hat)
        mth[k] = metric @ theta_hat
        mth_sq[k] = mth[k] @ mth[k]
        const[k] = theta_hat @ mth[k]
    worst = 0.0
    # A block of inputs at a time keeps the (inputs x rows) work arrays
    # small.
    block = 100
    for lo in range(0, n, block):
        part = slice(lo, lo + block)
        m, m_sq = mth[part], mth_sq[part]
        best = _row_search_max(
            lambda idx: value(idx, m, m_sq), row_first, row_last, len(m)
        )
        for shortfall in best + const[part] - ours[part]:
            worst = _worse(worst, float(shortfall))
    return SuiteResult(
        name="reset_estimate_oracle",
        passed=worst <= RESET_ESTIMATE_TOL,
        detail=f"max objective shortfall = {worst:.2e} over {n} inputs (tol {RESET_ESTIMATE_TOL})",
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
        dist = _norm(z - obstacle.center)
        if dist <= obstacle.radius + 0.05:
            continue
        x = obstacle_mod.to_cylinder(z, obstacle)
        q = -1.0 if rng.uniform() < 0.5 else 1.0
        if abs(1.0 - q * x[2]) < chart_clearance:
            continue
        states.append((x, q))
    return states


JACOBIAN_TOL = 1e-6


def jacobian_suite(seed: int, n: int = 1000) -> SuiteResult:
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
        worst = _worse(worst, _rel_err(jac, num))

        jac = obstacle_mod.gradient_feedback_jacobian(x, q, obstacle)
        num = central_difference(
            lambda p: obstacle_mod.gradient_feedback(p, q, obstacle), x
        )
        worst = _worse(worst, _rel_err(jac, num))

        grad = obstacle_mod.chart_potential_gradient(x, q, obstacle)
        num = central_difference(
            lambda p: obstacle_mod.chart_potential(p, q, obstacle), x
        )
        worst = _worse(worst, _rel_err(grad, num))
    return SuiteResult(
        name="jacobian_fd",
        passed=worst <= JACOBIAN_TOL,
        detail=f"max relative error = {worst:.2e} over {n} states (tol {JACOBIAN_TOL})",
    )


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """``max|analytic - numeric| / max(1, max|analytic|)`` over the entries.

    Folded on floats with :func:`_worse`, so a NaN entry makes it NaN, as
    numpy's ``max`` would.
    """
    scale, err = 1.0, 0.0
    for a, b in zip(np.ravel(analytic).tolist(), np.ravel(numeric).tolist()):
        scale = _worse(scale, abs(a))
        err = _worse(err, abs(a - b))
    return err / scale


GAP_IDENTITY_TOL = 1e-12


def gap_identity_suite(seed: int, n: int = 200) -> SuiteResult:
    """Each lift's closed-form gap = enumeration over its reset candidates.

    Compares ``ctrl.gap`` with ``ControllerData.gap(ctrl, ...)`` for the
    backstep lift and its adaptive lift on the same draws.  The identity
    is algebraic; in floats it holds to machine precision relative to the
    potential magnitudes involved (which grow without bound near a
    chart's excluded point), so the comparison is scaled.
    """
    rng = np.random.default_rng(seed)
    scenario = make_scenario("backstep", q0=-1.0)
    backstep = scenario.controller
    adaptive_ctrl = backstep.adaptive
    nominal = scenario.nominal
    ball = adaptive_ctrl.ball
    worst = 0.0
    for x, q in _random_cylinder_states(rng, scenario.obstacle, n, chart_clearance=1e-3):
        theta_hat = _random_ball(rng, 2, ball.radius + ball.eps)
        u = rng.normal(scale=2.0, size=2)
        xi1 = np.concatenate([[q], theta_hat])
        xi2 = np.concatenate([xi1, u])
        for ctrl, xi in ((backstep, xi2), (adaptive_ctrl, xi1)):
            closed = ctrl.gap(x, xi)
            enumerated = ControllerData.gap(ctrl, x, xi)
            if math.isinf(closed) or math.isinf(enumerated):
                if closed != enumerated:
                    worst = math.inf
                continue
            scale = 1.0 + abs(enumerated) + float(nominal.potential(x, np.array([q])))
            worst = _worse(worst, abs(closed - enumerated) / scale)
    return SuiteResult(
        name="gap_identity",
        passed=worst <= GAP_IDENTITY_TOL,
        detail=f"max scaled |gap - identity| = {worst:.2e} over {n} states (tol {GAP_IDENTITY_TOL})",
    )


def _suite_calls(seed: int, thorough: bool) -> tuple:
    """The report's suites in order, each bound to its seed and size.

    Suite ``k`` runs at ``seed + k``.  ``thorough`` bumps the grid-oracle
    and Jacobian input counts to the sizes used by the acceptance tests.
    """
    n = 1000 if thorough else 200
    return (
        partial(projection_inequality_suite, seed),
        partial(projection_lipschitz_suite, seed + 1),
        partial(gap_enumeration_suite, seed + 2),
        partial(ball_distance_oracle_suite, seed + 3, n=n),
        partial(reset_estimate_oracle_suite, seed + 4, n=n),
        partial(jacobian_suite, seed + 5, n=n),
        partial(gap_identity_suite, seed + 6),
    )


def _run_suite(position: int, seed: int, thorough: bool) -> SuiteResult:
    """Run the report's suite at ``position``; one worker process's task.

    A worker is sent the position, not the suite: the suite is looked up
    here, so no function that a tracer or a test has replaced with a
    closure needs to be pickled.
    """
    return _suite_calls(seed, thorough)[position]()


def map_in_workers(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, each call a task in a worker process.

    The pool has ``min(len(items), usable CPUs)`` workers, the usable
    CPUs being this process's CPU affinity where the platform reports it
    and ``os.cpu_count()`` otherwise.  ``fn`` is pickled by reference, so
    it must be a module-level function or a ``functools.partial`` of one.
    Results come in the order of ``items``; the first item whose call
    raised raises that exception here.  The pool is shut down, and its
    processes joined, before this returns or raises.
    """
    # Imported here: the pool's modules cost every fresh interpreter's
    # start-up, and only this function needs them.
    from concurrent.futures import ProcessPoolExecutor

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    with ProcessPoolExecutor(max_workers=min(len(items), cpus)) as pool:
        return list(pool.map(fn, items))


def property_suite(seed: int, thorough: bool = False) -> PropertyReport:
    """Run every randomized verification suite with a shared seed.

    Deterministic given ``seed``; :func:`_suite_calls` gives each suite
    its seed and size.  The suites run one per task on
    :func:`map_in_workers`' pool, and the report lists them in a fixed
    order, byte for byte the report of running them one after another.
    """
    positions = range(len(_suite_calls(seed, thorough)))
    run_one = partial(_run_suite, seed=seed, thorough=thorough)
    return PropertyReport(seed=seed, results=tuple(map_in_workers(run_one, positions)))
