"""Layer tracing for the benchmark's traced run, from outside the program.

``install`` replaces module attributes of hybridfb with timing wrappers
before any scenario is built: every public function of the six layers,
the controller callables the adaptive and backstepping lifts return, and
the ``HybridSystemDef`` callbacks (via ``dataclasses.replace``).  scipy's
``RK45`` is replaced, inside ``hybridfb.hybrid`` only, by a subclass that
counts constructions, steps and right-hand-side calls.  Closures that
stay unwrapped are charged to their nearest wrapped caller.

Each call makes one span (name, start, end, parent).  Spans are kept in
memory aggregated per (name, parent) as calls, inclusive time and self
time; self time is the span's duration minus the time its child spans
cover.  Nothing is written until the run ends.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import time

LAYERS = ("hybrid", "synergistic", "adaptive", "obstacle", "runner", "cli")
ROOT_SPAN = "bench.pass"

SUITES = (
    "projection_inequality",
    "projection_lipschitz",
    "gap_enumeration",
    "ball_distance_oracle",
    "reset_estimate_oracle",
    "jacobian",
    "gap_identity",
)

# Controller callables of the lifts that get a span of their own.
_CONTROLLER_FIELDS = ("feedback", "potential", "candidates", "controller_flow")


class Tracer:
    """Span aggregates and counters of one traced pass."""

    def __init__(self):
        self.stats = {}  # (name, parent) -> [calls, inclusive s, self s]
        self.counts = {
            "restarts": 0,
            "steps": 0,
            "rhs_calls": 0,
            "ball_distance_iterative": 0,
        }
        self.active = True
        self._stack = []  # open spans: [name, child seconds]

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]

        traced.__wrapped__ = fn
        return traced

    def run_root(self, fn):
        """Run ``fn`` as the root span and return (result, wall seconds)."""
        start = time.perf_counter()
        result = self.wrap(ROOT_SPAN, fn)()
        wall = time.perf_counter() - start
        self.active = False
        return result, wall

    # -- aggregation -------------------------------------------------------

    def by_name(self) -> dict:
        """Per span name: [calls, inclusive s, self s] over all parents.

        Inclusive time skips calls nested in a span of the same name, so
        recursion is not counted twice.
        """
        out = {}
        for (name, parent), (calls, incl, own) in self.stats.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[2] += own
            if parent != name:
                rec[1] += incl
        return out

    def layer_table(self) -> dict:
        """Per layer (and the benchmark's own root): self s and calls."""
        table = {layer: [0.0, 0] for layer in LAYERS + ("bench",)}
        for name, (calls, _, own) in self.by_name().items():
            layer = name.split(".", 1)[0]
            row = table["bench" if layer not in table else layer]
            row[0] += own
            if name != ROOT_SPAN:
                row[1] += calls
        return table

    def spans_json(self) -> list:
        return [
            {"name": name, "parent": parent, "calls": calls,
             "inclusive_s": incl, "self_s": own}
            for (name, parent), (calls, incl, own) in sorted(
                self.stats.items(), key=lambda kv: -kv[1][2]
            )
        ]


def _replace_everywhere(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, in every module binding them."""
    import hybridfb
    from hybridfb import adaptive, cli, hybrid, obstacle, runner, synergistic

    layers = {
        "hybrid": hybrid,
        "synergistic": synergistic,
        "adaptive": adaptive,
        "obstacle": obstacle,
        "runner": runner,
        "cli": cli,
    }
    modules = [hybridfb, *layers.values()]
    special = {
        "build_closed_loop": _closed_loop_wrapper,
        "lift_adaptive": _lift_wrapper,
        "lift_backstep": _lift_wrapper,
        "ball_distance": _ball_distance_wrapper,
    }
    for layer, module in layers.items():
        for attr, fn in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
            ):
                continue
            name = f"{layer}.{attr}"
            maker = special.get(attr)
            wrapped = maker(tracer, name, fn) if maker else tracer.wrap(name, fn)
            _replace_everywhere(modules, fn, wrapped)
    hybrid.RK45 = _counting_rk45(tracer, hybrid.RK45)


def _closed_loop_wrapper(tracer, name, fn):
    def build_closed_loop(*args, **kwargs):
        sys_def = fn(*args, **kwargs)
        return dataclasses.replace(
            sys_def,
            flow_map=tracer.wrap("synergistic.flow_map", sys_def.flow_map),
            flow_indicator=tracer.wrap(
                "synergistic.flow_indicator", sys_def.flow_indicator
            ),
            jump_indicator=tracer.wrap(
                "synergistic.jump_indicator", sys_def.jump_indicator
            ),
            jump_map=tracer.wrap("synergistic.jump_map", sys_def.jump_map),
        )

    return tracer.wrap(name, build_closed_loop)


def _lift_wrapper(tracer, name, fn):
    def lift(*args, **kwargs):
        ctrl = fn(*args, **kwargs)
        return dataclasses.replace(
            ctrl,
            **{
                field: tracer.wrap(f"{name}.{field}", getattr(ctrl, field))
                for field in _CONTROLLER_FIELDS
            },
        )

    return tracer.wrap(name, lift)


def _ball_distance_wrapper(tracer, name, fn):
    traced = tracer.wrap(name, fn)
    counts = tracer.counts

    def ball_distance(theta_hat, ball):
        # The iterative branch runs for a general gain outside the ball.
        if tracer.active and ball.scalar_gain is None:
            if math.hypot(*(float(v) for v in theta_hat)) > ball.radius:
                counts["ball_distance_iterative"] += 1
        return traced(theta_hat, ball)

    return ball_distance


def _counting_rk45(tracer, base):
    counts = tracer.counts

    class CountingRK45(base):
        def __init__(self, fun, *args, **kwargs):
            def counted(t, y):
                counts["rhs_calls"] += 1
                return fun(t, y)

            counts["restarts"] += 1
            super().__init__(counted, *args, **kwargs)

        def step(self):
            counts["steps"] += 1
            return super().step()

    return CountingRK45


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  csv_bytes: int) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    names = tracer.by_name()
    counts = tracer.counts
    table = tracer.layer_table()

    def calls(name):
        return names.get(name, [0, 0.0, 0.0])[0]

    def incl(*spans):
        return sum(names.get(n, [0, 0.0, 0.0])[1] for n in spans)

    def us_per_call(*spans):
        n = sum(calls(s) for s in spans)
        return 1e6 * incl(*spans) / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    steps = counts["steps"]
    flow_ind = calls("synergistic.flow_indicator")
    jump_ind = calls("synergistic.jump_indicator")
    hybrid_self = table["hybrid"][0]
    m = {
        "hybrid.self_s": (hybrid_self, "s"),
        "hybrid.self_us_per_step": (1e6 * ratio(hybrid_self, steps), "us"),
        "hybrid.steps": (steps, "count"),
        "hybrid.rhs_calls": (counts["rhs_calls"], "count"),
        "hybrid.rhs_per_step": (ratio(counts["rhs_calls"], steps), "ratio"),
        "hybrid.restarts": (counts["restarts"], "count"),
        "hybrid.flow_indicator_calls": (flow_ind, "count"),
        "hybrid.jump_indicator_calls": (jump_ind, "count"),
        "hybrid.indicator_per_step": (ratio(flow_ind + jump_ind, steps), "ratio"),
        "hybrid.jumps": (calls("hybrid.apply_jump"), "count"),
        "synergistic.flow_map_us": (us_per_call("synergistic.flow_map"), "us"),
        "synergistic.indicator_us": (
            us_per_call("synergistic.flow_indicator", "synergistic.jump_indicator"),
            "us",
        ),
        "synergistic.gap_us": (us_per_call("synergistic.gap_value"), "us"),
        "synergistic.jump_map_us": (us_per_call("synergistic.jump_map"), "us"),
        "synergistic.monitor_s": (
            incl("synergistic.monitor_flow_decrease", "synergistic.monitor_jump_decrease"),
            "s",
        ),
        "synergistic.self_s": (table["synergistic"][0], "s"),
        "adaptive.ball_distance_calls": (calls("adaptive.ball_distance"), "count"),
        "adaptive.ball_distance_us": (us_per_call("adaptive.ball_distance"), "us"),
        "adaptive.ball_distance_iter_frac": (
            ratio(counts["ball_distance_iterative"], calls("adaptive.ball_distance")),
            "ratio",
        ),
        "adaptive.project_rate_us": (us_per_call("adaptive.project_rate"), "us"),
        "adaptive.self_s": (table["adaptive"][0], "s"),
        "obstacle.chart_potential_us": (us_per_call("obstacle.chart_potential"), "us"),
        "obstacle.chart_potential_gradient_us": (
            us_per_call("obstacle.chart_potential_gradient"), "us",
        ),
        "obstacle.gradient_feedback_us": (us_per_call("obstacle.gradient_feedback"), "us"),
        "obstacle.feedback_jacobian_us": (
            us_per_call("obstacle.gradient_feedback_jacobian"), "us",
        ),
        "obstacle.input_matrix_us": (us_per_call("obstacle.cylinder_input_matrix"), "us"),
        "obstacle.self_s": (table["obstacle"][0], "s"),
        "runner.build_s": (incl("obstacle.make_scenario"), "s"),
        # Domain validation plus runner.run's own loop (clearance, summary).
        "runner.checks_s": (
            incl("hybrid.validate_domain") + names.get("runner.run", [0, 0.0, 0.0])[2],
            "s",
        ),
        "runner.csv_s": (incl("runner.emit_csv", "runner.write_summary"), "s"),
        "runner.csv_bytes": (csv_bytes, "B"),
        "runner.self_s": (table["runner"][0], "s"),
    }
    for suite in SUITES:
        m[f"runner.suite_s.{suite}"] = (incl(f"runner.{suite}_suite"), "s")
    m["cli.self_s"] = (table["cli"][0], "s")
    layer_total = sum(table[layer][0] for layer in LAYERS)
    m["trace.layer_share"] = (ratio(layer_total, traced_wall), "ratio")
    m["trace.overhead_frac"] = (ratio(traced_wall, untraced_wall) - 1.0, "ratio")
    return m


def format_table(tracer: Tracer, traced_wall: float) -> list[str]:
    """The per-layer table: self time, its share, calls and self us/call."""
    lines = [f"{'layer':<12} {'self_s':>9} {'share':>7} {'calls':>10} {'us/call':>9}"]
    for layer, (own, calls) in tracer.layer_table().items():
        per_call = 1e6 * own / calls if calls else 0.0
        share = own / traced_wall if traced_wall else 0.0
        lines.append(
            f"{layer:<12} {own:>9.3f} {share:>7.1%} {calls:>10d} {per_call:>9.2f}"
        )
    lines.append(f"{'traced pass':<12} {traced_wall:>9.3f}")
    return lines
