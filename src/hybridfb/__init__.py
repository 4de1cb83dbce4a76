"""Hybrid dynamical-systems simulation with synergistic hybrid feedback.

The package has four layers:

* :mod:`hybridfb.hybrid` -- hybrid time domains, arcs, and the
  event-located flow/jump solver;
* :mod:`hybridfb.synergistic` -- the synergistic controller algebra
  (potentials, gaps, reset selection, closed-loop assembly, Lyapunov
  monitors);
* :mod:`hybridfb.adaptive` -- parameter projection, the adaptive lift of
  a nominal synergistic controller, and its backstepping lift;
* :mod:`hybridfb.obstacle` -- the planar obstacle-avoidance case study
  and scenario factories, with :mod:`hybridfb.runner` /
  :mod:`hybridfb.cli` executing scenarios and verification suites.
"""

from .errors import (
    ChartSingular,
    ConfigError,
    DomainEscape,
    HybridFeedbackError,
    InfeasibleCandidates,
    InsideObstacle,
    IntegrationStalled,
    JumpOutsideJumpSet,
    MalformedArc,
    NonFiniteJacobian,
    StateLengthMismatch,
    ZenoSuspected,
)
from .hybrid import (
    HybridArc,
    HybridSystemDef,
    JumpRecord,
    SolverConfig,
    apply_jump,
    solve,
    validate_domain,
)
from .synergistic import (
    AffinePlant,
    ControllerData,
    MonitorViolation,
    build_closed_loop,
    min_over_candidates,
    monitor_flow_decrease,
    monitor_jump_decrease,
    select_jump,
)
from .adaptive import (
    AdaptiveController,
    BackstepController,
    BackstepGains,
    ParamBall,
    adaptive_true_potential,
    backstep_true_potential,
    ball_distance,
    ball_excess,
    central_difference,
    estimate_flow,
    lift_adaptive,
    lift_backstep,
    project_rate,
    reset_estimate,
)
from .obstacle import (
    ObstacleDisk,
    Scenario,
    build_nominal_controller,
    chart_potential,
    chart_potential_gradient,
    from_cylinder,
    gradient_feedback,
    gradient_feedback_jacobian,
    make_affine_plant,
    make_scenario,
    to_cylinder,
)
from .runner import (
    PropertyReport,
    RunSummary,
    ScenarioConfig,
    build_scenario,
    config_from_sources,
    emit_csv,
    property_suite,
    read_config_file,
    read_csv,
    read_summary,
    run,
    write_summary,
)

__version__ = "0.1.0"
