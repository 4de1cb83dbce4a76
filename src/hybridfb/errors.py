"""Exception types raised by the library."""

import numpy as np


class HybridFeedbackError(Exception):
    """Base class for all library errors."""


class IntegrationStalled(HybridFeedbackError):
    """Adaptive step size underflowed; the flow cannot make progress."""


class DomainEscape(HybridFeedbackError):
    """The flow left the flow set without entering the jump set, or the state space.

    Carries the offending state, as a float array, and time so callers
    can diagnose or recover.
    """

    def __init__(self, message, state=None, t=None):
        super().__init__(message)
        self.state = None if state is None else np.asarray(state, dtype=float)
        self.t = t


class JumpOutsideJumpSet(HybridFeedbackError):
    """A jump was requested at a state outside the jump set."""


class MalformedArc(HybridFeedbackError):
    """The solver returned an arc that fails ``validate_domain``."""


class ZenoSuspected(HybridFeedbackError):
    """Jump budget exhausted with almost no flow time between recent jumps."""


class InfeasibleCandidates(HybridFeedbackError):
    """No reset candidate has finite potential, or all lie above the current one."""


class InsideObstacle(HybridFeedbackError):
    """A planar point lies inside (or on) the obstacle disk."""


class ChartSingular(HybridFeedbackError):
    """A stereographic chart was evaluated at (or too close to) its excluded point."""


class NonFiniteJacobian(HybridFeedbackError):
    """A finite-difference probe produced a non-finite value."""


class ConfigError(HybridFeedbackError):
    """Invalid scenario or CLI configuration."""
