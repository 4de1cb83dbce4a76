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


class StateLengthMismatch(HybridFeedbackError):
    """A solver callback returned a state of the wrong length.

    ``callback`` names it (``flow_map``, ``jump_map`` or
    ``project_state``); ``expected`` is the state's length and ``got``
    the length of what it returned.
    """

    def __init__(self, callback, expected, got):
        super().__init__(
            f"{callback} returned {got} values for a state of {expected}"
        )
        self.callback, self.expected, self.got = callback, expected, got


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
