"""Exception and warning types shared across the package."""


class HypCircleError(Exception):
    """Base class for all package errors."""


class ValidationError(HypCircleError, ValueError):
    """Invalid input data or violated construction invariant."""


class MemoryBudgetExceeded(HypCircleError):
    """A run would visit more candidates than the work cap, or hold more points than the point cap."""


class NonConvergence(HypCircleError, ArithmeticError):
    """Adaptive refinement exhausted its depth budget."""


class MethodDisagreement(UserWarning):
    """Diagnostic warning: two independent computations disagree."""
