"""Exception and warning types shared across the package."""


class HypCircleError(Exception):
    """Base class for all package errors."""


class ValidationError(HypCircleError, ValueError):
    """Invalid input data or violated construction invariant."""


class ParseError(ValidationError):
    """Malformed spectral data file."""


class MemoryBudgetExceeded(HypCircleError):
    """A run would visit more candidates than the work cap, or hold more points than the point cap."""


class BoundInsufficient(ValidationError):
    """Entry bound too small to contain the requested ball.

    Carries ``required``, the smallest provably sufficient bound.
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class NonConvergence(HypCircleError, ArithmeticError):
    """Adaptive refinement exhausted its depth budget."""


class DomainError(ValidationError):
    """Argument outside the supported domain."""


class ArgumentOutOfRange(DomainError):
    """Argument outside the range where the chosen expansion is valid."""


class InsufficientCoefficients(ValidationError):
    """Not enough Fourier coefficients for the requested evaluation.

    Carries ``required``, the number of coefficients needed.
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class WindowOutOfRange(ValidationError):
    """Averaging window not covered by the sampled series."""


class ScheduleViolation(ValidationError):
    """Order schedule fails the hybrid-limit admissibility conditions."""


class MethodDisagreement(UserWarning):
    """Diagnostic warning: two independent computations disagree."""
