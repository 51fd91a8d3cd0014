"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of an operation."""


class MassParseError(ValueError):
    """A mass string could not be parsed."""


class ConvergenceError(RuntimeError):
    """A quadrature did not reach the requested tolerance.

    Carries the best available estimate and its error so callers can
    inspect how far the computation got before giving up.
    """

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error
