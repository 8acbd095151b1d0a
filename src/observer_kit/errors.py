"""Exception hierarchy shared by all observer-kit modules."""


class ObserverKitError(Exception):
    """Base class for every toolkit-specific error."""


class DimensionError(ObserverKitError, ValueError):
    """Inputs have inconsistent or unexpected shapes."""


class AssumptionViolationError(ObserverKitError):
    """A standing assumption does not hold for the given problem data.

    Raised when the communication graph is not strongly connected, the
    system is not jointly observable, or a derived quantity that those
    assumptions guarantee (a positive coupling bound epsilon) fails to
    materialize. An observable block whose
    Gramian is too ill-conditioned to invert meets both assumptions and
    raises `NumericalFailureError` instead.
    """


class NumericalFailureError(ObserverKitError):
    """A numerical routine failed to converge or missed its residual bound."""


class SingularEquationError(NumericalFailureError):
    """A matrix equation has no unique solution (eigenvalue resonance)."""


class DivergenceError(ObserverKitError):
    """Simulation produced a non-finite state."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class InsufficientDataError(ObserverKitError):
    """Too few samples to carry out an estimate."""


class ConfigError(ObserverKitError, ValueError):
    """A configuration or input document is malformed."""
