"""Exception types shared across the library."""


class VarredError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(VarredError):
    """Operands have incompatible dimensions."""


class NonConvergence(VarredError):
    """An iterative solver exhausted its iteration budget.

    Carries the final residual so callers can decide whether the partial
    result is usable.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NonFinite(VarredError, ValueError):
    """An operand has NaN or infinite entries, as given or after an overflow.

    Also a :class:`ValueError`, since the operand is an invalid argument.
    """


class NotSPD(VarredError):
    """A matrix required to be symmetric positive definite is not."""


class ConstructionFailure(VarredError):
    """A randomized constructor could not produce a valid instance."""


class DegenerateCurvature(VarredError):
    """Curvature along the requested direction is not positive."""


class NotDescentDirection(VarredError, ValueError):
    """A line search was given a direction d with g'd >= 0.

    Also a :class:`ValueError`, since the direction is an invalid argument.
    """


class LineSearchFailure(VarredError):
    """Backtracking exhausted its trial budget without sufficient decrease."""

    def __init__(self, message, last_step=None, last_value=None):
        super().__init__(message)
        self.last_step = last_step
        self.last_value = last_value


class MaxIterReached(VarredError):
    """An outer optimization loop hit its iteration cap.

    The convergence record accumulated so far is attached.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class ConfigError(VarredError):
    """An experiment configuration is malformed or inconsistent."""
