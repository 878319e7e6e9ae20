"""Exception types shared across the solver modules."""


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    Carries the best iterate found so far in ``best`` (may be None).
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class StationarityError(ValueError):
    """A fluctuation expansion was requested at a non-stationary point."""


class InstabilityError(RuntimeError):
    """The fluctuation spectrum has non-real eigenvalues.

    Signals that the input state is not a stable minimum (for example at a
    spinodal), where the harmonic expansion breaks down.
    """


class DegenerateModeError(RuntimeError):
    """A zero or negative fluctuation mode: no quasi-particle vector normalizes."""


class CatalystRangeError(ValueError):
    """A catalyst-strength optimization range contains a first-order transition."""

    def __init__(self, message, xi=None):
        super().__init__(message)
        self.xi = xi


class SizeError(ValueError):
    """A requested diagonalization exceeds the configured size budget."""


class ConfigError(ValueError):
    """An experiment configuration file is missing, malformed, or inconsistent."""
