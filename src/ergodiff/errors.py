"""Exception types shared across the package."""


class ErgodiffError(Exception):
    """Base class for all package errors."""


class DomainError(ErgodiffError):
    """An operation was asked to evaluate outside its mathematical domain
    (vanishing diffusion coefficient, point outside a kernel's interval,
    out-of-range grid evaluation, inadmissible integral parameters)."""


class QuadratureFailure(ErgodiffError):
    """Base class for quadrature-level failures."""


class NonConvergenceError(QuadratureFailure):
    """The error tolerance was not met within the bisection budget or at
    floating-point panel resolution, or a moment table moved by more than
    its tolerance when every panel was halved."""


class EvaluationError(QuadratureFailure):
    """The integrand produced a non-finite value at a probed point."""


class InterpolationError(ErgodiffError):
    """Moment-table grid refinement did not reach the requested tolerance.
    No longer raised: a moment table that misses its tolerance raises
    NonConvergenceError."""


class RangeError(ErgodiffError):
    """A closed-form bound was requested outside its admissible range."""


class InconsistentParamsError(ErgodiffError):
    """Assumption parameters contradict each other (empty exponent bracket)."""


class NotPositiveRecurrentError(ErgodiffError):
    """An operation requiring positive recurrence was called on a model that
    is not (numerically) positive recurrent."""


class InconclusiveError(ErgodiffError):
    """A verdict needs a tail whose endpoint power is too close to -1 to
    tell an integrable tail from a divergent one, or whose integral is
    finite but beyond the float range."""


class MissingMomentsError(ErgodiffError):
    """A deviation bound was requested with unset or non-finite moment inputs."""


class NumericalBlowupError(ErgodiffError):
    """A simulated path left the configured guard interval, which usually
    signals simulation of a non-recurrent model; or a moment that the
    tail verdict calls finite overflowed the float range."""


class ExcessCensoringError(ErgodiffError):
    """Too many hitting-time replicas were censored by the horizon."""


class InsufficientCyclesError(ErgodiffError):
    """Replicas did not complete enough regeneration cycles for estimation."""


class ConfigError(ErgodiffError):
    """Invalid configuration file or experiment description."""


class ExpressionError(ConfigError):
    """Expression parse/evaluation error; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at column {position + 1})"
        super().__init__(message)
        self.position = position
