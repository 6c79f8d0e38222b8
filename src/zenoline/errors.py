"""Exception hierarchy shared by all zenoline modules."""


class ZenolineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ZenolineError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DivergenceError(ZenolineError, ValueError):
    """Requested integral or series does not converge for these parameters."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class AccuracyError(ZenolineError):
    """QUADPACK (``specfun.improper_quad``) failed to reach the requested
    tolerance; the closed-form Bose integrals never raise it.

    The best available estimate is carried in ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ResourceError(ZenolineError):
    """A configured resource guard (table size, state count) was exceeded."""


class BracketError(ZenolineError, ValueError):
    """Root bracket does not contain a sign change."""


class SolverError(ZenolineError, RuntimeError):
    """Iterative solver failed to converge; diagnostics in the message."""


class DegenerateError(ZenolineError):
    """Stationary points have merged (or do not exist) for these parameters."""


class CausticError(ZenolineError, ValueError):
    """Roots become complex past the caustic (turning) point."""
