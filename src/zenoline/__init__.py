"""Zeno-line phase-diagram numerics.

Compressibility-factor curves from effective two-body scattering,
fractal-index Bose-type equations of state, and the number-theoretic
partition machinery behind condensate thresholds.
"""

__version__ = "0.1.0"

from . import diagram, ensemble, partition, scatter, specfun
from .curves import PhaseCurve
from .errors import (AccuracyError, BracketError, CausticError,
                     DegenerateError, DivergenceError, DomainError,
                     PoleError, ResourceError, SolverError, ZenolineError)

__all__ = [
    "__version__",
    "PhaseCurve",
    "ZenolineError",
    "DomainError",
    "DivergenceError",
    "PoleError",
    "AccuracyError",
    "ResourceError",
    "BracketError",
    "SolverError",
    "DegenerateError",
    "CausticError",
    "specfun",
    "partition",
    "scatter",
    "diagram",
    "ensemble",
]
