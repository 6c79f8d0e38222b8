"""Zeno-line phase-diagram numerics.

Compressibility-factor curves from effective two-body scattering,
fractal-index Bose-type equations of state, and the number-theoretic
partition machinery behind condensate thresholds.
"""

__version__ = "0.1.0"

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

# scatter computes with numpy arrays; it is imported on first use, so
# that importing the package loads no numpy
from . import diagram, ensemble, partition, specfun  # noqa: E402


def __getattr__(name):
    if name == "scatter":
        import importlib

        return importlib.import_module(".scatter", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
