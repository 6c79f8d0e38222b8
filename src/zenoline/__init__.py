"""Zeno-line phase-diagram numerics.

Compressibility-factor curves from effective two-body scattering,
fractal-index Bose-type equations of state, and the number-theoretic
partition machinery behind condensate thresholds.

The library modules (``diagram``, ``ensemble``, ``partition``,
``scatter`` and ``specfun``) load on first access, so that a command
pays only for the modules it computes with.
"""

__version__ = "0.1.0"

import importlib

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

_SUBMODULES = frozenset({"diagram", "ensemble", "partition", "scatter", "specfun"})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
