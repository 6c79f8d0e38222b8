"""Effective two-body scattering energy and the compressibility map.

For a pair potential U(r), impact parameter B and attraction
coefficient alpha, the effective energy is

    E(r) = (-alpha r^4 + r^2 U(r)) / (B^2 - r^2).

Its stationary structure (a well and a barrier that merge at a critical
alpha) maps onto the Zeno-line analog and the compressibility factor
Z = 1 - E_min/E_max, from which the critical-point summary is read off.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import PhaseCurve
from .errors import DegenerateError, DomainError, PoleError, BracketError
from .roots import brentq

__all__ = [
    "PotentialSpec",
    "ScatterProblem",
    "StationaryPair",
    "CriticalSummary",
    "effective_energy",
    "effective_energy_derivative",
    "alpha_from_first_derivative",
    "alpha_from_second_derivative",
    "zeno_condition_root",
    "trace_zeno_analog",
    "stationary_pair",
    "compressibility_curve",
    "critical_summary",
]


def _exp(x):
    # math.exp on scalars keeps the scalar path bit-for-bit unchanged
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def _generalized_lj(r, p):
    m = p.get("m", 6.0)
    irm = r**-m
    return (4.0 * (irm * irm - irm),
            4.0 * (-2.0 * m * r ** (-2 * m - 1) + m * r ** (-m - 1)),
            4.0 * (2.0 * m * (2 * m + 1) * r ** (-2 * m - 2)
                   - m * (m + 1) * r ** (-m - 2)))


def _morse(r, p):
    a, r0 = p.get("a", 6.0), p.get("r0", 2.0 ** (1.0 / 6.0))
    e = _exp(-a * (r - r0))
    return (e * e - 2.0 * e,
            -2.0 * a * e * e + 2.0 * a * e,
            4.0 * a * a * e * e - 2.0 * a * a * e)


def _buckingham(r, p):
    a_, b_, c_ = p.get("A", 5e5), p.get("B", 12.0), p.get("C", 2.0)
    e = _exp(-b_ * r)
    return (a_ * e - c_ * r**-6,
            -a_ * b_ * e + 6.0 * c_ * r**-7,
            a_ * b_ * b_ * e - 42.0 * c_ * r**-8)


# family -> (r, params) -> (U, U', U''); plain Lennard-Jones is the
# generalized member at its default m = 6 and takes no params
_DERIVATIVES = {
    "lennard_jones": lambda r, p: _generalized_lj(r, {}),
    "generalized_lj": _generalized_lj,
    "morse": _morse,
    "buckingham": _buckingham,
}


@dataclass(frozen=True)
class PotentialSpec:
    """A pair potential family with analytic first and second derivatives.

    Reduced units throughout: the well depth and effective radius of the
    plain Lennard-Jones member are both 1.

    Families and their ``params``:

    - ``lennard_jones``: none (U = 4 (r^-12 - r^-6))
    - ``generalized_lj``: ``m`` (U = 4 (r^-2m - r^-m), default m = 6)
    - ``morse``: ``a``, ``r0`` (U = e^{-2a(r-r0)} - 2 e^{-a(r-r0)})
    - ``buckingham``: ``A``, ``B``, ``C`` (U = A e^{-B r} - C r^-6)
    """

    family: str = "lennard_jones"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _DERIVATIVES:
            raise DomainError(f"unknown potential family {self.family!r}")

    @property
    def r_floor(self):
        # below this the repulsive core dwarfs everything and no
        # stationary point can occur
        return 0.5

    def derivatives(self, r):
        """(U, U', U'') at r > 0, a float or elementwise on an array."""
        if np.any(r <= 0) if isinstance(r, np.ndarray) else r <= 0:
            raise DomainError(f"r must be positive, got {r}")
        return _DERIVATIVES[self.family](r, self.params)

    def u(self, r):
        return self.derivatives(r)[0]

    def du(self, r):
        return self.derivatives(r)[1]

    def d2u(self, r):
        return self.derivatives(r)[2]


@dataclass(frozen=True)
class ScatterProblem:
    """Potential plus the two scattering parameters.

    B is the impact parameter (reduced by the potential radius), alpha
    the attraction coefficient C2/V.
    """

    potential: PotentialSpec
    B: float
    alpha: float

    def __post_init__(self):
        if not self.B > 1.0:
            raise DomainError(f"impact parameter must exceed 1, got {self.B}")
        if not self.alpha >= 0.0:
            raise DomainError(f"alpha must be non-negative, got {self.alpha}")


@dataclass(frozen=True)
class StationaryPair:
    """The two stationary radii of E(r) and the well/barrier depths.

    r_lo is the well and r_hi the barrier: E' < 0 at both ends of the
    scan, so E falls to a minimum at r_lo and climbs to a maximum at
    r_hi.  The landscape is stored flipped (wells turned upside down):
    E_max = -E(r_lo) is the well depth and E_min = -E(r_hi) the barrier
    depth, both non-negative with E_max >= E_min.
    """

    r_lo: float
    r_hi: float
    E_min: float
    E_max: float

    def __post_init__(self):
        if self.E_max < self.E_min:
            raise DomainError("E_max < E_min in stationary pair")


@dataclass(frozen=True)
class CriticalSummary:
    """Critical-point ratios read off the Z(rho) curve."""

    Z_cr: float
    rho_cr_over_rho_B: float
    T_cr_over_T_B: float
    notes: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for name in ("Z_cr", "rho_cr_over_rho_B", "T_cr_over_T_B"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} = {v} outside (0, 1)")


def effective_energy(problem, r):
    """E(r) = (-alpha r^4 + r^2 U(r)) / (B^2 - r^2)."""
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    B = problem.B
    if r == B:
        raise PoleError(f"effective energy has a pole at r = B = {B}")
    u = problem.potential.u(r)
    return (-problem.alpha * r**4 + r * r * u) / (B * B - r * r)


def _dE_numerator(problem, r):
    """Numerator of E'(r) over the common factor (B^2 - r^2)^2."""
    B2 = problem.B * problem.B
    u, up, _ = problem.potential.derivatives(r)
    return (2.0 * B2 * r * u
            + 2.0 * problem.alpha * r**3 * (r * r - 2.0 * B2)
            + r * r * (B2 - r * r) * up)


def effective_energy_derivative(problem, r):
    """Analytic dE/dr."""
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    B2 = problem.B * problem.B
    if r == problem.B:
        raise PoleError(f"derivative has a pole at r = B = {problem.B}")
    return _dE_numerator(problem, r) / (B2 - r * r) ** 2


def alpha_from_first_derivative(potential, B, r):
    """The alpha making r a stationary point of E (first derivative
    condition solved for alpha)."""
    if not (potential.r_floor < r < B):
        raise DomainError(f"r = {r} outside ({potential.r_floor}, {B})")
    B2 = B * B
    den = 2.0 * r * r * (r * r - 2.0 * B2)
    if den == 0.0:
        raise DomainError(f"singular configuration r^2 = 2 B^2 at r = {r}")
    u, up, _ = potential.derivatives(r)
    return (-2.0 * B2 * u - B2 * r * up + r**3 * up) / den


def alpha_from_second_derivative(potential, B, r):
    """The alpha making r an inflection of E (second derivative
    condition solved for alpha)."""
    if not (potential.r_floor < r < B):
        raise DomainError(f"r = {r} outside ({potential.r_floor}, {B})")
    B2 = B * B
    r2 = r * r
    den = 2.0 * r2 * (6.0 * B2 * B2 - 3.0 * B2 * r2 + r2 * r2)
    if den == 0.0:
        raise DomainError(f"singular configuration at r = {r}")
    u, up, upp = potential.derivatives(r)
    num = (2.0 * (B2 * B2 + 3.0 * B2 * r2) * u
           + 4.0 * r * (B2 * B2 - B2 * r2) * up
           + r2 * (B2 - r2) ** 2 * upp)
    return num / den


def _zeno_residual(potential, B, r):
    """Eliminant of the two alpha expressions: vanishes where the well
    and barrier merge (E' = E'' = 0 at the same r)."""
    B2 = B * B
    u, up, upp = potential.derivatives(r)
    return (-8.0 * B2 * u + 2.0 * B2 * r * up + r**3 * up
            + 2.0 * B2 * r * r * upp - r**4 * upp)


def _scan_roots(f, grid):
    """Roots of f on an increasing grid, in increasing order.

    f takes a float or an array.  It is evaluated on the whole grid at
    once; a grid point where f is exactly 0 counts as a root (the last
    point excepted) and each sign-change cell is polished by brentq.
    """
    vals = f(grid)
    roots = []
    for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)):
        if vals[i] == 0.0:
            roots.append(grid[i])
        else:
            roots.append(brentq(f, grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16))
    return roots


def _trace(one, points):
    """Rows of one(x) over the points; a point that raises is recorded
    in the failures as (x, repr(exc)) and skipped."""
    rows, failures = [], []
    for x in points:
        try:
            rows.append(one(x))
        except Exception as exc:  # noqa: BLE001 - per-point fault isolation
            failures.append((x, repr(exc)))
    return rows, failures


def zeno_condition_root(potential, B, bracket=(1.0, 2.0)):
    """Radius r* at which the stationary points of E(r) merge.

    Scans the bracket on a dense log grid, bisects every sign change,
    and returns the smallest root (warning on multiplicity).
    """
    lo, hi = bracket
    if not (potential.r_floor <= lo < hi <= B):
        raise DomainError(f"bracket {bracket} outside ({potential.r_floor}, {B})")
    roots = _scan_roots(lambda r: _zeno_residual(potential, B, r),
                        np.geomspace(lo, hi, 400))
    if not roots:
        raise BracketError(f"no sign change of the merge condition in {bracket}")
    if len(roots) > 1:
        warnings.warn(f"multiple merge-condition roots in {bracket}: {roots}; "
                      "returning the smallest", stacklevel=2)
    return roots[0]


def trace_zeno_analog(potential, B_grid):
    """Parametric Zeno-line analog: for each B, the merge radius r*, the
    degeneracy alpha*(B), and the (doubly stationary) energy there.

    Per-point failures are recorded in ``meta['failures']`` and skipped.
    """
    B_list = list(B_grid)
    if not all(b > 1.0 for b in B_list):
        raise DomainError("all B values must exceed 1")
    if sorted(B_list) != B_list:
        raise DomainError("B grid must be increasing")

    def one(B):
        r_star = zeno_condition_root(potential, B)
        alpha = alpha_from_first_derivative(potential, B, r_star)
        E = effective_energy(ScatterProblem(potential, B, alpha), r_star)
        return (B, r_star, alpha, E)

    rows, failures = _trace(one, B_list)
    return PhaseCurve(columns=("B", "r_star", "alpha", "E"), rows=rows,
                      meta={"failures": failures, "family": potential.family})


def stationary_pair(problem):
    """Locate the well and barrier radii of E(r) and the flipped depths.

    Raises DegenerateError when alpha is at or beyond the merge
    threshold so the two stationary points no longer exist.
    """
    pot, B = problem.potential, problem.B
    roots = _scan_roots(lambda r: _dE_numerator(problem, r),
                        np.geomspace(pot.r_floor * 1.0001, B * 0.9999, 800))
    if len(roots) < 2:
        try:
            a_star = alpha_from_first_derivative(
                pot, B, zeno_condition_root(pot, B))
            hint = f"; merge threshold alpha*({B:g}) = {a_star:.6g}"
        except Exception:  # noqa: BLE001 - hint only
            hint = ""
        raise DegenerateError(
            f"stationary points merged or absent at alpha = {problem.alpha}{hint}")
    r_lo, r_hi = roots[0], roots[-1]
    # flipped convention: the well at r_lo, the barrier at r_hi
    return StationaryPair(r_lo=r_lo, r_hi=r_hi,
                          E_min=-effective_energy(problem, r_hi),
                          E_max=-effective_energy(problem, r_lo))


def compressibility_curve(potential, B, rho_grid, C2=1.0):
    """Z(rho) = 1 - E_min/E_max and its complement on a density grid.

    Density maps to the attraction coefficient through alpha = C2 rho.
    Degenerate points are recorded in ``meta['failures']`` and skipped.
    """
    if not B >= 10.0:
        raise DomainError(f"B must be >= 10 for the plateau regime, got {B}")

    def one(rho):
        pair = stationary_pair(ScatterProblem(potential, B, C2 * rho))
        z_min = pair.E_min / pair.E_max
        return (rho, 1.0 - z_min, z_min)

    rows, failures = _trace(one, rho_grid)
    return PhaseCurve(columns=("rho", "Z", "Z_min"), rows=rows,
                      meta={"B": B, "C2": C2, "failures": failures})


def _z_slope(pair, B):
    """dZ/dalpha at the alpha of the pair, exact: E is linear in alpha, so
    at a stationary radius dE/dalpha = -r^4/(B^2 - r^2) (envelope theorem)."""
    dE_max, dE_min = (r**4 / (B * B - r * r) for r in (pair.r_lo, pair.r_hi))
    return (pair.E_min * dE_max - dE_min * pair.E_max) / pair.E_max**2


def critical_summary(potential, B=100.0, C2=1.0):
    """Critical-point ratios for the given potential.

    Construction: the density axis is normalized by rho_B = alpha*(B)/C2
    (the degeneracy intercept, where Z reaches 0); the critical point is
    where Z falls with slope -1 along the diagonal of the unit square,
    dZ/dx = -1 with x = rho/rho_B.  The slope is exact (`_z_slope`), so
    each x costs one stationary pair; the crossing is scanned on a
    35-point grid.  The temperature ratio is the well-to-barrier energy
    gap at the critical density over its zero-density value.  Every
    step is logged in ``notes``.
    """
    r_star = zeno_condition_root(potential, B)
    alpha_star = alpha_from_first_derivative(potential, B, r_star)
    rho_B = alpha_star / C2

    def pair_at(x):
        return stationary_pair(ScatterProblem(potential, B, alpha_star * x))

    def diag(x):
        return alpha_star * _z_slope(pair_at(x), B) + 1.0

    roots = _scan_roots(np.vectorize(diag, otypes=[float]),
                        np.linspace(0.05, 0.9, 35))
    if not roots:
        raise BracketError("diagonal-derivative crossing dZ/dx = -1 not bracketed")
    x_cr = roots[0]
    pair_cr = pair_at(x_cr)
    # the gap B^2 (E_max - E_min); its alpha -> 0 value calibrates T
    ord_cr, ord_0 = (B * B * (p.E_max - p.E_min) for p in (pair_cr, pair_at(1e-9)))
    notes = {
        "B": B,
        "C2": C2,
        "r_star": r_star,
        "alpha_star": alpha_star,
        "rho_B": rho_B,
        "diagonal_criterion": "dZ/d(rho/rho_B) = -1, exact by the envelope theorem",
        "ordinate_zero_density": ord_0,
        "ordinate_critical": ord_cr,
        "temperature_calibration": "gap(rho_cr)/gap(0), gap = B^2 (E_max - E_min)",
        "reference_T_ratios": (0.39, 2.79),
    }
    return CriticalSummary(Z_cr=1.0 - pair_cr.E_min / pair_cr.E_max,
                           rho_cr_over_rho_B=x_cr, T_cr_over_T_B=ord_cr / ord_0,
                           notes=notes)
