"""Effective two-body scattering energy and the compressibility map.

For a pair potential U(r), impact parameter B and attraction
coefficient alpha, the effective energy is

    E(r) = (-alpha r^4 + r^2 U(r)) / (B^2 - r^2).

E is linear in alpha, so the numerator of E'(r) is
2 r^3 (r^2 - 2 B^2) (alpha - A(r)), where the level function
A(r) = `alpha_from_first_derivative` does not depend on alpha.  Inside
r < B, E' has the sign of A - alpha: the stationary radii at alpha are
the roots of A(r) = alpha, and the well and the barrier merge at the
maximum r* of A, alpha* = A(r*).

Each potential family in `_FAMILIES` is a factory that binds its
parameters once and returns (U, U', U'') as one function of r
(`_kernel`).  A and the merge residual are bound the same way to a
potential and B, so evaluating either at r is two calls: itself and
the kernel.
r*, alpha* and the bound A depend only on the potential and B, so they
are solved once per (potential, B) and held in a small cache
(`_merge`).  So is A at _CELLS geometric steps on each side of r*
(`_samples`): the cells between neighbouring samples are the brackets
of the stationary radii.  Each radius is one `brentq` on the first
cell outward from r* across which A - alpha changes sign, and that
sign change proves a true minimum or maximum of E there
(`stationary_pair` says what it proves and what it does not).

The stationary structure maps onto the Zeno-line analog and the
compressibility factor Z = 1 - E_min/E_max, from which the
critical-point summary is read off.
"""

from __future__ import annotations

import functools
import math

from .curves import T_CR_OVER_T_B_REFERENCES, PhaseCurve, linspace
from .errors import (BracketError, DegenerateError, DomainError, PoleError,
                     ZenolineError)
from .records import record
from .roots import brentq

__all__ = [
    "PotentialSpec",
    "ScatterProblem",
    "StationaryPair",
    "CriticalSummary",
    "effective_energy",
    "alpha_from_first_derivative",
    "alpha_from_second_derivative",
    "zeno_condition_root",
    "trace_zeno_analog",
    "stationary_pair",
    "compressibility_curve",
    "critical_summary",
]

# brentq tolerances of every radius and of the critical density, and
# its iteration cap
_XTOL, _RTOL = 1e-14, 8.9e-16
_MAXITER = 100

# geometric steps from r* out to each outer end of the stationary-pair
# search, (1.0001 r_floor, 0.9999 B); A is sampled at the end of each.
# 48 steps make the barrier cell next to r* 1.095x wide at B = 100 and
# at most ~12x wide at the largest B (~1.7e51).  In cells this narrow
# brentq takes ~6 evaluations of A per radius, and a root within ~1e-8
# of r* near the fold converges within 95 of its _MAXITER iterations;
# the 2 x 48 samples are paid once per (potential, B).
_CELLS = 48

# below this the repulsive core dwarfs everything and no stationary
# point can occur
_R_FLOOR = 0.5


# Each family is a factory: it takes the parameters as keyword defaults
# and returns derivs(r) -> (U, U', U'') with the constant factors
# precomputed, in the floating-point operations of the closed forms.


def _generalized_lj(m=6.0):
    c1, c2, c3 = -2.0 * m, 2.0 * m * (2 * m + 1), m * (m + 1)
    p0, p1, p2, p3, p4 = -m, -2 * m - 1, -m - 1, -2 * m - 2, -m - 2

    def derivs(r):
        irm = r**p0
        return (4.0 * (irm * irm - irm),
                4.0 * (c1 * r**p1 + m * r**p2),
                4.0 * (c2 * r**p3 - c3 * r**p4))
    return derivs


def _morse(a=6.0, r0=2.0 ** (1.0 / 6.0)):
    exp, na = math.exp, -a
    c1, c2, c3, c4 = -2.0 * a, 2.0 * a, 4.0 * a * a, 2.0 * a * a

    def derivs(r):
        e = exp(na * (r - r0))
        return (e * e - 2.0 * e,
                c1 * e * e + c2 * e,
                c3 * e * e - c4 * e)
    return derivs


def _buckingham(A=5e5, B=12.0, C=2.0):
    exp, nb = math.exp, -B
    c1, c2, c3, c4 = -A * B, 6.0 * C, A * B * B, 42.0 * C

    def derivs(r):
        e = exp(nb * r)
        return (A * e - C * r**-6,
                c1 * e + c2 * r**-7,
                c3 * e - c4 * r**-8)
    return derivs


# family -> (its factory, its param names); plain Lennard-Jones is the
# generalized member at its default m = 6 and takes no params
_FAMILIES = {
    "lennard_jones": (_generalized_lj, ()),
    "generalized_lj": (_generalized_lj, ("m",)),
    "morse": (_morse, ("a", "r0")),
    "buckingham": (_buckingham, ("A", "B", "C")),
}


@functools.lru_cache(maxsize=64)
def _kernel(family, params_key):
    """derivs(r) -> (U, U', U'') of one potential: its family's factory
    bound to its params, once per (family, params)."""
    return _FAMILIES[family][0](**dict(params_key))


class PotentialSpec(record("PotentialSpec", ["family", "params"])):
    """A pair potential family with analytic first and second derivatives.

    Reduced units throughout: the well depth and effective radius of the
    plain Lennard-Jones member are both 1.

    Families and their ``params``:

    - ``lennard_jones``: none (U = 4 (r^-12 - r^-6))
    - ``generalized_lj``: ``m`` (U = 4 (r^-2m - r^-m), default m = 6)
    - ``morse``: ``a``, ``r0`` (U = e^{-2a(r-r0)} - 2 e^{-a(r-r0)})
    - ``buckingham``: ``A``, ``B``, ``C`` (U = A e^{-B r} - C r^-6)

    ``params`` is a dict, so a PotentialSpec is unhashable.
    """

    __slots__ = ()

    def __new__(cls, family="lennard_jones", params=None):
        params = {} if params is None else params
        if family not in _FAMILIES:
            raise DomainError(f"unknown potential family {family!r}")
        names = _FAMILIES[family][1]
        unknown = [k for k in params if k not in names]
        if unknown:
            raise DomainError(f"{family} takes no parameter {unknown[0]!r}; "
                              f"it takes {', '.join(names) or 'none'}")
        return super().__new__(cls, family, params)

    @property
    def r_floor(self):
        return _R_FLOOR

    def derivatives(self, r):
        """(U, U', U'') at r > 0."""
        if r <= 0:
            raise DomainError(f"r must be positive, got {r}")
        return _kernel(*_key(self))(r)

    def u(self, r):
        return self.derivatives(r)[0]


def _check_B(B):
    """B must be finite and exceed 1, and 8 B^6 must be finite too: the
    denominator of `alpha_from_second_derivative` forms it near r = B,
    the highest power of B (or of r < B) in this module."""
    if not 1.0 < B < math.inf:
        raise DomainError(
            f"impact parameter B must be finite and exceed 1, got {B}")
    B2 = B * B
    if 8.0 * B2 * B2 * B2 == math.inf:
        raise DomainError(
            f"impact parameter B = {B} is too large: 8 B^6 overflows a float")


class ScatterProblem(record("ScatterProblem", ["potential", "B", "alpha"])):
    """Potential plus the two scattering parameters.

    B is the impact parameter (reduced by the potential radius), alpha
    the attraction coefficient, which is the density rho in reduced units.
    """

    __slots__ = ()

    def __new__(cls, potential, B, alpha):
        _check_B(B)
        if not alpha >= 0.0:
            raise DomainError(f"alpha must be non-negative, got {alpha}")
        return super().__new__(cls, potential, B, alpha)


class StationaryPair(record("StationaryPair",
                             ["r_lo", "r_hi", "E_min", "E_max"])):
    """The two stationary radii of E(r) and the well/barrier depths.

    r_lo is the well and r_hi the barrier: E' < 0 below r_lo and above
    r_hi, so E falls to a minimum at r_lo and climbs to a maximum at
    r_hi.  The landscape is stored flipped (wells turned upside down):
    E_max = -E(r_lo) is the well depth and E_min = -E(r_hi) the barrier
    depth, both non-negative with E_max >= E_min.
    """

    __slots__ = ()

    def __new__(cls, r_lo, r_hi, E_min, E_max):
        if E_max < E_min:
            raise DomainError("E_max < E_min in stationary pair")
        return super().__new__(cls, r_lo, r_hi, E_min, E_max)


class CriticalSummary(record("CriticalSummary", ["Z_cr", "rho_cr_over_rho_B",
                                                 "T_cr_over_T_B", "notes"])):
    """Critical-point ratios read off the Z(rho) curve; ``notes``, the
    log of the steps, is a dict, so a CriticalSummary is unhashable."""

    __slots__ = ()

    def __new__(cls, Z_cr, rho_cr_over_rho_B, T_cr_over_T_B, notes=None):
        for name, v in zip(cls._fields, (Z_cr, rho_cr_over_rho_B, T_cr_over_T_B)):
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} = {v} outside (0, 1)")
        return super().__new__(cls, Z_cr, rho_cr_over_rho_B, T_cr_over_T_B,
                               {} if notes is None else notes)


def _energy(u, alpha, B, r):
    """E(r) from U(r)."""
    return (-alpha * r**4 + r * r * u) / (B * B - r * r)


def effective_energy(problem, r):
    """E(r) = (-alpha r^4 + r^2 U(r)) / (B^2 - r^2)."""
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    B = problem.B
    if r == B:
        raise PoleError(f"effective energy has a pole at r = B = {B}")
    return _energy(problem.potential.u(r), problem.alpha, B, r)


def _bind_level(derivs, B):
    """A(r), the alpha at which r is a stationary point of E, bound to
    one potential's derivs and one B."""
    B2 = B * B
    c0, c1 = -2.0 * B2, 2.0 * B2

    def level(r):
        u, up, _ = derivs(r)
        return (c0 * u - B2 * r * up + r**3 * up) / (2.0 * r * r * (r * r - c1))
    return level


def alpha_from_first_derivative(potential, B, r):
    """The alpha making r a stationary point of E (first derivative
    condition solved for alpha): the level function A(r)."""
    _check_B(B)
    if not (potential.r_floor < r < B):
        raise DomainError(f"r = {r} outside ({potential.r_floor}, {B})")
    return _bind_level(_kernel(*_key(potential)), B)(r)


def alpha_from_second_derivative(potential, B, r):
    """The alpha making r an inflection of E (second derivative
    condition solved for alpha).  Its denominator
    2 r^2 ((r^2 - 3 B^2/2)^2 + 15 B^4/4) is positive, so no r is singular."""
    _check_B(B)
    if not (potential.r_floor < r < B):
        raise DomainError(f"r = {r} outside ({potential.r_floor}, {B})")
    B2 = B * B
    r2 = r * r
    den = 2.0 * r2 * (6.0 * B2 * B2 - 3.0 * B2 * r2 + r2 * r2)
    u, up, upp = potential.derivatives(r)
    num = (2.0 * (B2 * B2 + 3.0 * B2 * r2) * u
           + 4.0 * r * (B2 * B2 - B2 * r2) * up
           + r2 * (B2 - r2) ** 2 * upp)
    return num / den


def _bind_residual(derivs, B):
    """Eliminant of the two alpha expressions, bound to one potential's
    derivs and one B: it vanishes where the well and barrier merge
    (E' = E'' = 0 at the same r).  It is
    A'(r) (2 r^2 (r^2 - 2 B^2))^2 / (2 r (B^2 - r^2)), so inside r < B it
    has the sign of A'."""
    B2 = B * B
    c0, c1 = -8.0 * B2, 2.0 * B2

    def residual(r):
        u, up, upp = derivs(r)
        return c0 * u + c1 * r * up + r**3 * up + c1 * r * r * upp - r**4 * upp
    return residual


def _zeno_residual(potential, B, r):
    """The merge residual of `_bind_residual` at one r."""
    return _bind_residual(_kernel(*_key(potential)), B)(r)


def _trace(one, points):
    """Rows of one(x) over the points; a point that raises a
    ZenolineError is recorded in the failures as (x, repr(exc)) and
    skipped.  Any other exception propagates."""
    rows, failures = [], []
    for x in points:
        try:
            rows.append(one(x))
        except ZenolineError as exc:
            failures.append((x, repr(exc)))
    return rows, failures


def zeno_condition_root(potential, B):
    """Radius r* at which the stationary points of E(r) merge: a maximum
    of the level function A, where A' and the merge residual vanish.

    One brentq on the residual over (1, 2); a B below 2 is a DomainError.
    Its certificate is the sign of A' at the two ends: A must rise at 1
    and fall at 2, or BracketError names the bracket and both residuals,
    as for ``morse`` with r0 >= 2, whose merge lies past 2.  That proves
    a local maximum of A in the bracket (an odd number of extrema there),
    not that it is the only extremum.  brentq starts from the two
    residuals the certificate computed.  Every call solves afresh; the
    scans below take r* from the per-(potential, B) cache `_merge`.
    """
    _check_B(B)
    bracket = lo, hi = 1.0, 2.0
    if B < hi:
        raise DomainError(f"bracket {bracket} outside ({potential.r_floor}, {B})")
    residual = _bind_residual(_kernel(*_key(potential)), B)
    f_lo, f_hi = residual(lo), residual(hi)
    if not f_lo > 0.0 > f_hi:
        raise BracketError(
            f"no maximum of A certified in {bracket}: the merge residual, "
            f"of the sign of A', is {f_lo:.6g} at r = {lo} and {f_hi:.6g} at "
            f"r = {hi}, not positive then negative")
    return brentq(residual, lo, hi, xtol=_XTOL, rtol=_RTOL, fa=f_lo, fb=f_hi)


def _key(potential, *B):
    """The cache key of a potential, (family, params), or of one
    (potential, B), (family, params, B): the params as sorted items,
    because a PotentialSpec holds a dict and is unhashable."""
    return (potential.family, tuple(sorted(potential.params.items())), *B)


@functools.lru_cache(maxsize=64)
def _merge(family, params_key, B):
    """The merge context of one (potential, B): (r*, alpha* = A(r*),
    derivs, A), with derivs the potential's `_kernel` and A its level
    function bound to B, which every evaluation for this (potential, B)
    goes through.

    r* comes from `zeno_condition_root`, so its certificate runs on every
    cache miss.  lru_cache stores no exception: a BracketError or
    DomainError raises again on every call.  A away from r* is held
    apart, in `_samples`: for a narrow Morse well (a = 1000, r0 = 1.3) it
    overflows at r_floor while r* and alpha* are finite, and
    `trace_zeno_analog` needs only those, so it never builds the samples.
    """
    r_star = zeno_condition_root(PotentialSpec(family, dict(params_key)), B)
    derivs = _kernel(family, params_key)
    level = _bind_level(derivs, B)
    return r_star, level(r_star), derivs, level


@functools.lru_cache(maxsize=64)
def _samples(family, params_key, B):
    """A on each side of r*, the cell ends of one (potential, B).

    Two sides, the well side and the barrier side, each two tuples
    ordered outward from r*: the radii r* (end / r*)^(k / _CELLS) for
    k = 0 .. _CELLS, with end the outer end of the side, 1.0001 r_floor
    or 0.9999 B, taken exactly at k = _CELLS; and A there, alpha* at r*.
    A sample whose kernel overflows, as a steep Morse well's exp does
    toward r_floor, is NaN, which `_cell`'s walk steps over.  Built on
    the first `stationary_pair` of a (potential, B) and then reused;
    like `_merge` it stores no exception.
    """
    r_star, a_star, _, level = _merge(family, params_key, B)

    def sample(r):
        try:
            return level(r)
        except OverflowError:
            return math.nan

    sides = []
    for end in (_R_FLOOR * 1.0001, B * 0.9999):
        radii = [r_star] + [r_star * (end / r_star) ** (k / _CELLS)
                            for k in range(1, _CELLS)] + [end]
        sides.append((tuple(radii), (a_star, *map(sample, radii[1:]))))
    return tuple(sides)


def _context(potential, B):
    """(r*, alpha*) of a PotentialSpec, from `_merge`."""
    return _merge(*_key(potential, B))[:2]


def trace_zeno_analog(potential, B_grid):
    """Parametric Zeno-line analog: for each B, the merge radius r*, the
    degeneracy alpha*(B), and the (doubly stationary) energy there.

    Per-point failures are recorded in ``meta['failures']`` and skipped.
    """
    B_list = list(B_grid)
    for B in B_list:
        _check_B(B)
    if sorted(B_list) != B_list:
        raise DomainError("B grid must be increasing")

    def one(B):
        r_star, alpha = _context(potential, B)
        E = effective_energy(ScatterProblem(potential, B, alpha), r_star)
        return (B, r_star, alpha, E)

    rows, failures = _trace(one, B_list)
    return PhaseCurve(columns=("B", "r_star", "alpha", "E"), rows=rows,
                      meta={"failures": failures, "family": potential.family})


def _cell(side, alpha):
    """(r_in, r_out, A - alpha at each) of the first cell of one side of
    `_samples`, walking outward from r*, whose outer sample has
    A - alpha < 0; None where no sample of the side has.  A NaN sample
    fails the test and is stepped over."""
    radii, values = side
    for k in range(1, len(radii)):
        if values[k] - alpha < 0.0:
            return radii[k - 1], radii[k], values[k - 1] - alpha, values[k] - alpha
    return None


def stationary_pair(problem):
    """Locate the well and barrier radii of E(r) and the flipped depths.

    The radii are the roots of A(r) = alpha on either side of the merge
    radius r* (`zeno_condition_root`).  r*, alpha* and A bound to the
    potential and B come from the merge context `_merge`, and A at
    _CELLS geometric steps from r* out to 1.0001 r_floor and to 0.9999 B
    from `_samples`; both are built once per (potential, B).  Each radius
    is one brentq on the first cell, outward from r*, whose outer sample
    has A - alpha < 0, and brentq starts from the two sample values, so
    a pair costs the two radius solves and no other evaluation of A.
    Raises DegenerateError when alpha >= alpha* = A(r*), so that the two
    stationary points have merged or do not exist, and when the depths
    come out with E_max < E_min, as rounding makes them within ~1e-13
    of alpha*, where they agree to the last bits.

    Certificate: A - alpha is positive at the inner end of each cell
    (r* itself, or a sample where it is not negative; where it is 0,
    that sample is the root) and negative at the outer end.  So
    A - alpha, and with it E', changes sign across the cell, and each
    radius is a true stationary point: a minimum of E at r_lo, a maximum
    at r_hi.  If no sample of a side is negative, BracketError names the
    outer ends and A - alpha there.  The radius returned is the crossing
    of A = alpha nearest r*, at the resolution of the samples: where A
    turns more than once, a crossing farther out is never taken for it,
    but two more crossings inside the same cell as the first would not
    be seen (brentq then returns one of the three).  For
    ``generalized_lj`` with m = 3 at B = 10, A has a second extremum, a
    minimum near r = 8.1 beyond the barrier, where A ~ -4e-5 stays below
    every alpha >= 0; the pair is the one an exhaustive root search
    gives (tested against an mpmath oracle).

    The bracket depends only on (potential, B, alpha), never on earlier
    calls, so a pair is the same float whichever curve asks for it.  The
    barrier cell next to r* spans a factor of at most ~12 in r, at the
    largest B (~1.7e51, where 8 B^6 overflows), so the radii converge at
    any B, also for an alpha within ~1e-15 of alpha* at B = 1e26 to 1e50,
    where the barrier root sits ~1e-8 above r* at the inner end of its
    cell and takes up to 95 iterations.  brentq is capped at _MAXITER
    iterations all the same; its SolverError then names the cell,
    A - alpha at its ends and the cap.
    """
    pot, B, alpha = problem.potential, problem.B, problem.alpha
    key = _key(pot, B)
    r_star, a_star, derivs, level = _merge(*key)
    if not alpha < a_star:
        raise DegenerateError(
            f"stationary points merged or absent at alpha = {alpha}; "
            f"merge threshold alpha*({B:g}) = {a_star:.6g}")
    well, barrier = _samples(*key)
    lo, hi = _cell(well, alpha), _cell(barrier, alpha)
    if lo is None or hi is None:
        raise BracketError(
            f"stationary pair not certified on ({well[0][-1]:g}, {r_star!r}, "
            f"{barrier[0][-1]:g}): A - alpha is {well[1][-1] - alpha:.6g}, "
            f"{a_star - alpha:.6g}, {barrier[1][-1] - alpha:.6g} there, and "
            f"negative at no sample between r* and the "
            f"{'well' if lo is None else 'barrier'} end")

    def f(r):
        return level(r) - alpha

    r_lo = brentq(f, lo[0], lo[1], _XTOL, _RTOL, _MAXITER, fa=lo[2], fb=lo[3])
    r_hi = brentq(f, hi[0], hi[1], _XTOL, _RTOL, _MAXITER, fa=hi[2], fb=hi[3])
    # flipped convention: the well at r_lo, the barrier at r_hi
    E_min = -_energy(derivs(r_hi)[0], alpha, B, r_hi)
    E_max = -_energy(derivs(r_lo)[0], alpha, B, r_lo)
    if E_max < E_min:
        raise DegenerateError(
            f"well and barrier depths cross in rounding at alpha = {alpha!r}, "
            f"alpha* = {a_star!r}: E_max = {E_max!r} < E_min = {E_min!r}")
    return StationaryPair(r_lo, r_hi, E_min, E_max)


def compressibility_curve(potential, B, rho_grid):
    """Z(rho) = 1 - E_min/E_max and its complement on a density grid.

    In reduced units the attraction coefficient is the density, alpha =
    rho.  Degenerate points are recorded in ``meta['failures']``.
    """
    if not 10.0 <= B < math.inf:
        raise DomainError(
            f"B must be >= 10 for the plateau regime and finite, got {B}")
    _check_B(B)

    def one(rho):
        pair = stationary_pair(ScatterProblem(potential, B, rho))
        z_min = pair.E_min / pair.E_max
        return (rho, 1.0 - z_min, z_min)

    rows, failures = _trace(one, rho_grid)
    return PhaseCurve(columns=("rho", "Z", "Z_min"), rows=rows,
                      meta={"B": B, "failures": failures})


def _z_slope(pair, B):
    """dZ/dalpha at the alpha of the pair, exact: E is linear in alpha, so
    at a stationary radius dE/dalpha = -r^4/(B^2 - r^2) (envelope theorem)."""
    dE_max, dE_min = (r**4 / (B * B - r * r) for r in (pair.r_lo, pair.r_hi))
    return (pair.E_min * dE_max - dE_min * pair.E_max) / pair.E_max**2


def critical_summary(potential, B=100.0):
    """Critical-point ratios for the given potential.

    Construction: the density axis is normalized by rho_B = alpha*(B)
    (the degeneracy intercept, where Z reaches 0); the critical point is
    where Z falls with slope -1 along the diagonal of the unit square,
    dZ/dx = -1 with x = rho/rho_B.  The slope is exact (`_z_slope`), so
    each x costs one stationary pair.  The crossing is the first sign
    change of dZ/dx + 1 on a 35-point grid in x from 0.05 to 0.9, walked
    upward and polished by brentq from the two slopes the walk computed.
    The temperature ratio is the well-to-barrier energy gap at the
    critical density, from the pair the walk or the polish solved there,
    over its zero-density value.  Every step is logged
    in ``notes``.
    """
    r_star, alpha_star = _context(potential, B)

    def pair_at(x):
        return stationary_pair(ScatterProblem(potential, B, alpha_star * x))

    # the pair at each x the walk and the polish evaluate; brentq returns
    # one of those x, so the critical pair is never solved twice
    pairs = {}

    def diag(x):
        pairs[x] = pair = pair_at(x)
        return alpha_star * _z_slope(pair, B) + 1.0

    grid = linspace(0.05, 0.9, 35)
    f_a = diag(grid[0])
    for a, b in zip(grid, grid[1:]):
        if f_a == 0.0:
            x_cr = a
            break
        f_b = diag(b)
        if f_a * f_b < 0.0:
            x_cr = brentq(diag, a, b, xtol=_XTOL, rtol=_RTOL, fa=f_a, fb=f_b)
            break
        f_a = f_b
    else:
        raise BracketError("diagonal-derivative crossing dZ/dx = -1 not bracketed")
    pair_cr = pairs[x_cr]
    # the gap B^2 (E_max - E_min); its alpha -> 0 value calibrates T
    ord_cr, ord_0 = (B * B * (p.E_max - p.E_min) for p in (pair_cr, pair_at(1e-9)))
    notes = {
        "B": B,
        "r_star": r_star,
        "alpha_star": alpha_star,
        "rho_B": alpha_star,
        "diagonal_criterion": "dZ/d(rho/rho_B) = -1, exact by the envelope theorem",
        "ordinate_zero_density": ord_0,
        "ordinate_critical": ord_cr,
        "temperature_calibration": "gap(rho_cr)/gap(0), gap = B^2 (E_max - E_min)",
        "reference_T_ratios": T_CR_OVER_T_B_REFERENCES,
    }
    return CriticalSummary(Z_cr=1.0 - pair_cr.E_min / pair_cr.E_max,
                           rho_cr_over_rho_B=x_cr, T_cr_over_T_B=ord_cr / ord_0,
                           notes=notes)
