"""Restricted-partition counts and condensate-threshold asymptotics.

Exact p_k(n) tables by dynamic programming over big integers, the
summand-count threshold k0 beyond which the number of partition
variants stops growing, the one-dimensional threshold N_cr,
and the finite-N global-distribution solver built on the Bose-type
integrals of the specfun module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import add

from .errors import DomainError, ResourceError, SolverError
from .records import record
from .roots import brentq, grow_end

__all__ = [
    "PartitionTable",
    "GlobalDistribution",
    "CondensateThreshold",
    "build_partition_table",
    "pk_row",
    "condensate_threshold",
    "solve_global_distribution",
    "ncr_dimension1",
]

# the constant of the two-term threshold asymptotics
_C = 2.0 * math.pi / math.sqrt(6.0)
_ALPHA = -2.0 * math.log(_C / 2.0)

# the Hardy-Ramanujan bound of condensate_threshold is tested up to here;
# a higher cap needs that test extended, or a proven explicit bound
_N_CAP = 20000
_CELL_CAP = 40_000_000


# a dataclass while perfbench's tests call dataclasses.replace on it
@dataclass(frozen=True)
class CondensateThreshold:
    """Exact and asymptotic location of the argmax of p_k(n) over k."""

    n: int
    k0_exact: int
    k0_leading: float
    k0_two_term: float


class GlobalDistribution(record("GlobalDistribution",
                                 ["b", "kappa", "gamma", "n_cap"])):
    """Parameters (b, kappa) of the finite-N Bose-type distribution."""

    __slots__ = ()

    def __new__(cls, b, kappa, gamma, n_cap):
        if b <= 0:
            raise DomainError(f"b must be positive, got {b}")
        if kappa < 0:
            raise DomainError(f"kappa must be non-negative, got {kappa}")
        if n_cap < 1:
            raise DomainError(f"N must be >= 1, got {n_cap}")
        return super().__new__(cls, b, kappa, gamma, n_cap)


class PartitionTable:
    """Exact table of p_k(n), the number of partitions of n into
    exactly k parts, for n <= n_max and k <= k_max.

    Filled by the recurrence p_k(n) = p_k(n-k) + p_{k-1}(n-1); counts
    are Python big integers, so no overflow occurs.
    """

    def __init__(self, n_max, k_max, rows):
        self.n_max = n_max
        self.k_max = k_max
        self._rows = rows  # _rows[k][n] = p_k(n)

    def _check_n(self, n):
        if not (0 <= n <= self.n_max):
            raise DomainError(f"n={n} outside table range [0, {self.n_max}]")

    def count(self, n, k):
        """p_k(n); zero outside the triangle k <= n."""
        self._check_n(n)
        if not (0 <= k <= self.k_max):
            raise DomainError(f"k={k} outside table range [0, {self.k_max}]")
        return self._rows[k][n]

    def row(self, n):
        """All p_k(n) for k = 1..min(n, k_max)."""
        self._check_n(n)
        top = min(n, self.k_max)
        return [self._rows[k][n] for k in range(1, top + 1)]

    def total(self, n):
        """p(n) = sum_k p_k(n); requires k_max >= n."""
        if self.k_max < n:
            raise DomainError(f"k_max={self.k_max} < n={n}, row sum incomplete")
        return sum(self.row(n))


def _check_table_size(n_max, k_max):
    """Reject a p_k(n) table outside 1 <= k_max <= n_max or past the
    size guards.  `pk_row` is held to the same guards as the table of
    its n; the streamed threshold scan, which keeps only two rows, is
    held to the n cap alone, the range on which its stop is proven."""
    if not (1 <= k_max <= n_max):
        raise DomainError(f"need 1 <= k_max <= n_max, got k_max={k_max}, n_max={n_max}")
    if n_max > _N_CAP:
        raise ResourceError(f"n_max={n_max} exceeds cap {_N_CAP}")
    if (n_max + 1) * (k_max + 1) > _CELL_CAP:
        raise ResourceError(
            f"table of {(n_max + 1) * (k_max + 1)} cells exceeds cap {_CELL_CAP}"
        )


def _pk_rows(n_max, k_max):
    """Yield the rows [p_k(0), ..., p_k(n_max)] for k = 1..k_max, each
    from the one before by p_k(n) = p_k(n-k) + p_{k-1}(n-1).

    For k <= n < 2k the first term is zero, so those cells are copied
    from the row before: they hold the same int objects, which saves
    half of a square table's bigint allocations and a third of its
    memory.  The cells from n = 2k on are one C-level ``extend``: it
    appends cur[n-k] + prev[n-1] in order of n, and the list iterator
    under ``islice`` reads the row's length at every step, so it reaches
    the cells that ``extend`` has just appended, k places behind the
    one it is writing.  ``extend`` over-allocates, so the row is then
    copied to its exact size (a shallow copy: the ints stay shared)."""
    prev = [1] + [0] * n_max
    for k in range(1, k_max + 1):
        cur = [0] * k
        cur += prev[k - 1:min(2 * k - 1, n_max)]
        cur.extend(map(add, islice(cur, k, None), prev[2 * k - 1:n_max]))
        cur = cur[:]
        yield cur
        prev = cur


def build_partition_table(n_max, k_max):
    """Fill the exact p_k(n) table for 1 <= k <= k_max, 0 <= n <= n_max."""
    _check_table_size(n_max, k_max)
    rows = [[1] + [0] * n_max, *_pk_rows(n_max, k_max)]
    return PartitionTable(n_max, k_max, rows)


def pk_row(n):
    """[p_1(n), ..., p_n(n)], streamed one k-row at a time in O(n) memory
    instead of the O(n^2) table; same guards as build_partition_table(n, n)."""
    _check_table_size(n, n)
    return [row[n] for row in _pk_rows(n, n)]


def condensate_threshold(n):
    """Threshold summand count k0: the smallest argmax of p_k(n) over k,
    with its one- and two-term asymptotic approximations.

    k0 streams the recurrence one k-row at a time, holding two rows.  For
    j > k, p_j(n) <= p(n - j) <= p(m), m = n - k - 1 (take one from each
    part; p is non-decreasing), and p(m) is below the Hardy-Ramanujan term
    H(m) = e^(pi sqrt(2m/3)) / (4 sqrt(3) m) by >= 0.003 in ln for every
    1 <= m <= _N_CAP.  So the scan stops once m < 1 or the best reaches H(m)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > _N_CAP:
        raise ResourceError(f"n={n} exceeds cap {_N_CAP}")
    k0, best = 1, 0
    for k, row in enumerate(_pk_rows(n, n), start=1):
        if row[n] > best:
            best, k0, ln_best = row[n], k, math.log(row[n])
        m = n - k - 1
        if m < 1 or ln_best >= math.pi * math.sqrt(2 * m / 3) - math.log(4 * math.sqrt(3) * m):
            break
    rt = math.sqrt(n)
    leading = rt / _C * math.log(n)
    return CondensateThreshold(n=n, k0_exact=k0, k0_leading=leading,
                               k0_two_term=leading + _ALPHA * rt)


def solve_global_distribution(n, k=None, gamma=0.0):
    """Fit (b, kappa) of the finite-N distribution to the two moment
    constraints: the gamma-moment equals the summand count k and the
    (gamma+1)-moment equals n.

    The moments scale as M_g(b, kappa; N) = b^-(g+1) M_g(1, u; N) with
    u = b kappa (substitute xi = x/b), so the (gamma+1)-moment gives
    b(u) = (M_{gamma+1}(1, u; k)/n)^(1/(gamma+2)) in closed form, and the
    fit is one ``brentq`` in u on M_gamma(1, u; k) b(u)^-(gamma+1) = k,
    with kappa = u/b.  Both moments land within a few ulps of k and n.

    With k omitted, kappa = 0: b fits the infinite-N (gamma+1)-moment and
    N is the fixed point k0 = M_gamma(b, 0; k0), rounded to an integer.
    A k0 above 2^53, where a float no longer holds every integer (as at
    gamma = -0.95 from n = 100 up), raises SolverError.
    """
    if n < 100:
        raise DomainError(f"asymptotic regime requires n >= 100, got {n}")
    if gamma <= -1:
        raise DomainError(f"gamma must exceed -1, got {gamma}")
    # specfun loads with the first fit, not with the partition counts
    from .specfun import finite_n_integral, gamma_fn, riemann_zeta

    def moment(g, b, kappa, n_cap):
        return finite_n_integral(g, b, kappa, n_cap).value

    if k is None:
        b = (gamma_fn(gamma + 2.0) * riemann_zeta(gamma + 2.0) / n) \
            ** (1.0 / (gamma + 2.0))

        def fp(kk):
            return moment(gamma, b, 0.0, max(int(round(kk)), 2)) - kk

        # for gamma < 0 the fixed point may lie above the first end tried
        hi, f_hi = grow_end(fp, 4.0 * (math.sqrt(n) / _C * math.log(n) + 10.0), -1.0)
        k0 = brentq(fp, 2.0, hi, xtol=1e-10, fb=f_hi)
        if k0 > 2.0**53:
            raise SolverError(
                f"kappa = 0 fixed point k0 = {k0:.6g} is above 2^53, where "
                "rounding it to an integer is no longer exact")
        return GlobalDistribution(b=b, kappa=0.0, gamma=gamma,
                                  n_cap=int(round(k0)))

    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")

    def b_of(u):
        return (moment(gamma + 1.0, 1.0, u, k) / n) ** (1.0 / (gamma + 2.0))

    def residual(u):
        return moment(gamma, 1.0, u, k) * b_of(u) ** -(gamma + 1.0) - k

    r0 = residual(0.0)
    if r0 < 0:
        raise SolverError(
            f"gamma-moment at kappa=0 is below k={k}: the requested summand "
            f"count exceeds the threshold regime (residual {r0:.3g})"
        )
    hi, f_hi = grow_end(residual, 1.0, -1.0)
    u = brentq(residual, 0.0, hi, xtol=1e-15, rtol=8.9e-16, fa=r0, fb=f_hi)
    b = b_of(u)
    return GlobalDistribution(b=b, kappa=u / b, gamma=gamma, n_cap=k)


def ncr_dimension1(n):
    """One-dimensional condensation threshold N_cr(n).

    Builds W = (2n)^(1/3) I1^(-1/3) I2 from the two spectral integrals
    and solves the resulting quadratic, N_cr = (W^2/4)(1 + sqrt(1-4/W))^2.
    I1 = int xi^(1/2) / (e^xi - 1) = Gamma(3/2) zeta(3/2), and
    I2 = int (xi^-2 - 1/(e^(xi^2) - 1)) d(xi) = -Gamma(1/2) zeta(1/2) / 2,
    the Mellin transform of 1/(e^x - 1) - 1/x at 1/2.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    from . import specfun

    i1 = specfun.bose_integral(0.5, 0.0).value
    i2 = -0.5 * math.sqrt(math.pi) * specfun.zeta(0.5)
    w = (2.0 * n) ** (1.0 / 3.0) * i1 ** (-1.0 / 3.0) * i2
    if w < 4.0:
        raise DomainError(
            f"W = {w:.6g} < 4 at n = {n}: no real root (below the asymptotic regime)"
        )
    return (w * w / 4.0) * (1.0 + math.sqrt(1.0 - 4.0 / w)) ** 2
