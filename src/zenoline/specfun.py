"""Special functions and closed-form Bose integrals.

Gamma, Riemann zeta, real polylogarithms on (0, 1], Bose-Einstein
integrals and their finite-N corrected counterparts.  Polylogarithms
are evaluated in float64 throughout (power series, or the log series
near z = 1, with scipy's zeta for the coefficients); the Bose integrals
are closed forms in them.  ``improper_quad`` integrates other integrands
by QUADPACK (scipy.integrate.quad).  numpy and scipy are imported inside
the functions that call them, so importing this module loads neither.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .errors import AccuracyError, DivergenceError, DomainError

__all__ = [
    "QuadratureSettings",
    "BoseIntegralResult",
    "gamma_fn",
    "riemann_zeta",
    "polylog",
    "bose_integral",
    "finite_n_integral",
    "improper_quad",
]


@dataclass(frozen=True)
class QuadratureSettings:
    """Error targets for ``improper_quad``."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 60

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("abs_tol and rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_SETTINGS = QuadratureSettings()


@dataclass(frozen=True)
class BoseIntegralResult:
    """Value of an improper integral with an error bound and a cost count:
    QUADPACK's error estimate and integrand evaluations for
    ``improper_quad``; for the closed forms, _CLOSED_FORM_REL * |value|
    (the bound tested against mpmath) and the Gamma, zeta and
    polylogarithm evaluations."""

    value: float
    est_error: float
    evaluations: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError("integral value is not finite")
        if self.est_error < 0:
            raise DomainError("est_error must be non-negative")


def gamma_fn(x):
    """Gamma function for positive real argument."""
    if x <= 0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def riemann_zeta(s):
    """Riemann zeta for s > 1 (pole at s = 1)."""
    if s <= 1:
        raise DomainError(f"riemann_zeta requires s > 1 (pole at 1), got {s}")
    from scipy import special as sc

    return float(sc.zeta(s))


# Log series of Li_s(e^mu) about mu = 0 (D. C. Wood, "The computation of
# polylogarithms", Kent TR 15-92, 1992):
#
#   Li_s(e^mu) = Gamma(1 - s) (-mu)^(s - 1) + sum_k zeta(s - k) mu^k / k!,
#
# convergent for |mu| < 2 pi.  It is used for z > 0.6, where |mu| < 0.511
# and the coefficients fall like (|mu| / 2 pi)^k < 0.082^k: 18 terms leave a
# tail below 1e-17 of the sum for every order s in [-3, 12] (checked
# against 40 terms).
_LOG_TERMS = 18

# At s = n + eps near a positive integer n, Gamma(1 - s) and the k = n - 1
# coefficient zeta(1 + eps) both have poles at eps = 0 that cancel; that
# pair is summed as one series in eps below |eps| < _NEAR_INTEGER.  Against
# mpmath at 30 digits on z in (0.6, 1) and n = 1..4, the paired form stays
# below 5e-16 relative up to |eps| = 0.3, while the plain series drifts to
# 2e-14 at |eps| = 0.02 and is still 3e-15 at |eps| = 0.2.
_NEAR_INTEGER = 0.25

# Stieltjes constants gamma_j, with
#   zeta(1 + eps) - 1/eps = sum_j (-1)^j gamma_j eps^j / j!
_STIELTJES = (
    0.5772156649015329, -0.07281584548367673, -0.00969036319287232,
    0.002053834420303346, 0.0023253700654673, 0.0007933238173010627,
    -0.0002387693454301996, -0.000527289567057751, -0.0003521233538030395,
    -3.439477441808805e-05, 0.0002053328149090648, 0.0002701844395439035,
    0.0001672729121051402, -2.7463806603760158e-05, -0.00020920926205929996,
    -0.0002834686553202414,
)
# coefficients of zeta(1 + eps) - 1/eps in eps, highest power first
_ZETA_REGULAR = tuple(
    g * (-1.0) ** j / math.factorial(j) for j, g in enumerate(_STIELTJES))[::-1]
# powers eps^(m - 1), m = 2 .. _PAIR_TOP - 1, kept in the exponent series
# of the pole pair; the coefficients are below 2/m, so 30 terms reach
# 1e-19 at |eps| = 0.25
_PAIR_TOP = 32


def _horner(coeffs, x):
    """Polynomial with coefficients highest power first, at x."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


@functools.lru_cache(maxsize=16)
def _pole_exponent(n):
    """Series in eps, highest power first, of B(eps) with

        (pi eps / sin(pi eps)) Gamma(n) / Gamma(n + eps) = exp(eps B(eps)).

    B(0) = -psi(n); the eps^(m - 1) coefficient is zeta(m)(1 + (-1)^m)/m
    from the sine and (-1)^(m + 1) zeta(m, n)/m from the polygamma series
    of ln Gamma(n + eps) - ln Gamma(n), psi^(m-1)(n) = (-1)^m (m-1)! zeta(m, n).
    """
    import numpy as np
    from scipy import special as sc

    m = np.arange(2, _PAIR_TOP)
    hurwitz = sc.zeta(m, n)
    a = np.where(m % 2 == 0, 2.0 * sc.zeta(m) - hurwitz, hurwitz) / m
    return tuple(a[::-1].tolist()) + (-float(sc.digamma(n)),)


@functools.lru_cache(maxsize=64)
def _log_series(s):
    """Order-dependent constants of the log series for one order s.

    Returns (coeffs, gamma_1ms, pair).  ``coeffs`` are zeta(s - k)/k!,
    highest power first.  For a generic order ``gamma_1ms`` is
    Gamma(1 - s) and ``pair`` is None.  Within _NEAR_INTEGER of an integer
    n >= 1 the k = n - 1 coefficient is left out of ``coeffs`` and ``pair``
    is (n - 1, 1/(n - 1)!, zeta(1 + eps) - 1/eps, B(eps), eps).

    The cache is bounded: continuation runs such as the jamming extension
    visit a new order at every step.
    """
    import numpy as np
    from scipy import special as sc

    n = round(s)
    eps = s - n
    k = np.arange(_LOG_TERMS)
    coeffs = sc.zeta(s - k) / sc.gamma(k + 1.0)
    if n < 1 or abs(eps) >= _NEAR_INTEGER:
        return tuple(coeffs[::-1].tolist()), math.gamma(1.0 - s), None
    if n <= _LOG_TERMS:
        coeffs[n - 1] = 0.0
    pair = (n - 1, 1.0 / float(sc.gamma(n)), _horner(_ZETA_REGULAR, eps),
            _horner(_pole_exponent(n), eps), eps)
    return tuple(coeffs[::-1].tolist()), None, pair


def _polylog_log_series(s, mu):
    """Li_s(e^mu) for -0.52 < mu < 0 by the log series."""
    coeffs, gamma_1ms, pair = _log_series(s)
    total = _horner(coeffs, mu)
    if pair is None:
        return total + gamma_1ms * (-mu) ** (s - 1.0)
    # Gamma(1 - s)(-mu)^(s-1) + zeta(1 + eps) mu^(n-1)/(n-1)!
    #   = mu^(n-1)/(n-1)! [zeta(1 + eps) - 1/eps - (e^h - 1)/eps],
    # with h = eps (ln(-mu) + B(eps)); at eps = 0 the bracket is the
    # harmonic-number form H_(n-1) - ln(-mu).
    k, inv_fact, zeta_regular, b, eps = pair
    log_b = math.log(-mu) + b
    h = eps * log_b
    expm1_over_h = math.expm1(h) / h if h else 1.0
    return total + mu**k * inv_fact * (zeta_regular - log_b * expm1_over_h)


def polylog(s, z):
    """Real polylogarithm Li_s(z) for z in (0, 1] and real order s.

    Three branches, all in float64:

    - z = 1: zeta(s) for s > 1 (DivergenceError for s <= 1).
    - 0 < z <= 0.6: the defining power series sum_k z^k / k^s, summed
      until the geometric tail bound falls below 1e-17 of the sum.
    - 0.6 < z < 1: the log series in mu = ln z, Gamma(1 - s)(-mu)^(s-1)
      + sum_k zeta(s - k) mu^k / k!.  Within 0.25 of a positive integer
      n the two terms with poles at s = n are summed as one series in
      s - n (Stieltjes constants and polygamma values), which is exact at
      s = n and free of the cancellation near it.

    The log series agrees with mpmath at 30 digits to 2e-15 relative for
    s in [0.1, 4.5] (integer and near-integer orders included) and to
    1e-14 for s in [-3, 12], on z from 0.6 to the last float below 1.
    Below s = -76 the power series forms a term whose k^s underflows
    from k^(-s/2) twice.  Against mpmath at 30 digits, Li_-130(0.5) =
    4.6e240 is 1.7e-15 relative off, Li_-150(0.3) = 3.8e250 is 7.7e-16
    off, and 389 random pairs with s in [-170, -60], z in (0, 0.6] are
    within 2.6e-15.  A value Li_s(z) past the float range raises
    DomainError, and so does the log series below s = -170.6, where
    Gamma(1 - s) overflows.
    """
    if not math.isfinite(s):
        raise DomainError(f"polylog requires a finite order, got s={s}")
    if not (0 < z <= 1):
        raise DomainError(f"polylog requires z in (0, 1], got {z}")
    if z == 1:
        if s <= 1:
            raise DivergenceError(f"Li_s(1) diverges for s <= 1, got s={s}")
        return riemann_zeta(s)
    try:
        if z <= 0.6:
            value = _power_series(s, z)
        else:
            value = _polylog_log_series(s, math.log(z))
    except OverflowError:
        # k^(-s/2) overflows in the power series of a value past the float
        # range, and Gamma(1 - s) in the log series below s = -170.6
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"Li_s(z) at s={s}, z={z}: its series leaves the float range")
    return value


# the power series runs to k = 10001, and 10001**s is a normal float for
# s >= -76.9; below _LOW_ORDER it takes _power_series_low
_LOW_ORDER = -76.0


def _power_series(s, z):
    """Li_s(z) for 0 <= z <= 0.6 by the defining series sum_k z^k / k^s."""
    if s < _LOW_ORDER:
        return _power_series_low(s, z)
    # |tail| <= term * z / (1 - z) for s >= 0, and the k^-s factor only
    # helps the bound for s > 0.
    s_neg = min(s, 0.0)
    one_minus_z = 1 - z
    total = 0.0
    term = z
    k = 1
    while True:
        try:
            total += term / k**s
        except OverflowError:
            # k^s is past the float range (only for large s > 0);
            # this term and every later one are below 1e-308 of z^k
            break
        k += 1
        term *= z
        size = abs(total)
        if term / k**s_neg < \
                1e-17 * (size if size > 1e-300 else 1e-300) * one_minus_z:
            break
        if k > 10_000:
            break
    return total


def _power_series_low(s, z):
    """_power_series for s < _LOW_ORDER, where k**s can underflow.

    Where k**s is below the smallest normal float, z^k / k^s is formed as
    z^k k^(-s/2) k^(-s/2): k**-s itself overflows where the terms still
    count (from k = 114 for s = -150).  Where k**s is a normal float, the
    terms and the stopping test are those of ``_power_series``, float for
    float.
    """
    one_minus_z = 1 - z
    total = 0.0
    term = z
    k = 1
    while True:
        total += _over_power(term, k, s)
        k += 1
        term *= z
        size = abs(total)
        if _over_power(term, k, s) < \
                1e-17 * (size if size > 1e-300 else 1e-300) * one_minus_z:
            break
        if k > 10_000:
            break
    return total


def _over_power(x, k, s):
    """x / k**s, or x k^(-s/2) k^(-s/2) where k**s underflows."""
    p = k**s
    if p >= sys.float_info.min:
        return x / p
    r = k ** (-0.5 * s)
    return x * r * r


# Li_s(e^mu) takes the power series for mu <= ln 0.6, the log series above
_SERIES_SWITCH = math.log(0.6)


def _li(s, mu):
    """Li_s(e^mu) for mu < 0 by the branch ``polylog`` takes at z = e^mu,
    without rounding mu through z."""
    if mu <= _SERIES_SWITCH:
        return _power_series(s, math.exp(mu))
    return _polylog_log_series(s, mu)


def improper_quad(f, a, settings=DEFAULT_SETTINGS):
    """Integrate f over (a, infinity).

    Integrands must already be finite at the left endpoint (removable
    singularities handled by the caller's series branch).  Failure to
    converge raises AccuracyError carrying the best estimate.
    """
    from scipy.integrate import quad

    value, err, info, *rest = quad(
        f,
        a,
        math.inf,
        epsabs=settings.abs_tol,
        epsrel=settings.rel_tol,
        limit=settings.max_subdivisions,
        full_output=1,
    )
    if rest:
        best = BoseIntegralResult(value, err, info["neval"])
        raise AccuracyError(f"quadrature did not converge: {rest[0]}", best=best)
    return BoseIntegralResult(value, err, info["neval"])


# relative error bound of the closed forms below against mpmath
_CLOSED_FORM_REL = 1e-13


def bose_integral(gamma, kappa):
    """int_0^inf xi^gamma / (e^(xi - kappa) - 1) d(xi) for kappa <= 0.

    Equals Gamma(gamma+1) * Li_{gamma+1}(e^kappa), and
    Gamma(gamma+1) * zeta(gamma+1) at kappa = 0 (where gamma > 0).
    """
    if kappa > 0:
        raise DomainError(f"bose_integral requires kappa <= 0, got {kappa}")
    if gamma <= -1:
        raise DivergenceError(f"bose_integral diverges for gamma <= -1, got {gamma}")
    if kappa == 0 and gamma <= 0:
        raise DivergenceError(
            f"bose_integral with kappa = 0 requires gamma > 0, got {gamma}"
        )
    s = gamma + 1.0
    if kappa < 0:
        li = _li(s, kappa)
    elif gamma < _NEAR_INTEGER:
        # zeta(1 + gamma) in gamma itself: the 1/gamma pole would magnify
        # the rounding of s = 1 + gamma
        li = 1.0 / gamma + _horner(_ZETA_REGULAR, gamma)
    else:
        li = riemann_zeta(s)
    value = math.gamma(s) * li
    return BoseIntegralResult(value, _CLOSED_FORM_REL * abs(value), 2)


def _finite_n_log_series(gamma, mu, n_cap):
    """Li_{gamma+1}(e^mu) - N^-gamma Li_{gamma+1}(e^(N mu)) for
    ln 0.6 < N mu <= 0, where both take the log series.  Their singular
    terms Gamma(-gamma)(-mu)^gamma cancel exactly, which leaves
    sum_k zeta(gamma + 1 - k) mu^k (1 - N^(k - gamma)) / k!.  Near the
    pole of zeta, at k = round(gamma), that term is summed in
    eps = gamma - k itself, never through the rounded s = 1 + gamma, as
    (1 - N^-eps)/eps + (zeta(1 + eps) - 1/eps)(1 - N^-eps)."""
    coeffs, _, pair = _log_series(gamma + 1.0)
    total = _horner(coeffs, mu) - n_cap**-gamma * _horner(coeffs, n_cap * mu)
    if pair is None:
        return total
    k, inv_fact = pair[:2]
    eps = gamma - k
    log_n = math.log(n_cap)
    x = -eps * log_n
    pow_m1 = math.expm1(x)  # N^-eps - 1
    over_eps = log_n * pow_m1 / x if x else log_n  # (1 - N^-eps)/eps
    return total + mu**k * inv_fact * (
        over_eps - _horner(_ZETA_REGULAR, eps) * pow_m1)


def finite_n_integral(gamma, b, kappa, n_cap):
    """Finite-count corrected Bose integral.

    int_0^inf xi^gamma [1/(e^(b(xi+kappa)) - 1) - N/(e^(bN(xi+kappa)) - 1)] d(xi)
    = Gamma(gamma+1) b^(-gamma-1) [Li_{gamma+1}(e^(-b kappa)) - N^-gamma Li_{gamma+1}(e^(-bN kappa))],
    which is Gamma(gamma+1) zeta(gamma+1)(1 - N^-gamma)/b^(gamma+1) at
    kappa = 0, and ln(N)/b at gamma = kappa = 0.
    """
    if b <= 0:
        raise DomainError(f"finite_n_integral requires b > 0, got {b}")
    if kappa < 0:
        raise DomainError(f"finite_n_integral requires kappa >= 0, got {kappa}")
    if n_cap < 1:
        raise DomainError(f"finite_n_integral requires N >= 1, got {n_cap}")
    if gamma <= -1:
        raise DivergenceError(f"finite_n_integral diverges for gamma <= -1, got {gamma}")
    if n_cap == 1:
        return BoseIntegralResult(0.0, 0.0, 0)
    s = gamma + 1.0
    mu = -b * kappa
    if n_cap * mu > _SERIES_SWITCH:
        bracket = _finite_n_log_series(gamma, mu, n_cap)
    else:
        bracket = _li(s, mu) - n_cap**-gamma * _li(s, n_cap * mu)
    value = math.gamma(s) * b**-s * bracket
    return BoseIntegralResult(value, _CLOSED_FORM_REL * abs(value), 3)
