"""Special functions and closed-form Bose integrals.

Gamma, the Riemann zeta function and its derivative, real
polylogarithms on (0, 1] and their derivative in the order, Bose-Einstein
integrals and their finite-N corrected counterparts.  All of them are
float64 and pure Python.  zeta is summed by Euler-Maclaurin and taken
through the functional equation below s = 1/2.  Polylogarithms take the
power series, or the log series near z = 1, with zeta values for its
coefficients.  The Bose integrals are closed forms in them.  Only
``improper_quad``, which integrates other integrands by QUADPACK
(scipy.integrate.quad), needs scipy, and imports it inside the function.
"""

from __future__ import annotations

import functools
import math
import operator
import sys

from .errors import AccuracyError, DivergenceError, DomainError
from .records import record

__all__ = [
    "BoseIntegralResult",
    "gamma_fn",
    "zeta",
    "zeta_prime",
    "riemann_zeta",
    "polylog",
    "polylog_ds",
    "bose_integral",
    "finite_n_integral",
    "improper_quad",
]


class BoseIntegralResult(record("BoseIntegralResult", ["value", "evaluations"])):
    """Value of an improper integral with its cost count: QUADPACK's
    integrand evaluations for ``improper_quad``; for the closed forms, the
    Gamma, zeta and polylogarithm evaluations.  The closed forms are
    within 1e-13 relative of mpmath."""

    __slots__ = ()

    def __new__(cls, value, evaluations):
        if not math.isfinite(value):
            raise DomainError("integral value is not finite")
        return super().__new__(cls, value, evaluations)


def gamma_fn(x):
    """Gamma function for positive real argument."""
    if x <= 0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def _horner(coeffs, x):
    """Polynomial with coefficients highest power first, at x."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _derivative(coeffs):
    """Coefficients, highest power first, of the derivative of a polynomial."""
    top = len(coeffs) - 1
    return tuple(c * (top - i) for i, c in enumerate(coeffs[:-1]))


# zeta(x) for x >= 1/2 by Euler-Maclaurin summation anchored at N
# (Johansson, "Rigorous high-precision computation of the Hurwitz zeta
# function and its derivatives", Numer. Algorithms 69 (2015)):
#
#   zeta(x) = sum_{n<N} n^-x + N^(1-x)/(x-1) + N^-x/2
#             + sum_{j>=1} B_2j/(2j)! x (x+1) ... (x+2j-2) N^(-x-2j+1),
#
# and zeta'(x) from the same sums differentiated term by term.  At N = 10
# the ten Bernoulli terms leave a remainder below 1e-19 of zeta(x) for x
# in [1/2, 20], and a smaller one above.
_EM_N = 10
# the nodes n = 2 .. N of the direct sum (N is the anchor) and their logs
_EM_NODES = tuple(float(n) for n in range(2, _EM_N + 1))
_EM_LOGS = tuple(math.log(n) for n in range(2, _EM_N + 1))
# B_2j / (2j)!, j = 1 .. 10
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600,
              -3617 / 10670622842880000, 43867 / 5109094217170944000,
              -174611 / 802857662698291200000)
# the truncation target of a zeta value, absolute (|zeta(x)| > 1 for
# x >= 1/2 off the pole); below the sums' own rounding
_ZETA_TOL = 2.0**-60
_LN_2PI = math.log(2.0 * math.pi)
_HALF_PI = 0.5 * math.pi
# (pi - math.pi) / math.pi: pi^a = math.pi^a (1 + a _PI_LO) to 1e-32 a^2
_PI_LO = 1.2246467991473532e-16 / math.pi
# B_2k / (2k), k = 7 .. 1: psi(x) = ln x - 1/(2x) - sum_k B_2k / (2k x^2k)
_PSI_ASYMPTOTIC = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252,
                   -1 / 120, 1 / 12)
# g(u) = (sin(u)/u - cos(u))/u = u sum_j (-1)^(j+1) 2j u^(2j-2) / (2j+1)!,
# the sum in u^2, highest power first; 10 terms reach 1e-20 at |u| = 0.8
_POLE_SINC = tuple((-1) ** (j + 1) * 2 * j / math.factorial(2 * j + 1)
                   for j in range(1, 11))[::-1]


def _digamma(x):
    """psi(x) for real x other than 0, -1, -2, ...: the reflection
    psi(x) = psi(1 - x) - pi cot(pi x) below 1/2, the recurrence
    psi(x) = psi(x + 1) - 1/x up to 10, and the asymptotic series there
    (its first omitted term is 4e-17)."""
    if x < 0.5:
        # x - round(x) is exact, and cot(pi x) = cot(pi (x - round(x)))
        return _digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - inv2 * _horner(_PSI_ASYMPTOTIC, inv2)


def _sincos_half_pi(s):
    """sin(pi s/2) and cos(pi s/2), with the argument reduced exactly:
    s/2 - round(s/2) is a float, so the trivial zeros of zeta stay zeros."""
    t = 0.5 * s
    n = round(t)
    r = math.pi * (t - n)
    sin, cos = math.sin(r), math.cos(r)
    return (-sin, -cos) if n % 2 else (sin, cos)


def _em_sums(x, powers, pm, m, tol):
    """Euler-Maclaurin sums of zeta(x) and zeta'(x) anchored at m, less
    the pole term m^(1-x)/(x-1) and its derivative.  ``powers`` holds
    n^-x for n = 2 .. m-1, and pm is m^-x.  The Bernoulli terms stop at
    the first one below tol."""
    lnm = _EM_LOGS[m - 2]
    r = 1.0 + sum(powers) + 0.5 * pm
    dr = -sum(map(operator.mul, powers, _EM_LOGS)) - 0.5 * lnm * pm
    # u = x (x+1) ... (x+2j-2) m^(-x-2j+1); h = d ln(u)/dx + ln m
    u = x * pm / m
    h = 1.0 / x
    a = x
    inv_m2 = 1.0 / (m * m)
    for b in _BERNOULLI:
        t = b * u
        r += t
        dr += t * (h - lnm)
        if -tol < t < tol:
            break
        a1 = a + 1.0
        a += 2.0
        u *= a1 * a * inv_m2
        h += 1.0 / a1 + 1.0 / a
    return r, dr


def _zeta_em(x, tol):
    """zeta(x) and zeta'(x) for x >= 1/2, x != 1, by Euler-Maclaurin at N
    = 10, truncated at tol.  x - 1 is exact near the pole."""
    powers = [n ** -x for n in _EM_NODES]
    pm = powers.pop()
    r, dr = _em_sums(x, powers, pm, _EM_N, tol)
    xm1 = x - 1.0
    pole = _EM_N * pm / xm1
    return r + pole, dr - pole * (_EM_LOGS[-1] + 1.0 / xm1)


def _reflected(s, count, weights=None):
    """zeta(s - j) and zeta'(s - j) for j < count and s < 1/2, as two lists.

    With x = 1 - s and A = 2^s pi^(s-1) Gamma(x), the functional
    equation gives

        zeta(s) = A sin(pi s/2) zeta(x),
        zeta'(s) = A [(sin(pi s/2)(ln 2pi - psi(x)) + (pi/2) cos(pi s/2)) zeta(x)
                      - sin(pi s/2) zeta'(x)].

    Down the ladder s - j, x rises by one, and A, psi(x), the powers
    n^-x, the sine and the cosine follow by recurrences.  The pole term
    N^(1-x)/(x-1) of zeta(x) is multiplied into the sine before it is
    added.  Its limit at s = 0 is exact, and so is the cancellation of
    its two 1/s parts in zeta'(s), by the series of g.

    With ``weights``, value j is needed only to an absolute error of
    tol = _ZETA_TOL / (|A| weights[j]) in zeta(x).  Its Euler-Maclaurin
    sum stops at the first Bernoulli term below tol.  Once the tail
    sum_{n>=N} n^-x alone is below tol/4 (the 4 covers zeta'), the
    ladder sums n^-x directly and drops each last node n whose tail
    n^-x (1 + n/(x-1)) falls below tol/4.  Without weights, every value
    is summed to _ZETA_TOL.
    """
    x = 1.0 - s
    powers = [n ** -x for n in _EM_NODES]
    pm = powers.pop()
    direct = False
    sin, cos = _sincos_half_pi(s)
    amp = 2.0**s * math.pow(math.pi, s - 1.0) * (1.0 + (s - 1.0) * _PI_LO) \
        * math.gamma(x)
    psi = _digamma(x)
    half_pi, mul, truediv = _HALF_PI, operator.mul, operator.truediv
    zs, dzs = [], []
    for j in range(count):
        tol = _ZETA_TOL
        if weights is not None:
            scale = abs(amp) * weights[j]
            if 8.0 * scale < _ZETA_TOL and x < 12.0 * (j + 1):
                # this value adds below 2^-61 to its weighted sum, and the
                # later ones, whose scales shrink by 8 or more, less
                zs += [0.0] * (count - j)
                dzs += [0.0] * (count - j)
                break
            if scale < 1.0:
                tol /= scale
            direct = direct or 4.0 * pm * (x - 1.0 + _EM_N) < tol * (x - 1.0)
        lg = _LN_2PI - psi
        if direct:
            while powers and 4.0 * powers[-1] * (x + len(powers)) < tol * (x - 1.0):
                powers.pop()
            r = 1.0 + sum(powers)
            dr = -sum(map(mul, powers, _EM_LOGS))
            zs.append(amp * sin * r)
            dzs.append(amp * ((sin * lg + half_pi * cos) * r - sin * dr))
        else:
            r, dr = _em_sums(x, powers, pm, _EM_N, tol)
            mp = _EM_N * pm
            e = s - j  # 1 - x, exact where it is small
            if e == 0.0:
                q, w = -half_pi, 0.0
            else:
                # q = sin / (x - 1), w = ((pi/2) cos + q) / (x - 1)
                q = -sin / e
                if -0.5 < e < 0.5:
                    u = half_pi * e
                    w = half_pi * half_pi * u * _horner(_POLE_SINC, u * u)
                else:
                    w = -(half_pi * cos + q) / e
            zs.append(amp * (sin * r + q * mp))
            dzs.append(amp * ((sin * lg + half_pi * cos) * r - sin * dr
                              + mp * ((lg + _EM_LOGS[-1]) * q + w)))
            pm /= _EM_N
        # s - j falls by one: sin(t - pi/2) = -cos(t), cos(t - pi/2) = sin(t)
        sin, cos = -cos, sin
        amp *= x / (2.0 * math.pi)
        psi += 1.0 / x
        x += 1.0
        powers = list(map(truediv, powers, _EM_NODES))
    return zs, dzs


@functools.lru_cache(maxsize=64)
def _zeta_pair(s):
    """zeta(s) and zeta'(s) for finite s != 1.  Cached: an isotherm point
    takes zeta at the same few orders each time."""
    if not math.isfinite(s) or s == 1.0:
        raise DomainError(f"zeta requires a finite s other than 1, got s={s}")
    if s >= 0.5:
        return _zeta_em(s, _ZETA_TOL)
    try:
        (z,), (dz,) = _reflected(s, 1)
    except OverflowError:
        raise DomainError(
            f"zeta at s={s}: Gamma(1 - s) leaves the float range") from None
    return z, dz


def zeta(s):
    """Riemann zeta for real s != 1, in pure Python.

    Euler-Maclaurin summation for s >= 1/2, the functional equation
    below.  Against mpmath on 2000 random s in [-16, 3.5], the worst
    relative error is ~4e-15; scipy.special.zeta's is 1.7e-13 on the same
    points.  The trivial zeros are exact.  Below s = -170.6, Gamma(1 - s)
    leaves the float range and a DomainError is raised.
    """
    return _zeta_pair(s)[0]


def zeta_prime(s):
    """zeta'(s) for real s != 1, from the same sums as ``zeta``,
    differentiated term by term."""
    return _zeta_pair(s)[1]


def riemann_zeta(s):
    """Riemann zeta for s > 1 (pole at s = 1)."""
    if s <= 1:
        raise DomainError(f"riemann_zeta requires s > 1 (pole at 1), got {s}")
    return zeta(s)


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
# |mu|^k / k! at the largest |mu|, -ln 0.6: the weight of coefficient k
_INV_FACT = tuple(1.0 / math.factorial(k) for k in range(_LOG_TERMS))
# Li_s(e^mu) takes the power series for mu <= ln 0.6, the log series above
_SERIES_SWITCH = math.log(0.6)
_LOG_WEIGHTS = tuple((-_SERIES_SWITCH) ** k * f for k, f in enumerate(_INV_FACT))

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
# coefficients of zeta(1 + eps) - 1/eps in eps, highest power first, and
# of its derivative
_ZETA_REGULAR = tuple(
    g * (-1.0) ** j / math.factorial(j) for j, g in enumerate(_STIELTJES))[::-1]
_ZETA_REGULAR_PRIME = _derivative(_ZETA_REGULAR)
# powers eps^(m - 1), m = 2 .. _PAIR_TOP - 1, kept in the exponent series
# of the pole pair; the coefficients are below 2/m, so 30 terms reach
# 1e-19 at |eps| = 0.25
_PAIR_TOP = 32
# d/dh of expm1(h)/h = sum_m m h^(m-1) / (m+1)!, highest power first;
# 21 terms reach 2e-20 at |h| = 1
_EXPM1_RATIO_PRIME = tuple(m / math.factorial(m + 1) for m in range(1, 22))[::-1]


def _hurwitz(m, n):
    """Hurwitz zeta(m, n) = sum_{j>=0} (n + j)^-m for integers m >= 2,
    n >= 1, summed from n itself: ten terms, then Euler-Maclaurin
    anchored at n + 10."""
    a = n + 10
    total = sum((n + j) ** -m for j in range(10))
    total += a ** (1 - m) / (m - 1) + 0.5 * a ** -m
    u = m * a ** (-m - 1)  # m (m+1) ... (m+2j-2) a^(-m-2j+1)
    for j, b in enumerate(_BERNOULLI):
        total += b * u
        u *= (m + 2 * j + 1) * (m + 2 * j + 2) / (a * a)
    return total


@functools.lru_cache(maxsize=16)
def _pole_exponent(n):
    """Series in eps, highest power first, of B(eps) with

        (pi eps / sin(pi eps)) Gamma(n) / Gamma(n + eps) = exp(eps B(eps)),

    and of B'(eps).  B(0) = -psi(n) = gamma_E - H_(n-1); the eps^(m - 1)
    coefficient is zeta(m)(1 + (-1)^m)/m from the sine and
    (-1)^(m + 1) zeta(m, n)/m from the polygamma series of
    ln Gamma(n + eps) - ln Gamma(n), psi^(m-1)(n) = (-1)^m (m-1)! zeta(m, n).
    """
    a = []
    for m in range(2, _PAIR_TOP):
        hurwitz = _hurwitz(m, n)
        a.append((2.0 * zeta(m) - hurwitz if m % 2 == 0 else hurwitz) / m)
    # psi(n) = H_(n-1) - gamma_E; its n - 1 terms would hang a huge order
    psi = math.fsum(1.0 / j for j in range(1, n)) - _STIELTJES[0] \
        if n <= 10_000 else _digamma(float(n))
    series = tuple(a[::-1]) + (-psi,)
    return series, _derivative(series)


@functools.lru_cache(maxsize=16)
def _log_ladder(s, first):
    """zeta(s - j) and zeta'(s - j) for s < 1/2 and j < _LOG_TERMS - first,
    as tuples, each to the accuracy it needs as log-series coefficient
    first + j or later."""
    zs, dzs = _reflected(s, _LOG_TERMS - first, _LOG_WEIGHTS[first:])
    return tuple(zs), tuple(dzs)


@functools.lru_cache(maxsize=64)
def _log_series(s):
    """Order-dependent constants of the log series and of its s-derivative.

    Returns (coeffs, dcoeffs, gamma_1ms, psi_1ms, pair).  ``coeffs`` are
    zeta(s - k)/k! and ``dcoeffs`` zeta'(s - k)/k!, highest power first.
    For a generic order gamma_1ms is Gamma(1 - s), psi_1ms is psi(1 - s),
    and pair is None.  Within _NEAR_INTEGER of an integer n >= 1 the
    k = n - 1 coefficients are left out, and pair is (n - 1, 1/(n - 1)!,
    eps, zeta(1 + eps) - 1/eps and its derivative, B(eps) and B'(eps)).

    Coefficient k is weighted by |mu|^k/k! < 0.511^k/k!, so its zeta
    values need only an absolute error of 2^-60 over that weight.  The
    values at s - k >= 1/2 are Euler-Maclaurin sums.  Those below come
    from one ladder of the functional equation from s - k0, cached apart,
    which orders one apart mostly share, such as gamma + 1 and gamma + 2
    in the jamming continuation.

    Both caches are bounded: continuation runs such as the jamming
    extension visit a new order at every step.
    """
    n = round(s)
    eps = s - n
    pair_k = n - 1 if n >= 1 and abs(eps) < _NEAR_INTEGER else -1
    # the first k with s - k < 1/2
    k0 = min(max(math.floor(s + 0.5), 0), _LOG_TERMS)
    coeffs, dcoeffs = [], []
    for k in range(k0):
        z, dz = _zeta_em(s - k, _ZETA_TOL / _LOG_WEIGHTS[k]) if k != pair_k \
            else (0.0, 0.0)
        coeffs.append(z * _INV_FACT[k])
        dcoeffs.append(dz * _INV_FACT[k])
    if k0 < _LOG_TERMS:
        # The ladder starts from t = s - k0 rounded to the float grid of
        # t + 2, c = (t + 2) - 2, so that orders one apart, whose t differ
        # by rounding only (gamma + 1 and gamma + 2), share it, and so does
        # every k0 >= 1.  Its values move to t to first order, zeta(t - j)
        # = zeta(c - j) + (t - c) zeta'(c - j), with |t - c| <= 2^-52 and
        # an error of order (t - c)^2; zeta' is kept at c.
        t = s - k0
        c = (t + 2.0) - 2.0
        zs, dzs = _log_ladder(c, min(k0, 1))
        shift = t - c
        coeffs += [(z + shift * dz) * f
                   for z, dz, f in zip(zs, dzs, _INV_FACT[k0:])]
        dcoeffs += map(operator.mul, dzs, _INV_FACT[k0:])
    coeffs, dcoeffs = tuple(coeffs[::-1]), tuple(dcoeffs[::-1])
    if pair_k < 0:
        return coeffs, dcoeffs, math.gamma(1.0 - s), _digamma(1.0 - s), None
    # 1/(n-1)! is 0.0 from n ~ 178 on; lgamma(n) overflows past 2.5e305
    inv_fact = _INV_FACT[pair_k] if pair_k < _LOG_TERMS \
        else math.exp(-math.lgamma(min(n, 200)))
    b, db = _pole_exponent(n)
    pair = (pair_k, inv_fact, eps,
            _horner(_ZETA_REGULAR, eps), _horner(_ZETA_REGULAR_PRIME, eps),
            _horner(b, eps), _horner(db, eps))
    return coeffs, dcoeffs, None, None, pair


def _polylog_log_series(s, mu):
    """Li_s(e^mu) for -0.52 < mu < 0 by the log series."""
    coeffs, _, gamma_1ms, _, pair = _log_series(s)
    total = _horner(coeffs, mu)
    if pair is None:
        return total + gamma_1ms * (-mu) ** (s - 1.0)
    # Gamma(1 - s)(-mu)^(s-1) + zeta(1 + eps) mu^(n-1)/(n-1)!
    #   = mu^(n-1)/(n-1)! [zeta(1 + eps) - 1/eps - (e^h - 1)/eps],
    # with h = eps (ln(-mu) + B(eps)); at eps = 0 the bracket is the
    # harmonic-number form H_(n-1) - ln(-mu).
    k, inv_fact, eps, zeta_regular, _, b, _ = pair
    log_b = math.log(-mu) + b
    h = eps * log_b
    expm1_over_h = math.expm1(h) / h if h else 1.0
    return total + mu**k * inv_fact * (zeta_regular - log_b * expm1_over_h)


def _polylog_log_series_ds(s, mu):
    """d Li_s(e^mu)/ds for -0.52 < mu < 0, the log series differentiated
    in s: Gamma(1 - s)(-mu)^(s-1)(ln(-mu) - psi(1 - s)) + sum_k
    zeta'(s - k) mu^k / k!, and near an integer the eps-derivative of the
    pole pair of ``_polylog_log_series``."""
    _, dcoeffs, gamma_1ms, psi_1ms, pair = _log_series(s)
    total = _horner(dcoeffs, mu)
    if pair is None:
        log_mu = math.log(-mu)
        return total + gamma_1ms * (-mu) ** (s - 1.0) * (log_mu - psi_1ms)
    # the bracket's derivative: with L = ln(-mu) + B(eps), h = eps L and
    # (e^h - 1)/eps = L E(h), E(h) = expm1(h)/h, it is
    # zeta_regular' - B'(eps) e^h - L^2 E'(h)
    k, inv_fact, eps, _, zeta_regular_prime, b, db = pair
    log_b = math.log(-mu) + b
    h = eps * log_b
    if -1.0 < h < 1.0:
        ratio_prime = _horner(_EXPM1_RATIO_PRIME, h)
    else:
        ratio_prime = (h * math.exp(h) - math.expm1(h)) / (h * h)
    return total + mu**k * inv_fact * (
        zeta_regular_prime - db * math.exp(h) - log_b * log_b * ratio_prime)


def _series(s, z, at_one, power, log_series, name):
    """The value ``name`` of ``polylog`` or ``polylog_ds`` at (s, z):
    at_one(s) at z = 1, power(s, z) for mu = ln z <= _SERIES_SWITCH and
    log_series(s, mu) above.  A series past the float range raises
    DomainError, as an OverflowError on the way does: k^(-s/2) in the
    power series of such a value, Gamma(1 - s) in the log series below
    s = -170.6."""
    if not math.isfinite(s):
        raise DomainError(f"polylog requires a finite order, got s={s}")
    if not (0 < z <= 1):
        raise DomainError(f"polylog requires z in (0, 1], got {z}")
    if z == 1:
        if s <= 1:
            raise DivergenceError(f"Li_s(1) diverges for s <= 1, got s={s}")
        return at_one(s)
    mu = math.log(z)
    try:
        value = power(s, z) if mu <= _SERIES_SWITCH else log_series(s, mu)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} at s={s}, z={z}: its series leaves the float range")
    return value


def polylog(s, z):
    """Real polylogarithm Li_s(z) for z in (0, 1] and real order s.

    Three branches, all in float64:

    - z = 1: zeta(s) for s > 1 (DivergenceError for s <= 1).
    - 0 < z <= 0.6: the defining power series sum_k z^k / k^s, summed
      until its next term falls below 1e-17 (1 - z) of the sum.
    - 0.6 < z < 1: the log series in mu = ln z, Gamma(1 - s)(-mu)^(s-1)
      + sum_k zeta(s - k) mu^k / k!, with the pure-Python ``zeta``
      for the coefficients.  Within 0.25 of a positive integer n, the
      two terms with poles at s = n are summed as one series in s - n
      (Stieltjes constants and polygamma values).  That series is exact
      at s = n and free of the cancellation near it.

    The log series agrees with mpmath at 30 digits to 2e-15 relative for
    s in [0.1, 4.5] (integer and near-integer orders included) and to
    1e-14 for s in [-3, 12], on z from 0.6 to the last float below 1.
    Where k^s underflows (s << 0), the power series forms the term
    from k^(-s/2) twice.  Against mpmath at 30 digits, Li_-130(0.5) =
    4.6e240 is 1.7e-15 relative off, Li_-150(0.3) = 3.8e250 is 7.7e-16
    off, and 389 random pairs with s in [-170, -60], z in (0, 0.6] are
    within 2.6e-15.  A value Li_s(z) past the float range raises
    DomainError, and so does the log series below s = -170.6, where
    Gamma(1 - s) overflows.
    """
    return _series(s, z, riemann_zeta, _power_series, _polylog_log_series,
                   "Li_s(z)")


def polylog_ds(s, z):
    """d Li_s(z)/ds, the derivative of ``polylog`` in its order, for z in
    (0, 1] and real s, on the same three branches: zeta'(s) at z = 1,
    -sum_k ln(k) z^k / k^s for z <= 0.6, and the log series
    differentiated term by term above.  Each is analytic in s, with no
    difference quotient.  It raises as ``polylog`` does.

    Against mpmath.diff of mpmath.polylog at 30 digits: within ~1e-15
    relative at integer and near-integer orders (the paired branch) and
    on the power series, and within 1.1e-14 at generic orders near the
    pair's edge (s = 1.3), where the derivative of the Gamma(1 - s) term
    cancels most of zeta'(s).
    """
    return _series(s, z, zeta_prime, _power_series_ds, _polylog_log_series_ds,
                   "dLi_s(z)/ds")


# the power series stops at k = 10000 whatever its terms
_MAX_TERMS = 10_000


def _power_series(s, z):
    """Li_s(z) for 0 < z <= 0.6 by the defining series sum_k z^k / k^s.

    Each term is formed once: z^k / k^s, or z^k k^(-s/2) k^(-s/2) where
    k^s is below the smallest normal float (s << 0, where k**-s itself
    overflows while the terms still count: from k = 114 at s = -150).
    The sum stops before the first term below 1e-17 (1 - z) of it.  All
    terms are positive and unimodal in k, so the sum is past the peak
    there, and every later term is smaller still: below half an ulp of
    the sum, so that adding it would not change a bit.
    """
    one_minus_z = 1 - z
    tiny = sys.float_info.min
    total = power = z  # the first term, z / 1^s, is always added
    for k in range(2, _MAX_TERMS + 1):
        power *= z
        try:
            p = k**s
        except OverflowError:
            # k^s is past the float range (only for large s > 0);
            # this term and every later one are below 1e-308 of z^k
            break
        if p >= tiny:
            term = power / p
        else:
            r = k ** (-0.5 * s)  # an OverflowError here reaches polylog
            term = power * r * r
        if term < 1e-17 * (total if total > 1e-300 else 1e-300) * one_minus_z:
            break
        total += term
    return total


def _over_power(x, k, s):
    """x / k**s, or x k^(-s/2) k^(-s/2) where k**s underflows."""
    p = k**s
    if p >= sys.float_info.min:
        return x / p
    r = k ** (-0.5 * s)
    return x * r * r


def _power_series_ds(s, z):
    """d Li_s(z)/ds = -sum_k ln(k) z^k / k^s for 0 < z <= 0.6, each term
    formed once, as in ``_power_series``, times ln k.  The ratio of
    consecutive terms tends to z from above, so the sum stops before the
    first term after k = 2 that is below 5e-18 (1 - z) of it.  Where
    z^k has left the normal range and s < 0 may lift the term back into
    it, the term is (z k^(-s/k))^k, so no subnormal's digits are kept.
    An OverflowError of k^s, of k^(-s/2) or of that power ends the sum."""
    one_minus_z = 1 - z
    total = 0.0
    power = z
    for k in range(2, _MAX_TERMS + 1):
        power *= z
        try:
            if power < sys.float_info.min and s < 0:
                term = math.log(k) * (z * k ** (-s / k)) ** k
            else:
                term = math.log(k) * _over_power(power, k, s)
        except OverflowError:
            break
        if k > 2 and term < \
                5e-18 * (-total if total < -1e-300 else 1e-300) * one_minus_z:
            break
        total -= term
    return total


def _li(s, mu):
    """Li_s(e^mu) for mu < 0 by the branch ``polylog`` takes at z = e^mu,
    without rounding mu through z."""
    if mu <= _SERIES_SWITCH:
        return _power_series(s, math.exp(mu))
    return _polylog_log_series(s, mu)


# perfbench's spans wrap improper_quad(f, a) and read
# BoseIntegralResult.evaluations, so both keep their signatures
def improper_quad(f, a):
    """Integrate f over (a, infinity) by QUADPACK (scipy.integrate.quad),
    to 1e-12 absolute or 1e-10 relative in at most 60 subdivisions.

    The one function of the package that needs scipy; it stays only
    until ROADMAP item 5 unbinds it from perfbench.  Integrands
    must already be finite at the left endpoint (removable singularities
    handled by the caller's series branch).  Failure to converge raises
    AccuracyError carrying the best estimate.
    """
    from scipy.integrate import quad

    value, _, info, *rest = quad(f, a, math.inf, epsabs=1e-12, epsrel=1e-10,
                                 limit=60, full_output=1)
    result = BoseIntegralResult(value, info["neval"])
    if rest:
        raise AccuracyError(f"quadrature did not converge: {rest[0]}", best=result)
    return result


def bose_integral(gamma, kappa):
    """int_0^inf xi^gamma / (e^(xi - kappa) - 1) d(xi) for kappa <= 0.

    Equals Gamma(gamma+1) * Li_{gamma+1}(e^kappa), and
    Gamma(gamma+1) * zeta(gamma+1) at kappa = 0 (where gamma > 0);
    within 1e-13 relative of mpmath.  A Gamma(gamma+1) past the float
    range is a DomainError naming the arguments.
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
    try:
        value = math.gamma(s) * li
    except OverflowError:
        raise DomainError(
            f"bose_integral({gamma!r}, {kappa!r}) overflows a float") from None
    return BoseIntegralResult(value, 2)


def _finite_n_log_series(gamma, mu, n_cap):
    """Li_{gamma+1}(e^mu) - N^-gamma Li_{gamma+1}(e^(N mu)) for
    ln 0.6 < N mu <= 0, where both take the log series.  Their singular
    terms Gamma(-gamma)(-mu)^gamma cancel exactly, which leaves
    sum_k zeta(gamma + 1 - k) mu^k (1 - N^(k - gamma)) / k!.  Near the
    pole of zeta, at k = round(gamma), that term is summed in
    eps = gamma - k itself, never through the rounded s = 1 + gamma, as
    (1 - N^-eps)/eps + (zeta(1 + eps) - 1/eps)(1 - N^-eps)."""
    coeffs, _, _, _, pair = _log_series(gamma + 1.0)
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
    kappa = 0, and ln(N)/b at gamma = kappa = 0; within 1e-13 relative
    of mpmath.  A Gamma(gamma+1) or b^-(gamma+1) past the float range is
    a DomainError naming the arguments.
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
        return BoseIntegralResult(0.0, 0)
    s = gamma + 1.0
    mu = -b * kappa
    if n_cap * mu > _SERIES_SWITCH:
        bracket = _finite_n_log_series(gamma, mu, n_cap)
    else:
        bracket = _li(s, mu) - n_cap**-gamma * _li(s, n_cap * mu)
    try:
        value = math.gamma(s) * b**-s * bracket
    except OverflowError:
        raise DomainError(f"finite_n_integral({gamma!r}, {b!r}, {kappa!r}, "
                          f"{n_cap!r}) overflows a float") from None
    return BoseIntegralResult(value, 3)
