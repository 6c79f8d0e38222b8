"""Independent reference implementations used only by the tests.

Each oracle deliberately uses a different algorithm from the library
code it checks: a fixed-cut Euler-Maclaurin sum and mpmath for zeta and
zeta', mpmath.diff of mpmath.polylog for the order derivative of Li_s
and the jamming slope, an adaptive DOP853 solve of the jamming gamma(mu)
on the library's slope, the pentagonal
recurrence for partition totals, exhaustive enumeration and the
parts-at-most-k recurrence for restricted counts, truncated power
series and mpmath at raised precision for polylogarithms and the Bose
integrals, trapezoid sums and QUADPACK for
integrals, central differences for derivatives, an adaptive
DOP853 solve in kappa for the phi(V) trace, the quotient-rule dE/dr
of the scattering energy, which does not go through the level function
A(r), and an mpmath sign scan refined by findroot for the stationary
radii of the scattering energy.  mpmath is a
test-only dependency (the ``test`` extra); the library itself does not
import it.  scipy's C brentq is the oracle for the library's
step-for-step port of Brent's method (``zenoline.roots``); the library
no longer imports scipy.optimize.  One reference is not independent:
``ideal_isotherm_reference`` is the ideal isotherm's own former loop,
kept to pin the floats of the ideal isotherm now solved as a deformed one.
"""

import itertools
import math
from collections import namedtuple

import mpmath
from scipy.integrate import quad
from scipy.optimize import brentq as brentq_scipy  # noqa: F401

from zenoline import specfun
from zenoline.diagram import IsothermPoint
from zenoline.errors import DomainError
from zenoline.roots import brentq


def zeta_euler_maclaurin(s, cut=50):
    """zeta(s) for s > 1 by direct summation to `cut` plus the
    Euler-Maclaurin tail correction through the B_4 term."""
    assert s > 1
    total = sum(k ** (-s) for k in range(1, cut))
    n = float(cut)
    total += n ** (-s) / 2.0
    total += n ** (1.0 - s) / (s - 1.0)
    total += s * n ** (-s - 1.0) / 12.0
    total -= s * (s + 1.0) * (s + 2.0) * n ** (-s - 3.0) / 720.0
    return total


def polylog_series(s, z, tol=1e-14):
    """Li_s(z) for 0 < z < 1 by the defining power series with an
    explicit geometric tail bound."""
    assert 0 < z < 1
    total, term, k = 0.0, z, 1
    while True:
        total += term / k ** s
        k += 1
        term *= z
        tail = term / max(k ** s, 1.0) / (1.0 - z)
        if tail < tol * max(abs(total), 1.0):
            return total


def _digits_below_one(z):
    """ceil(-log10 z), the decimal orders of magnitude of z below 1; 0
    for z >= 1."""
    return max(0, math.ceil(-math.log10(z))) if z > 0 else 0


def polylog_mpmath(s, z, dps=None):
    """Li_s(z) for 0 < z <= 1 by mpmath at `dps` significant digits,
    rounded to float; exact at integer orders, and 30 digits leave 22
    after the cancellation at |s - n| = 1e-8.  mpmath's series stops at
    an absolute tolerance, so the default carries the digits of z on top
    of 30."""
    if dps is None:
        dps = 30 + _digits_below_one(z)
    with mpmath.workdps(dps):
        return float(mpmath.polylog(s, z))


def bachinskii_mpmath(b, c, P, dps=40):
    """Both density roots of P = c rho (1 - c rho / (4b)) by mpmath at
    `dps` digits, the schoolbook quadratic formula, rounded to floats."""
    with mpmath.workdps(dps):
        b, c, P = mpmath.mpf(b), mpmath.mpf(c), mpmath.mpf(P)
        s = mpmath.sqrt(1 - P / b)
        return float(2 * b / c * (1 - s)), float(2 * b / c * (1 + s))


def zeta_mpmath(s, derivative=0, dps=30):
    """zeta(s), or zeta'(s) with derivative=1, by mpmath at `dps` digits,
    rounded to float."""
    with mpmath.workdps(dps):
        return float(mpmath.zeta(mpmath.mpf(s), derivative=derivative))


# step of the mpmath.diff oracles: mpmath's own step fails at integer
# orders (at s = 1, z = 0.9 it is 5.5e-10 off the direct sum
# -sum_k ln(k) z^k / k^s); a fixed central step of 1e-12 at 30 digits
# leaves ~18 digits and agrees with that sum to 1e-19
_DIFF_STEP = mpmath.mpf(10) ** -12


def polylog_ds_mpmath(s, z, dps=None):
    """d Li_s(z)/ds by mpmath.diff of mpmath.polylog at `dps` digits, with
    the float s and z taken exactly.  The default is 40 digits, plus
    twice the digits of z, which mpmath's absolute stop would lose, plus
    0.31 s (about log10 2^s) at positive orders."""
    if dps is None:
        dps = 40 + 2 * _digits_below_one(z) + math.ceil(0.31 * max(s, 0.0))
    with mpmath.workdps(dps):
        return float(mpmath.diff(lambda t: mpmath.polylog(t, mpmath.mpf(z)),
                                 mpmath.mpf(s), h=_DIFF_STEP))


def _z_ratio_mp(gamma, a):
    return mpmath.polylog(gamma + 2, a) / mpmath.polylog(gamma + 1, a)


def gamma_slope_mpmath(gamma, mu, dps=30):
    """d/d(gamma) of Z = Li_{gamma+2}(a) / Li_{gamma+1}(a), by mpmath.diff
    of mpmath.polylog at `dps` digits, with the orders gamma + 1 and
    gamma + 2 exact.  a is the float math.exp(mu), as the library forms
    it: near mu = 0 its rounding moves the slope far more than 1e-16."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(math.exp(mu))
        return float(mpmath.diff(lambda g: _z_ratio_mp(g, a),
                                 mpmath.mpf(gamma), h=_DIFF_STEP))


def jamming_gamma_ivp(mu_grid, gamma0):
    """gamma(mu) of the jamming continuation on the grid, by scipy's
    adaptive DOP853 on gamma' = ``diagram._gamma_slope`` from gamma0 at
    mu = 0 (first step 1e-12, rtol 1e-13, atol 1e-16).  The slope is held
    to mpmath by the jamming tests; this checks the integration."""
    from scipy.integrate import solve_ivp

    from zenoline import diagram

    sol = solve_ivp(lambda mu, y: [diagram._gamma_slope(y[0], mu)],
                    (mu_grid[0], mu_grid[-1]), [gamma0], method="DOP853",
                    t_eval=mu_grid, first_step=1e-12, rtol=1e-13, atol=1e-16)
    return [float(g) for g in sol.y[0]]


def bose_mpmath(gamma, kappa, dps=30):
    """int_0^inf x^gamma / (e^(x - kappa) - 1) dx for kappa <= 0 by mpmath
    at `dps` digits, as Gamma(gamma+1) Li_{gamma+1}(e^kappa) with e^kappa
    taken in mpmath from the float kappa."""
    with mpmath.workdps(dps):
        g = mpmath.mpf(gamma)
        if kappa == 0:
            return float(mpmath.gamma(g + 1) * mpmath.zeta(g + 1))
        return float(mpmath.gamma(g + 1)
                     * mpmath.polylog(g + 1, mpmath.exp(mpmath.mpf(kappa))))


def finite_n_mpmath(gamma, b, kappa, n_cap, dps=40):
    """int_0^inf x^g [1/(e^y - 1) - N/(e^(N y) - 1)] dx, y = b (x + kappa),
    by mpmath at `dps` digits.  Expanding both occupancies geometrically
    gives Gamma(g+1) b^(-g-1) [Li_{g+1}(e^(-b kappa)) - N^-g Li_{g+1}(e^(-bN kappa))];
    at kappa = 0, Gamma(g+1) zeta(g+1)(1 - N^-g) / b^(g+1), or ln N / b
    at g = 0.  Every input float is taken exactly, so nothing rounds
    before the cancellation of the two terms.

    The default is 40 digits, not 30: at 30, mpmath's Li_{1/2} near z = 1
    is good to ~1e-19, and the 1e6-fold cancellation of the two terms at
    g = -1/2, b kappa = 1e-12 leaves the difference good to only 9e-14.
    At 40 digits the oracle agrees with 50 to 1e-16 on the test grid."""
    with mpmath.workdps(dps):
        g, b_, k_ = mpmath.mpf(gamma), mpmath.mpf(b), mpmath.mpf(kappa)
        n = mpmath.mpf(n_cap)
        if kappa == 0:
            if gamma == 0:
                return float(mpmath.log(n) / b_)
            return float(mpmath.gamma(g + 1) * mpmath.zeta(g + 1)
                         * (1 - n**-g) / b_ ** (g + 1))
        bracket = mpmath.polylog(g + 1, mpmath.exp(-b_ * k_)) \
            - n**-g * mpmath.polylog(g + 1, mpmath.exp(-b_ * n * k_))
        return float(mpmath.gamma(g + 1) * bracket / b_ ** (g + 1))


def ncr_mpmath(n, dps=30):
    """One-dimensional threshold N_cr(n) by mpmath at `dps` digits, with
    I1 = Gamma(3/2) zeta(3/2) and I2 = -Gamma(1/2) zeta(1/2) / 2, the
    Mellin transform of 1/(e^x - 1) - 1/x at 1/2."""
    with mpmath.workdps(dps):
        i1 = mpmath.gamma(1.5) * mpmath.zeta(1.5)
        i2 = -mpmath.gamma(0.5) * mpmath.zeta(0.5) / 2
        w = (2 * mpmath.mpf(n)) ** (mpmath.mpf(1) / 3) * i1 ** (-mpmath.mpf(1) / 3) * i2
        return float((w * w / 4) * (1 + mpmath.sqrt(1 - 4 / w)) ** 2)


def quad_scipy(f, a):
    """int_a^inf f by QUADPACK (scipy.integrate.quad) with tighter targets
    than ``specfun.improper_quad`` (abs 1e-14, rel 1e-13, 200
    subdivisions); asserts that QUADPACK reports convergence."""
    value, _, _, *rest = quad(f, a, math.inf, epsabs=1e-14, epsrel=1e-13,
                              limit=200, full_output=1)
    assert not rest, rest[0]
    return value


def w_integrand(xi):
    """1/xi^2 - 1/(e^(xi^2) - 1), the I2 integrand of the one-dimensional
    threshold, for QUADPACK (``quad_scipy``): the removable
    1/xi^2 pole at the origin is handled by the Bernoulli series in
    x = xi^2."""
    x = xi * xi
    if x < 0.09:
        return 0.5 - x / 12.0 + x**3 / 720.0 - x**5 / 30240.0
    if x > 700.0:
        return 1.0 / x
    return 1.0 / x - 1.0 / math.expm1(x)


def pentagonal_partition_totals(n_max):
    """Unrestricted partition numbers p(0..n_max) by Euler's pentagonal
    number recurrence (exact big integers)."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def enumerate_partition_counts(n):
    """p_k(n) for k = 1..n by exhaustive recursive enumeration of
    partitions into non-increasing parts."""
    counts = [0] * (n + 1)

    def walk(remaining, largest, parts):
        if remaining == 0:
            counts[parts] += 1
            return
        for part in range(min(remaining, largest), 0, -1):
            walk(remaining - part, part, parts + 1)

    walk(n, n, 0)
    return counts[1:]


def partition_counts_bounded(n_max, k_max):
    """p_k(n) for 0 <= k <= k_max, 0 <= n <= n_max, as rows c[k][n],
    from the parts-at-most-k recurrence q_k(m) = q_{k-1}(m) + q_k(m-k)
    (q_k(m) counts the partitions of m into at most k parts) and
    p_k(n) = q_k(n-k): a partition into exactly k parts less one from
    each part is one into at most k parts."""
    q = [1] + [0] * n_max  # q_0
    counts = [list(q)]
    for k in range(1, k_max + 1):
        for m in range(k, n_max + 1):
            q[m] += q[m - k]
        counts.append([q[n - k] if n >= k else 0 for n in range(n_max + 1)])
    return counts


def trapezoid_integral(f, a, b, n=200_001):
    """Plain trapezoid rule on [a, b] with a dense uniform grid."""
    h = (b - a) / (n - 1)
    total = 0.5 * (f(a) + f(b))
    for i in range(1, n - 1):
        total += f(a + i * h)
    return total * h


def central_difference(f, x, h):
    """Second-order central difference derivative."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def occupation_vectors(levels, n, e_max):
    """All occupation vectors with total n and energy <= e_max, by a
    plain product-space filter (no pruning)."""
    out = []

    def walk(i, vec):
        if i == len(levels):
            if sum(vec) == n and \
                    sum(v * lam for v, lam in zip(vec, levels)) <= e_max + 1e-12:
                out.append(tuple(vec))
            return
        for c in range(n + 1):
            walk(i + 1, vec + [c])

    walk(0, [])
    return out


def banded_states(levels, n, e_max, centres, half):
    """(count, per-level totals, outside) of the vectors in {0..n}^s with
    sum n and energy <= e_max, by plain filtering of the product space;
    a vector is outside when any abs(v_i - centres[i]) > half."""
    count, totals, outside = 0, [0] * len(levels), 0
    for vec in itertools.product(range(n + 1), repeat=len(levels)):
        if sum(vec) == n and \
                sum(v * lam for v, lam in zip(vec, levels)) <= e_max + 1e-12:
            count += 1
            totals = [t + v for t, v in zip(totals, vec)]
            outside += any(abs(v - c) > half for v, c in zip(vec, centres))
    return count, tuple(totals), outside


def ideal_isotherm_reference(P_grid, gamma0):
    """The ideal isotherm as the library solved it before it became the
    deformed isotherm on the undeformed member: per P, `roots.brentq` on
    Li_{gamma0+2}(a) = P zeta(gamma0+2) over [0, 1], then
    Z = P zeta(gamma0+2) / Li_{gamma0+1}(a), with DomainError where
    a = 1 and zeta(gamma0+1) diverges.  It has no residual gate, so a
    point it returns may miss its equation; the tests use it where the
    point meets it to 1e-8."""
    zp2 = specfun.riemann_zeta(gamma0 + 2.0)
    points = []
    for P in P_grid:
        if not (2.0**-1022 <= P <= 1.0):
            raise DomainError(f"P must be in [2**-1022, 1], got {P}")
        target = P * zp2
        a = brentq(lambda a: specfun.polylog(gamma0 + 2.0, a) - target if a
                   else -target, 0.0, 1.0, xtol=5e-324)
        if a == 1.0 and not gamma0 + 1.0 > 1.0:
            raise DomainError(
                f"P = 1 needs gamma0 + 1 > 1 for zeta(gamma0 + 1), got "
                f"gamma0={gamma0}; the activity at P = {P} is 1")
        V_eff = zp2 / specfun.polylog(gamma0 + 1.0, a)
        points.append(IsothermPoint(P_r=P, Z=P * V_eff, a=a, T_r=1.0))
    return points


PhiIsotherm = namedtuple("PhiIsotherm", ["V_cr", "P_max", "Z"])


def phi_isotherm_ivp(gamma, P_list, V_max=1000.0):
    """V_cr, the branch top P_max and Z at each P of the imperfect
    isotherm at gamma0 = gamma, from the phi(V) trace solved in kappa.

    kappa(V) solves the unit-compressibility constraint on the Zeno line
    T = 1 - 1/V,

        kappa' = -(Li_{g+1}^2 / Li_g) (1/(V Li_{g+2}) + (g+1) T' / (T Li_{g+1})),

    from kappa = -ln(V_max T^(g+1)) at V_max inward, by scipy's adaptive
    DOP853 (rtol 1e-13) with a terminal event at kappa = -1e-6, which
    is V_cr.  phi = T^-(g+1) / Li_{g+1} and phi' = T^-(g+1) / (V Li_{g+2})
    come from the dense output of kappa itself, not from an interpolant
    of phi, and the isotherm pair

        phi(V) Li_{g+1}(a) = phi'(V_cr) zeta(g+2)
        phi'(V) Li_{g+2}(a) = P phi'(V_cr) zeta(g+2)

    is solved by brentq in V, with a from the first equation by brentq.
    Li_s is the library's float64 polylog, which the specfun tests hold
    to mpmath; mpmath's own ODE solver is far too slow at this accuracy.
    """
    from scipy.integrate import solve_ivp

    g = gamma
    li = specfun.polylog

    def kappa_prime(V, y):
        z = math.exp(y[0])
        l0, l1, l2 = li(g, z), li(g + 1.0, z), li(g + 2.0, z)
        T, Tp = 1.0 - 1.0 / V, 1.0 / (V * V)
        return [-(l1 * l1 / l0) * (1.0 / (V * l2) + (g + 1.0) * Tp / (T * l1))]

    def end(V, y):
        return y[0] + 1e-6

    end.terminal = True
    T_max = 1.0 - 1.0 / V_max
    sol = solve_ivp(kappa_prime, (V_max, 1.0 + 1e-9),
                    [-math.log(V_max * T_max ** (g + 1.0))], method="DOP853",
                    rtol=1e-13, atol=1e-20, events=end, dense_output=True)
    V_cr = float(sol.t_events[0][0])

    def phi_pair(V):
        z = math.exp(float(sol.sol(V)[0]))
        t_pow = (1.0 - 1.0 / V) ** (-(g + 1.0))
        return t_pow / li(g + 1.0, z), t_pow / (V * li(g + 2.0, z))

    scale = phi_pair(V_cr)[1] * specfun.riemann_zeta(g + 2.0)

    def activity(V):
        target = scale / phi_pair(V)[0]
        return brentq_scipy(lambda a: li(g + 1.0, a) - target, 1e-300, 1.0,
                            xtol=1e-300, rtol=1e-15)

    def pressure(V):
        return phi_pair(V)[1] * li(g + 2.0, activity(V)) / scale

    Z = []
    for P in P_list:
        V = brentq_scipy(lambda v: pressure(v) - P, V_cr, V_max, xtol=1e-14, rtol=1e-15)
        Z.append(P * V)
    return PhiIsotherm(V_cr=V_cr, P_max=pressure(V_cr), Z=Z)


def effective_energy_derivative(problem, r):
    """dE/dr of E(r) = (-alpha r^4 + r^2 U(r)) / (B^2 - r^2) by the
    quotient rule, from U and U' at r; it vanishes at the stationary
    radii, which the library finds as roots of A(r) = alpha instead."""
    B2 = problem.B * problem.B
    u, up, _ = problem.potential.derivatives(r)
    num = (2.0 * B2 * r * u
           + 2.0 * problem.alpha * r**3 * (r * r - 2.0 * B2)
           + r * r * (B2 - r * r) * up)
    return num / (B2 - r * r) ** 2


def _pair_potential_mp(family, params, r):
    """U(r) of a scatter potential family at the mpf r, from the closed
    forms in the `zenoline.scatter.PotentialSpec` docstring."""
    mp = mpmath
    if family in ("lennard_jones", "generalized_lj"):
        m = mp.mpf(params.get("m", 6.0) if family == "generalized_lj" else 6)
        return 4 * (r ** (-2 * m) - r ** (-m))
    if family == "morse":
        a = mp.mpf(params.get("a", 6.0))
        r0 = mp.mpf(params.get("r0", 2.0 ** (1.0 / 6.0)))
        e = mp.exp(-a * (r - r0))
        return e * e - 2 * e
    if family == "buckingham":
        a, b, c = (mp.mpf(params.get(k, v)) for k, v in
                   (("A", 5e5), ("B", 12.0), ("C", 2.0)))
        return a * mp.exp(-b * r) - c * r ** -6
    raise ValueError(family)


def level_mpmath(potential, B, r):
    """A(r) = (-2 B^2 U - B^2 r U' + r^3 U') / (2 r^2 (r^2 - 2 B^2)), the
    alpha that makes r a stationary point of the effective energy, in
    mpmath at the working precision, with U' by mpmath's numerical
    differentiation of U."""
    B_ = mpmath.mpf(B)

    def u(x):
        return _pair_potential_mp(potential.family, potential.params, x)

    up = mpmath.diff(u, r)
    return (-2 * B_**2 * u(r) - B_**2 * r * up + r**3 * up) \
        / (2 * r**2 * (r**2 - 2 * B_**2))


def level_roots_mpmath(potential, B, alpha, n=200, dps=30, r_max=None,
                       r_min=None):
    """All roots of A(r) = alpha on (r_floor, B), sorted, with A from
    `level_mpmath` at `dps` digits: A - alpha is sampled on an n-point
    geometric grid strictly inside (r_floor, B), and each sign change is
    refined by mpmath.findroot's bracketing Anderson-Bjorck solver.  Two
    roots inside one grid cell are missed, so a test that compares
    counts fails rather than passes on them.  With ``r_max`` the grid
    stops there (if below 0.9999 B), and with ``r_min`` it starts there
    (if above 1.0001 r_floor), keeping its cells narrow at large B or
    apart two roots near each other; roots beyond them are not
    searched."""
    with mpmath.workdps(dps):
        a_ = mpmath.mpf(alpha)

        def f(r):
            return level_mpmath(potential, B, r) - a_

        lo, hi = mpmath.mpf(potential.r_floor) * 1.0001, mpmath.mpf(B) * mpmath.mpf(0.9999)
        if r_max is not None:
            hi = min(hi, mpmath.mpf(r_max))
        if r_min is not None:
            lo = max(lo, mpmath.mpf(r_min))
        grid = [lo * (hi / lo) ** (mpmath.mpf(i) / (n - 1)) for i in range(n)]
        vals = [f(r) for r in grid]
        return [float(mpmath.findroot(f, (a, b), solver="anderson"))
                for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:])
                if fa * fb < 0]


def outward_cell(radii, values, alpha):
    """(r_in, r_out, A - alpha at each) of the first cell of one side of
    `scatter._samples`, walking outward from r* (radii[0]), whose outer
    sample has A - alpha < 0; None where no sample has.  Written apart
    from `scatter._cell`, which walks the same way."""
    for k in range(1, len(radii)):
        if values[k] - alpha < 0.0:
            return radii[k - 1], radii[k], values[k - 1] - alpha, values[k] - alpha
    return None
