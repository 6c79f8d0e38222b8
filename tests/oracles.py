"""Independent reference implementations used only by the tests.

Each oracle deliberately uses a different algorithm from the library
code it checks: a fixed-cut Euler-Maclaurin sum and mpmath for zeta and
zeta', mpmath.diff of mpmath.polylog for the order derivative of Li_s
and the jamming slope (and an RK4 run driven by it), the pentagonal
recurrence for partition totals, exhaustive enumeration for restricted
counts, truncated power series and mpmath at raised precision for
polylogarithms and the Bose integrals, trapezoid sums and QUADPACK for
integrals, central differences for derivatives, an adaptive
DOP853 solve in kappa for the phi(V) trace, and an mpmath sign scan
refined by findroot for the stationary radii of the scattering
energy.  mpmath is a
test-only dependency (the ``test`` extra); the library itself does not
import it.  scipy's C brentq is the oracle for the library's
step-for-step port of Brent's method (``zenoline.roots``); the library
no longer imports scipy.optimize.
"""

import math
from collections import namedtuple

import mpmath
from scipy.integrate import quad
from scipy.optimize import brentq as brentq_scipy  # noqa: F401

from zenoline import specfun


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


def polylog_mpmath(s, z, dps=30):
    """Li_s(z) for 0 < z <= 1 by mpmath at `dps` significant digits,
    rounded to float; exact at integer orders, and 30 digits leave 22
    after the cancellation at |s - n| = 1e-8."""
    with mpmath.workdps(dps):
        return float(mpmath.polylog(s, z))


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


def polylog_ds_mpmath(s, z, dps=30):
    """d Li_s(z)/ds by mpmath.diff of mpmath.polylog at `dps` digits, with
    the float s and z taken exactly."""
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


def jamming_gamma_mpmath(mu_grid, gamma0, dps=30):
    """gamma(mu) of the jamming continuation by the classical RK4 step on
    the grid, driven by ``gamma_slope_mpmath`` and carried in mpmath at
    `dps` digits; the gamma column rounded to float."""
    with mpmath.workdps(dps):
        g = mpmath.mpf(gamma0)
        out = [float(g)]
        for m0, m1 in zip(mu_grid, mu_grid[1:]):
            a, b = mpmath.mpf(m0), mpmath.mpf(m1)
            h = b - a

            def slope(gg, mm):
                a = mpmath.exp(mm)
                return mpmath.diff(lambda t: _z_ratio_mp(t, a), gg, h=_DIFF_STEP)

            k1 = slope(g, a)
            k2 = slope(g + h * k1 / 2, a + h / 2)
            k3 = slope(g + h * k2 / 2, a + h / 2)
            k4 = slope(g + h * k3, b)
            g = g + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
            out.append(float(g))
        return out


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


def level_roots_mpmath(potential, B, alpha, n=200, dps=30):
    """All roots of A(r) = alpha on (r_floor, B), sorted, where
    A(r) = (-2 B^2 U - B^2 r U' + r^3 U') / (2 r^2 (r^2 - 2 B^2)) is the
    alpha that makes r a stationary point of the effective energy.

    Evaluated in mpmath at `dps` digits, with U' by mpmath's numerical
    differentiation of U: A - alpha is sampled on an n-point geometric
    grid strictly inside (r_floor, B), and each sign change is refined
    by mpmath.findroot's bracketing Anderson-Bjorck solver.  Two roots
    inside one grid cell are missed, so a test that compares counts
    fails rather than passes on them."""
    with mpmath.workdps(dps):
        B_, a_ = mpmath.mpf(B), mpmath.mpf(alpha)

        def u(r):
            return _pair_potential_mp(potential.family, potential.params, r)

        def f(r):
            up = mpmath.diff(u, r)
            num = -2 * B_**2 * u(r) - B_**2 * r * up + r**3 * up
            return num / (2 * r**2 * (r**2 - 2 * B_**2)) - a_

        lo, hi = mpmath.mpf(potential.r_floor) * 1.0001, B_ * mpmath.mpf(0.9999)
        grid = [lo * (hi / lo) ** (mpmath.mpf(i) / (n - 1)) for i in range(n)]
        vals = [f(r) for r in grid]
        return [float(mpmath.findroot(f, (a, b), solver="anderson"))
                for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:])
                if fa * fb < 0]
