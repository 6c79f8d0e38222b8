"""Phase-diagram numerics: the Bachinskii parabola, the fractal-index
Bose-type equation of state with its volume deformation phi(V), reduced
isotherms and the jamming extension gamma(mu).  ``reference_tables``
hands back the constant tables of ``curves``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import namedtuple

from .curves import (ROTATION_ANGLES, SUBSTANCES, T_CR_OVER_T_B_REFERENCES,
                     PhaseCurve, linspace)
from .errors import CausticError, DomainError, SolverError, ZenolineError
from .roots import brentq
from .specfun import polylog, polylog_ds, riemann_zeta

__all__ = [
    "FractalEos",
    "IsothermPoint",
    "bachinskii_density",
    "solve_phi",
    "ideal_isotherm",
    "imperfect_isotherm",
    "jamming_extension",
    "reference_tables",
]

GAMMA0 = 0.2


def bachinskii_density(b, c, P):
    """Both density roots of the parabola P = c rho (1 - c rho / (4b)).

    The two branches merge at the caustic P = b; beyond it the roots
    are complex and a CausticError is raised.
    """
    if b <= 0 or c <= 0:
        raise DomainError("b and c must be positive")
    if P < 0:
        raise DomainError(f"P must be non-negative, got {P}")
    if P > b:
        raise CausticError(f"P = {P} > b = {b}: roots are complex past the caustic")
    s = math.sqrt(1.0 - P / b)
    # the low root in Vieta's form: (2b/c)(1 - s) cancels for P << b
    return 2.0 * P / (c * (1.0 + s)), (2.0 * b / c) * (1.0 + s)


class FractalEos:
    """Volume deformation phi(V) of the fractal-index equation of state.

    Sampled at the volumes V > 1 and activities kappa < 0 of the
    unit-compressibility curve on the Zeno line T = 1 - 1/V, where
    phi = T^-(gamma+1) / Li_{gamma+1}(e^kappa) and
    phi' = T^-(gamma+1) / (V Li_{gamma+2}(e^kappa)), both positive;
    phi must be strictly increasing with phi(V)/V -> 1 at the
    large-volume end.  Between samples, the cubic Hermite interpolant of
    the exact (phi, phi') pairs, with ``dphi`` its derivative.  V_cr is
    the smallest sample, where the solved trace ends.  ``identity(gamma)``
    is the undeformed member phi(V) = V: one sample at V_cr = 0, from
    which the large-volume rule is exact at every V >= 0.
    """

    def __init__(self, gamma, V, kappa):
        self.gamma = gamma
        self.V = x = tuple(map(float, V))
        self.kappa = tuple(map(float, kappa))
        y, m = [], []
        for v, k in zip(x, self.kappa):
            z = math.exp(k)
            t_pow = (1.0 - 1.0 / v) ** (-(gamma + 1.0))
            y.append(t_pow / polylog(gamma + 1.0, z))
            m.append(t_pow / (v * polylog(gamma + 2.0, z)))
        self.phi_vals, self.dphi_vals = tuple(y), tuple(m)
        self.V_cr = x[0]
        if any(y1 <= y0 for y0, y1 in zip(y, y[1:])):
            raise DomainError("phi must be strictly increasing")
        if abs(y[-1] / x[-1] - 1.0) > 1e-3:
            raise DomainError("phi(V)/V does not reach 1 at the largest sample")
        # on the cell from x0: phi = y0 + s (m0 + s (c2 + s c3)), s = V - x0
        self._cells = []
        for x0, x1, y0, y1, m0, m1 in zip(x, x[1:], y, y[1:], m, m[1:]):
            h, d = x1 - x0, (y1 - y0) / (x1 - x0)
            self._cells.append((x0, y0, m0, (3.0 * d - 2.0 * m0 - m1) / h,
                                (m0 + m1 - 2.0 * d) / (h * h)))

    @classmethod
    def identity(cls, gamma):
        obj = cls.__new__(cls)
        obj.gamma, obj.V_cr = gamma, 0.0
        obj.V = obj.phi_vals = (0.0,)
        obj.kappa, obj.dphi_vals = (), (1.0,)
        obj._cells = []
        return obj

    def _cell(self, V):
        # NaN fails this test too, and would index past the last cell
        if not V >= self.V[0]:
            raise DomainError(f"V = {V} outside the solved range V >= {self.V[0]}")
        x0, y0, m0, c2, c3 = self._cells[bisect_right(self.V, V) - 1]
        return V - x0, y0, m0, c2, c3

    def phi(self, V):
        if V >= self.V[-1]:
            # asymptotic regime phi ~ V
            return self.phi_vals[-1] + (V - self.V[-1])
        s, y0, m0, c2, c3 = self._cell(V)
        return y0 + s * (m0 + s * (c2 + s * c3))

    def dphi(self, V):
        if V >= self.V[-1]:
            return 1.0
        s, _, m0, c2, c3 = self._cell(V)
        return m0 + s * (2.0 * c2 + 3.0 * s * c3)

    def inv_phi(self, y):
        """Volume with phi(V) = y, consistent with ``phi`` to rounding: of
        the adjacent floats V- < V+ with phi(V-) < y <= phi(V+), the one
        whose phi is nearer y (V+ on a tie).  So it is exact at the
        samples and monotone in y.

        Newton on the cell's cubic from the linear guess, inside the
        bracket [V_i, V_i+1] of the cell holding y; a step that leaves the
        bracket bisects it, and one that rounds onto its end tests the
        next float inward, until the bracket ends are adjacent floats.
        """
        if y >= self.phi_vals[-1]:
            return self.V[-1] + (y - self.phi_vals[-1])
        if not y >= self.phi_vals[0]:
            raise DomainError(f"phi value {y} outside the solved range "
                              f"phi >= {self.phi_vals[0]}")
        # phi is exact at the samples, so the cell holding y brackets the root
        i = bisect_right(self.phi_vals, y) - 1
        x0, y0, m0, c2, c3 = self._cells[i]
        if y == y0:
            return x0
        # phi(lo) - y = r_lo < 0 <= r_hi = phi(hi) - y
        lo, hi = x0, self.V[i + 1]
        r_lo, r_hi = y0 - y, self.phi_vals[i + 1] - y
        v = x0 + (y - y0) / (self.phi_vals[i + 1] - y0) * (hi - x0)
        while math.nextafter(lo, hi) < hi:
            s = v - x0
            r = y0 + s * (m0 + s * (c2 + s * c3)) - y
            if r < 0.0:
                lo, r_lo = v, r
            else:
                hi, r_hi = v, r
            step = r / (m0 + s * (2.0 * c2 + 3.0 * s * c3))
            if lo < v - step < hi:
                v -= step
            elif v - step == v:
                v = math.nextafter(v, hi if r < 0.0 else lo)
            else:
                v = lo + 0.5 * (hi - lo)
        return lo if -r_lo < r_hi else hi


IsothermPoint = namedtuple("IsothermPoint", ["P_r", "Z", "a", "T_r"])


def _w_prime(gamma, V, w):
    """Slope of w = (-kappa)^gamma along the unit-compressibility
    constraint on the Zeno line T = 1 - 1/V, where
    kappa' = -(Li_{g+1}^2 / Li_g) (1/(V Li_{g+2}) + (g+1) T' / (T Li_{g+1}))
    at z = e^kappa.  As kappa -> 0-, (-kappa)^(g-1) / Li_g -> 1/Gamma(1-g),
    so w' stays finite there; trial stages at w <= 0 take that limit.
    A trial stage where e^kappa = e^(-w^(1/gamma)) underflows to 0, as
    for gamma <= 3e-9 from the CLI's grid, raises SolverError.
    """
    mk = w ** (1.0 / gamma) if w > 0 else 0.0
    z = math.exp(-mk)
    if z == 0.0:
        raise SolverError(f"trial stage at gamma = {gamma!r}, w = {w!r}: "
                          f"kappa = {-mk!r}, where e^kappa underflows to 0")
    l1 = polylog(gamma + 1.0, z)
    l2 = polylog(gamma + 2.0, z)
    if z == 1.0:
        ratio = 1.0 / math.gamma(1.0 - gamma)
    else:
        ratio = mk ** (gamma - 1.0) / polylog(gamma, z)
    return gamma * ratio * l1 / V * (l1 / l2 + (gamma + 1.0) / (V - 1.0))


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 1980):
# stage rows of the tableau, the fifth-order weights (also the last
# stage's row, so its slope starts the next step), the weights of the
# fifth- less the fourth-order solution, and Shampine's order-4 dense
# output (Math. Comp. 46, 1986; Hairer, Norsett & Wanner, Solving ODEs I,
# II.6).
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
         -1 / 40)
_DP_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
         -10690763975 / 1880347072, 701980252875 / 199316789632,
         -1453857185 / 822651844, 69997945 / 29380423)
# no more accepted and rejected steps than this per integration
_MAX_STEPS = 10_000


def _dopri5(f, x, y, x_end, h, rtol, atol):
    """Accepted Dormand-Prince 5(4) steps of the scalar y' = f(x, y) from
    (x, y) to x_end, starting with a trial step h toward x_end.

    Yields (x0, x1, y1, dense) per step, with ``_dense(dense, theta)``
    the order-4 solution at x0 + theta (x1 - x0), 0 <= theta <= 1; the
    last step lands on x_end, where its c = 1 stages take f.  A step is
    accepted when its error estimate is within atol + rtol max(|y0|, |y1|);
    the next h is scaled by 0.9 err^(-1/5), clamped to [0.2, 10].  A step
    below 8 ulp of x, or more than _MAX_STEPS steps, raises SolverError
    naming x, y, h and the last error estimate.  From x = x_end it yields
    no step.
    """
    if x == x_end:
        return
    k1, err = f(x, y), math.nan
    for _ in range(_MAX_STEPS):
        if abs(h) < 8.0 * math.ulp(x):
            reason = "the step fell below 8 ulp of x"
            break
        last = abs(h) >= abs(x_end - x)
        if last:
            h = x_end - x
        x1 = x_end if last else x + h
        ks = [k1]
        for c, row in zip(_DP_C, _DP_A):
            ks.append(f(x + c * h if c < 1.0 else x1,
                        y + h * sum(map(operator.mul, row, ks))))
        y1 = y + h * sum(map(operator.mul, _DP_B, ks))
        ks.append(f(x1, y1))
        err = abs(h * sum(map(operator.mul, _DP_E, ks))) \
            / (atol + rtol * max(abs(y), abs(y1)))
        if err <= 1.0:
            dy = y1 - y
            bspl = h * k1 - dy
            yield x, x1, y1, (y, dy, bspl, dy - h * ks[6] - bspl,
                              h * sum(map(operator.mul, _DP_D, ks)))
            if last:
                return
            x, y, k1 = x1, y1, ks[6]
        # err is NaN where a stage left the float range: shrink as for inf
        h *= min(10.0, max(0.2, 0.9 * err**-0.2)) if 0.0 < err < math.inf \
            else (10.0 if err == 0.0 else 0.2)
    else:
        reason = f"{_MAX_STEPS} steps did not reach x = {x_end!r}"
    raise SolverError(
        f"Dormand-Prince trace stopped at x = {x!r}, y = {y!r}: {reason}; "
        f"h = {h:.3g}, last error estimate {err:.3g} of the tolerance")


def _dense(dense, theta):
    """Shampine's order-4 solution at fraction theta of a step."""
    y0, dy, bspl, c3, c4 = dense
    eta = 1.0 - theta
    return y0 + theta * (dy + eta * (bspl + theta * (c3 + eta * c4)))


# tolerances and first step of the phi trace in t = ln V
_PHI_RTOL, _PHI_ATOL, _PHI_STEP0 = 1e-10, 1e-12, 0.01


def solve_phi(gamma, V_grid):
    """Integrate the parametric constraint for phi(V) inward from the
    large-volume boundary phi(V)/V -> 1, on the Zeno line T = 1 - 1/V.

    The trace steps w = (-kappa)^gamma, which reaches 0 with a finite
    slope, against t = ln V by ``_dopri5`` from the largest grid volume
    inward, and samples w at the grid volumes from the dense output.  It
    ends at the volume V_cr where kappa = -1e-6, the root of the last
    step's dense output.  Returns a FractalEos sampled on the grid down
    to V_cr, which the grid must reach.  Needs 0 < gamma < 1.
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"solve_phi needs 0 < gamma < 1, got gamma={gamma}")
    V_grid = sorted(map(float, V_grid))
    if not V_grid or V_grid[0] <= 1.0:
        raise DomainError("V grid must be non-empty and stay above the Zeno-line "
                          "pole 1/rho_B")

    def slope(t, w):
        V = math.exp(t)
        return V * _w_prime(gamma, V, w)

    w_cr = 1e-6 ** gamma
    t_end = math.log(V_grid[0])
    V = V_grid.pop()
    # the boundary phi(V) = V there sets kappa = -ln(V T^(gamma+1))
    kappa = -math.log(V * (1.0 - 1.0 / V) ** (gamma + 1.0))
    if not kappa < -1e-6:
        raise DomainError(f"V grid tops out at V_max = {V}, where kappa = {kappa:.3g} "
                          f"would not be negative enough: the trace ends at -1e-6")
    w = (-kappa) ** gamma
    out_V, out_w = [V], [w]
    for t0, t1, w1, dense in _dopri5(slope, math.log(V), w, t_end,
                                     -_PHI_STEP0, _PHI_RTOL, _PHI_ATOL):
        end = w1 <= w_cr
        theta_cr = brentq(lambda th: _dense(dense, th) - w_cr, 0.0, 1.0,
                          xtol=1e-16) if end else 1.0
        # the grid volumes this step passes, above V_cr
        while V_grid and (theta := (math.log(V_grid[-1]) - t0) / (t1 - t0)) < theta_cr:
            out_V.append(V_grid.pop())
            out_w.append(_dense(dense, theta))
        if end:
            out_V.append(math.exp(t0 + theta_cr * (t1 - t0)))
            out_w.append(w_cr)
            break
    else:
        raise DomainError(f"V grid ends at {out_V[-1]}, above V_cr where kappa = -1e-6")
    return FractalEos(gamma, out_V[::-1], [-(w ** (1.0 / gamma)) for w in out_w[::-1]])


def _solve_activity(f, target):
    """Activity a in [0, 1] with f(a) = target, by `brentq` on [0, 1].

    f(0) is taken as 0, as for the polylogs, so a target > 0 with
    f(1) >= target is bracketed, and f is never called at 0.  The stop
    is relative, within 4 ulp of a, even for subnormal a.  An
    unbracketed target is brentq's BracketError, naming the residual
    at both ends.
    """
    return brentq(lambda a: f(a) - target if a else -target, 0.0, 1.0,
                  xtol=5e-324, fa=-target)


def ideal_isotherm(P_grid, gamma0=GAMMA0):
    """Unit reduced-temperature isotherm of the undeformed gas: the
    deformed isotherm on the member phi(V) = V, where the pair reduces to
    Li_{gamma0+2}(a) = P zeta(gamma0+2) and Z = P zeta(gamma0+2) /
    Li_{gamma0+1}(a)."""
    return imperfect_isotherm(P_grid, FractalEos.identity(gamma0), gamma0)


def imperfect_isotherm(P_grid, eos, gamma0=GAMMA0):
    """Unit reduced-temperature isotherm of the deformed (phi) gas.

    Solves, per reduced pressure P in [2^-1022, 1], the coupled pair

        phi(V) Li_{gamma0+1}(a) = phi'(V_cr) zeta(gamma0+2)
        phi'(V) Li_{gamma0+2}(a) = P phi'(V_cr) zeta(gamma0+2)

    for the activity a and volume V = Z/P: the first equation gives
    V(a), and `brentq` solves the second for a on [0, 1].  Every phi
    ends at V_cr; a traced one tops the branch out there at P_max < 1,
    while the undeformed phi(V) = V, whose V_cr = 0 no activity below 1
    reaches, gives the ideal isotherm.  An activity above that top would
    put V below V_cr; there V is held at V_cr, so the residual stays
    finite and increasing on [0, 1] and every P <= P_max has its root at
    or below the top.  P_max is solved only where a solve reaches V_cr,
    and a P above it, or a residual above 1e-8 of the target, raises
    SolverError.  For gamma0 <= 0, Li_{gamma0+1}(1) diverges: V(1) is
    held at V_cr too, and a solve that lands on a = 1 raises DomainError.
    """
    zp2 = riemann_zeta(gamma0 + 2.0)
    scale = eos.dphi(eos.V_cr) * zp2
    y_cr = eos.phi(eos.V_cr)
    pole = not gamma0 + 1.0 > 1.0

    def li1(a):
        return math.inf if pole and a == 1.0 else polylog(gamma0 + 1.0, a)

    def v_of(a):
        # above the branch top the volume is held at V_cr
        y = scale / li1(a)
        return eos.inv_phi(y) if y > y_cr else eos.V_cr

    if eos.V[-1] == eos.V_cr:
        # one sample, as on the undeformed member: phi' = 1 at every V the
        # solve reaches, so the residual needs no V(a)
        def f(a):
            return polylog(gamma0 + 2.0, a)
    else:
        def f(a):
            return eos.dphi(v_of(a)) * polylog(gamma0 + 2.0, a)

    points = []
    for P in P_grid:
        if not (2.0**-1022 <= P <= 1.0):
            raise DomainError(f"P must be in [2**-1022, 1], got {P}")
        target = P * scale
        try:
            a = _solve_activity(f, target)
            V = v_of(a)
            final = eos.dphi(V) * polylog(gamma0 + 2.0, a) - target
            if abs(final) > 1e-8 * target:
                raise SolverError(
                    f"residual {final:.3g} at a = {a} exceeds 1e-8 of the "
                    f"target {target:.6g}")
            at_pole = pole and a == 1.0
            if V == eos.V_cr and not at_pole:
                a_top = _solve_activity(li1, scale / y_cr)
                P_max = polylog(gamma0 + 2.0, a_top) / zp2
                if P > P_max:
                    raise SolverError(
                        f"above the top of the branch, P_max = {P_max:.6f} "
                        f"at V_cr = {eos.V_cr:.6f}")
        except ZenolineError as exc:
            raise SolverError(f"isotherm failed at P = {P}: {exc}") from exc
        if at_pole:
            raise DomainError(
                f"P = 1 needs gamma0 + 1 > 1 for zeta(gamma0 + 1), got "
                f"gamma0={gamma0}; the activity at P = {P} is 1")
        points.append(IsothermPoint(P_r=P, Z=P * V, a=a, T_r=1.0))
    return points


# the log of the smallest positive float: below it e^mu is 0, or the
# smallest subnormal, and holds nothing of mu
_MU_MIN = math.log(math.ulp(0.0))


def _activity(mu):
    """e^mu, the activity at the chemical potential mu; DomainError,
    naming mu and the bound, below _MU_MIN."""
    if mu < _MU_MIN:
        raise DomainError(f"mu = {mu!r} is below {_MU_MIN:.6g}, where the "
                          f"activity e^mu underflows")
    return math.exp(mu)


def _gamma_slope(gamma, mu):
    """d(gamma)/d(mu) along the maximal-entropy constraint at T_r = 1: the
    derivative in gamma of Z = Li_{gamma+2}/Li_{gamma+1} at z = e^mu,
    (Li'_{gamma+2} - Z Li'_{gamma+1}) / Li_{gamma+1}, with Li' the
    analytic derivative in the order.  At mu = 0 these are zeta and zeta',
    finite for every gamma > 0.  The sign convention makes gamma shrink as
    mu decreases from zero.  The second order is s1 + 1, within an ulp of
    gamma + 2, so that ``specfun._log_series`` keys both orders on one
    zeta ladder."""
    s1 = gamma + 1.0
    s2 = s1 + 1.0
    a = _activity(mu)
    l1 = polylog(s1, a)
    z = polylog(s2, a) / l1
    return (polylog_ds(s2, a) - z * polylog_ds(s1, a)) / l1


# tolerances and first step, in u = sqrt(-mu), of the gamma trace
_GAMMA_RTOL, _GAMMA_ATOL, _GAMMA_STEP0 = 1e-7, 1e-12, 1e-4


def _gamma_trace(gamma0, mu_grid):
    """gamma at each mu of the decreasing grid from gamma0 at mu = 0, by
    ``_dopri5`` on ``_gamma_slope`` and its dense output.

    The trace runs in u = sqrt(-mu), on dgamma/du = -2u gamma'(-u^2).  In
    mu, gamma is not smooth at 0, where Li_{gamma+1}(e^mu) - zeta(gamma+1)
    ~ Gamma(-gamma)(-mu)^gamma; in u, gamma = gamma0 + A u^2 +
    B u^(2+2gamma) ln u + ..., twice differentiable at the start, so the
    step control needs no ladder of tiny steps there.  The last step's
    slopes are taken at the grid's last mu itself, which -u^2 can round
    past.  gamma falls as mu does, so once a step ends at gamma <= 0 the
    next value is 0."""
    yield gamma0
    mu_end = mu_grid[-1]
    us = [math.sqrt(-mu) for mu in mu_grid]
    u_end = us[-1]

    def slope(u, g):
        mu = mu_end if u >= u_end else max(-u * u, mu_end)
        return -2.0 * u * _gamma_slope(g, mu)

    i = 1
    for u0, u1, g1, dense in _dopri5(slope, 0.0, gamma0, u_end, _GAMMA_STEP0,
                                     _GAMMA_RTOL, _GAMMA_ATOL):
        while i < len(us) and us[i] <= u1:
            yield _dense(dense, (us[i] - u0) / (u1 - u0))
            i += 1
        if g1 <= 0.0:
            break
    if i < len(us):
        yield 0.0


def jamming_extension(mu_grid, eos, gamma0=GAMMA0, anchor_P=2.5, variant="ode"):
    """Continuation of the unit isotherm past the critical pressure.

    Integrates gamma(mu) from gamma0 at mu = 0 until either the grid is
    exhausted or gamma reaches 0 (full jamming); maps each state to
    (P, Z) with the deformation derivative frozen, then appends the
    straight stitch to the anchor point (anchor_P, Z = 1) so the
    emitted tail is linear.  ``variant='linear'`` replaces the
    integrated gamma(mu) by the unit-slope approximation.  A mu that the
    run reaches below ``_MU_MIN`` (~ -744.4), where the activity e^mu
    underflows, is a DomainError naming it; grid points past the jam
    are never reached.
    """
    mu_grid = list(mu_grid)
    if not mu_grid or mu_grid[0] != 0.0:
        raise DomainError("mu grid must start at 0")
    if any(b >= a for a, b in zip(mu_grid, mu_grid[1:])):
        raise DomainError("mu grid must be strictly decreasing")
    if variant not in ("ode", "linear"):
        raise DomainError(f"unknown variant {variant!r}")
    # the mu = 0 row divides by zeta(gamma0 + 1)
    if not gamma0 + 1.0 > 1.0:
        raise DomainError(
            f"need gamma0 + 1 > 1 for zeta(gamma0 + 1), got gamma0={gamma0}")

    # the orders are gamma + 1 and its successor, as in _gamma_slope, so
    # that the mu = 0 row has P = 1
    zp2 = riemann_zeta((gamma0 + 1.0) + 1.0)
    if variant == "linear":
        gammas = (gamma0 + mu for mu in mu_grid)
    else:
        gammas = _gamma_trace(gamma0, mu_grid)
    rows = []
    jammed = False
    for mu, gamma in zip(mu_grid, gammas):
        if gamma <= 0.0:
            gamma = 0.0
            jammed = True
        # at mu = 0, a = 1 and polylog returns zeta exactly
        a, s1 = _activity(mu), gamma + 1.0
        l1, l2 = polylog(s1, a), polylog(s1 + 1.0, a)
        rows.append((l2 / zp2, l2 / l1, mu, gamma))
        if jammed:
            break
    P_b, Z_b, mu_b, g_b = rows[-1]
    if not P_b < anchor_P < math.inf:
        raise DomainError(
            f"anchor pressure {anchor_P} not beyond breakpoint {P_b} or not finite")
    for t in linspace(0.0, 1.0, 41)[1:]:
        rows.append((P_b + t * (anchor_P - P_b), Z_b + t * (1.0 - Z_b), mu_b, g_b))
    return PhaseCurve(
        columns=("P", "Z", "mu", "gamma"), rows=rows,
        meta={"jammed": jammed, "breakpoint": (P_b, Z_b), "anchor_P": anchor_P,
              "variant": variant, "geometric_factor": 1.0, "V_cr": eos.V_cr})


def reference_tables():
    """Bundled immutable reference data."""
    return {
        "rotation_angles": ROTATION_ANGLES,
        "substances": SUBSTANCES,
        "T_cr_over_T_B": T_CR_OVER_T_B_REFERENCES,
    }
