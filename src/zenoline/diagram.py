"""Phase-diagram assembly: Zeno line, Bachinskii parabola, the
fractal-index Bose-type equation of state with its volume deformation
phi(V), reduced isotherms, the jamming extension gamma(mu), and bundled
reference tables.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from types import MappingProxyType

from .curves import PhaseCurve
from .errors import CausticError, DomainError, SolverError, ZenolineError
from .roots import brentq
from .specfun import polylog, riemann_zeta

__all__ = [
    "ZenoLine",
    "FractalEos",
    "IsothermPoint",
    "CriticalGamma",
    "zeno_density",
    "bachinskii_density",
    "solve_phi",
    "critical_gamma",
    "ideal_isotherm",
    "imperfect_isotherm",
    "jamming_extension",
    "liquid_summary",
    "reference_tables",
    "rotation_angle",
    "substance_data",
]

GAMMA0 = 0.2


@dataclass(frozen=True)
class ZenoLine:
    """Straight Zeno line rho = rho_B (1 - T/T_B)."""

    rho_B: float = 1.0
    T_B: float = 1.0

    def __post_init__(self):
        if self.rho_B <= 0 or self.T_B <= 0:
            raise DomainError("rho_B and T_B must be positive")


def zeno_density(line, T):
    """Density on the Zeno line at temperature T < T_B."""
    if not (0.0 <= T < line.T_B):
        raise DomainError(f"T = {T} outside [0, T_B = {line.T_B})")
    return line.rho_B * (1.0 - T / line.T_B)


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
    return (2.0 * b / c) * (1.0 - s), (2.0 * b / c) * (1.0 + s)


class FractalEos:
    """Volume deformation phi(V) of the fractal-index equation of state.

    Sampled along the unit-compressibility curve, strictly increasing
    with positive derivative and phi(V)/V -> 1 at the large-volume end;
    between samples, the cubic Hermite interpolant of the exact
    (phi, phi') pairs, with ``dphi`` its derivative.  ``identity`` builds
    the undeformed phi(V) = V member used for ideal-gas reduction checks.
    """

    def __init__(self, gamma, V, kappa, phi_vals, dphi_vals, V_cr):
        self.gamma = gamma
        self.V = x = tuple(map(float, V))
        self.kappa = tuple(map(float, kappa))
        self.phi_vals = y = tuple(map(float, phi_vals))
        self.dphi_vals = m = tuple(map(float, dphi_vals))
        self.V_cr = V_cr
        self._identity = False
        if any(v <= 0 for v in y) or any(v <= 0 for v in m):
            raise DomainError("phi and phi' must be strictly positive")
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
    def identity(cls, gamma=GAMMA0):
        obj = cls.__new__(cls)
        obj.gamma = gamma
        obj.V = obj.kappa = obj.phi_vals = obj.dphi_vals = None
        obj.V_cr = 1.0
        obj._identity = True
        return obj

    def _cell(self, V):
        if V < self.V[0]:
            raise DomainError(f"V = {V} below the solved range [{self.V[0]}, ...]")
        x0, y0, m0, c2, c3 = self._cells[bisect_right(self.V, V) - 1]
        return V - x0, y0, m0, c2, c3

    def phi(self, V):
        if self._identity:
            return V
        if V >= self.V[-1]:
            # asymptotic regime phi ~ V
            return self.phi_vals[-1] + (V - self.V[-1])
        s, y0, m0, c2, c3 = self._cell(V)
        return y0 + s * (m0 + s * (c2 + s * c3))

    def dphi(self, V):
        if self._identity:
            return 1.0
        if V >= self.V[-1]:
            return 1.0
        s, _, m0, c2, c3 = self._cell(V)
        return m0 + s * (2.0 * c2 + 3.0 * s * c3)

    def inv_phi(self, y):
        """Volume with phi(V) = y, consistent with ``phi`` to rounding."""
        if self._identity:
            return y
        if y >= self.phi_vals[-1]:
            return self.V[-1] + (y - self.phi_vals[-1])
        if y < self.phi_vals[0]:
            raise DomainError(f"phi value {y} below the solved range")
        # phi is exact at the samples, so the cell holding y brackets the root
        i = bisect_right(self.phi_vals, y) - 1
        return brentq(lambda v: self.phi(v) - y, self.V[i], self.V[i + 1],
                      xtol=1e-15, rtol=8.9e-16)


IsothermPoint = namedtuple("IsothermPoint", ["P_r", "Z", "a", "T_r"])
CriticalGamma = namedtuple("CriticalGamma", ["d", "gamma"])


def _w_prime(gamma, V, w):
    """Slope of w = (-kappa)^gamma along the unit-compressibility
    constraint on the Zeno line T = 1 - 1/V, where
    kappa' = -(Li_{g+1}^2 / Li_g) (1/(V Li_{g+2}) + (g+1) T' / (T Li_{g+1}))
    at z = e^kappa.  As kappa -> 0-, (-kappa)^(g-1) / Li_g -> 1/Gamma(1-g),
    so w' stays finite there; trial stages at w <= 0 take that limit.
    """
    mk = w ** (1.0 / gamma) if w > 0 else 0.0
    z = math.exp(-mk)
    l1 = polylog(gamma + 1.0, z)
    l2 = polylog(gamma + 2.0, z)
    if z == 1.0:
        ratio = 1.0 / math.gamma(1.0 - gamma)
    else:
        ratio = mk ** (gamma - 1.0) / polylog(gamma, z)
    return gamma * ratio * l1 / V * (l1 / l2 + (gamma + 1.0) / (V - 1.0))


def _rk4_step(f, x, y, h):
    """One classical Runge-Kutta step of y' = f(x, y) from (x, y) by h."""
    k1 = f(x, y)
    k2 = f(x + h / 2, y + h * k1 / 2)
    k3 = f(x + h / 2, y + h * k2 / 2)
    k4 = f(x + h, y + h * k3)
    return y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0


def solve_phi(gamma, V_grid):
    """Integrate the parametric constraint for phi(V) inward from the
    large-volume boundary phi(V)/V -> 1, on the Zeno line T = 1 - 1/V.

    The trace steps w = (-kappa)^gamma, which reaches 0 with a finite
    slope, by one RK4 step per grid cell, and ends at the volume V_cr
    where kappa = -1e-6, located by the length of the last step.
    Returns a FractalEos sampled on the grid down to V_cr, which the
    grid must reach.  Needs 0 < gamma < 1.
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"solve_phi needs 0 < gamma < 1, got gamma={gamma}")
    V_grid = sorted(map(float, V_grid))
    if V_grid[0] <= 1.0:
        raise DomainError("V grid must stay above the Zeno-line pole 1/rho_B")

    slope = functools.partial(_w_prime, gamma)
    w_cr = 1e-6 ** gamma
    V = V_grid[-1]
    w = math.log(V * (1.0 - 1.0 / V) ** (gamma + 1.0)) ** gamma
    trace = [(V, w)]
    for V_next in V_grid[-2::-1]:
        w_next = _rk4_step(slope, V, w, V_next - V)
        if w_next <= w_cr:
            # the end point falls in this cell: shorten the step onto it
            h = brentq(lambda h: _rk4_step(slope, V, w, h) - w_cr, V_next - V, 0.0,
                       xtol=1e-15)
            trace.append((V + h, _rk4_step(slope, V, w, h)))
            break
        V, w = V_next, w_next
        trace.append((V, w))
    else:
        raise DomainError(f"V grid ends at {V}, above V_cr where kappa = -1e-6")
    out_V, out_w = zip(*trace[::-1])
    out_k = [-(w ** (1.0 / gamma)) for w in out_w]
    phi_vals, dphi_vals = [], []
    for Vv, kk in zip(out_V, out_k):
        z = math.exp(kk)
        t_pow = (1.0 - 1.0 / Vv) ** (-(gamma + 1.0))
        phi_vals.append(t_pow / polylog(gamma + 1.0, z))
        dphi_vals.append(t_pow / (Vv * polylog(gamma + 2.0, z)))
    return FractalEos(gamma, out_V, out_k, phi_vals, dphi_vals, out_V[0])


def critical_gamma(target_Z):
    """Fractal dimension d with zeta(d+1)/zeta(d) equal to the target
    compressibility (geometric factor taken as 1), and the associated
    index gamma = d - 1."""
    if not (0.0 < target_Z < 1.0):
        raise DomainError(f"target must be in (0, 1), got {target_Z}")

    def res(d):
        return riemann_zeta(d + 1.0) / riemann_zeta(d) - target_Z

    lo, hi = 1.0 + 1e-6, 6.0
    if res(lo) > 0 or res(hi) < 0:
        raise DomainError(
            f"target {target_Z} outside the attainable ratio range on d in {(lo, hi)}")
    d = brentq(res, lo, hi, xtol=1e-12)
    return CriticalGamma(d=d, gamma=d - 1.0)


def _solve_activity(f, target):
    """Activity a in [0, 1] with f(a) = target, by `brentq` on [0, 1].

    f(0) is taken as 0, as for the polylogs, so a target > 0 with
    f(1) >= target is bracketed.  The stop is relative, within 4 ulp of
    a.  An unbracketed target or a failed solve raises SolverError
    naming the bracket and the residual at both ends.
    """
    def resid(a):
        return f(a) - target if a else -target

    try:
        return brentq(resid, 0.0, 1.0, xtol=1e-300)
    except (ValueError, RuntimeError) as exc:
        raise SolverError(
            f"activity solve on [0, 1] failed: resid(0) = {-target:.3g}, "
            f"resid(1) = {resid(1.0):.3g}: {exc}") from exc


def ideal_isotherm(P_grid, gamma0=GAMMA0):
    """Unit reduced-temperature isotherm of the undeformed gas.

    For each reduced pressure P in (0, 1], inverts
    Li_{gamma0+2}(a) = P zeta(gamma0+2) for the activity a and returns
    Z = P zeta(gamma0+2) / Li_{gamma0+1}(a).
    """
    zp2 = riemann_zeta(gamma0 + 2.0)
    points = []
    for P in P_grid:
        if not (0.0 < P <= 1.0):
            raise DomainError(f"P must be in (0, 1], got {P}")
        a = _solve_activity(lambda a: polylog(gamma0 + 2.0, a), P * zp2)
        # at a = 1 (P = 1, or just below it) Z divides by zeta(gamma0 + 1)
        if a == 1.0 and not gamma0 + 1.0 > 1.0:
            raise DomainError(
                f"P = 1 needs gamma0 + 1 > 1 for zeta(gamma0 + 1), got "
                f"gamma0={gamma0}; the activity at P = {P} is 1")
        V_eff = zp2 / polylog(gamma0 + 1.0, a)
        points.append(IsothermPoint(P_r=P, Z=P * V_eff, a=a, T_r=1.0))
    return points


def imperfect_isotherm(P_grid, eos, gamma0=GAMMA0):
    """Unit reduced-temperature isotherm of the deformed (phi) gas.

    Solves, per reduced pressure P, the coupled pair

        phi(V) Li_{gamma0+1}(a) = phi'(V_cr) zeta(gamma0+2)
        phi'(V) Li_{gamma0+2}(a) = P phi'(V_cr) zeta(gamma0+2)

    for the activity a and volume V = Z/P: the first equation gives
    V(a), and `brentq` solves the second for a on [0, 1].  With the
    identity deformation phi(V) = V this reduces exactly to the ideal
    isotherm.  A tabulated phi ends at V_cr, where the branch tops out
    at P_max < 1.  An activity above that top would put V below V_cr;
    there V is held at V_cr, so the residual stays finite and increasing
    on [0, 1] and every P <= P_max has its root at or below the top.  A
    P above P_max raises SolverError.
    """
    zp2 = riemann_zeta(gamma0 + 2.0)
    c_cr = eos.dphi(eos.V_cr)
    scale = c_cr * zp2
    P_max, y_cr = 1.0, 0.0
    if not eos._identity:
        y_cr = eos.phi(eos.V_cr)
        li_top = scale / y_cr
        a_top = _solve_activity(lambda a: polylog(gamma0 + 1.0, a), li_top)
        P_max = polylog(gamma0 + 2.0, a_top) / zp2

    def v_of(a):
        # above the branch top the volume is held at V_cr
        y = scale / polylog(gamma0 + 1.0, a)
        return eos.inv_phi(y) if y > y_cr else eos.V_cr

    def f(a):
        return eos.dphi(v_of(a)) * polylog(gamma0 + 2.0, a)

    points = []
    for P in P_grid:
        if not (0.0 < P <= 1.0):
            raise DomainError(f"P must be in (0, 1], got {P}")
        if P > P_max:
            raise SolverError(
                f"imperfect isotherm failed at P = {P}: above the top of the "
                f"branch, P_max = {P_max:.6f} at V_cr = {eos.V_cr:.6f}")
        target = P * scale
        try:
            a = _solve_activity(f, target)
            final = f(a) - target
            if abs(final) > 1e-8 * target:
                raise SolverError(
                    f"residual {final:.3g} at a = {a} exceeds 1e-8 of the "
                    f"target {target:.6g}")
            V = v_of(a)
        except ZenolineError as exc:
            raise SolverError(f"imperfect isotherm failed at P = {P}: {exc}") from exc
        points.append(IsothermPoint(P_r=P, Z=P * V, a=a, T_r=1.0))
    return points


def _z_ideal(gamma, mu):
    a = math.exp(mu)
    return polylog(gamma + 2.0, a) / polylog(gamma + 1.0, a)


# central-difference step in gamma of _gamma_slope; at mu = 0 it takes
# Li at order gamma - h + 1 and z = 1, so the ode variant needs gamma0 > h
_SLOPE_STEP = 1e-4


def _gamma_slope(gamma, mu):
    """d(gamma)/d(mu) along the maximal-entropy constraint at T_r = 1;
    the sign convention makes gamma shrink as mu decreases from zero."""
    h = _SLOPE_STEP
    z = _z_ideal(gamma, mu)
    dlog = (math.log(_z_ideal(gamma + h, mu))
            - math.log(_z_ideal(gamma - h, mu))) / (2.0 * h)
    return z * dlog


def _linspace(start, stop, num):
    """num evenly spaced floats from start to stop, by numpy's linspace
    arithmetic: start + i * step with step = (stop - start) / (num - 1),
    and the last point set to stop."""
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def jamming_extension(mu_grid, eos, gamma0=GAMMA0, anchor_P=2.5, variant="ode"):
    """Continuation of the unit isotherm past the critical pressure.

    Integrates gamma(mu) from gamma0 at mu = 0 until either the grid is
    exhausted or gamma reaches 0 (full jamming); maps each state to
    (P, Z) with the deformation derivative frozen, then appends the
    straight stitch to the anchor point (anchor_P, Z = 1) so the
    emitted tail is linear.  ``variant='linear'`` replaces the
    integrated gamma(mu) by the unit-slope approximation.
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
    if variant == "ode" and not gamma0 - _SLOPE_STEP + 1.0 > 1.0:
        raise DomainError(
            f"the ode variant needs gamma0 > {_SLOPE_STEP:g}, the step of its "
            f"d(gamma)/d(mu) central difference; got gamma0={gamma0}")

    zp2 = riemann_zeta(gamma0 + 2.0)
    gamma = gamma0
    rows = []
    jammed = False
    for i, mu in enumerate(mu_grid):
        if i > 0:
            h = mu - mu_grid[i - 1]
            if variant == "linear":
                gamma = gamma0 + mu
            else:
                gamma = _rk4_step(lambda m, g: _gamma_slope(g, m),
                                  mu_grid[i - 1], gamma, h)
            if gamma <= 0.0:
                gamma = 0.0
                jammed = True
        # at mu = 0, a = 1 and polylog returns zeta exactly
        P = polylog(gamma + 2.0, math.exp(mu)) / zp2
        rows.append((P, _z_ideal(gamma, mu), mu, gamma))
        if jammed:
            break
    P_b, Z_b, mu_b, g_b = rows[-1]
    if not P_b < anchor_P < math.inf:
        raise DomainError(
            f"anchor pressure {anchor_P} not beyond breakpoint {P_b} or not finite")
    for t in _linspace(0.0, 1.0, 41)[1:]:
        rows.append((P_b + t * (anchor_P - P_b), Z_b + t * (1.0 - Z_b), mu_b, g_b))
    return PhaseCurve(
        columns=("P", "Z", "mu", "gamma"), rows=rows,
        meta={"jammed": jammed, "breakpoint": (P_b, Z_b), "anchor_P": anchor_P,
              "variant": variant, "geometric_factor": 1.0, "V_cr": eos.V_cr})


def liquid_summary(eos, zeno, Z_cr=0.29, rho_cr_ratio=0.273):
    """Liquid-branch reference assembly: the constant-density rays, the
    connecting hyperbola Z = c/rho, and triple-point constants."""
    rho_cr = rho_cr_ratio * zeno.rho_B
    c = Z_cr * rho_cr
    hyperbola = [(r, c / r) for r in _linspace(rho_cr, zeno.rho_B * 0.999, 25)]
    t_rays = [0.9, 0.8, 0.7, 0.6]
    rays = [(t * zeno.T_B, zeno_density(zeno, t * zeno.T_B)) for t in t_rays]
    return {
        "hyperbola_constant": c,
        "hyperbola": hyperbola,
        "rays": rays,
        "focal_Z": 0.17,
        "triple_point": {"Z": 0.3e-3, "T_over_T_cr": 0.55, "rho_g_cm3": 0.7},
        "V_cr": eos.V_cr,
        "gamma": eos.gamma,
    }


# rotation angles (radians) applied to the reduced-volume bands
_ROTATION_ANGLES = ((0.30, 0.049), (0.25, 0.052), (0.20, 0.058), (0.17, 0.066))

# per-substance reference data: well depth (K), quarter critical
# temperature (K), and the critical-energy estimate in the same units
_SUBSTANCES = MappingProxyType({
    "Ne": {"epsilon_K": 36.3, "T_cr_quarter_K": 11.0, "E_cr_eps_over_k": 10.5},
    "Ar": {"epsilon_K": 119.3, "T_cr_quarter_K": 37.0, "E_cr_eps_over_k": 35.0},
    "Kr": {"epsilon_K": 171.0, "T_cr_quarter_K": 52.0, "E_cr_eps_over_k": 50.0},
    "N2": {"epsilon_K": 95.9, "T_cr_quarter_K": 31.0, "E_cr_eps_over_k": 28.0},
    "CH4": {"epsilon_K": 148.2, "T_cr_quarter_K": 47.0, "E_cr_eps_over_k": 43.0},
    "C2H6": {"epsilon_K": 243.0, "T_cr_quarter_K": 76.0, "E_cr_eps_over_k": 70.0},
})

T_CR_OVER_T_B_REFERENCES = (0.39, 2.79)


def reference_tables():
    """Bundled immutable reference data."""
    return {
        "rotation_angles": _ROTATION_ANGLES,
        "substances": _SUBSTANCES,
        "T_cr_over_T_B": T_CR_OVER_T_B_REFERENCES,
    }


def rotation_angle(V):
    """Rotation angle (radians) for the reduced-volume band containing V."""
    for threshold, angle in _ROTATION_ANGLES:
        if V >= threshold:
            return angle
    raise LookupError(f"no rotation angle tabulated below V = 0.17 (got {V})")


def substance_data(name):
    """Reference constants for one substance."""
    try:
        return _SUBSTANCES[name]
    except KeyError:
        raise LookupError(f"no reference data for substance {name!r}") from None
