"""Independent checks of benchmark outputs, run outside the timed region.

Each check raises ``OracleError`` when a value is outside tolerance; the
benchmark then exits non-zero, so a fast wrong answer never reads as a
gain.  Tolerances are the ones the tier-1 tests use for the same
quantities.  The references use other algorithms than the library:
mpmath at raised precision for polylogarithms, zeta and the moment
integrals, Euler's pentagonal recurrence and exhaustive enumeration for
partition counts, product-space filters for occupation vectors, and
central differences for derivatives.  Reference values are memoized,
so repeated passes over the same inputs pay for them once.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from itertools import product

import mpmath

from zenoline import diagram, ensemble, partition, scatter
from zenoline.cli import parse_grid

DPS = 25
GAMMA0 = diagram.GAMMA0

# the CLI defaults (zenoline.cli._DEFAULTS) that the workloads run and the
# CLI checks expect
P_GRID = "0.05:1.0:0.05"
MU_GRID = "0:-0.5:-0.01"
B_GRID = "5:100:5"
RHO_GRID = "0.002:0.18:0.004"
B_DEFAULT = 100.0


class OracleError(AssertionError):
    """An output disagrees with its reference beyond tolerance."""


def close(what, got, want, rel=0.0, abs_tol=0.0):
    if not abs(got - want) <= max(rel * abs(want), abs_tol):
        raise OracleError(f"{what}: got {got!r}, reference {want!r} "
                          f"(rel {rel:g}, abs {abs_tol:g})")


def require(what, ok):
    if not ok:
        raise OracleError(what)


# ------------------------------------------------------ references


@functools.lru_cache(maxsize=None)
def li(s, z):
    """Li_s(z) by mpmath at DPS digits."""
    with mpmath.workdps(DPS):
        return float(mpmath.polylog(s, z))


@functools.lru_cache(maxsize=None)
def zeta(s):
    with mpmath.workdps(DPS):
        return float(mpmath.zeta(s))


def _cancelling(fn, scale):
    """Evaluate fn(x) with enough extra digits to survive the cancellation
    of two 1/y poles, where y = scale(x) -> 0 at the origin."""
    def wrapped(x):
        y = scale(x)
        extra = int(max(0, -mpmath.log10(y))) + 10 if y > 0 else 10
        with mpmath.extradps(extra):
            return +fn(x)
    return wrapped


@functools.lru_cache(maxsize=None)
def finite_n_moment(g, b, kappa, n_cap):
    """int_0^inf x^g [1/(e^y - 1) - N/(e^(N y) - 1)] dx, y = b (x + kappa)."""
    with mpmath.workdps(DPS):
        b_, k_ = mpmath.mpf(b), mpmath.mpf(kappa)

        def f(x):
            y = b_ * (x + k_)
            return x**g * (1 / mpmath.expm1(y) - n_cap / mpmath.expm1(n_cap * y))

        f = _cancelling(f, lambda x: n_cap * b_ * (x + k_))
        return float(mpmath.quad(f, [0, 1 / (b_ * n_cap), 1 / b_, mpmath.inf]))


@functools.lru_cache(maxsize=None)
def ncr_reference(n):
    with mpmath.workdps(DPS):
        i1 = mpmath.gamma(1.5) * mpmath.zeta(1.5)
        f = _cancelling(lambda x: 1 / x**2 - 1 / mpmath.expm1(x**2),
                        lambda x: x**2)
        i2 = mpmath.quad(f, [0, 1, mpmath.inf])
        w = (2 * n) ** (mpmath.mpf(1) / 3) * i1 ** (-mpmath.mpf(1) / 3) * i2
        return float((w * w / 4) * (1 + mpmath.sqrt(1 - 4 / w)) ** 2)


@functools.lru_cache(maxsize=None)
def pentagonal(n_max):
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


@functools.lru_cache(maxsize=None)
def partition_counts_enumerated(n):
    """p_k(n), k = 1..n, by walking every partition into non-increasing parts."""
    counts = [0] * (n + 1)

    def walk(remaining, largest, parts):
        if remaining == 0:
            counts[parts] += 1
            return
        for part in range(min(remaining, largest), 0, -1):
            walk(remaining - part, part, parts + 1)

    walk(n, n, 0)
    return counts[1:]


@functools.lru_cache(maxsize=None)
def product_space_states(levels, n, e_max):
    """(count, per-level totals) of vectors in {0..n}^s with sum n and
    energy <= e_max, by plain filtering of the product space."""
    count, totals = 0, [0] * len(levels)
    for vec in product(range(n + 1), repeat=len(levels)):
        if sum(vec) == n and \
                sum(v * lam for v, lam in zip(vec, levels)) <= e_max + 1e-12:
            count += 1
            for i, v in enumerate(vec):
                totals[i] += v
    return count, tuple(totals)


def check_stationary(what, problem, r):
    """E'(r) = 0 by central differences of effective_energy, to 1e-6 of
    the size of the terms of E/r that cancel there."""
    h = 1e-5 * r
    e = scatter.effective_energy
    cd = (e(problem, r + h) - e(problem, r - h)) / (2.0 * h)
    B2 = problem.B * problem.B
    scale = (problem.alpha * r**4 + r * r * abs(problem.potential.u(r))) \
        / abs(B2 - r * r) / r
    require(f"{what}: E'({r!r}) = {cd!r} by central differences, "
            f"above 1e-6 of the term scale {scale!r}", abs(cd) <= 1e-6 * scale)


@functools.lru_cache(maxsize=None)
def _pair(family, B, alpha):
    return scatter.stationary_pair(
        scatter.ScatterProblem(scatter.PotentialSpec(family), B, alpha))


# ------------------------------------------------------------ eos


def check_eos(eos):
    g = eos.gamma
    close("solve_phi V_cr", eos.V_cr, 1.414, abs_tol=5e-3)
    close("solve_phi phi(V)/V at the largest V", eos.phi_vals[-1] / eos.V[-1],
          1.0, abs_tol=1e-3)
    t_max = 1.0 - 1.0 / eos.V[-1]
    close("solve_phi boundary kappa", eos.kappa[-1],
          -math.log(eos.V[-1] * t_max ** (g + 1.0)), rel=1e-12)
    for i in range(0, len(eos.V), 40):
        z = math.exp(eos.kappa[i])
        close(f"solve_phi unit compressibility at V = {eos.V[i]!r}",
              eos.V[i] * eos.dphi_vals[i] * li(g + 2.0, z),
              eos.phi_vals[i] * li(g + 1.0, z), rel=1e-12)
    for V in (2.0, 5.0, 50.0):
        fd = (eos.phi(V + 1e-5) - eos.phi(V - 1e-5)) / 2e-5
        close(f"solve_phi phi'({V})", eos.dphi(V), fd, rel=1e-3)


def check_ideal_points(points, gamma0=GAMMA0):
    zp2 = zeta(gamma0 + 2.0)
    for pt in points:
        close(f"ideal isotherm Li(a) at P = {pt.P_r!r}",
              li(gamma0 + 2.0, pt.a), pt.P_r * zp2, rel=1e-9)
        close(f"ideal isotherm Z at P = {pt.P_r!r}", pt.Z,
              pt.P_r * zp2 / li(gamma0 + 1.0, pt.a), rel=1e-12)


def check_imperfect_points(points, eos, gamma0=GAMMA0):
    scale = eos.dphi(eos.V_cr) * zeta(gamma0 + 2.0)
    for pt in points:
        V = pt.Z / pt.P_r
        close(f"imperfect isotherm phi equation at P = {pt.P_r!r}",
              eos.phi(V) * li(gamma0 + 1.0, pt.a), scale, rel=1e-8)
        close(f"imperfect isotherm phi' equation at P = {pt.P_r!r}",
              eos.dphi(V) * li(gamma0 + 2.0, pt.a), pt.P_r * scale, rel=1e-8)


def check_jamming_rows(rows, gamma0=GAMMA0, anchor_P=2.5):
    """Z = Li_{g+2}/Li_{g+1} and P = Li_{g+2}/zeta(g0+2) on the integrated
    branch; gamma non-increasing; a straight stitch ending at (anchor, 1)."""
    mus = [r[2] for r in rows]
    n_branch = 1 + sum(1 for a, b in zip(mus, mus[1:]) if b < a)
    zp2 = zeta(gamma0 + 2.0)
    for P, Z, mu, g in rows[:n_branch]:
        if mu == 0.0:
            want_p, want_z = zeta(g + 2.0) / zp2, zeta(g + 2.0) / zeta(g + 1.0)
        else:
            a = math.exp(mu)
            want_p = li(g + 2.0, a) / zp2
            want_z = li(g + 2.0, a) / li(g + 1.0, a)
        close(f"jamming P at mu = {mu!r}", P, want_p, rel=1e-12)
        close(f"jamming Z at mu = {mu!r}", Z, want_z, rel=1e-12)
    gammas = [r[3] for r in rows[:n_branch]]
    require("jamming gamma increases along the branch",
            all(b <= a + 1e-12 and b >= 0.0 for a, b in zip(gammas, gammas[1:])))
    close("jamming anchor P", rows[-1][0], anchor_P, rel=1e-14)
    close("jamming anchor Z", rows[-1][1], 1.0, rel=1e-14)
    (p0, z0), (p1, z1) = rows[n_branch - 1][:2], rows[-1][:2]
    slope = (z1 - z0) / (p1 - p0)
    for P, Z, _, _ in rows[n_branch:]:
        close(f"jamming stitch at P = {P!r}", Z, z0 + slope * (P - p0),
              abs_tol=1e-12)


# -------------------------------------------------------- scatter


def check_zeno_rows(pot, rows):
    for B, r, alpha, _ in rows:
        close(f"{pot.family} merge alpha by the second derivative at B = {B!r}",
              scatter.alpha_from_second_derivative(pot, B, r), alpha, rel=1e-8)
        check_stationary(f"{pot.family} merge radius at B = {B!r}",
                         scatter.ScatterProblem(pot, B, alpha), r)


def check_compressibility(pot, B, curve, stride=4):
    for rho, Z, z_min in curve.rows:
        close(f"{pot.family} Z + Z_min at rho = {rho!r}", Z + z_min, 1.0,
              abs_tol=1e-14)
        require(f"{pot.family} Z = {Z!r} outside [0, 1]", 0.0 <= Z <= 1.0)
    for rho, Z, _ in curve.rows[::stride]:
        pair = _pair(pot.family, B, rho)
        problem = scatter.ScatterProblem(pot, B, rho)
        for r in (pair.r_lo, pair.r_hi):
            check_stationary(f"{pot.family} stationary radius at rho = {rho!r}",
                             problem, r)
        close(f"{pot.family} Z from the stationary pair at rho = {rho!r}",
              Z, 1.0 - pair.E_min / pair.E_max, rel=1e-14)
    for rho, reason in curve.meta["failures"]:
        require(f"{pot.family} point rho = {rho!r} failed other than by "
                f"degeneracy: {reason}", reason.startswith("DegenerateError("))


def check_critical(pot, B, summary):
    notes = summary.notes
    r_star = notes["r_star"]
    close(f"{pot.family} critical alpha routes at B = {B!r}",
          scatter.alpha_from_second_derivative(pot, B, r_star),
          notes["alpha_star"], rel=1e-8)
    close(f"{pot.family} critical T ratio at B = {B!r}", summary.T_cr_over_T_B,
          notes["ordinate_critical"] / notes["ordinate_zero_density"], rel=1e-12)
    x, a_star = summary.rho_cr_over_rho_B, notes["alpha_star"]

    def z(xx):
        pair = _pair(pot.family, B, a_star * xx)
        return 1.0 - pair.E_min / pair.E_max

    close(f"{pot.family} diagonal slope at B = {B!r}",
          (z(x + 1e-4) - z(x - 1e-4)) / 2e-4, -1.0, abs_tol=1e-5)
    if pot.family == "lennard_jones" and B == 100.0:
        close("LJ Z_cr", summary.Z_cr, 0.2996, abs_tol=2e-3)
        close("LJ rho_cr/rho_B", x, 0.2737, abs_tol=2e-3)
        close("LJ alpha*", a_star, 0.239523, abs_tol=2e-5)


# --------------------------------------------------- exact counts


_C = 2.0 * math.pi / math.sqrt(6.0)


def check_partition_table(table):
    """Row totals against the pentagonal recurrence, a small row against
    enumeration; returns the smallest argmax of p_k(n_max) over k."""
    n = table.n_max
    p = pentagonal(n)
    for m in sorted({n, n // 2, n // 3, min(n, 100)}):
        require(f"partition table p({m}) differs from the pentagonal recurrence",
                table.total(m) == p[m])
    if n >= 20:
        require("partition table row 20 differs from enumeration",
                table.row(20) == partition_counts_enumerated(20))
    row = table.row(n)
    best = max(row)
    return row.index(best) + 1


def check_threshold(th, k0_from_table):
    n = th.n
    if k0_from_table is None:
        k0_from_table = check_partition_table(partition.build_partition_table(n, n))
    require(f"threshold k0({n}) = {th.k0_exact}, table argmax {k0_from_table}",
            th.k0_exact == k0_from_table)
    leading = math.sqrt(n) / _C * math.log(n)
    close(f"threshold leading term at n = {n}", th.k0_leading, leading, rel=1e-12)
    close(f"threshold two-term at n = {n}", th.k0_two_term,
          leading - 2.0 * math.log(_C / 2.0) * math.sqrt(n), rel=1e-12)


def check_fit(dist, n, k):
    g = dist.gamma
    if k is None:
        require("kappa = 0 mode returned kappa != 0", dist.kappa == 0.0)
        b_inf = (math.gamma(g + 2.0) * zeta(g + 2.0) / n) ** (1.0 / (g + 2.0))
        close(f"fit b at n = {n}", dist.b, b_inf, rel=1e-10)
        close(f"fit gamma-moment reproduces N = {dist.n_cap}",
              finite_n_moment(g, dist.b, 0.0, dist.n_cap), dist.n_cap,
              rel=2.0 / dist.n_cap)
        return
    require(f"fit returned N = {dist.n_cap}, asked k = {k}", dist.n_cap == k)
    close(f"fit gamma-moment at n = {n}, k = {k}",
          finite_n_moment(g, dist.b, dist.kappa, k), k, rel=1e-8)
    close(f"fit (gamma+1)-moment at n = {n}, k = {k}",
          finite_n_moment(g + 1.0, dist.b, dist.kappa, k), n, rel=1e-8)


def check_ncr(value, n):
    close(f"N_cr({n})", value, ncr_reference(n), rel=1e-10)


def check_concentration(levels, E, report, psi=ensemble.default_psi):
    b_E = report["b_E"]
    w = [math.exp(-b_E * lam) for lam in levels]
    close("Gibbs parameter mean level", sum(l * x for l, x in zip(levels, w))
          / sum(w), E, rel=1e-12)
    L0 = sum(w)
    for entry in report["entries"]:
        N = entry["N"]
        require(f"no states at N = {N}", entry["states"] > 0)
        close(f"mean occupations sum at N = {N}", sum(entry["empirical_means"]),
              N, rel=1e-12)
        require(f"outside fraction at N = {N}",
                0.0 <= entry["outside_fraction"] <= 1.0)
        half = (N / L0) * math.sqrt(L0 * math.log(max(L0, math.e))) * psi(L0)
        close(f"band half-width at N = {N}", entry["band_halfwidth"], half,
              rel=1e-12)
        if (N + 1) ** len(levels) <= 20_000:
            count, totals = product_space_states(tuple(levels), N, N * E)
            require(f"state count at N = {N}: {entry['states']}, "
                    f"product space {count}", entry["states"] == count)
            for mean, total in zip(entry["empirical_means"], totals):
                close(f"mean occupation at N = {N}", mean, total / count,
                      rel=1e-12)


# ------------------------------------------------------------ cli


@functools.lru_cache(maxsize=None)
def _library_rows(name):
    """Rows the library gives for a CLI request at the CLI defaults."""
    lj = scatter.PotentialSpec("lennard_jones")
    if name in ("partition", "partition_n2000"):
        n = 100 if name == "partition" else 2000
        table = partition.build_partition_table(n, n)
        require(f"partition p({n}) differs from the pentagonal recurrence",
                table.total(n) == pentagonal(n)[n])
        return [(k, table.count(n, k)) for k in range(1, n + 1)]
    if name == "threshold":
        th = partition.condensate_threshold(100)
        return [(th.n, th.k0_exact, th.k0_leading, th.k0_two_term)]
    if name == "zeno":
        return scatter.trace_zeno_analog(lj, parse_grid(B_GRID)).rows
    if name == "compressibility":
        return scatter.compressibility_curve(
            lj, B_DEFAULT, parse_grid(RHO_GRID)).rows
    if name == "critical":
        s = scatter.critical_summary(lj, B=B_DEFAULT)
        return [(s.Z_cr, s.rho_cr_over_rho_B, s.T_cr_over_T_B)]
    if name == "ensemble":
        levels = (1.0, 2.0, 3.0, 4.0)
        rep = ensemble.concentration_report(ensemble.SpectrumSpec(levels),
                                            [4, 6, 8], 2.0)
        check_concentration(levels, 2.0, rep)
        return [(e["N"], e["states"], e["outside_fraction"], e["band_halfwidth"])
                for e in rep["entries"]]
    if name == "reference":
        return list(diagram.reference_tables()["rotation_angles"])
    raise KeyError(name)


CLI_COLUMNS = {
    "threshold": ["n", "k0_exact", "k0_leading", "k0_two_term"],
    "partition": ["k", "p_k"],
    "partition_n2000": ["k", "p_k"],
    "zeno": ["B", "r_star", "alpha", "E"],
    "compressibility": ["rho", "Z", "Z_min"],
    "critical": ["Z_cr", "rho_cr_over_rho_B", "T_cr_over_T_B"],
    "isotherm": ["P_r", "Z", "a", "T_r"],
    "jamming": ["P", "Z", "mu", "gamma"],
    "ensemble": ["N", "states", "outside_fraction", "band_halfwidth"],
    "reference": ["V_threshold", "angle_rad"],
}


def _parse(value, like):
    if isinstance(like, bool):
        return value == str(like)
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    return value


def check_cli(name, stdout):
    """The CSV a CLI request printed, against the library or an oracle."""
    rows = list(csv.reader(io.StringIO(stdout)))
    require(f"cli {name}: empty output", len(rows) >= 2)
    require(f"cli {name}: columns {rows[0]}", rows[0] == CLI_COLUMNS[name])
    body = rows[1:]
    if name == "isotherm":
        pts = [diagram.IsothermPoint(*map(float, r)) for r in body]
        require("cli isotherm P grid", [p.P_r for p in pts]
                == parse_grid(P_GRID))
        check_ideal_points(pts)
        return
    if name == "jamming":
        check_jamming_rows([tuple(map(float, r)) for r in body])
        return
    want = _library_rows(name)
    require(f"cli {name}: {len(body)} rows, library {len(want)}",
            len(body) == len(want))
    for got, ref in zip(body, want):
        parsed = tuple(_parse(v, like) for v, like in zip(got, ref))
        require(f"cli {name}: row {got} differs from library {ref}",
                len(got) == len(ref) and parsed == tuple(ref))
