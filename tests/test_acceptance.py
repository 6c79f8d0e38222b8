"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a
single PASS line with the measured figure once its assertions hold.
"""

import math

import numpy as np
import pytest

from zenoline import diagram, ensemble, partition, scatter, specfun
from zenoline.errors import CausticError

import oracles

LJ = scatter.PotentialSpec()
GAMMA0 = diagram.GAMMA0


def test_criterion_01_closed_form_integrals():
    basel = specfun.bose_integral(1.0, 0.0).value
    dev = abs(basel - math.pi**2 / 6.0)
    assert dev < 1e-8
    for n in (2, 10, 100):
        log_dev = abs(specfun.finite_n_integral(0.0, 1.0, 0.0, n).value
                      - math.log(n))
        assert log_dev < 1e-8
    for s in (1.2, 2.2, 3.0):
        z = specfun.riemann_zeta(s)
        assert abs(specfun.polylog(s, 1.0) - z) < 1e-9 * max(abs(z), 1.0)
    print(f"PASS criterion 1: closed-form integral suite "
          f"(Basel deviation {dev:.2e})")


def test_criterion_02_partition_oracles():
    table = partition.build_partition_table(200, 200)
    totals = oracles.pentagonal_partition_totals(200)
    for n in range(1, 201):
        assert table.total(n) == totals[n]
    for n in range(1, 41):
        counts = oracles.enumerate_partition_counts(n)
        for k in range(1, n + 1):
            assert table.count(n, k) == counts[k - 1]
    print("PASS criterion 2: partition table matches the pentagonal oracle "
          "(n <= 200) and exhaustive enumeration (n <= 40)")


def test_criterion_03_threshold_trend():
    distances = []
    ratios = []
    for n in (500, 1000, 2000, 5000):
        th = partition.condensate_threshold(n)
        ratio = th.k0_two_term / th.k0_exact
        assert 0.7 <= ratio <= 1.3
        ratios.append(ratio)
        distances.append(abs(ratio - 1.0))
    assert all(b <= a + 1e-12 for a, b in zip(distances, distances[1:]))
    print(f"PASS criterion 3: two-term threshold ratios "
          f"{[round(r, 4) for r in ratios]} closing on 1")


def test_criterion_04_maximizer_rules():
    # below the threshold k0 the variant count still grows, so the cap
    # k-bar itself maximizes it; above k0 no count reaches the one at k0.
    # The streamed threshold scan does not assume this: its stop is the
    # Hardy-Ramanujan bound on p(n - k - 1).
    n_max = 300
    table = partition.build_partition_table(n_max, n_max)
    for n in range(1, n_max + 1):
        row = table.row(n)
        k0 = partition.condensate_threshold(n).k0_exact
        best, arg = 0, 1
        for k_bar in range(1, n + 1):
            if row[k_bar - 1] > best:
                best, arg = row[k_bar - 1], k_bar
            assert arg == min(k_bar, k0)
    print("PASS criterion 4: the argmax of p_k(n) over k <= k-bar is "
          "min(k-bar, k0) for all n <= 300, all k-bar")


def test_criterion_05_scatter_self_consistency():
    worst_alpha = 0.0
    worst_de = 0.0
    for B in (5.0, 10.0, 50.0, 100.0):
        r_star = scatter.zeno_condition_root(LJ, B)
        a1 = scatter.alpha_from_first_derivative(LJ, B, r_star)
        a2 = scatter.alpha_from_second_derivative(LJ, B, r_star)
        worst_alpha = max(worst_alpha, abs(a1 - a2) / abs(a1))
        assert abs(a1 - a2) <= 1e-8 * abs(a1)
        prob = scatter.ScatterProblem(LJ, B, 0.5 * a1)
        pair = scatter.stationary_pair(prob)
        for r in (pair.r_lo, pair.r_hi):
            de = abs(oracles.effective_energy_derivative(prob, r))
            fd = abs(oracles.central_difference(
                lambda x: scatter.effective_energy(prob, x), r, 1e-5))
            worst_de = max(worst_de, de)
            assert de < 1e-9
            assert fd < 1e-6
    print(f"PASS criterion 5: alpha routes agree to {worst_alpha:.2e}, "
          f"stationary residuals below {worst_de:.2e}")


def test_criterion_06_B_plateau():
    # compare at matched normalized density x = rho/rho_B so the two
    # impact parameters are sampled at the same fraction of their own
    # degeneracy intercept
    xs = np.linspace(0.01, 0.85, 50)
    curves = {}
    for B in (10.0, 100.0):
        a_star = scatter.alpha_from_first_derivative(
            LJ, B, scatter.zeno_condition_root(LJ, B))
        rho = [x * a_star for x in xs]
        curves[B] = scatter.compressibility_curve(LJ, B, rho).column("Z")
        assert len(curves[B]) == 50
    diff = max(abs(a - b) for a, b in zip(curves[10.0], curves[100.0]))
    assert diff < 1e-2
    print(f"PASS criterion 6: Z plateau over B, max |Z(10) - Z(100)| = "
          f"{diff:.2e} on a 50-point grid")


def test_criterion_07_critical_summary():
    cs = scatter.critical_summary(LJ, B=100.0)
    assert abs(cs.Z_cr - 0.29) <= 0.02
    assert abs(cs.rho_cr_over_rho_B - 0.273) <= 0.02
    # property fallback holds regardless
    curve = scatter.compressibility_curve(
        LJ, 100.0, np.linspace(0.01, 0.2, 20))
    assert all(0.0 <= z <= 1.0 for z in curve.column("Z"))
    refs = cs.notes["reference_T_ratios"]
    print(f"PASS criterion 7: Z_cr = {cs.Z_cr:.4f}, rho_cr/rho_B = "
          f"{cs.rho_cr_over_rho_B:.4f}; T_cr/T_B = {cs.T_cr_over_T_B:.4f} "
          f"reported against reference values {refs[0]} and {refs[1]} (no gate)")


def test_criterion_08_bachinskii_caustic():
    b, c = 1.3, 0.8
    for P in (0.2, 0.7, 1.1):
        lo, hi = diagram.bachinskii_density(b, c, P)
        assert lo < hi
        assert abs((lo + hi) - 4.0 * b / c) <= 1e-12 * (4.0 * b / c)
        prod = 4.0 * b * P / (c * c)
        assert abs(lo * hi - prod) <= 1e-12 * prod
    lo, hi = diagram.bachinskii_density(b, c, b)
    assert abs(lo - hi) <= 1e-12 * hi
    with pytest.raises(CausticError):
        diagram.bachinskii_density(b, c, b * 1.0001)
    print("PASS criterion 8: parabola roots real below the caustic, double "
          "at it, complex-rejected past it; Vieta identities to 1e-12")


def test_criterion_09_isotherm_consistency():
    zp1 = specfun.riemann_zeta(GAMMA0 + 1.0)
    zp2 = specfun.riemann_zeta(GAMMA0 + 2.0)
    grid = list(np.linspace(1.0 / 30.0, 1.0, 30))
    pts = diagram.ideal_isotherm(grid, GAMMA0)
    for pt in pts:
        t1 = pt.P_r * zp2
        assert abs(specfun.polylog(GAMMA0 + 2.0, pt.a) - t1) <= 1e-9 * t1
        t2 = pt.Z * specfun.polylog(GAMMA0 + 1.0, pt.a)
        assert abs(t2 - pt.P_r * zp2) <= 1e-9 * t1
    low = diagram.ideal_isotherm([1e-6], GAMMA0)[0]
    assert abs(low.Z - 1.0) < 1e-3
    top = pts[-1]
    assert abs(top.Z - zp2 / zp1) <= 1e-9
    reference = oracles.ideal_isotherm_reference(grid, GAMMA0)
    for a, b in zip(pts, reference):
        assert abs(a.Z - b.Z) <= 1e-12
        assert abs(a.a - b.a) <= 1e-12
    print(f"PASS criterion 9: ideal isotherm equations hold to 1e-9 on 30 "
          f"points, Z(1) = {top.Z:.5f}, the reference ideal loop agrees")


def test_criterion_10_jamming_curve():
    eos = diagram.FractalEos.identity(GAMMA0)
    mu_grid = [0.0] + list(np.arange(-0.01, -0.501, -0.01))
    curve = diagram.jamming_extension(mu_grid, eos, gamma0=GAMMA0)
    gammas = curve.column("gamma")
    assert gammas[0] == GAMMA0
    assert all(b <= a + 1e-12 for a, b in zip(gammas, gammas[1:]))
    tail = [(p, z) for p, z, _, _ in curve.rows if p > 1.5]
    assert len(tail) >= 3
    ps = np.array([t[0] for t in tail])
    zs = np.array([t[1] for t in tail])
    slope, intercept = np.polyfit(ps, zs, 1)
    ss_res = float(np.sum((zs - (slope * ps + intercept)) ** 2))
    ss_tot = float(np.sum((zs - zs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert r2 > 0.99
    print(f"PASS criterion 10: gamma(0) = {gammas[0]}, monotone "
          f"non-increasing; tail fit R^2 = {r2:.6f}")


def test_criterion_11_ensemble_concentration():
    spec = ensemble.SpectrumSpec((1.0, 2.0, 3.0, 4.0))
    rep = ensemble.concentration_report(spec, [4, 6, 8], 2.0)
    fracs = [e["outside_fraction"] for e in rep["entries"]]
    assert rep["trend_non_increasing"]
    for n in (4, 6, 8):
        census = ensemble.enumerate_states(spec, n, n * 2.0)
        vectors = oracles.occupation_vectors(spec.levels, n, n * 2.0)
        assert (census.states, census.level_totals) == \
            (len(vectors), tuple(map(sum, zip(*vectors))))
        assert sum(census.level_totals) == n * census.states
    print(f"PASS criterion 11: outside-band fractions "
          f"{[round(f, 4) for f in fracs]} non-increasing in N; the census "
          f"matches the product-space oracle and conserves the particle count")


def test_criterion_12_boltzmann_limit():
    value = specfun.bose_integral(1.0, -20.0).value
    ratio = value / (specfun.gamma_fn(2.0) * math.exp(-20.0))
    dev = abs(ratio - 1.0)
    assert dev < 1e-8
    print(f"PASS criterion 12: Boltzmann-limit ratio deviates by {dev:.2e} "
          f"at kappa = -20")
