import itertools
import math

import numpy as np
import pytest

from zenoline import scatter
from zenoline.errors import (BracketError, DegenerateError, DomainError,
                             PoleError)

import oracles

LJ = scatter.PotentialSpec()
FAMILIES = [scatter.PotentialSpec(f) for f in
            ("lennard_jones", "generalized_lj", "morse", "buckingham")]


def _alpha_star(pot, B=100.0):
    return scatter.alpha_from_first_derivative(
        pot, B, scatter.zeno_condition_root(pot, B))


@pytest.fixture(scope="module")
def summary100():
    return scatter.critical_summary(LJ, B=100.0)


class TestPotentials:
    families = [
        scatter.PotentialSpec("lennard_jones"),
        scatter.PotentialSpec("generalized_lj", {"m": 5.0}),
        scatter.PotentialSpec("morse"),
        scatter.PotentialSpec("morse", {"a": 4.0, "r0": 1.2}),
        scatter.PotentialSpec("buckingham"),
        scatter.PotentialSpec("buckingham", {"A": 2e5, "B": 11.0, "C": 2.5}),
    ]

    def test_derivatives_against_central_differences(self):
        for pot in self.families:
            for r in (0.9, 1.1, 1.5, 2.5):
                fd1 = oracles.central_difference(pot.u, r, 1e-6)
                fd2 = oracles.central_difference(pot.du, r, 1e-6)
                assert pot.du(r) == pytest.approx(fd1, rel=1e-7, abs=1e-7)
                assert pot.d2u(r) == pytest.approx(fd2, rel=1e-7, abs=1e-6)

    def test_array_matches_scalar(self):
        rs = np.geomspace(0.6, 50.0, 64)
        for pot in self.families:
            u, up, upp = pot.derivatives(rs)
            for fn, arr in ((pot.u, u), (pot.du, up), (pot.d2u, upp)):
                np.testing.assert_allclose(arr, [fn(r) for r in rs],
                                           rtol=1e-14, atol=0.0)

    def test_params_set_the_well(self):
        _, glj, _, morse, _, buck = self.families
        assert glj.u(2.0 ** 0.2) == pytest.approx(-1.0, rel=1e-14)
        assert morse.u(1.2) == -1.0 and morse.du(1.2) == 0.0
        assert morse.d2u(1.2) == 2.0 * 4.0**2
        assert buck.u(1.5) == pytest.approx(
            2e5 * math.exp(-16.5) - 2.5 / 1.5**6, rel=1e-14)

    def test_lj_minimum(self):
        r_min = 2.0 ** (1.0 / 6.0)
        assert LJ.u(r_min) == pytest.approx(-1.0, rel=1e-14)
        assert LJ.du(r_min) == pytest.approx(0.0, abs=1e-13)
        assert LJ.u(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            scatter.PotentialSpec("square_well")
        with pytest.raises(DomainError):
            LJ.u(0.0)
        with pytest.raises(DomainError):
            LJ.du(-1.0)
        with pytest.raises(DomainError):
            LJ.derivatives(np.array([1.0, 0.0]))


class TestEffectiveEnergy:
    problem = scatter.ScatterProblem(LJ, 10.0, 0.1)

    def test_closed_form(self):
        for r in (1.0, 1.3, 2.0):
            expect = (-0.1 * r**4 + r * r * LJ.u(r)) / (100.0 - r * r)
            assert scatter.effective_energy(self.problem, r) == \
                pytest.approx(expect, rel=1e-14)

    def test_derivative_against_central_difference(self):
        for r in (1.1, 1.3, 1.8, 3.0):
            fd = oracles.central_difference(
                lambda x: scatter.effective_energy(self.problem, x), r, 1e-6)
            assert scatter.effective_energy_derivative(self.problem, r) == \
                pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_pole(self):
        with pytest.raises(PoleError):
            scatter.effective_energy(self.problem, 10.0)
        with pytest.raises(PoleError):
            scatter.effective_energy_derivative(self.problem, 10.0)

    def test_problem_validation(self):
        with pytest.raises(DomainError):
            scatter.ScatterProblem(LJ, 0.9, 0.1)
        with pytest.raises(DomainError):
            scatter.ScatterProblem(LJ, 10.0, -0.1)
        for B, alpha in ((math.nan, 0.1), (math.inf, 0.1), (10.0, math.nan)):
            with pytest.raises(DomainError):
                scatter.ScatterProblem(LJ, B, alpha)


class TestAlphaRoutes:
    def test_first_route_makes_r_stationary(self):
        for B in (5.0, 20.0, 100.0):
            for r in (1.2, 1.3, 1.5):
                alpha = scatter.alpha_from_first_derivative(LJ, B, r)
                prob = scatter.ScatterProblem(LJ, B, alpha)
                de = scatter.effective_energy_derivative(prob, r)
                # scale by the local second derivative for a relative test
                d2 = oracles.central_difference(
                    lambda x: scatter.effective_energy_derivative(prob, x),
                    r, 1e-6)
                assert abs(de) <= 1e-9 * max(abs(d2) * r, 1e-6)

    def test_second_route_makes_r_inflection(self):
        for B in (5.0, 100.0):
            for r in (1.2, 1.3):
                alpha = scatter.alpha_from_second_derivative(LJ, B, r)
                prob = scatter.ScatterProblem(LJ, B, alpha)
                d2 = oracles.central_difference(
                    lambda x: scatter.effective_energy_derivative(prob, x),
                    r, 1e-5)
                assert abs(d2) <= 1e-5

    def test_routes_agree_at_merge_radius(self):
        for B in (5.0, 10.0, 50.0, 100.0):
            r_star = scatter.zeno_condition_root(LJ, B)
            a1 = scatter.alpha_from_first_derivative(LJ, B, r_star)
            a2 = scatter.alpha_from_second_derivative(LJ, B, r_star)
            assert a1 == pytest.approx(a2, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            scatter.alpha_from_first_derivative(LJ, 10.0, 0.2)
        with pytest.raises(DomainError):
            scatter.alpha_from_second_derivative(LJ, 10.0, 12.0)


class TestZenoRoot:
    def test_residual_vanishes(self):
        for B in (5.0, 100.0):
            r_star = scatter.zeno_condition_root(LJ, B)
            # residual carries an O(B^2) scale; compare relative to it
            assert abs(scatter._zeno_residual(LJ, B, r_star)) < 1e-12 * B * B

    def test_large_B_reference(self):
        r_star = scatter.zeno_condition_root(LJ, 100.0)
        assert r_star == pytest.approx(1.27888, abs=2e-4)
        alpha = scatter.alpha_from_first_derivative(LJ, 100.0, r_star)
        assert alpha == pytest.approx(0.239523, abs=2e-5)

    def test_alpha_star_grows_with_B(self):
        values = [scatter.alpha_from_first_derivative(
            LJ, B, scatter.zeno_condition_root(LJ, B)) for B in (5.0, 10.0, 100.0)]
        assert values[0] < values[1] < values[2]
        assert values[0] == pytest.approx(0.216930, abs=2e-5)
        assert values[1] == pytest.approx(0.234049, abs=2e-5)

    def test_scan_counts_exact_grid_zero(self):
        # f vanishes exactly at the grid point 1.0 and changes sign in
        # the cell (1.5, 2.0); both are roots
        grid = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        roots = scatter._scan_roots(lambda r: (r - 1.0) * (r - 1.75), grid)
        assert len(roots) == 2
        assert roots[0] == 1.0
        assert roots[1] == pytest.approx(1.75, abs=1e-14)

    def test_no_root_in_bad_bracket(self):
        with pytest.raises(BracketError):
            scatter.zeno_condition_root(LJ, 100.0, bracket=(3.0, 5.0))
        with pytest.raises(DomainError):
            scatter.zeno_condition_root(LJ, 100.0, bracket=(0.1, 2.0))


class TestTrace:
    def test_curve_consistency(self):
        curve = scatter.trace_zeno_analog(LJ, [5.0, 10.0, 25.0, 50.0, 100.0])
        assert curve.columns == ("B", "r_star", "alpha", "E")
        assert len(curve) == 5
        assert curve.meta["failures"] == []
        alphas = curve.column("alpha")
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        # endpoint must reproduce the single-point routines exactly
        r_star = scatter.zeno_condition_root(LJ, 100.0)
        assert curve.rows[-1][1] == r_star

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            scatter.trace_zeno_analog(LJ, [0.5, 5.0])
        with pytest.raises(DomainError):
            scatter.trace_zeno_analog(LJ, [10.0, 5.0])
        for B in (math.nan, math.inf):
            with pytest.raises(DomainError):
                scatter.trace_zeno_analog(LJ, [B])


class TestStationaryPair:
    def test_derivative_residuals(self):
        prob = scatter.ScatterProblem(LJ, 100.0, 0.1)
        pair = scatter.stationary_pair(prob)
        for r in (pair.r_lo, pair.r_hi):
            assert abs(scatter.effective_energy_derivative(prob, r)) < 1e-9

    def test_flipped_depths(self):
        # r_lo is the well and r_hi the barrier for every family, from
        # near 0 to near the merge threshold
        for pot, x in itertools.product(FAMILIES, (1e-9, 0.05, 0.5, 0.99)):
            prob = scatter.ScatterProblem(pot, 100.0, _alpha_star(pot) * x)
            pair = scatter.stationary_pair(prob)
            assert pair.r_lo < pair.r_hi
            assert 0.0 <= pair.E_min <= pair.E_max
            assert pair.E_max == -scatter.effective_energy(prob, pair.r_lo)
            assert pair.E_min == -scatter.effective_energy(prob, pair.r_hi)
            e = [scatter.effective_energy(prob, r) for r in
                 (0.99 * pair.r_lo, pair.r_lo, 1.01 * pair.r_lo)]
            assert e[1] < min(e[0], e[2])

    def test_degenerate_beyond_merge(self):
        r_star = scatter.zeno_condition_root(LJ, 100.0)
        a_star = scatter.alpha_from_first_derivative(LJ, 100.0, r_star)
        with pytest.raises(DegenerateError):
            scatter.stationary_pair(scatter.ScatterProblem(LJ, 100.0, 1.2 * a_star))

    def test_zero_alpha_limit(self):
        # alpha -> 0: the barrier vanishes, so Z -> 1
        pair = scatter.stationary_pair(scatter.ScatterProblem(LJ, 100.0, 1e-10))
        assert pair.E_min / pair.E_max < 1e-4


class TestCompressibility:
    def test_bounds_and_complement(self):
        curve = scatter.compressibility_curve(
            LJ, 100.0, np.linspace(0.01, 0.2, 12))
        assert curve.meta["failures"] == []
        for rho, z, z_min in curve.rows:
            assert 0.0 <= z <= 1.0
            assert z + z_min == pytest.approx(1.0, abs=1e-14)

    def test_endpoints(self):
        curve = scatter.compressibility_curve(LJ, 100.0, [1e-6, 0.2])
        assert curve.rows[0][1] == pytest.approx(1.0, abs=5e-3)
        assert curve.rows[-1][1] < 0.35

    def test_single_interior_minimum_structure(self):
        # Z decreases from 1 toward the degeneracy intercept: strictly
        # monotone over the sampled range
        curve = scatter.compressibility_curve(
            LJ, 100.0, np.linspace(0.02, 0.22, 15))
        zs = curve.column("Z")
        assert all(a > b for a, b in zip(zs, zs[1:]))

    def test_degenerate_point_recorded_and_skipped(self):
        # rho = 0.3 lies past the merge threshold alpha*(100) ~ 0.2395
        curve = scatter.compressibility_curve(LJ, 100.0, [0.1, 0.3, 0.2])
        assert list(curve.column("rho")) == [0.1, 0.2]
        (rho, msg), = curve.meta["failures"]
        assert rho == 0.3 and msg.startswith("DegenerateError")

    def test_deterministic(self):
        grid = np.linspace(0.02, 0.2, 8)
        a = scatter.compressibility_curve(LJ, 100.0, grid)
        b = scatter.compressibility_curve(LJ, 100.0, grid)
        assert a.rows == b.rows

    def test_small_B_rejected(self):
        for B in (5.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="B must be >= 10"):
                scatter.compressibility_curve(LJ, B, [0.1])


class TestCriticalSummary:
    def test_reference_values(self, summary100):
        assert summary100.Z_cr == pytest.approx(0.2996, abs=2e-3)
        assert summary100.rho_cr_over_rho_B == pytest.approx(0.2737, abs=2e-3)
        assert 0.0 < summary100.T_cr_over_T_B < 1.0

    def test_notes_complete(self, summary100):
        for key in ("alpha_star", "rho_B", "ordinate_zero_density",
                    "ordinate_critical", "reference_T_ratios"):
            assert key in summary100.notes
        assert summary100.notes["alpha_star"] == pytest.approx(0.239523, abs=2e-5)

    def test_temperature_ratio_consistent_with_notes(self, summary100):
        n = summary100.notes
        assert summary100.T_cr_over_T_B == pytest.approx(
            n["ordinate_critical"] / n["ordinate_zero_density"], rel=1e-12)

    def test_diagonal_criterion_holds(self, summary100):
        x = summary100.rho_cr_over_rho_B
        a_star = summary100.notes["alpha_star"]

        def z(xx):
            pair = scatter.stationary_pair(
                scatter.ScatterProblem(LJ, 100.0, a_star * xx))
            return 1.0 - pair.E_min / pair.E_max

        slope = oracles.central_difference(z, x, 1e-5)
        assert slope == pytest.approx(-1.0, abs=1e-8)

    @pytest.mark.parametrize("pot", FAMILIES, ids=lambda p: p.family)
    def test_envelope_slope_matches_central_difference(self, pot):
        # the central difference converges to the envelope slope as h^2;
        # at h = 1e-5 it is within ~5e-9
        a_star = _alpha_star(pot)

        def pair(x):
            return scatter.stationary_pair(
                scatter.ScatterProblem(pot, 100.0, a_star * x))

        def z(x):
            p = pair(x)
            return 1.0 - p.E_min / p.E_max

        for x in (0.05, 0.27, 0.5, 0.9):
            slope = a_star * scatter._z_slope(pair(x), 100.0)
            assert slope == pytest.approx(
                oracles.central_difference(z, x, 1e-5), rel=1e-8)

    @pytest.mark.parametrize("pot", FAMILIES, ids=lambda p: p.family)
    def test_one_scan_per_slope(self, pot, monkeypatch):
        # one pair per slope: 35 on the grid, the brentq polish, and the
        # pairs at x_cr and x -> 0
        calls = []
        pair = scatter.stationary_pair
        monkeypatch.setattr(scatter, "stationary_pair",
                            lambda problem: calls.append(problem) or pair(problem))
        scatter.critical_summary(pot, B=100.0)
        assert len(calls) <= 52
