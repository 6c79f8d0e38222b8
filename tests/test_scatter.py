import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zenoline import cli, scatter
from zenoline.errors import (BracketError, DegenerateError, DomainError,
                             PoleError, SolverError)

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
                fd2 = oracles.central_difference(
                    lambda x: pot.derivatives(x)[1], r, 1e-6)
                _, du, d2u = pot.derivatives(r)
                assert du == pytest.approx(fd1, rel=1e-7, abs=1e-7)
                assert d2u == pytest.approx(fd2, rel=1e-7, abs=1e-6)

    def test_params_set_the_well(self):
        _, glj, _, morse, _, buck = self.families
        assert glj.u(2.0 ** 0.2) == pytest.approx(-1.0, rel=1e-14)
        assert morse.derivatives(1.2) == (-1.0, 0.0, 2.0 * 4.0**2)
        assert buck.u(1.5) == pytest.approx(
            2e5 * math.exp(-16.5) - 2.5 / 1.5**6, rel=1e-14)

    def test_lj_minimum(self):
        r_min = 2.0 ** (1.0 / 6.0)
        assert LJ.u(r_min) == pytest.approx(-1.0, rel=1e-14)
        assert LJ.derivatives(r_min)[1] == pytest.approx(0.0, abs=1e-13)
        assert LJ.u(1.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("family, params, accepted", [
        ("lennard_jones", {"m": 3.0}, "none"),
        ("generalized_lj", {"n": 3.0}, "m"),
        ("morse", {"alpha": 4.0}, "a, r0"),
        ("buckingham", {"A": 2e5, "D": 1.0}, "A, B, C"),
    ])
    def test_unknown_param(self, family, params, accepted):
        with pytest.raises(DomainError, match=f"it takes {accepted}$"):
            scatter.PotentialSpec(family, params)

    def test_domain(self):
        with pytest.raises(DomainError):
            scatter.PotentialSpec("square_well")
        with pytest.raises(DomainError):
            LJ.u(0.0)
        with pytest.raises(DomainError):
            LJ.derivatives(-1.0)


class TestRecords:
    """The records are validating namedtuples: keyword and positional
    construction agree, an invalid field raises DomainError and a field
    cannot be assigned."""

    @pytest.mark.parametrize("cls, args, bad, message", [
        (scatter.PotentialSpec, ("morse", {"a": 4.0}), {"family": "square_well"},
         "unknown potential family 'square_well'"),
        (scatter.PotentialSpec, ("morse", {"a": 4.0}), {"params": {"m": 3.0}},
         "morse takes no parameter 'm'; it takes a, r0"),
        (scatter.ScatterProblem, (LJ, 10.0, 0.1), {"B": 1.0},
         "impact parameter B must be finite and exceed 1, got 1.0"),
        (scatter.ScatterProblem, (LJ, 10.0, 0.1), {"alpha": -0.1},
         "alpha must be non-negative, got -0.1"),
        (scatter.StationaryPair, (1.1, 3.0, 0.5, 1.0), {"E_min": 1.5},
         "E_max < E_min in stationary pair"),
        (scatter.CriticalSummary, (0.3, 0.27, 0.5, {"B": 100.0}), {"Z_cr": 1.0},
         "Z_cr = 1.0 outside (0, 1)"),
        (scatter.CriticalSummary, (0.3, 0.27, 0.5, {"B": 100.0}),
         {"T_cr_over_T_B": math.nan}, "T_cr_over_T_B = nan outside (0, 1)"),
    ])
    def test_contract(self, cls, args, bad, message):
        fields = dict(zip(cls._fields, args))
        record = cls(*args)
        assert record == cls(**fields)
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], args[0])
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            cls(**{**fields, **bad})

    def test_dict_fields(self):
        # each omitted dict is a fresh {}, and a record holding a dict is
        # unhashable
        records = [scatter.PotentialSpec(), scatter.CriticalSummary(0.3, 0.27, 0.5)]
        assert records[0].params == records[1].notes == {}
        assert records[0].params is not scatter.PotentialSpec().params
        for record in records:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(record)


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
            assert oracles.effective_energy_derivative(self.problem, r) == \
                pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_pole(self):
        with pytest.raises(PoleError):
            scatter.effective_energy(self.problem, 10.0)

    def test_domain(self):
        for r in (0.0, -1.0):
            with pytest.raises(DomainError, match=f"r must be positive, got {r}"):
                scatter.effective_energy(self.problem, r)

    def test_problem_validation(self):
        with pytest.raises(DomainError):
            scatter.ScatterProblem(LJ, 0.9, 0.1)
        with pytest.raises(DomainError):
            scatter.ScatterProblem(LJ, 10.0, -0.1)
        for B, alpha in ((math.nan, 0.1), (math.inf, 0.1), (10.0, math.nan)):
            with pytest.raises(DomainError):
                scatter.ScatterProblem(LJ, B, alpha)

    def test_B_whose_powers_overflow(self):
        # 8 B^6 is the highest power formed; it overflows from B ~ 1.7e51
        scatter.ScatterProblem(LJ, 1e51, 0.1)
        for B in (1e52, 1e200, 1e308):
            with pytest.raises(DomainError,
                               match=re.escape(f"B = {B!r} is too large")):
                scatter.ScatterProblem(LJ, B, 0.1)
            with pytest.raises(DomainError, match="too large"):
                scatter.alpha_from_second_derivative(LJ, B, 2.0)


class TestAlphaRoutes:
    def test_first_route_makes_r_stationary(self):
        for B in (5.0, 20.0, 100.0):
            for r in (1.2, 1.3, 1.5):
                alpha = scatter.alpha_from_first_derivative(LJ, B, r)
                prob = scatter.ScatterProblem(LJ, B, alpha)
                de = oracles.effective_energy_derivative(prob, r)
                # scale by the local second derivative for a relative test
                d2 = oracles.central_difference(
                    lambda x: oracles.effective_energy_derivative(prob, x),
                    r, 1e-6)
                assert abs(de) <= 1e-9 * max(abs(d2) * r, 1e-6)

    def test_second_route_makes_r_inflection(self):
        for B in (5.0, 100.0):
            for r in (1.2, 1.3):
                alpha = scatter.alpha_from_second_derivative(LJ, B, r)
                prob = scatter.ScatterProblem(LJ, B, alpha)
                d2 = oracles.central_difference(
                    lambda x: oracles.effective_energy_derivative(prob, x),
                    r, 1e-5)
                assert abs(d2) <= 1e-5

    def test_routes_agree_at_merge_radius(self):
        for B in (5.0, 10.0, 50.0, 100.0):
            r_star = scatter.zeno_condition_root(LJ, B)
            a1 = scatter.alpha_from_first_derivative(LJ, B, r_star)
            a2 = scatter.alpha_from_second_derivative(LJ, B, r_star)
            assert a1 == pytest.approx(a2, rel=1e-8)

    @pytest.mark.parametrize("pot", FAMILIES, ids=lambda p: p.family)
    def test_merge_residual_has_the_sign_of_A_prime(self, pot):
        # the certificates of the root solves read the sign of A' off it
        for B in (2.0, 10.0, 100.0):
            for r in (0.6, 0.9, 1.2, 1.25, 1.3, 1.4, 1.8, 0.5 * B, 0.99 * B):
                slope = oracles.central_difference(
                    lambda x: scatter.alpha_from_first_derivative(pot, B, x),
                    r, 1e-6 * r)
                assert math.copysign(1.0, slope) == \
                    math.copysign(1.0, scatter._zeno_residual(pot, B, r))

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

    # morse with r0 = 3 merges past 2, outside the bracket (1, 2)
    FAR_MERGE = scatter.PotentialSpec("morse", {"r0": 3.0})

    def test_no_root_in_bad_bracket(self):
        with pytest.raises(BracketError):
            scatter.zeno_condition_root(self.FAR_MERGE, 100.0)
        # a B below 2 cuts into the bracket
        with pytest.raises(DomainError):
            scatter.zeno_condition_root(LJ, 1.5)

    def test_certificate_names_bracket_and_ends(self):
        # A still rises at both ends of (1, 2), so no maximum is certified there
        with pytest.raises(BracketError, match=r"in \(1\.0, 2\.0\).* is 6\.78079e\+16 "
                           r"at r = 1\.0 and 1\.78134e\+12 at r = 2\.0, "
                           r"not positive then negative"):
            scatter.zeno_condition_root(self.FAR_MERGE, 100.0)


class TestMergeContext:
    """r* and alpha* are solved once per (potential, B) and cached."""

    @staticmethod
    def _counted_roots(monkeypatch):
        calls = []
        root = scatter.zeno_condition_root
        monkeypatch.setattr(scatter, "zeno_condition_root",
                            lambda pot, B: calls.append((pot, B)) or root(pot, B))
        return calls

    @pytest.mark.parametrize("pot", FAMILIES, ids=lambda p: p.family)
    def test_cold_pair_equals_warm(self, pot):
        a_star = _alpha_star(pot)
        for x in (1e-6, 0.05, 0.3, 0.7, 0.99):
            prob = scatter.ScatterProblem(pot, 100.0, a_star * x)
            scatter._merge.cache_clear()
            scatter._samples.cache_clear()
            cold = scatter.stationary_pair(prob)
            assert scatter._merge.cache_info().currsize == 1
            assert scatter._samples.cache_info().currsize == 1
            warm = scatter.stationary_pair(prob)
            assert scatter._merge.cache_info().hits >= 1
            # repr tells every float bit apart, -0.0 from 0.0 too
            assert repr(warm) == repr(cold)

    def test_params_are_part_of_the_key(self):
        m3 = scatter.PotentialSpec("generalized_lj", {"m": 3.0})
        m6 = scatter.PotentialSpec("generalized_lj", {"m": 6.0})
        scatter._merge.cache_clear()
        ctx6 = scatter._context(m6, 10.0)
        ctx3 = scatter._context(m3, 10.0)
        assert scatter._merge.cache_info().currsize == 2
        assert ctx3 != ctx6
        for pot, ctx in ((m3, ctx3), (m6, ctx6)):
            r_star = scatter.zeno_condition_root(pot, 10.0)
            assert ctx == (r_star, scatter.alpha_from_first_derivative(pot, 10.0, r_star))

    def test_param_order_shares_an_entry(self, monkeypatch):
        calls = self._counted_roots(monkeypatch)
        scatter._merge.cache_clear()
        one = scatter.PotentialSpec("morse", {"a": 5.0, "r0": 1.2})
        other = scatter.PotentialSpec("morse", {"r0": 1.2, "a": 5.0})
        assert scatter._context(one, 50.0) == scatter._context(other, 50.0)
        assert len(calls) == 1

    def test_failure_raises_on_every_call(self, monkeypatch):
        # morse with r0 = 2.5 merges past the bracket (1, 2); an exception
        # is not cached, so the certificate runs and fails each time
        calls = self._counted_roots(monkeypatch)
        scatter._merge.cache_clear()
        prob = scatter.ScatterProblem(
            scatter.PotentialSpec("morse", {"r0": 2.5}), 100.0, 0.01)
        for _ in range(2):
            with pytest.raises(BracketError, match=r"no maximum of A certified"):
                scatter.stationary_pair(prob)
        assert len(calls) == 2
        assert scatter._merge.cache_info().currsize == 0

    def test_one_merge_solve_per_curve(self, monkeypatch):
        calls = self._counted_roots(monkeypatch)
        scatter._merge.cache_clear()
        grid = cli.parse_grid("0.002:0.18:0.004")
        assert len(grid) == 45
        curve = scatter.compressibility_curve(scatter.PotentialSpec(), 100.0, grid)
        assert len(curve) + len(curve.meta["failures"]) == 45
        assert len(calls) == 1
        scatter.critical_summary(LJ, B=100.0)
        assert len(calls) == 1

    def test_trace_needs_no_level_at_the_floor(self):
        # a narrow Morse well: U overflows at r_floor, where the pair
        # brackets start, but r* and alpha* are finite and traced
        pot = scatter.PotentialSpec("morse", {"a": 1000.0, "r0": 1.3})
        scatter._samples.cache_clear()
        curve = scatter.trace_zeno_analog(pot, [5.0, 50.0])
        assert curve.meta["failures"] == []
        assert scatter._samples.cache_info().currsize == 0
        assert [row[1] for row in curve.rows] == pytest.approx([1.3007, 1.3007], abs=1e-4)

    def test_steep_morse_well_solves(self):
        # the same well at B = 50: the kernel's exp overflows on the well
        # side toward r_floor, where the samples are NaN and the walk
        # steps over them; the pairs are the mpmath roots on either side
        # of r*, the curve has no failure and the critical point solves
        pot = scatter.PotentialSpec("morse", {"a": 1000.0, "r0": 1.3})
        r_star, a_star = scatter._context(pot, 50.0)
        well, _ = scatter._samples(*scatter._key(pot, 50.0))
        assert math.isnan(well[1][-1]) and not math.isnan(well[1][1])
        for x in (0.01, 0.3, 0.9):
            pair = scatter.stationary_pair(scatter.ScatterProblem(pot, 50.0, a_star * x))
            (lo,) = oracles.level_roots_mpmath(pot, 50.0, a_star * x, r_min=1.29,
                                               r_max=r_star)
            (hi,) = oracles.level_roots_mpmath(pot, 50.0, a_star * x, r_min=r_star,
                                               r_max=1.4)
            assert (pair.r_lo, pair.r_hi) == pytest.approx((lo, hi), rel=1e-13, abs=0.0)
        curve = scatter.compressibility_curve(pot, 50.0, [a_star * k / 6 for k in range(1, 6)])
        assert len(curve.rows) == 5 and curve.meta["failures"] == []
        summary = scatter.critical_summary(pot, 50.0)
        assert (summary.Z_cr, summary.rho_cr_over_rho_B, summary.T_cr_over_T_B) == \
            pytest.approx((0.0653, 0.0714, 0.821), abs=5e-4)


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
        with pytest.raises(DomainError, match=r"B = 1e\+308 is too large"):
            scatter.trace_zeno_analog(LJ, [5.0, 1e308])


class TestStationaryPair:
    def test_derivative_residuals(self):
        prob = scatter.ScatterProblem(LJ, 100.0, 0.1)
        pair = scatter.stationary_pair(prob)
        for r in (pair.r_lo, pair.r_hi):
            assert abs(oracles.effective_energy_derivative(prob, r)) < 1e-9

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

    @pytest.mark.parametrize("pot", FAMILIES, ids=lambda p: p.family)
    @pytest.mark.parametrize("B", [10.0, 100.0, 1e30, 1.4e51])
    def test_radii_against_mpmath(self, pot, B):
        # at the large B the barrier cell next to r* spans a factor ~4
        # (1e30) to ~12 (1.4e51) in r; the oracle searches r < 20 there,
        # which holds both roots, so its grid stays fine
        a_star = _alpha_star(pot, B)
        for x in (1e-6, 0.01, 0.2, 0.5, 0.8, 0.95):
            pair = scatter.stationary_pair(
                scatter.ScatterProblem(pot, B, a_star * x))
            roots = oracles.level_roots_mpmath(pot, B, a_star * x,
                                               r_max=20.0 if B > 100.0 else None)
            assert len(roots) == 2
            assert pair.r_lo == pytest.approx(roots[0], rel=1e-13, abs=0.0)
            assert pair.r_hi == pytest.approx(roots[1], rel=1e-13, abs=0.0)

    def test_non_unimodal_level_function(self):
        # generalized_lj with m = 3 at B = 10: A has a maximum near 1.87
        # and a minimum near 8.14, where A ~ -4e-5 < alpha; the
        # certificate holds and the pair is the two roots of A = alpha
        pot = scatter.PotentialSpec("generalized_lj", {"m": 3.0})
        a_star = _alpha_star(pot, 10.0)
        for x in (1e-6, 0.1, 0.5, 0.9, 0.99):
            pair = scatter.stationary_pair(
                scatter.ScatterProblem(pot, 10.0, a_star * x))
            roots = oracles.level_roots_mpmath(pot, 10.0, a_star * x)
            assert len(roots) == 2
            assert (pair.r_lo, pair.r_hi) == pytest.approx(
                tuple(roots), rel=1e-13, abs=0.0)

    def test_certificate_failure_names_bracket(self):
        # Morse at B = 1000: U underflows to 0 far out, so at alpha = 0
        # A - alpha is -0.0, not negative, at the outer end of the barrier
        # bracket and nothing certifies a barrier
        pot = scatter.PotentialSpec("morse")
        with pytest.raises(BracketError, match=r"not certified on \(0\.50005, "
                           r".*, 999\.9\): A - alpha is .*, -?0 there"):
            scatter.stationary_pair(scatter.ScatterProblem(pot, 1000.0, 0.0))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from([p.family for p in FAMILIES]),
           B=st.floats(2.0, 1000.0), x=st.floats(1e-6, 0.999))
    def test_level_holds_at_both_radii(self, family, B, x):
        # A(r) = alpha at both radii, to rounding in A: relative to
        # alpha* rather than alpha, since A is steep at the well
        pot = scatter.PotentialSpec(family)
        a_star = _alpha_star(pot, B)
        pair = scatter.stationary_pair(scatter.ScatterProblem(pot, B, a_star * x))
        assert pair.r_lo < scatter.zeno_condition_root(pot, B) < pair.r_hi
        for r in (pair.r_lo, pair.r_hi):
            assert abs(scatter.alpha_from_first_derivative(pot, B, r)
                       - a_star * x) <= 1e-12 * a_star

    def test_zero_alpha_limit(self):
        # alpha -> 0: the barrier vanishes, so Z -> 1
        pair = scatter.stationary_pair(scatter.ScatterProblem(LJ, 100.0, 1e-10))
        assert pair.E_min / pair.E_max < 1e-4

    def test_pair_at_the_fold_converges(self):
        # within ~1e-15 of alpha* at B = 1e30 the two roots sit ~5e-9 on
        # either side of r*, and the barrier's at the inner end of the
        # cell (1.279, 5.37).  Near the fold, A - alpha ~ delta alpha*
        # with delta = 1e-15, so a rounding of A (a few eps alpha*) moves
        # a root by ~eps alpha*/|A'|, about 1e-10 relative here: each
        # radius is held to 16 eps alpha*/|A'| of the mpmath crossing on
        # its side of r*, and A there to 16 eps alpha* of alpha
        r_star, a_star = scatter._context(LJ, 1e30)
        alpha = a_star * (1.0 - 1e-15)
        pair = scatter.stationary_pair(scatter.ScatterProblem(LJ, 1e30, alpha))
        (lo,) = oracles.level_roots_mpmath(LJ, 1e30, alpha, r_max=r_star)
        (hi,) = oracles.level_roots_mpmath(LJ, 1e30, alpha, r_min=r_star, r_max=2.0)
        assert pair.r_lo < r_star < pair.r_hi
        bound = 16.0 * 2.0**-52 * a_star
        with mpmath.workdps(30):
            for r, root in ((pair.r_lo, lo), (pair.r_hi, hi)):
                slope = mpmath.diff(
                    lambda x: oracles.level_mpmath(LJ, 1e30, x), mpmath.mpf(root))
                assert abs(r - root) <= bound / abs(slope)
                assert abs(oracles.level_mpmath(LJ, 1e30, mpmath.mpf(r)) - alpha) <= bound

    def test_no_solver_error_near_the_fold(self):
        # the near-fold probe: alpha = alpha* (1 - k 1e-16), k = 1..29, at
        # B = 1e26 to 1e50.  Every radius converges; a DegenerateError
        # (E_max < E_min, the depths rounding past each other) is still
        # allowed here
        for family, B in itertools.product(("lennard_jones", "morse", "buckingham"),
                                           (1e26, 1e28, 1e30, 1e40, 1e50)):
            pot = scatter.PotentialSpec(family)
            a_star = scatter._context(pot, B)[1]
            for k in range(1, 30):
                try:
                    scatter.stationary_pair(
                        scatter.ScatterProblem(pot, B, a_star * (1.0 - k * 1e-16)))
                except DegenerateError as exc:
                    assert "depths cross in rounding" in str(exc)

    def test_depths_crossed_in_rounding_are_degenerate(self):
        # alpha = alpha* (1 - k 1e-15), k = 1..59: the two depths agree to
        # the last bits, and rounding orders about a third of them E_max <
        # E_min.  Each such pair is a DegenerateError naming alpha, alpha*
        # and both depths, so a compressibility point there is a
        # degenerate failure
        crossed = 0
        for family, B in itertools.product(("lennard_jones", "morse", "buckingham"),
                                           (10.0, 100.0, 1000.0)):
            pot = scatter.PotentialSpec(family)
            a_star = scatter._context(pot, B)[1]
            grid = [a_star * (1.0 - k * 1e-15) for k in range(59, 0, -1)]
            for alpha in grid:
                try:
                    pair = scatter.stationary_pair(scatter.ScatterProblem(pot, B, alpha))
                except DegenerateError as exc:
                    crossed += 1
                    assert re.fullmatch(
                        rf"well and barrier depths cross in rounding at alpha = "
                        rf"{re.escape(repr(alpha))}, alpha\* = "
                        rf"{re.escape(repr(a_star))}: E_max = \S+ < E_min = \S+",
                        str(exc))
                else:
                    assert pair.E_max >= pair.E_min
            curve = scatter.compressibility_curve(pot, B, grid)
            assert len(curve.rows) + len(curve.meta["failures"]) == len(grid)
            assert all(msg.startswith("DegenerateError(")
                       for _, msg in curve.meta["failures"])
        assert crossed > 0

    def test_unconverged_radius_is_a_solver_error(self, monkeypatch):
        # the pair at the fold above needs 83 iterations; under a cap of
        # 20 it is brentq's SolverError naming the well's cell, A - alpha
        # at its ends and the cap
        monkeypatch.setattr(scatter, "_MAXITER", 20)
        r_star, a_star = scatter._context(LJ, 1e30)
        with pytest.raises(SolverError, match=r"^Failed to converge after 20 "
                           r"iterations\. On \[a, b\] = \[1\.27.*, 1\.25.*\], "
                           r"f\(a\) = .*, f\(b\) = -.*; iteration 20 ended at "
                           r"x = 1\.2.*, f\(x\) = .*\.$"):
            scatter.stationary_pair(
                scatter.ScatterProblem(LJ, 1e30, a_star * (1.0 - 1e-15)))

    # generalized_lj with m = 3 at B = 10, where A has a second extremum
    M3 = scatter.PotentialSpec("generalized_lj", {"m": 3.0})

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pot=st.sampled_from(FAMILIES + [M3]), log_B=st.floats(1.0, 50.0),
           x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           snap=st.sampled_from([None, "sample", "ulp below"]),
           side=st.sampled_from([0, 1]), k=st.integers(1, scatter._CELLS))
    @example(pot=M3, log_B=1.0, x=0.5, snap=None, side=0, k=1)
    @example(pot=M3, log_B=1.0, x=1e-6, snap=None, side=0, k=1)
    @example(pot=LJ, log_B=2.0, x=0.5, snap="sample", side=1, k=3)
    @example(pot=LJ, log_B=2.0, x=0.5, snap="ulp below", side=1, k=3)
    @example(pot=FAMILIES[2], log_B=30.0, x=0.5, snap="sample", side=0, k=1)
    @example(pot=FAMILIES[2], log_B=30.0, x=0.5, snap="ulp below", side=0, k=1)
    def test_walked_cell_is_the_oracle_cell(self, pot, log_B, x, snap, side, k):
        # alpha in (0, alpha*): alpha* x, or a sample value of A, or the
        # float just below one; the walk picks the cell of the oracle's
        # outward walk on both sides, bit for bit
        B = 10.0 ** log_B
        key = scatter._key(pot, B)
        a_star = scatter._merge(*key)[1]
        sides = scatter._samples(*key)
        alpha = a_star * x
        if snap is not None:
            alpha = sides[side][1][k]
            if snap == "ulp below":
                alpha = math.nextafter(alpha, -math.inf)
        assume(0.0 < alpha < a_star)
        for radii, values in sides:
            assert repr(scatter._cell((radii, values), alpha)) == \
                repr(oracles.outward_cell(radii, values, alpha))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.floats(-2.0, 2.0) | st.sampled_from(
               [math.nan, -math.inf, math.inf, 0.0, -0.0, 0.5]), min_size=1, max_size=60),
           alpha=st.floats(0.0, 1.0, exclude_max=True) | st.just(0.5))
    def test_walked_cell_on_any_samples(self, values, alpha):
        # A that turns back above alpha, NaN and infinite samples: the
        # walk steps over NaN and stops at the oracle's cell
        radii = list(range(len(values) + 1))
        values = [1.0] + values
        assert repr(scatter._cell((tuple(radii), tuple(values)), alpha)) == \
            repr(oracles.outward_cell(radii, values, alpha))


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

    def test_unconverged_point_recorded(self, monkeypatch):
        # at B = 1e30 the point within 1e-15 of alpha* converges after 83
        # iterations, and rho = 0.01 after 13; under a cap of 20 the
        # first is a SolverError failure (see TestStationaryPair)
        a_star = scatter._context(LJ, 1e30)[1]
        near = a_star * (1.0 - 1e-15)
        assert scatter.compressibility_curve(LJ, 1e30, [0.01, near]).column("rho") \
            == [0.01, near]
        monkeypatch.setattr(scatter, "_MAXITER", 20)
        curve = scatter.compressibility_curve(LJ, 1e30, [0.01, near])
        assert curve.column("rho") == [0.01]
        (rho, msg), = curve.meta["failures"]
        assert rho == near and msg.startswith("SolverError(")

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from([p.family for p in FAMILIES]),
           log_B=st.floats(1.0, 50.0),
           xs=st.lists(st.floats(1e-3, 0.95), min_size=1, max_size=3, unique=True))
    def test_rows_are_pairs_against_mpmath(self, family, log_B, xs):
        # each row is the fresh pair at its rho, bit for bit, and both
        # radii are the crossings of A = rho nearest r* (mpmath)
        pot, B = scatter.PotentialSpec(family), 10.0 ** log_B
        r_star, a_star = scatter._context(pot, B)
        grid = sorted(a_star * x for x in xs)
        curve = scatter.compressibility_curve(pot, B, grid)
        assert curve.meta["failures"] == [] and curve.column("rho") == grid
        for rho, row in zip(grid, curve.rows):
            pair = scatter.stationary_pair(scatter.ScatterProblem(pot, B, rho))
            z_min = pair.E_min / pair.E_max
            assert repr(row) == repr((rho, 1.0 - z_min, z_min))
            roots = oracles.level_roots_mpmath(pot, B, rho, r_max=20.0)
            assert pair.r_lo == pytest.approx(
                max(r for r in roots if r < r_star), rel=1e-13, abs=0.0)
            assert pair.r_hi == pytest.approx(
                min(r for r in roots if r > r_star), rel=1e-13, abs=0.0)

    def test_small_B_rejected(self):
        for B in (5.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="B must be >= 10"):
                scatter.compressibility_curve(LJ, B, [0.1])
        with pytest.raises(DomainError, match=r"B = 1e\+200 is too large"):
            scatter.compressibility_curve(LJ, 1e200, [0.1])

    def test_only_library_errors_are_failures(self):
        def one(x):
            if x == 2:
                raise DegenerateError("merged")
            return (1.0 / (x - 3),)

        rows, failures = scatter._trace(one, [1, 2])
        assert rows == [(-0.5,)] and failures == [(2, "DegenerateError('merged')")]
        # a programming error is not a failed point
        with pytest.raises(ZeroDivisionError):
            scatter._trace(one, [1, 2, 3])

    def test_buckingham_failures_explained(self):
        # every density of the default grid at or past alpha*(100) fails
        # as degenerate, and every density below it succeeds
        pot = scatter.PotentialSpec("buckingham")
        a_star = _alpha_star(pot)
        grid = cli.parse_grid(cli._DEFAULTS["rho_grid"])
        curve = scatter.compressibility_curve(pot, 100.0, grid)
        assert len(curve.meta["failures"]) == 22
        for rho, msg in curve.meta["failures"]:
            assert rho >= a_star
            assert msg.startswith("DegenerateError(") and f"{a_star:.6g}" in msg
        assert [row[0] for row in curve.rows] == [r for r in grid if r < a_star]


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

    @pytest.mark.parametrize("family", ["lennard_jones", "morse", "buckingham"])
    def test_ordinate_zero_density_against_mpmath(self, family):
        # the gap B^2 (E_max - E_min) at alpha = 1e-9 alpha*, from the
        # mpmath crossings of A = alpha nearest r* and E in mpmath; the
        # depths are stationary values, so a root error enters squared
        pot, B = scatter.PotentialSpec(family), 100.0
        r_star, a_star = scatter._context(pot, B)
        alpha = a_star * 1e-9
        roots = oracles.level_roots_mpmath(pot, B, alpha)
        with mpmath.workdps(30):
            def energy(r):
                r = mpmath.mpf(r)
                u = oracles._pair_potential_mp(pot.family, pot.params, r)
                return (-alpha * r**4 + r * r * u) / (B * B - r * r)

            gap = B * B * (energy(min(r for r in roots if r > r_star))
                           - energy(max(r for r in roots if r < r_star)))
        ord_0 = scatter.critical_summary(pot, B).notes["ordinate_zero_density"]
        assert ord_0 == pytest.approx(float(gap), rel=1e-13, abs=0.0)

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
        # one pair per slope: the grid up to the first sign change (x_cr
        # is near 0.27-0.33, below the 10th-13th of 35 points), the brentq
        # polish, which starts from the two slopes the walk has, and the
        # pairs at x_cr and x -> 0 (17-20 in all); the whole grid would
        # take 35 before the polish
        calls = []
        pair = scatter.stationary_pair
        monkeypatch.setattr(scatter, "stationary_pair",
                            lambda problem: calls.append(problem) or pair(problem))
        scatter.critical_summary(pot, B=100.0)
        assert len(calls) <= 20
