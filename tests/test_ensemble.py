import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoline import ensemble, partition
from zenoline.errors import DomainError, ResourceError

import oracles


class TestEnumerate:
    def test_hand_counted_cases(self):
        spec = ensemble.SpectrumSpec((1.0, 2.0))
        assert ensemble.enumerate_states(spec, 2, 3.0).states == 2
        spec3 = ensemble.SpectrumSpec((1.0, 2.0, 3.0))
        assert ensemble.enumerate_states(spec3, 2, 4.0).states == 4

    def test_empty_and_zero(self):
        spec = ensemble.SpectrumSpec((1.0, 2.0))
        assert ensemble.enumerate_states(spec, 0, 5.0).states == 1
        # budget below the cheapest placement
        assert ensemble.enumerate_states(spec, 3, 2.0).states == 0

    def test_against_product_space_oracle(self):
        levels = (1.0, 2.0, 3.0, 4.0)
        spec = ensemble.SpectrumSpec(levels)
        for n, e in ((2, 5.0), (3, 7.0), (4, 9.0)):
            seen = []
            census = ensemble.enumerate_states(spec, n, e, collect=seen.append)
            expect = oracles.occupation_vectors(levels, n, e)
            assert census.states == len(expect)
            assert sorted(seen) == sorted(expect)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(halves=st.lists(st.integers(1, 8), min_size=1, max_size=4),
           n=st.integers(0, 6), e_quarters=st.integers(0, 100))
    def test_product_space_property(self, halves, n, e_quarters):
        # levels on the half-integer grid and budgets on the quarter grid
        # keep every energy sum exact; equal levels are allowed
        levels = tuple(sorted(0.5 * h for h in halves))
        e_max = 0.25 * e_quarters
        seen = []
        census = ensemble.enumerate_states(ensemble.SpectrumSpec(levels), n, e_max,
                                           collect=seen.append)
        expect = oracles.occupation_vectors(levels, n, e_max)
        assert sorted(seen) == sorted(expect)
        assert census.states == len(expect)
        assert sum(census.level_totals) == n * census.states
        assert list(census.level_totals) == \
            [sum(vec[i] for vec in expect) for i in range(len(levels))]

    def test_conservation_per_state(self):
        levels = (1.0, 2.0, 3.0)
        spec = ensemble.SpectrumSpec(levels)

        def check(vec):
            assert sum(vec) == 4
            assert sum(v * lam for v, lam in zip(vec, levels)) <= 8.0 + 1e-12

        census = ensemble.enumerate_states(spec, 4, 8.0, collect=check)
        # level totals aggregate the same vectors
        assert sum(census.level_totals) == 4 * census.states

    def test_partition_cross_check(self, ):
        # occupation vectors over levels 1..n with k particles and
        # energy budget n biject with partitions of m <= n into k parts
        n = 12
        table = partition.build_partition_table(n, n)
        levels = tuple(float(i) for i in range(1, n + 1))
        spec = ensemble.SpectrumSpec(levels)
        for k in range(1, 6):
            states = ensemble.enumerate_states(spec, k, float(n)).states
            expect = sum(table.count(m, k) for m in range(k, n + 1))
            assert states == expect

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(ensemble, "_STATE_GUARD", 3)
        spec = ensemble.SpectrumSpec((1.0, 2.0, 3.0, 4.0))
        with pytest.raises(ResourceError):
            ensemble.enumerate_states(spec, 6, 100.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ensemble.SpectrumSpec(())
        with pytest.raises(DomainError):
            ensemble.SpectrumSpec((2.0, 1.0))
        with pytest.raises(DomainError):
            ensemble.SpectrumSpec((0.0, 1.0))
        with pytest.raises(DomainError):
            ensemble.enumerate_states(ensemble.SpectrumSpec((1.0,)), -1, 1.0)


class TestGibbs:
    def test_symmetric_spectrum(self):
        b = ensemble.gibbs_parameter(ensemble.SpectrumSpec((1.0, 2.0, 3.0)), 2.0)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_mean_equation_residual(self):
        for levels, e in (((1.0, 2.0, 3.0, 4.0), 2.0),
                          ((1.0, 2.0, 3.0, 4.0), 3.2),
                          ((0.5, 1.0, 4.0), 1.1)):
            b = ensemble.gibbs_parameter(ensemble.SpectrumSpec(levels), e)
            w = [math.exp(-b * lam) for lam in levels]
            mean = sum(lam * wi for lam, wi in zip(levels, w)) / sum(w)
            assert mean == pytest.approx(e, abs=1e-12)

    def test_reference_value(self):
        b = ensemble.gibbs_parameter(
            ensemble.SpectrumSpec((1.0, 2.0, 3.0, 4.0)), 2.0)
        assert b == pytest.approx(0.4196, abs=2e-4)

    @pytest.mark.parametrize("e", [1.1, 500.0, 999.9])
    def test_two_level_closed_form_on_a_wide_spectrum(self, e):
        # mean(b) = E on two levels: b = ln((l1 - E)/(E - l0))/(l1 - l0).
        # At E = 999.9 the bracket probe b = -1 weighs the top level by
        # e^999 relative to the bottom one, past the float range
        b = ensemble.gibbs_parameter(ensemble.SpectrumSpec((1.0, 1000.0)), e)
        assert b == pytest.approx(math.log((1000.0 - e) / (e - 1.0)) / 999.0,
                                  rel=1e-10, abs=0.0)

    def test_domain(self):
        spec = ensemble.SpectrumSpec((1.0, 2.0))
        with pytest.raises(DomainError):
            ensemble.gibbs_parameter(spec, 2.5)
        with pytest.raises(DomainError):
            ensemble.gibbs_parameter(spec, 1.0)


class TestConcentration:
    def test_trend_and_fields(self):
        spec = ensemble.SpectrumSpec((1.0, 2.0, 3.0, 4.0))
        rep = ensemble.concentration_report(spec, [4, 6, 8], 2.0)
        assert rep["trend_non_increasing"]
        assert len(rep["entries"]) == 3
        for entry in rep["entries"]:
            assert entry["states"] > 0
            assert 0.0 <= entry["outside_fraction"] <= 1.0
            assert entry["band_halfwidth"] > 0.0
            # mean occupations still conserve the particle count
            assert sum(entry["empirical_means"]) == pytest.approx(entry["N"])

    def test_band_scales_with_N(self):
        spec = ensemble.SpectrumSpec((1.0, 2.0, 3.0))
        rep = ensemble.concentration_report(spec, [4, 8], 2.0)
        h4 = rep["entries"][0]["band_halfwidth"]
        h8 = rep["entries"][1]["band_halfwidth"]
        assert h8 == pytest.approx(2.0 * h4, rel=1e-12)

    def test_custom_psi(self):
        spec = ensemble.SpectrumSpec((1.0, 2.0, 3.0))
        rep = ensemble.concentration_report(spec, [4], 2.0, psi=lambda x: 100.0)
        # an enormous band swallows every state
        assert rep["entries"][0]["outside_fraction"] == 0.0


class TestBoltzmann:
    def test_ratio_approaches_one(self):
        out = ensemble.boltzmann_limit_check(1.0, [-2.0, -5.0, -10.0, -20.0])
        deficits = [abs(r["deficit"]) for r in out["rows"]]
        assert all(a > b for a, b in zip(deficits, deficits[1:]))
        assert out["rows"][-1]["ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_deficit_decay_rate(self):
        # leading correction is e^kappa / 2^(gamma+1), so successive
        # unit steps in kappa shrink the deficit by e
        out = ensemble.boltzmann_limit_check(1.0, [-8.0, -9.0, -10.0])
        d = [r["deficit"] for r in out["rows"]]
        assert d[1] / d[0] == pytest.approx(math.exp(-1.0), rel=1e-3)
        assert d[2] / d[1] == pytest.approx(math.exp(-1.0), rel=1e-3)

    def test_deficit_below_exp_underflow(self):
        # e^kappa underflows to 0 below kappa ~ -745; the deficit
        # e^kappa / 2^(gamma+1) + ... is summed without dividing by it
        out = ensemble.boltzmann_limit_check(1.0, [-700.0, -746.0, -800.0, -1e4])
        top, *deep = out["rows"]
        assert top["deficit"] == pytest.approx(math.exp(-700.0) / 4.0, rel=1e-14)
        for row in deep:
            assert (row["ratio"], row["deficit"]) == (1.0, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ensemble.boltzmann_limit_check(1.0, [-1.0, 0.5])
