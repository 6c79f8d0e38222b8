import math
import re

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
            census = ensemble.enumerate_states(spec, n, e)
            expect = oracles.occupation_vectors(levels, n, e)
            totals = tuple(map(sum, zip(*expect)))
            assert (census.states, census.level_totals, census.outside) == \
                (len(expect), totals, 0)
            assert sum(census.level_totals) == n * census.states

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(halves=st.lists(st.integers(1, 8), min_size=1, max_size=4),
           n=st.integers(0, 6), e_quarters=st.integers(0, 100),
           centre_quarters=st.lists(st.integers(-4, 28), min_size=4, max_size=4),
           half_quarters=st.integers(-1, 16))
    def test_product_space_property(self, halves, n, e_quarters,
                                    centre_quarters, half_quarters):
        # levels on the half-integer grid and budgets on the quarter grid
        # keep every energy sum exact; equal levels are allowed
        levels = tuple(sorted(0.5 * h for h in halves))
        e_max = 0.25 * e_quarters
        centres = [0.25 * c for c in centre_quarters[:len(levels)]]
        half = 0.25 * half_quarters
        census = ensemble.enumerate_states(
            ensemble.SpectrumSpec(levels), n, e_max, band=(centres, half))
        count, totals, outside = oracles.banded_states(levels, n, e_max,
                                                       centres, half)
        assert (census.states, census.level_totals, census.outside) == \
            (count, totals, outside)
        assert count == len(oracles.occupation_vectors(levels, n, e_max))
        assert sum(census.level_totals) == n * census.states

    def test_conservation_per_state(self):
        levels = (1.0, 2.0, 3.0)
        census = ensemble.enumerate_states(ensemble.SpectrumSpec(levels), 4, 8.0)
        # the oracle's vectors each hold 4 particles within the budget,
        # and the level totals aggregate the same vectors
        expect = oracles.occupation_vectors(levels, 4, 8.0)
        assert (census.states, census.level_totals) == \
            (len(expect), tuple(map(sum, zip(*expect))))
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

    def test_guard_on_the_running_count(self, monkeypatch):
        spec = ensemble.SpectrumSpec((1.0, 2.0, 3.0, 4.0))
        states = ensemble.enumerate_states(spec, 6, 100.0).states
        monkeypatch.setattr(ensemble, "_STATE_GUARD", states)
        assert ensemble.enumerate_states(spec, 6, 100.0).states == states
        monkeypatch.setattr(ensemble, "_STATE_GUARD", states - 1)
        with pytest.raises(ResourceError, match=f"guard {states - 1}"):
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
        with pytest.raises(DomainError, match="3 centres for 2 levels"):
            ensemble.enumerate_states(ensemble.SpectrumSpec((1.0, 2.0)), 2, 4.0,
                                      band=([1.0, 1.0, 1.0], 1.0))

    @pytest.mark.parametrize("levels", [(1.0, math.inf), (1.0, math.nan, 3.0),
                                        (-math.inf, 1.0), (math.nan,)])
    def test_non_finite_levels(self, levels):
        with pytest.raises(DomainError, match="all levels must be finite"):
            ensemble.SpectrumSpec(levels)


class TestRecords:
    @pytest.mark.parametrize("cls, args, bad, message", [
        (ensemble.SpectrumSpec, ((1.0, 2.0),), {"levels": ()},
         "spectrum must have at least one level"),
        (ensemble.SpectrumSpec, ((1.0, 2.0),), {"levels": (2.0, 1.0)},
         "levels must be sorted ascending"),
        (ensemble.OccupationCensus, (5, (3, 2), 1), {"states": -1},
         "state count cannot be negative"),
        (ensemble.OccupationCensus, (5, (3, 2), 1), {"outside": 6},
         "outside count must lie in [0, states]"),
    ])
    def test_contract(self, cls, args, bad, message):
        # validating namedtuples: keyword and positional construction
        # agree, an invalid field raises DomainError, no field is assigned
        fields = dict(zip(cls._fields, args))
        record = cls(*args)
        assert record == cls(**fields)
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], args[0])
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            cls(**{**fields, **bad})

    def test_normalised_fields(self):
        assert ensemble.SpectrumSpec([1, 2]).levels == (1.0, 2.0)
        assert ensemble.OccupationCensus(5, (3, 2)).outside == 0


# (levels, [(N, states, level_totals, outside)]) of the benchmark's
# exact_counts spectra for seeds 1-5, with the budget N E at
# E = 1.885 and the band of concentration_report, as counted by a
# per-state walk with a per-vector band test
BENCHMARK_CENSUSES = [
    ((1.0248786148843942, 1.5191023664469652, 2.038906989093864,
      2.536794545371862, 3.0050667745424793, 3.5464265013601115), [
        (4, 26, (44, 30, 16, 8, 4, 2), 1),
        (12, 1016, (4708, 3231, 1852, 1124, 750, 527), 1),
        (36, 100670, (1377103, 924143, 530138, 345459, 256276, 191001), 6)]),
    ((1.0169231041262077, 1.522392775258073, 2.0268292258676373,
      2.5442751551968983, 3.0349961514302346, 3.5111156552427167), [
        (4, 26, (44, 30, 16, 8, 4, 2), 1),
        (12, 1016, (4708, 3231, 1852, 1124, 750, 527), 1),
        (36, 101642, (1392194, 927483, 539113, 346499, 253152, 200671), 6)]),
    ((1.0063527872755373, 1.5368327873412124, 2.048791866670405,
      2.51329872511949, 3.0457258109786154, 3.5279275885991463), [
        (4, 26, (44, 30, 16, 8, 4, 2), 1),
        (12, 1016, (4708, 3231, 1852, 1124, 750, 527), 1),
        (36, 100848, (1392289, 909764, 526005, 355051, 251718, 195701), 6)]),
    ((1.0279123066190858, 1.508765239063345, 2.0154460686600095,
      2.5055391026428717, 3.032386622038444, 3.527845056966028), [
        (4, 27, (44, 32, 17, 9, 4, 2), 1),
        (12, 1020, (4709, 3258, 1856, 1139, 751, 527), 1),
        (36, 105375, (1418812, 967211, 568379, 371207, 264379, 203512), 6)]),
    ((1.004828384603858, 1.546637963839683, 2.0176647920271797,
      2.511906473926906, 3.0328577023296543, 3.513313252752728), [
        (4, 26, (44, 30, 16, 8, 4, 2), 1),
        (12, 1019, (4726, 3231, 1853, 1136, 750, 532), 1),
        (36, 103450, (1419272, 923856, 556317, 363348, 260113, 201294), 6)]),
]


class TestBandedCensus:
    @pytest.mark.parametrize("levels,entries", BENCHMARK_CENSUSES)
    def test_benchmark_spectra(self, levels, entries):
        spec = ensemble.SpectrumSpec(levels)
        rep = ensemble.concentration_report(spec, [4, 12, 36], 1.885)
        for (N, states, totals, outside), entry in zip(entries, rep["entries"]):
            band = (entry["predicted"], entry["band_halfwidth"])
            census = ensemble.enumerate_states(spec, N, N * 1.885, band=band)
            assert (census.states, census.level_totals, census.outside) == \
                (states, totals, outside)
            assert entry["outside_fraction"] == outside / states

    @pytest.mark.parametrize("levels", [
        (1.0, 2.0, 1e308), (1.0, 1e308, 1.5e308), (1e-320, 2.0),
        (1.0, 1.0, 1.0, 1.0), (1.5,), (1.0, 2.5), (2.0, 2.0)])
    @pytest.mark.parametrize("N", [0, 1, 4, 8])
    def test_edge_spectra(self, levels, N):
        spec = ensemble.SpectrumSpec(levels)
        for e_max in (0.0, 2.0 * N, 2.5 * N + 0.5, 1e308):
            for centres, half in (([N / 2] * len(levels), 1.0),
                                  ([0.0] * len(levels), 0.0),
                                  ([math.nan] + [1.0] * (len(levels) - 1), 2.0),
                                  ([math.inf] * len(levels), math.inf)):
                census = ensemble.enumerate_states(spec, N, e_max,
                                                   band=(centres, half))
                assert (census.states, census.level_totals, census.outside) \
                    == oracles.banded_states(levels, N, e_max, centres, half)

    @pytest.mark.parametrize("e_max", [math.inf, -math.inf, math.nan])
    def test_non_finite_budget(self, e_max):
        # with an infinite budget, budget - n lambda is NaN once n lambda
        # overflows, which no test of the walk can order
        spec = ensemble.SpectrumSpec((1.0, 1e308, 1.5e308))
        with pytest.raises(DomainError, match="E_max must be finite"):
            ensemble.enumerate_states(spec, 8, e_max)

    def test_census_with_equal_levels(self):
        # the census as a per-state walk counted it
        spec = ensemble.SpectrumSpec((1.0, 1.25, 1.25, 2.0, 3.5))
        census = ensemble.enumerate_states(spec, 9, 15.0)
        assert (census.states, census.level_totals) == (332, (836, 764, 764, 477, 147))

    def test_without_band_nothing_is_outside(self):
        spec = ensemble.SpectrumSpec((1.0, 2.0, 3.0))
        census = ensemble.enumerate_states(spec, 6, 12.0)
        assert census.outside == 0
        assert census == ensemble.enumerate_states(
            spec, 6, 12.0, band=([2.0, 2.0, 2.0], math.inf))


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

    @pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100,
                                       1e300])
    @pytest.mark.parametrize("t", [1e-6, 0.1, 0.5, 0.75, 1.0 - 1e-6])
    def test_two_level_closed_form_at_every_scale(self, scale, t):
        # two levels l0 < l1: the mean is E where beta = b_E (l1 - l0)
        # = ln((1 - t)/t), t = (E - l0)/(l1 - l0), at any scale of the
        # levels.  1 - t is formed as (l1 - E)/(l1 - l0), since 1.0 - t
        # would lose ~eps/(1 - t) near the top, where the solve keeps it;
        # brentq stops at 1e-14 in beta
        l0, l1 = scale, 3.0 * scale
        E = l0 + t * (l1 - l0)
        b = ensemble.gibbs_parameter(ensemble.SpectrumSpec((l0, l1)), E)
        assert b * (l1 - l0) == pytest.approx(
            math.log((l1 - E) / (E - l0)), rel=1e-12, abs=1e-14)

    def test_mean_equation_at_the_top_of_the_float_range(self):
        # b_E = -ln 2 / 1.5e308 is subnormal; the mean is taken in units
        # of the top level, since lambda e^(-b_E lambda) overflows
        levels, E = (1.0, 1e308, 1.5e308), 1e308
        b = ensemble.gibbs_parameter(ensemble.SpectrumSpec(levels), E)
        w = [math.exp(-b * lam) for lam in levels]
        mean = sum(lam / levels[-1] * wi for lam, wi in zip(levels, w)) / sum(w)
        assert mean == pytest.approx(E / levels[-1], rel=1e-12, abs=0.0)

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

    def test_one_census_per_N_through_the_module_attribute(self, monkeypatch):
        # the benchmark's tracer wraps ensemble.enumerate_states and
        # counts one call, and its census's states, per N
        censuses = []
        enumerate_states = ensemble.enumerate_states

        def counted(*args, **kwargs):
            censuses.append(enumerate_states(*args, **kwargs))
            return censuses[-1]

        monkeypatch.setattr(ensemble, "enumerate_states", counted)
        spec = ensemble.SpectrumSpec((1.0, 2.0, 3.0, 4.0))
        rep = ensemble.concentration_report(spec, [4, 6, 8], 2.0)
        assert len(censuses) == 3
        assert [c.states for c in censuses] == \
            [e["states"] for e in rep["entries"]]

    def test_outside_fraction_against_oracle(self):
        levels = (1.0, 1.5, 2.0, 3.5)
        rep = ensemble.concentration_report(ensemble.SpectrumSpec(levels),
                                            [4, 8, 12], 1.8)
        for entry in rep["entries"]:
            N = entry["N"]
            count, totals, outside = oracles.banded_states(
                levels, N, N * 1.8, entry["predicted"], entry["band_halfwidth"])
            assert entry["states"] == count
            assert entry["outside_fraction"] == outside / count
            assert entry["empirical_means"] == [t / count for t in totals]


    def test_weight_sum_leaves_the_float_range(self):
        # b_E = 6.9 is right, but L0 ~ e^-6907 underflows: the predicted
        # occupations N / L0 have no float value
        spec = ensemble.SpectrumSpec((1000.0, 1001.0))
        with pytest.raises(DomainError, match=r"^L0 = sum of e\^\(-b_E lambda\) "
                           r"underflows to 0 at b_E = 6\.906.*, level 1000\.0$"):
            ensemble.concentration_report(spec, [2], 1000.001)
