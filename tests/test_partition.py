import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoline import partition, specfun
from zenoline.errors import DomainError, ResourceError, SolverError

import oracles


_PENTAGONAL = oracles.pentagonal_partition_totals(600)


@pytest.fixture(scope="module")
def table200():
    return partition.build_partition_table(200, 200)


class TestTable:
    def test_small_values_by_enumeration(self, table200):
        for n in range(1, 41):
            counts = oracles.enumerate_partition_counts(n)
            for k in range(1, n + 1):
                assert table200.count(n, k) == counts[k - 1]

    def test_totals_match_pentagonal_oracle(self, table200):
        totals = oracles.pentagonal_partition_totals(200)
        for n in range(1, 201):
            assert table200.total(n) == totals[n]

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 600))
    def test_row_sums_match_pentagonal_property(self, n):
        # the streamed row of p_k(n), summed over k, against Euler's
        # pentagonal recurrence for p(n)
        assert sum(partition.pk_row(n)) == _PENTAGONAL[n]

    def test_p100(self, table200):
        assert table200.total(100) == oracles.pentagonal_partition_totals(100)[100]

    def test_recurrence_identity(self, table200):
        for n in range(2, 201, 7):
            for k in range(2, n + 1, 3):
                assert table200.count(n, k) == \
                    (table200.count(n - k, k) if n - k >= 0 else 0) + \
                    table200.count(n - 1, k - 1)

    def test_edges(self, table200):
        assert table200.count(4, 2) == 2
        for n in (1, 17, 200):
            assert table200.count(n, 1) == 1
            assert table200.count(n, n) == 1

    def test_caps(self):
        with pytest.raises(ResourceError):
            partition.build_partition_table(30000, 30000)
        with pytest.raises(DomainError):
            partition.build_partition_table(10, 20)

    def test_pk_row_matches_table(self, table200):
        for n in (1, 2, 8, 57, 200):
            assert partition.pk_row(n) == table200.row(n)

    def test_pk_row_guards(self):
        for n in (0, -3):
            with pytest.raises(DomainError):
                partition.pk_row(n)
        # the n cap, then the cell cap below it
        for n in (30000, 7000):
            with pytest.raises(ResourceError):
                partition.pk_row(n)


class TestEntropy:
    def test_values(self, table200):
        assert partition.hartley_entropy(4, 2, table200) == pytest.approx(1.0)
        assert partition.hartley_entropy(5, 5, table200) == 0.0
        expect = math.log2(table200.count(100, 10))
        assert partition.hartley_entropy(100, 10, table200) == pytest.approx(expect)

    def test_zero_count_rejected(self, table200):
        with pytest.raises(DomainError):
            partition.hartley_entropy(3, 5, table200)

    def test_huge_counts(self):
        # exercise the big-integer mantissa path beyond float precision
        big = 1 << 1200 | 12345
        assert partition._log2_bigint(big) == pytest.approx(1200.0, abs=1e-9)


class TestThreshold:
    def test_trivial(self, table200):
        assert partition.condensate_threshold(1, table200).k0_exact == 1

    def test_table_scan_matches_streaming(self, table200):
        for n in (20, 50, 100, 200):
            from_table = partition.condensate_threshold(n, table200).k0_exact
            streamed = partition.condensate_threshold(n).k0_exact
            assert from_table == streamed

    def test_smallest_argmax_tiebreak(self, table200):
        for n in (5, 40, 100):
            row = table200.row(n)
            best = max(row)
            smallest = next(i + 1 for i, v in enumerate(row) if v == best)
            assert partition.condensate_threshold(n, table200).k0_exact == smallest

    def test_two_term_formula(self):
        th = partition.condensate_threshold(100)
        c = 2.0 * math.pi / math.sqrt(6.0)
        alpha = -2.0 * math.log(c / 2.0)
        assert th.k0_leading == pytest.approx(10.0 / c * math.log(100.0))
        assert th.k0_two_term == pytest.approx(th.k0_leading + alpha * 10.0)


class TestMaximizer:
    def test_brute_force_equivalence(self, table200):
        for n in range(1, 121):
            row = table200.row(n)
            prefix_best = 0
            arg = 1
            for k_bar in range(1, n + 1):
                if row[k_bar - 1] > prefix_best:
                    prefix_best = row[k_bar - 1]
                    arg = k_bar
                assert partition.maximize_variants(n, k_bar, table200) == arg

    def test_examples(self, table200):
        assert partition.maximize_variants(100, 2, table200) == 2
        assert partition.maximize_variants(5, 5, table200) == 2
        assert partition.maximize_variants(1, 1, table200) == 1


class TestGlobalDistribution:
    def test_kappa_zero_mode_b(self):
        n = 10**6
        dist = partition.solve_global_distribution(n)
        assert dist.kappa == 0.0
        assert dist.b == pytest.approx(math.sqrt(math.pi**2 / (6.0 * n)), rel=1e-10)
        # threshold consistency: the gamma-moment reproduces N
        m = specfun.finite_n_integral(0.0, dist.b, 0.0, dist.n_cap).value
        assert m == pytest.approx(dist.n_cap, rel=2.0 / dist.n_cap)

    def test_two_moment_fit_below_threshold(self):
        n = 10**4
        k0 = partition.solve_global_distribution(n).n_cap
        k = k0 // 2
        dist = partition.solve_global_distribution(n, k)
        assert dist.kappa > 0.0
        mk = specfun.finite_n_integral(0.0, dist.b, dist.kappa, k).value
        mn = specfun.finite_n_integral(1.0, dist.b, dist.kappa, k).value
        assert mk == pytest.approx(k, rel=1e-8)
        assert mn == pytest.approx(n, rel=1e-8)

    def test_above_threshold_rejected(self):
        n = 10**4
        k0 = partition.solve_global_distribution(n).n_cap
        with pytest.raises(SolverError):
            partition.solve_global_distribution(n, 2 * k0)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            partition.solve_global_distribution(50, 10)


class TestNcr:
    def test_w_positive_and_large_n_scaling(self):
        i1 = specfun.gamma_fn(1.5) * specfun.riemann_zeta(1.5)
        i2 = oracles.quad_scipy(oracles.w_integrand, 0.0)
        c = i2 / (0.5 * i1) ** (1.0 / 3.0)
        n = 10**9
        assert partition.ncr_dimension1(n) / n ** (2.0 / 3.0) == \
            pytest.approx(c * c, rel=1e-2)

    def test_matches_bisection_oracle(self):
        # solve N - W (2n)^... : the quadratic in sqrt(N): N = W sqrt(N) - W
        # i.e. f(N) = N - W sqrt(N) + W = 0, largest root
        n = 10**6
        i1 = specfun.gamma_fn(1.5) * specfun.riemann_zeta(1.5)
        i2 = oracles.quad_scipy(oracles.w_integrand, 0.0)
        w = (2.0 * n) ** (1.0 / 3.0) * i1 ** (-1.0 / 3.0) * i2

        def f(x):
            return x - w * math.sqrt(x) + w

        lo, hi = (w / 2.0) ** 2, w * w
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        assert partition.ncr_dimension1(n) == pytest.approx(hi, rel=1e-10)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            partition.ncr_dimension1(1)


class TestFractalWeight:
    def test_integer_dimensions(self):
        for i in range(6):
            assert partition.fractal_weight(2.0, i) == pytest.approx(i + 1.0)
            assert partition.fractal_weight(1.0, i) == pytest.approx(1.0)

    def test_gamma_cross_check(self):
        expect = specfun.gamma_fn(3.4) / (2.0 * specfun.gamma_fn(1.4))
        assert partition.fractal_weight(1.4, 2) == pytest.approx(expect, rel=1e-12)

    def test_ratio_recurrence(self):
        # Gamma functional equation: w(d, i+1) / w(d, i) = (d + i) / (i + 1)
        for d in (0.5, 1.4, 2.7):
            for i in range(0, 12):
                ratio = partition.fractal_weight(d, i + 1) / \
                    partition.fractal_weight(d, i)
                assert ratio == pytest.approx((d + i) / (i + 1.0), rel=1e-12)
