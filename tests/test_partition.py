import math
import random
import re
import sys

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

    def test_row_range_checked(self):
        table = partition.build_partition_table(10, 10)
        assert table.row(0) == []
        assert len(table.row(10)) == 10 and sum(table.row(10)) == 42
        for n in (-1, 11):
            with pytest.raises(DomainError):
                table.row(n)
        for k in (-1, 11):
            with pytest.raises(DomainError, match=f"k={k} outside table range"):
                table.count(4, k)
        with pytest.raises(DomainError, match="k_max=5 < n=6, row sum incomplete"):
            partition.build_partition_table(10, 5).total(6)

    def test_pk_row_guards(self):
        for n in (0, -3):
            with pytest.raises(DomainError):
                partition.pk_row(n)
        # the n cap, then the cell cap below it
        for n in (30000, 7000):
            with pytest.raises(ResourceError):
                partition.pk_row(n)


def _assert_matches_oracle(n_max, k_max):
    table = partition.build_partition_table(n_max, k_max)
    expect = oracles.partition_counts_bounded(n_max, k_max)
    for k in range(k_max + 1):
        for n in range(n_max + 1):
            assert table.count(n, k) == expect[k][n], (n, k)


class TestBoundedOracle:
    """Every cell against the parts-at-most-k recurrence, a different
    recurrence from the library's."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_cell_property(self, data):
        n_max = data.draw(st.integers(1, 60))
        k_max = data.draw(st.integers(1, n_max))
        _assert_matches_oracle(n_max, k_max)

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_tiny_tables(self, n_max):
        for k_max in range(1, n_max + 1):
            _assert_matches_oracle(n_max, k_max)

    @pytest.mark.parametrize("n_max,k_max", [(10, 4), (12, 5), (28, 7), (36, 13),
                                             (40, 27), (58, 31)])
    def test_ragged_chunk_edges(self, n_max, k_max):
        # n_max + 1 is prime, so no row length is a multiple of its k,
        # and the rows with 2k > n_max + 1 are copies only
        _assert_matches_oracle(n_max, k_max)

    def test_pk_row(self):
        expect = oracles.partition_counts_bounded(60, 60)
        for n in range(1, 61):
            assert partition.pk_row(n) == [expect[k][n] for k in range(1, n + 1)]

    def test_pk_row_2000(self):
        expect = oracles.partition_counts_bounded(2000, 2000)
        assert partition.pk_row(2000) == [expect[k][2000] for k in range(1, 2001)]

    def test_triangle_shares_objects(self):
        # p_k(n) = p_{k-1}(n-1) for k <= n < 2k is copied, not added, so
        # the table holds one int object for both cells.  CPython caches
        # small ints, so only values above 256 show the sharing.
        table = partition.build_partition_table(80, 80)
        checked = 0
        for k in range(1, 81):
            for n in range(k, min(2 * k, 81)):
                if table.count(n, k) > 256:
                    assert table.count(n, k) is table.count(n - 1, k - 1), (n, k)
                    checked += 1
        assert checked > 100

    def test_rows_allocated_to_size(self):
        # extend over-allocates a row it appends to; every row of the table
        # must take no more memory than a list built to its length
        table = partition.build_partition_table(300, 300)
        size = sys.getsizeof([0] * 301)
        assert [sys.getsizeof(row) for row in table._rows] == [size] * 301


def _smallest_argmax(row):
    return max(range(len(row)), key=lambda i: (row[i], -i)) + 1


class TestThreshold:
    def test_trivial(self, table200):
        assert partition.condensate_threshold(1).k0_exact == \
            _smallest_argmax(table200.row(1)) == 1

    def test_table_scan_matches_streaming(self, table200):
        for n in (20, 50, 100, 200):
            from_table = _smallest_argmax(table200.row(n))
            assert partition.condensate_threshold(n).k0_exact == from_table

    def test_smallest_argmax_tiebreak(self, table200):
        for n in (5, 40, 100):
            row = table200.row(n)
            best = max(row)
            smallest = next(i + 1 for i, v in enumerate(row) if v == best)
            assert partition.condensate_threshold(n).k0_exact == smallest

    def test_hardy_ramanujan_term_bounds_p(self):
        # the scan's stop: ln H(m) - ln p(m) > 0 for every m up to the cap,
        # by a margin (0.0031 at m = 20000) that dwarfs a float log's
        # rounding, so ln(best) >= ln H(m) in floats proves best > p(m)
        totals = oracles.pentagonal_partition_totals(partition._N_CAP)
        for m in range(1, partition._N_CAP + 1):
            ln_h = math.pi * math.sqrt(2 * m / 3) - math.log(4 * math.sqrt(3) * m)
            assert ln_h - math.log(totals[m]) > 1e-3, m

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_full_row_argmax(self, n):
        assert partition.condensate_threshold(n).k0_exact == \
            _smallest_argmax(partition.pk_row(n))

    @pytest.mark.parametrize("n, rows, k0", [(100, 23, 18), (2000, 155, 126),
                                             (5000, 272, 223), (20000, 622, 520)])
    def test_rows_read(self, n, rows, k0, monkeypatch):
        # the scan reads rows up to the first k whose bound falls below
        # the best count, past k0 by 5 at n = 100 and by 102 at the cap
        read = 0
        pk_rows = partition._pk_rows

        def counted(n_max, k_max):
            nonlocal read
            for row in pk_rows(n_max, k_max):
                read += 1
                yield row

        monkeypatch.setattr(partition, "_pk_rows", counted)
        assert partition.condensate_threshold(n).k0_exact == k0
        assert read == rows

    def test_nonpositive_n_rejected(self):
        with pytest.raises(DomainError, match="n must be >= 1, got 0"):
            partition.condensate_threshold(0)

    def test_streamed_scan_n_cap(self):
        # the scan holds two rows, so only the n cap applies: n = 20000
        # is above the cell cap of a table but still allowed
        with pytest.raises(ResourceError):
            partition.condensate_threshold(20001)

    def test_two_term_formula(self):
        th = partition.condensate_threshold(100)
        c = 2.0 * math.pi / math.sqrt(6.0)
        alpha = -2.0 * math.log(c / 2.0)
        assert th.k0_leading == pytest.approx(10.0 / c * math.log(100.0))
        assert th.k0_two_term == pytest.approx(th.k0_leading + alpha * 10.0)


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
        with pytest.raises(DomainError, match="gamma must exceed -1, got -1.0"):
            partition.solve_global_distribution(1000, 10, gamma=-1.0)
        with pytest.raises(DomainError, match="k must be >= 2, got 1"):
            partition.solve_global_distribution(1000, 1)

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5, 1.0])
    def test_k_fit_grid_against_mpmath(self, gamma):
        # n log-uniform on [10^2.2, 10^6.5], k a half, a third and a fifth
        # of the threshold; both moments against the mpmath oracle
        rng = random.Random(1801)
        for _ in range(8):
            n = round(10 ** rng.uniform(2.2, 6.5))
            k0 = partition.solve_global_distribution(n, gamma=gamma).n_cap
            for k in (k0 // 2, k0 // 3, k0 // 5):
                dist = partition.solve_global_distribution(n, k, gamma=gamma)
                assert dist.n_cap == k and dist.kappa > 0.0
                assert oracles.finite_n_mpmath(gamma, dist.b, dist.kappa, k) \
                    == pytest.approx(k, rel=1e-12, abs=0.0)
                assert oracles.finite_n_mpmath(gamma + 1.0, dist.b, dist.kappa, k) \
                    == pytest.approx(n, rel=1e-12, abs=0.0)

    def test_k_fit_is_one_root_solve(self, monkeypatch):
        # the b-scaling leaves one brentq in u = b kappa, two closed-form
        # moments per residual; a b-solve nested in each residual made 194
        calls = []
        real = specfun.finite_n_integral

        def counting(*args):
            calls.append(args)
            return real(*args)

        n = 10**4
        k = partition.solve_global_distribution(n).n_cap // 2
        monkeypatch.setattr(specfun, "finite_n_integral", counting)
        partition.solve_global_distribution(n, k)
        assert 0 < len(calls) <= 40

    def test_grown_end_is_evaluated_once(self, monkeypatch):
        # brentq takes f at the grown end from grow_end; evaluating the
        # moments there again made 21 calls
        calls = []
        real = specfun.finite_n_integral

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(specfun, "finite_n_integral", counting)
        partition.solve_global_distribution(2000, 37)
        assert len(calls) == 19

    @pytest.mark.parametrize("bad, message", [
        ({"b": 0.0}, "b must be positive, got 0.0"),
        ({"kappa": -1.0}, "kappa must be non-negative, got -1.0"),
        ({"n_cap": 0}, "N must be >= 1, got 0"),
    ])
    def test_record(self, bad, message):
        fields = {"b": 0.01, "kappa": 2.0, "gamma": 0.0, "n_cap": 50}
        dist = partition.GlobalDistribution(0.01, 2.0, 0.0, 50)
        assert dist == partition.GlobalDistribution(**fields)
        with pytest.raises(AttributeError):
            dist.b = 0.02
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            partition.GlobalDistribution(**{**fields, **bad})

    @pytest.mark.parametrize("n, gamma, k, b, kappa", [
        (10**4, 0.0, 241, 0.011917430654974323, 4.887261155525517),
        (10**4, 0.0, 96, 0.007927136437674757, 79.42373729919491),
        (54321, 0.0, 651, 0.005251454003486831, 6.341778804747119),
        (10**6, 0.0, 1378, 0.0009810060359579508, 305.2382685238632),
        (10**4, 1.0, 212, 0.040493136484035366, 28.296730803931673),
        (10**6, 1.0, 1833, 0.003654754719270256, 1016.7234302546976),
    ])
    def test_k_fit_matches_the_nested_solve(self, n, gamma, k, b, kappa):
        # (b, kappa) of the former nested solve: a b-brentq in every
        # residual of a kappa-brentq
        dist = partition.solve_global_distribution(n, k, gamma=gamma)
        assert dist.b == pytest.approx(b, rel=1e-10, abs=0.0)
        assert dist.kappa == pytest.approx(kappa, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n, gamma, b, n_cap", [
        (10**4, 0.0, 0.012825498301618641, 482),
        (54321, 0.0, 0.005502884143234107, 1303),
        (10**6, 0.0, 0.0012825498301618642, 6891),
        (10**4, 0.5, 0.03165841009722838, 390),
        (54321, 1.0, 0.035372228518816155, 1314),
        (10**6, 1.0, 0.01339630440584676, 9165),
    ])
    def test_kappa_zero_mode_pins(self, n, gamma, b, n_cap):
        dist = partition.solve_global_distribution(n, gamma=gamma)
        assert (dist.b, dist.kappa, dist.n_cap) == (b, 0.0, n_cap)

    @pytest.mark.parametrize("gamma", [-0.8, -0.5])
    @pytest.mark.parametrize("n", [10053, 10**6])
    def test_kappa_zero_mode_negative_gamma(self, n, gamma):
        # for gamma < 0 the fixed point lies above the first guess of the
        # bracket end, which is grown until it brackets
        dist = partition.solve_global_distribution(n, gamma=gamma)
        m = oracles.finite_n_mpmath(gamma, dist.b, 0.0, dist.n_cap)
        assert m == pytest.approx(dist.n_cap, rel=2.0 / dist.n_cap)

    @pytest.mark.parametrize("n", [100, 10053, 10**6, 10**9])
    def test_kappa_zero_fixed_point_above_2_53_rejected(self, n):
        # at gamma = -0.95 the fixed point lies at 1.7e21 (n = 100) to
        # 8.0e27 (n = 10^9), where a float no longer holds every integer
        with pytest.raises(SolverError, match=r"above 2\^53"):
            partition.solve_global_distribution(n, gamma=-0.95)

    def test_kappa_zero_fixed_point_below_2_53_kept(self):
        # 7.2e14, below 2^53 = 9.0e15: exact, and the value it always had
        dist = partition.solve_global_distribution(10**9, gamma=-0.9)
        assert (dist.b, dist.n_cap) == (5.370418088619624e-08, 719187254663243)


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
        with pytest.raises(DomainError, match="n must be >= 1, got 0"):
            partition.ncr_dimension1(0)
