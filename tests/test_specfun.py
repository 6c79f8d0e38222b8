import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zenoline

from zenoline import specfun
from zenoline.errors import AccuracyError, DivergenceError, DomainError, ZenolineError

import oracles


class TestGamma:
    def test_known_values(self):
        assert specfun.gamma_fn(1.0) == pytest.approx(1.0, rel=1e-12)
        assert specfun.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert specfun.gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.gamma_fn(0.0)
        with pytest.raises(DomainError):
            specfun.gamma_fn(-2.0)


class TestZeta:
    def test_closed_forms(self):
        assert specfun.riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-10)
        assert specfun.riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-10)

    def test_against_euler_maclaurin(self):
        for s in (1.2, 1.5, 2.2, 3.0):
            assert specfun.riemann_zeta(s) == pytest.approx(
                oracles.zeta_euler_maclaurin(s), rel=1e-9)

    def test_pole(self):
        with pytest.raises(DomainError):
            specfun.riemann_zeta(1.0)
        with pytest.raises(DomainError):
            specfun.riemann_zeta(0.5)


# 300 seeded orders on [-16, 3.5], the range of the log-series coefficients
# zeta(s - k); on 2000 such points the pure-Python zeta is within 3.4e-15
# of mpmath, and scipy.special.zeta within 1.7e-13
_RNG = random.Random(12)
RANDOM_ORDERS = [_RNG.uniform(-16.0, 3.5) for _ in range(300)]


class TestPureZeta:
    """``zeta`` and ``zeta_prime``: Euler-Maclaurin and the functional
    equation in pure Python, against mpmath at 30 digits."""

    def test_against_mpmath(self):
        for s in RANDOM_ORDERS:
            want = oracles.zeta_mpmath(s)
            assert abs(specfun.zeta(s) - want) <= 1e-14 * abs(want), s

    def test_derivative_against_mpmath(self):
        # zeta' has zeros of its own between the trivial zeros, so the
        # error is measured against |zeta'| + |zeta|
        for s in RANDOM_ORDERS:
            want = oracles.zeta_mpmath(s, derivative=1)
            scale = abs(want) + abs(oracles.zeta_mpmath(s))
            assert abs(specfun.zeta_prime(s) - want) <= 1e-14 * scale, s

    @pytest.mark.parametrize("s", [0.0, 1e-300, -1e-12, 1e-12, 0.5, 0.49999999999999994,
                                   1.0 - 1e-12, 1.0 + 1e-12, 2.0, 30.0, 402.0,
                                   -2.5, -7.0, -16.5, -60.5, -170.0])
    def test_points_against_mpmath(self, s):
        # s = 0, where the functional equation meets the pole of zeta(1 - s),
        # both sides of the pole at 1 and of the switch at 1/2, large orders
        for derivative, fn in ((0, specfun.zeta), (1, specfun.zeta_prime)):
            want = oracles.zeta_mpmath(s, derivative)
            assert fn(s) == pytest.approx(want, rel=4e-15, abs=0.0), (s, derivative)

    def test_trivial_zeros_and_origin(self):
        for n in range(1, 85):
            assert specfun.zeta(-2.0 * n) == 0.0
        assert specfun.zeta(0.0) == -0.5
        assert specfun.zeta_prime(0.0) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi), rel=2e-15)

    def test_riemann_zeta_is_zeta(self):
        for s in (1.0 + 1e-9, 1.2, 2.2, 3.0, 12.5):
            assert specfun.riemann_zeta(s) == specfun.zeta(s)

    def test_domain(self):
        for s in (1.0, math.nan, math.inf, -math.inf, -171.0):
            with pytest.raises(DomainError):
                specfun.zeta(s)
            with pytest.raises(DomainError):
                specfun.zeta_prime(s)

    @pytest.mark.parametrize("n", [1, 2, 5, 402])
    def test_pole_pair_constants(self, n):
        # zeta(m, n) summed from n itself, and psi(n) = H_(n-1) - gamma_E
        with mpmath.workdps(30):
            for m in (2, 3, 10, 31):
                want = float(mpmath.zeta(m, n))
                assert specfun._hurwitz(m, n) == pytest.approx(want, rel=1e-15)
            psi = float(mpmath.digamma(n))
        series, _ = specfun._pole_exponent(n)
        assert -series[-1] == pytest.approx(psi, rel=1e-15, abs=1e-16)


class TestPolylog:
    def test_unit_argument_is_zeta(self):
        for s in (1.5, 2.0, 2.2, 3.0, 4.0):
            z = specfun.riemann_zeta(s)
            assert abs(specfun.polylog(s, 1.0) - z) <= 1e-9 * z

    def test_log_identity(self):
        assert specfun.polylog(1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_against_series_oracle(self):
        for s in (0.2, 1.2, 2.2):
            for z in (0.1, 0.3, 0.7, 0.95):
                assert specfun.polylog(s, z) == pytest.approx(
                    oracles.polylog_series(s, z), rel=1e-9)

    def test_very_negative_orders_against_mpmath(self):
        # the power series runs to k = 365 and 233; k**s underflows to 0
        # from k = 309 at s = -130 and from k = 144 at s = -150, and k**-s
        # overflows from k = 114 at s = -150.  Measured against mpmath at
        # 30 digits: 1.7e-15 and 7.7e-16 relative.
        for s, z in ((-130.0, 0.5), (-150.0, 0.3)):
            assert specfun.polylog(s, z) == pytest.approx(
                oracles.polylog_mpmath(s, z), rel=3e-15)

    def test_value_past_float_range(self):
        # Li_-200(0.5) ~ 1e350
        with pytest.raises(DomainError, match="leaves the float range"):
            specfun.polylog(-200.0, 0.5)

    def test_large_order_direct_series(self):
        # k**s overflows after a few terms, at k = 2 for s = 2000; the
        # sum is z to rounding, and its s-derivative vanishes there
        for s in (400.0, 1000.0, 2000.0):
            assert specfun.polylog(s, 0.5) == 0.5
        assert specfun.polylog_ds(2000.0, 0.5) == 0.0

    @pytest.mark.parametrize("s", [1e4 + 1.0, 1e8, 1e300, 1.7e308])
    def test_large_order_log_series(self, s):
        # the pole pair at the integer n = s takes psi(n) from its
        # asymptotic series, not from the n - 1 terms of H_(n-1), and
        # 1/(n-1)! = 0 without lgamma(n), which overflows past 2.5e305
        assert specfun.polylog(s, 0.9) == 0.9
        assert specfun.polylog_ds(s, 0.9) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.polylog(2.0, 0.0)
        with pytest.raises(DomainError):
            specfun.polylog(2.0, 1.5)
        with pytest.raises(DivergenceError):
            specfun.polylog(1.0, 1.0)
        with pytest.raises(DomainError):
            specfun.polylog(math.nan, 0.9)


# orders of the log-series sweep: a grid on [0.1, 4.5], every integer in
# it, and n +- {1e-1, 1e-3, 1e-5, 1e-8} around each integer n
SWEEP_ORDERS = sorted(
    {round(0.1 + 0.4 * i, 10) for i in range(12)}
    | {float(n) for n in range(1, 5)}
    | {n + sign * d for n in range(1, 5) for d in (1e-1, 1e-3, 1e-5, 1e-8)
       for sign in (1, -1)})
# z in (0.6, 1): the first float past the series switch up to ln z = -1e-12
SWEEP_Z = (math.nextafter(0.6, 1.0), 0.65, 0.75, 0.9, 0.99, 0.999,
           math.exp(-1e-5), math.exp(-1e-8), math.exp(-1e-12))


class TestPolylogLogSeries:
    """The float64 log series used for z > 0.6, against mpmath."""

    @pytest.mark.parametrize("s", SWEEP_ORDERS)
    def test_against_mpmath(self, s):
        for z in SWEEP_Z:
            want = oracles.polylog_mpmath(s, z)
            assert abs(specfun.polylog(s, z) - want) <= 1e-13 * want, (s, z)

    @pytest.mark.parametrize("s", [-1.5, 0.2, 1.0, 1.2, 2.0 - 1e-9, 2.2, 3.0, 4.5])
    def test_continuous_at_series_switch(self, s):
        below = specfun.polylog(s, 0.6)
        above = specfun.polylog(s, math.nextafter(0.6, 1.0))
        assert abs(above - below) <= 1e-13 * below

    @pytest.mark.parametrize("s", [2.0, 2.2, 3.0, 4.5])
    def test_approaches_zeta_at_one(self, s):
        zeta = specfun.riemann_zeta(s)
        assert specfun.polylog(s, 1.0) == zeta
        gaps = [zeta - specfun.polylog(s, math.exp(-10.0**-j))
                for j in range(2, 13)]
        assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))
        # zeta(s) - Li_s(e^-d) is O(d ln d) at s = 2 and smaller above
        assert gaps[-1] <= 1e-10 * zeta

    def test_singular_approach_below_two(self):
        # for 1 < s < 2 the gap to zeta(s) is led by -Gamma(1-s) d^(s-1)
        s, z = 1.5, math.exp(-1e-12)
        d = -math.log(z)  # the float z carries d to ~1e-4 only
        gap = specfun.riemann_zeta(s) - specfun.polylog(s, z)
        lead = -math.gamma(1.0 - s) * d ** (s - 1.0)
        assert gap == pytest.approx(lead, rel=1e-5)

    def test_stieltjes_constants(self):
        with mpmath.workdps(30):
            want = [float(mpmath.stieltjes(j))
                    for j in range(len(specfun._STIELTJES))]
        assert list(specfun._STIELTJES) == want


# orders of the derivative checks: integers, near-integers on both sides,
# and generic orders
DS_ORDERS = (1.0, 2.0, 3.0, 1.0 + 1e-8, 2.0 - 1e-8, 2.0 + 1e-3, 3.0 - 0.2,
             0.2, 1.2, 1.3, 2.2, -1.5, 4.5)
DS_Z = (0.3, math.nextafter(0.6, 1.0), 0.75, 0.99, math.exp(-1e-8))


class TestPolylogDerivative:
    """d Li_s(z)/ds, analytic on every branch, against mpmath.diff of
    mpmath.polylog at 30 digits."""

    @pytest.mark.parametrize("s", DS_ORDERS)
    def test_against_mpmath(self, s):
        for z in DS_Z:
            want = oracles.polylog_ds_mpmath(s, z)
            assert abs(specfun.polylog_ds(s, z) - want) <= 1e-13 * abs(want), (s, z)

    def test_unit_argument_is_zeta_prime(self):
        for s in (1.0 + 1e-12, 1.2, 2.2, 4.0):
            assert specfun.polylog_ds(s, 1.0) == specfun.zeta_prime(s)

    def test_continuous_at_series_switch(self):
        for s in (-1.5, 0.2, 1.0, 2.2, 4.5):
            below = specfun.polylog_ds(s, 0.6)
            above = specfun.polylog_ds(s, math.nextafter(0.6, 1.0))
            assert abs(above - below) <= 1e-13 * abs(below)

    def test_domain(self):
        with pytest.raises(DivergenceError):
            specfun.polylog_ds(1.0, 1.0)
        with pytest.raises(DomainError):
            specfun.polylog_ds(math.nan, 0.9)
        with pytest.raises(DomainError):
            specfun.polylog_ds(2.0, 0.0)
        with pytest.raises(DomainError, match="leaves the float range"):
            specfun.polylog_ds(-200.0, 0.5)
        # Gamma(201) overflows in the log series
        with pytest.raises(DomainError, match=r"^dLi_s\(z\)/ds at s=-200.0, z=0.9: "):
            specfun.polylog_ds(-200.0, 0.9)


class TestPowerSeries:
    """The power series branch, z <= 0.6, at random orders on both sides
    of s = -76.9, below which k^s underflows before the series ends and
    the terms take k^(-s/2) twice.  mpmath's own series stops at an
    absolute tolerance; the oracles' default precision carries the
    digits of z on top."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(s=st.one_of(st.floats(-90.0, -60.0), st.floats(-3.0, 12.0)),
           z=st.floats(0.0, 0.6, exclude_min=True))
    def test_polylog_against_mpmath(self, s, z):
        want = oracles.polylog_mpmath(s, z)
        assert abs(specfun.polylog(s, z) - want) <= 5e-15 * want

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(s=st.one_of(st.floats(-90.0, -60.0), st.floats(-3.0, 12.0)),
           z=st.floats(0.0, 0.6, exclude_min=True))
    @example(s=-90.0, z=1e-160)
    @example(s=-500.0, z=1e-160)
    @example(s=-60.0, z=1e-165)
    def test_derivative_against_mpmath(self, s, z):
        # z^2 has left the normal range in each example; s lifts the first
        # two sums back into it, while the third stays subnormal, and a
        # float holds a subnormal only to its spacing, 4.9e-324
        want = oracles.polylog_ds_mpmath(s, z)
        assert abs(specfun.polylog_ds(s, z) - want) <= max(5e-15 * abs(want), 1e-323)

    def test_oracle_default_precision_follows_z(self):
        # at 30 digits, mpmath's absolute stop leaves this 9e-14 off
        s, z = -77.224, 5.077e-37
        want = oracles.polylog_mpmath(s, z)
        assert abs(specfun.polylog(s, z) - want) <= 5e-15 * want

    @pytest.mark.parametrize("s", [-100.0, 0.5, 2.2, 900.0])
    def test_smallest_argument(self, s):
        # the first term, z / 1^s, is always added: the sum is z itself
        assert specfun.polylog(s, 5e-324) == 5e-324


@pytest.mark.parametrize("s", [-130.0, -150.0, -175.0])
@pytest.mark.parametrize("z", [0.3, 0.5, 0.61, 0.9])
def test_polylog_large_negative_order(s, z):
    # k^s underflows in the power series and Gamma(1 - s) overflows in the
    # log series: either the value is right or a library error says so
    try:
        value = specfun.polylog(s, z)
    except ZenolineError as exc:
        assert f"s={s}" in str(exc)
        return
    assert value == pytest.approx(oracles.polylog_mpmath(s, z), rel=1e-13)


def _fresh_interpreter(code):
    """Run `code` in a new interpreter with the package on its path and
    return its standard output."""
    src = str(Path(zenoline.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    return proc.stdout.strip()


def test_import_leaves_mpmath_out():
    """mpmath is a test-only oracle, numpy is imported nowhere, scipy
    only inside ``improper_quad``, and hashlib (which loads OpenSSL)
    only when a manifest is written: importing the package, the CLI
    included, must load none of them."""
    code = ("import sys, zenoline.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('mpmath', 'numpy', 'scipy', 'hashlib', '_hashlib')))")
    assert _fresh_interpreter(code) == "[]"


def test_scatter_leaves_numpy_out():
    """zenoline.scatter computes in floats: the package imports it
    eagerly, and a stationary pair loads no numpy."""
    code = ("import sys, zenoline; "
            "s = zenoline.scatter; p = s.PotentialSpec('morse'); "
            "s.stationary_pair(s.ScatterProblem(p, 10.0, 0.1)); "
            "print('numpy' in sys.modules)")
    assert _fresh_interpreter(code) == "False"


def test_special_functions_leave_numpy_and_scipy_out():
    """zeta, the polylogarithms, the Bose integrals and N_cr are pure
    Python: none of them may load numpy or scipy."""
    code = ("import sys\n"
            "from zenoline import partition, specfun\n"
            "for s in (0.2, 1.0, 1.2, 2.2, -3.5):\n"
            "    specfun.polylog(s, 0.3); specfun.polylog(s, 0.9)\n"
            "    specfun.polylog_ds(s, 0.9)\n"
            "specfun.zeta(-7.5); specfun.riemann_zeta(2.2)\n"
            "specfun.bose_integral(0.5, 0.0); specfun.bose_integral(0.2, -0.1)\n"
            "specfun.finite_n_integral(1.0, 0.02, 0.1, 50)\n"
            "specfun.finite_n_integral(0.0, 1.0, 1e-3, 30)\n"
            "partition.ncr_dimension1(10**6)\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))")
    assert _fresh_interpreter(code) == "[]"


def test_bose_moments_leave_quadpack_out():
    """The moment fits and N_cr are closed forms: none of them may load
    scipy.integrate."""
    code = ("import sys\n"
            "from zenoline import partition\n"
            "k0 = partition.solve_global_distribution(10**4).n_cap\n"
            "partition.solve_global_distribution(10**4, k0 // 2)\n"
            "partition.ncr_dimension1(10**6)\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.integrate')))")
    assert _fresh_interpreter(code) == "[]"


class TestBoseIntegral:
    def test_basel_case(self):
        res = specfun.bose_integral(1.0, 0.0)
        assert res.value == pytest.approx(math.pi**2 / 6, abs=1e-10)
        assert res.evaluations > 0

    def test_half_order(self):
        res = specfun.bose_integral(0.5, 0.0)
        expect = specfun.gamma_fn(1.5) * specfun.riemann_zeta(1.5)
        assert res.value == pytest.approx(expect, rel=1e-10)

    def test_closed_form_grid(self):
        for gamma in (0.2, 0.5, 1.0, 1.2):
            for kappa in (0.0, -0.5, -2.0):
                if kappa == 0.0 and gamma <= 0.0:
                    continue
                res = specfun.bose_integral(gamma, kappa)
                expect = specfun.gamma_fn(gamma + 1.0) * specfun.polylog(
                    gamma + 1.0, math.exp(kappa))
                assert abs(res.value - expect) <= 10.0 * (1e-12 + 1e-10 * abs(expect))

    def test_value_near_truth(self):
        for gamma, kappa in ((1.0, 0.0), (0.5, 0.0), (1.0, -2.0), (1.2, -0.5)):
            res = specfun.bose_integral(gamma, kappa)
            truth = specfun.gamma_fn(gamma + 1.0) * specfun.polylog(
                gamma + 1.0, math.exp(kappa))
            assert abs(res.value - truth) <= 1e-13 * (abs(res.value) + abs(truth))

    def test_boltzmann_limit(self):
        res = specfun.bose_integral(1.0, -30.0)
        assert res.value / math.exp(-30.0) == pytest.approx(1.0, rel=1e-6)

    def test_monotone_in_kappa(self):
        values = [specfun.bose_integral(1.0, k).value
                  for k in (-3.0, -2.0, -1.0, -0.5, 0.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(gamma=st.floats(-0.9, 6.0), kappa=st.floats(-40.0, -1e-9),
           gap=st.floats(1e-6, 10.0))
    def test_monotone_in_kappa_property(self, gamma, kappa, gap):
        # d/d(kappa) of Gamma(g+1) Li_{g+1}(e^kappa) is Gamma(g+1)
        # Li_g(e^kappa) > 0: a gap of 1e-6 moves the value by far more
        # than rounding, across both polylog branches and the pole pairs
        upper = min(kappa + gap, -1e-12)
        assert specfun.bose_integral(gamma, kappa).value < \
            specfun.bose_integral(gamma, upper).value

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_result_record(self, value):
        res = specfun.BoseIntegralResult(1.5, 7)
        assert res == specfun.BoseIntegralResult(value=1.5, evaluations=7)
        with pytest.raises(AttributeError):
            res.value = 2.0
        with pytest.raises(DomainError, match="^integral value is not finite$"):
            specfun.BoseIntegralResult(value=value, evaluations=7)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.bose_integral(1.0, 0.5)
        with pytest.raises(DivergenceError):
            specfun.bose_integral(-1.5, -1.0)
        with pytest.raises(DivergenceError):
            specfun.bose_integral(-0.5, 0.0)

    def test_overflow_names_the_arguments(self):
        # Gamma(201) overflows a float
        with pytest.raises(DomainError, match=r"^bose_integral\(200\.0, -1\.0\) "
                           r"overflows a float$"):
            specfun.bose_integral(200.0, -1.0)


class TestFiniteN:
    def test_log_closed_form(self):
        for b in (0.01, 1.0, 10.0):
            for n in (2, 10, 100):
                res = specfun.finite_n_integral(0.0, b, 0.0, n)
                assert res.value == pytest.approx(math.log(n) / b, rel=1e-9)

    def test_n_one_vanishes(self):
        res = specfun.finite_n_integral(1.3, 0.7, 0.2, 1)
        assert res.value == 0.0

    def test_against_series_oracle(self):
        # expand both occupancies geometrically and integrate term by term:
        # int_0^inf xi^g e^(-j b (xi+k)) dxi = e^(-jbk) Gamma(g+1)/(jb)^(g+1)
        gamma, b, kappa, n = 1.0, 0.02, 0.1, 50
        g1 = specfun.gamma_fn(gamma + 1.0)
        expect = 0.0
        j = 1
        while True:
            t1 = math.exp(-j * b * kappa) * g1 / (j * b) ** (gamma + 1.0)
            t2 = n * math.exp(-j * n * b * kappa) * g1 / (j * n * b) ** (gamma + 1.0)
            expect += t1 - t2
            if t1 < 1e-16 * expect:
                break
            j += 1
        res = specfun.finite_n_integral(gamma, b, kappa, n)
        assert res.value == pytest.approx(expect, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.finite_n_integral(0.0, -1.0, 0.0, 5)
        with pytest.raises(DomainError):
            specfun.finite_n_integral(0.0, 1.0, -0.1, 5)
        with pytest.raises(DomainError):
            specfun.finite_n_integral(0.0, 1.0, 0.0, 0)
        with pytest.raises(DivergenceError):
            specfun.finite_n_integral(-1.5, 1.0, 0.1, 10)

    def test_overflow_names_the_arguments(self):
        # b^-1.5 overflows a float at b = 1e-300
        with pytest.raises(DomainError, match=r"^finite_n_integral\(0\.5, 1e-300, "
                           r"1\.0, 10\) overflows a float$"):
            specfun.finite_n_integral(0.5, 1e-300, 1.0, 10)


class TestClosedFormsAgainstMpmath:
    """The Bose integrals are closed forms in Gamma, zeta and Li; each
    must match mpmath to 1e-13 relative."""

    REL = 1e-13

    @pytest.mark.parametrize("gamma", [-0.5, -1e-9, 0.0, 1e-9, 0.5, 1.0, 1.3])
    def test_finite_n_grid(self, gamma):
        for bk in (0.0, 1e-12, 1e-6, 1e-3, 0.1, 1.0):
            for n in (2, 30, 621):
                for b in (0.01, 1.0):
                    res = specfun.finite_n_integral(gamma, b, bk / b, n)
                    want = oracles.finite_n_mpmath(gamma, b, bk / b, n)
                    assert abs(res.value - want) <= self.REL * abs(want), \
                        (gamma, b, bk / b, n)

    @pytest.mark.parametrize("point", [
        # cancellation of the singular terms of the two polylogs, and
        # zeta(1 + gamma)(1 - N^-gamma) at gamma = 1e-9
        (-0.5, 0.02, 1e-6, 30), (1e-9, 0.01, 0.0, 100), (0.0, 0.0055, 1e-4, 621),
        (0.5, 0.01, 0.3, 50), (0.0, 0.01, 1e-3, 100), (-0.5, 0.02, 0.0, 30),
        (-0.5, 0.02, 0.5, 30),
    ])
    def test_finite_n_points(self, point):
        want = oracles.finite_n_mpmath(*point)
        assert specfun.finite_n_integral(*point).value == \
            pytest.approx(want, rel=self.REL, abs=0.0)

    def test_bose_grid(self):
        for gamma in (-0.5, -1e-9, 1e-9, 0.2, 0.5, 1.0, 1.2, 3.0):
            for kappa in (0.0, -1e-12, -1e-6, -1e-3, -0.1, -0.5, -1.0, -5.0, -30.0):
                if kappa == 0.0 and gamma <= 0.0:
                    continue
                want = oracles.bose_mpmath(gamma, kappa)
                assert specfun.bose_integral(gamma, kappa).value == \
                    pytest.approx(want, rel=self.REL, abs=0.0), (gamma, kappa)

    def test_ncr_integrals(self):
        from zenoline import partition

        # I1 is bose_integral(1/2, 0); I2 enters N_cr through W
        i1 = specfun.bose_integral(0.5, 0.0).value
        assert i1 == pytest.approx(oracles.bose_mpmath(0.5, 0.0), rel=self.REL, abs=0.0)
        for n in (10**6, 10**9):
            assert partition.ncr_dimension1(n) == \
                pytest.approx(oracles.ncr_mpmath(n), rel=self.REL, abs=0.0)


class TestImproperQuad:
    def test_exponential(self):
        res = specfun.improper_quad(lambda x: math.exp(-x), 0.0)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_bose_kernel(self):
        res = specfun.improper_quad(
            lambda x: math.sqrt(x) * math.exp(-x) / (-math.expm1(-x)), 1e-12)
        expect = specfun.gamma_fn(1.5) * specfun.riemann_zeta(1.5)
        assert res.value == pytest.approx(expect, rel=1e-8)

    def test_no_convergence_carries_the_estimate(self):
        # x sin(x) has no improper integral; QUADPACK gives up
        with pytest.raises(AccuracyError, match="did not converge") as info:
            specfun.improper_quad(lambda x: math.sin(x) * x, 0.0)
        assert isinstance(info.value.best, specfun.BoseIntegralResult)
        assert info.value.best.evaluations > 0

    def test_removable_singularity_against_trapezoid(self):
        res = specfun.improper_quad(oracles.w_integrand, 0.0)
        assert res.value > 0.0
        # split-domain trapezoid oracle: dense on [0, 5], tail by the
        # 1/xi^2 antiderivative (the Bose term is below 1e-11 there)
        head = oracles.trapezoid_integral(oracles.w_integrand, 0.0, 5.0)
        tail = 1.0 / 5.0
        assert res.value == pytest.approx(head + tail, rel=1e-6)
