import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoline.errors import BracketError, SolverError, ZenolineError
from zenoline.roots import brentq, grow_end

import oracles

# the (xtol, rtol) pairs the library passes; None is the default rtol
TOLERANCES = ((1e-14, 8.9e-16), (1e-12, None), (1e-15, 8.9e-16),
              (1e-13, 8.9e-16), (1e-10, None), (1e-8, None), (1e-14, 1e-14))

# five families f(x; c) with a root at c, from smooth and simple to flat
# (tanh), nearly triple (cubic) and oscillating (sine, more roots nearby)
FAMILIES = (
    lambda c: lambda x: x**3 - c**3,
    lambda c: lambda x: math.expm1(x - c),
    lambda c: lambda x: math.tanh(5.0 * (x - c)) + 1e-3 * (x - c) ** 3,
    lambda c: lambda x: (x - c) ** 3 + 1e-6 * (x - c),
    lambda c: lambda x: math.sin(3.0 * x) - math.sin(3.0 * c),
)


def _outcome(solver, f, a, b, **kw):
    # the root, or the first of ValueError and RuntimeError that the
    # exception is: scipy raises those two bare, the port BracketError
    # and SolverError, which subclass them
    try:
        return solver(f, a, b, **kw)
    except (ValueError, RuntimeError) as exc:
        return ValueError if isinstance(exc, ValueError) else RuntimeError


def _problems(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        c = rng.uniform(-2.0, 2.0)
        f = rng.choice(FAMILIES)(c)
        a, b = c - rng.uniform(1e-3, 3.0), c + rng.uniform(1e-3, 3.0)
        if rng.random() < 0.1:
            a = c + rng.uniform(1e-3, 1.0)  # both ends past the root
        if rng.random() < 0.5:
            a, b = b, a
        xtol, rtol = rng.choice(TOLERANCES)
        kw = {"xtol": xtol} if rtol is None else {"xtol": xtol, "rtol": rtol}
        yield f, a, b, kw


def test_same_float_as_scipy():
    count = solved = 0
    for f, a, b, kw in _problems(seed=2024, count=2100):
        want = _outcome(oracles.brentq_scipy, f, a, b, **kw)
        got = _outcome(brentq, f, a, b, **kw)
        assert got == want, (a, b, kw)
        if isinstance(want, float):
            assert type(got) is float
            solved += 1
        count += 1
    # most brackets hold a sign change; the rest raise ValueError on both
    assert solved > 0.75 * count


def _f_nan_midway(x):
    return math.nan if 0.3 < x < 0.7 else x - 0.5


@pytest.mark.parametrize("f, a, b, kw, want", [
    (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),
    (_f_nan_midway, 0.0, 1.0, {}, ValueError),
    (lambda x: math.nan, 0.0, 1.0, {}, ValueError),
    (lambda x: x**3 - 2.0, 0.0, 5.0, {"maxiter": 3}, RuntimeError),
    (lambda x: x - 0.5, 0.0, 1.0, {"xtol": 0.0}, ValueError),
    (lambda x: x - 0.5, 0.0, 1.0, {"rtol": 1e-16}, ValueError),
    (lambda x: x, 0.0, 1.0, {}, 0.0),
    (lambda x: x - 1.0, 0.0, 1.0, {}, 1.0),
], ids=["same-sign", "nan-midway", "nan-end", "maxiter", "xtol", "rtol",
        "zero-at-a", "zero-at-b"])
def test_edge_cases_match_scipy(f, a, b, kw, want):
    assert _outcome(oracles.brentq_scipy, f, a, b, **kw) == want
    assert _outcome(brentq, f, a, b, **kw) == want


class TestFailures:
    """Each failure is a ZenolineError that opens with scipy's message and
    names [a, b], f at the ends (or the NaN point) and the iteration."""

    def test_same_sign_ends(self):
        with pytest.raises(BracketError) as info:
            brentq(lambda x: x * x + 1.0, -1.0, 2.0)
        assert str(info.value) == (
            "f(a) and f(b) must have different signs. On [a, b] = [-1.0, 2.0], "
            "f(a) = 2.0, f(b) = 5.0; iteration 0.")

    def test_nan_at_a_names_no_f_b(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.nan
        with pytest.raises(BracketError) as info:
            brentq(f, 0.25, 1.0)
        assert calls == [0.25]
        assert str(info.value) == (
            "The function value at x=0.25 is NaN; solver cannot continue. "
            "On [a, b] = [0.25, 1.0], f(a) = nan; iteration 0.")

    def test_nan_at_b(self):
        with pytest.raises(BracketError) as info:
            brentq(lambda x: math.nan, 0.0, 1.0, fa=-1.0)
        assert str(info.value) == (
            "The function value at x=1.0 is NaN; solver cannot continue. "
            "On [a, b] = [0.0, 1.0], f(a) = -1.0, f(b) = nan; iteration 0.")

    def test_nan_midway_names_the_iteration(self):
        # the first iterate is the secant point 0.5 of x - 0.5 on [0, 1]
        with pytest.raises(BracketError) as info:
            brentq(_f_nan_midway, 0.0, 1.0)
        assert str(info.value) == (
            "The function value at x=0.5 is NaN; solver cannot continue. "
            "On [a, b] = [0.0, 1.0], f(a) = -0.5, f(b) = 0.5; iteration 1.")

    def test_iteration_cap(self):
        seen = []

        def f(x):
            seen.append(x)
            return x**3 - 2.0
        with pytest.raises(SolverError) as info:
            brentq(f, 0.0, 5.0, maxiter=3)
        assert len(seen) == 2 + 3
        x = seen[-1]
        assert str(info.value) == (
            "Failed to converge after 3 iterations. On [a, b] = [0.0, 5.0], "
            f"f(a) = -2.0, f(b) = 123.0; iteration 3 ended at x = {x!r}, "
            f"f(x) = {x**3 - 2.0!r}.")

    @pytest.mark.parametrize("cls, base", [(BracketError, ValueError),
                                           (SolverError, RuntimeError)])
    def test_classes_are_the_packages_and_scipys(self, cls, base):
        assert issubclass(cls, ZenolineError) and issubclass(cls, base)


def test_zero_extrapolation_denominator_bisects():
    # the Gibbs residual of two levels near 1e-59: dblk * dpre underflows
    # to 0, where scipy's C divides to inf or NaN and bisects
    lo, hi, E = 3.3724499869913306e-59, 5.565576033258947e-59, 3.3724499891844564e-59

    def mean_level(b):
        w = math.exp(-b * (hi - lo))
        return (lo + hi * w) / (1.0 + w) - E

    (a, fa), (b, fb) = grow_end(mean_level, -1.0, 1.0), grow_end(mean_level, 1.0, -1.0)
    kw = {"xtol": 1e-14, "rtol": 8.9e-16}
    root = brentq(mean_level, a, b, **kw, fa=fa, fb=fb)
    assert root == oracles.brentq_scipy(mean_level, a, b, **kw)
    assert root == 9.449190496015945e+59


def test_returns_float():
    root = brentq(lambda x: np.asarray(x * x - 2.0), np.float64(0.0),
                  np.float64(2.0), xtol=1e-15, rtol=8.9e-16)
    assert type(root) is float
    assert root == oracles.brentq_scipy(lambda x: np.asarray(x * x - 2.0),
                                        0.0, 2.0, xtol=1e-15, rtol=8.9e-16)


class TestKnownEnds:
    """f(a) and f(b) passed in are not computed again."""

    @staticmethod
    def _counted(f):
        calls = []

        def g(x):
            calls.append(x)
            return f(x)
        return g, calls

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(family=st.integers(0, len(FAMILIES) - 1), c=st.floats(-2.0, 2.0),
           left=st.floats(1e-3, 3.0), right=st.floats(-1.0, 3.0),
           ends=st.sampled_from(["a", "b", "ab"]),
           tol=st.sampled_from(TOLERANCES))
    def test_same_float_one_call_fewer_per_end(self, family, c, left, right,
                                               ends, tol):
        # right < 0 puts both ends on one side of the root: ValueError
        f = FAMILIES[family](c)
        a, b = c - left, c + right
        kw = {"xtol": tol[0]} if tol[1] is None else {"xtol": tol[0], "rtol": tol[1]}
        g, plain_calls = self._counted(f)
        want = _outcome(brentq, g, a, b, **kw)
        known = {}
        if "a" in ends:
            known["fa"] = f(a)
        if "b" in ends:
            known["fb"] = f(b)
        g, calls = self._counted(f)
        got = _outcome(brentq, g, a, b, **kw, **known)
        assert repr(got) == repr(want)
        assert len(calls) == len(plain_calls) - len(known)

    def _never(self, x):
        raise AssertionError(f"f called at {x}")

    @pytest.mark.parametrize("fa, fb", [(math.nan, 1.0), (-1.0, math.nan)])
    def test_nan_end_raises(self, fa, fb):
        with pytest.raises(ValueError, match="is NaN"):
            brentq(self._never, 0.0, 1.0, fa=fa, fb=fb)

    @pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-1.0, -0.5)])
    def test_same_sign_ends_raise(self, fa, fb):
        with pytest.raises(ValueError, match="different signs"):
            brentq(self._never, 0.0, 1.0, fa=fa, fb=fb)


class TestGrowEnd:
    @staticmethod
    def _probed(f):
        seen = []

        def g(x):
            seen.append(x)
            return f(x)
        return g, seen

    @pytest.mark.parametrize("x, sign, root, want", [
        (1.0, 1.0, 10.0, 16.0),  # f = x - root turns positive at 16
        (1.0, -1.0, 10.0, 1.0),  # already of the wanted sign
        (-1.0, -1.0, -10.0, -16.0),  # growing a lower end outward
        (0.5, 1.0, 3.0, 4.0),
    ])
    def test_first_doubled_end_with_the_wanted_sign(self, x, sign, root, want):
        g, seen = self._probed(lambda t: t - root)
        # the end, and f there from the one evaluation at it
        assert grow_end(g, x, sign) == (want, want - root)
        assert seen == [x * 2.0**i for i in range(len(seen))]
        assert seen[-1] == want

    def test_zero_does_not_stop_the_growth(self):
        # a residual flat at zero is no sign of the far end
        g, seen = self._probed(lambda t: 0.0 if t < 5.0 else 1.0)
        assert grow_end(g, 1.0, 1.0) == (8.0, 1.0)
        assert seen == [1.0, 2.0, 4.0, 8.0]

    def test_zero_at_the_last_end_is_a_root(self):
        assert grow_end(lambda t: 0.0, 1.0, 1.0) == (2.0**200, 0.0)

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_raises_after_the_doublings(self, value):
        g, seen = self._probed(lambda t: value)
        with pytest.raises(SolverError) as info:
            grow_end(g, 1.0, 1.0)
        assert len(seen) == 201 and seen[-1] == 2.0**200
        msg = str(info.value)
        assert "in 200 doublings" in msg
        assert f"f({2.0**200!r}) = {value!r}" in msg
