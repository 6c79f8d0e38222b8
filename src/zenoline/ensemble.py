"""Desk-scale enumeration checks of the concentration statements.

Exhaustive enumeration of occupation-number vectors under a particle
count and an energy budget, the Gibbs parameter fit, and the
concentration report built on them.
"""

from __future__ import annotations

import math

from .errors import DomainError, ResourceError
from .records import record
from .roots import brentq, grow_end

__all__ = [
    "SpectrumSpec",
    "OccupationCensus",
    "enumerate_states",
    "gibbs_parameter",
    "concentration_report",
    "default_psi",
]

_STATE_GUARD = 100_000_000
# margin, relative to R lambda_b + |budget| + 1, that certifies a run of
# the last free level; the rounding of the two budget tests and of
# n_safe is a few units of 2^-53 of the same scale
_RUN_MARGIN = 2.0 ** -40


class SpectrumSpec(record("SpectrumSpec", ["levels"])):
    """A discrete positive spectrum, levels finite and sorted ascending."""

    __slots__ = ()

    def __new__(cls, levels):
        levels = tuple(float(x) for x in levels)
        if not levels:
            raise DomainError("spectrum must have at least one level")
        if not all(math.isfinite(x) for x in levels):
            raise DomainError(f"all levels must be finite, got {levels}")
        if any(x <= 0 for x in levels):
            raise DomainError("all levels must be positive")
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise DomainError("levels must be sorted ascending")
        return super().__new__(cls, levels)


class OccupationCensus(record("OccupationCensus",
                              ["states", "level_totals", "outside"])):
    """Aggregate over all admissible occupation vectors; ``outside``
    counts those outside the band, if one was given."""

    __slots__ = ()

    def __new__(cls, states, level_totals, outside=0):
        if states < 0:
            raise DomainError("state count cannot be negative")
        if not 0 <= outside <= states:
            raise DomainError("outside count must lie in [0, states]")
        return super().__new__(cls, states, level_totals, outside)


def _inside_range(centre, half, N):
    """(lo, hi): the m in 0..N with not abs(m - centre) > half, the test
    of the walk.  fl(m - centre) is monotone in m, so they form one
    interval; (1, 0) if it is empty."""
    inside = [m for m in range(N + 1) if not abs(m - centre) > half]
    return (inside[0], inside[-1]) if inside else (1, 0)


def enumerate_states(spectrum, N, E_max, band=None):
    """Count all occupation vectors with sum N_i = N and
    sum lambda_i N_i <= E_max, all vectors equiprobable.

    The census carries per-level occupation totals.  ``band`` =
    (centres, half), if given, makes the census also count the vectors
    with any abs(N_i - centres[i]) > half.

    Levels 0..s-3 are walked as a tree, each value pruned as soon as the
    cheapest completion overruns the budget.  Below each node the last
    free level takes a run of values n and the top level R - n.  The
    run's cost R lambda_b - n (lambda_b - lambda_a) falls with n, so from
    n_safe on it is below the budget by a margin that both float tests
    pass; only the n below n_safe are tested one by one.  Count, totals
    and the in-band count of the certified part are arithmetic series
    and one interval intersection.
    """
    if N < 0:
        raise DomainError(f"N must be non-negative, got {N}")
    budget = float(E_max)
    if not math.isfinite(budget):
        # an infinite budget less a cost that overflows is NaN
        raise DomainError(f"E_max must be finite, got {E_max}")
    levels = spectrum.levels
    s = len(levels)
    if band is None:
        # abs(n - nan) > half is false: no vector is outside
        centres, half = (math.nan,) * s, math.nan
    else:
        centres, half = tuple(band[0]), band[1]
        if len(centres) != s:
            raise DomainError(f"band has {len(centres)} centres for {s} levels")
    if s == 1:
        if not N * levels[0] <= budget + 1e-12:
            return OccupationCensus(0, (0,))
        return OccupationCensus(1, (N,), int(abs(N - centres[0]) > half))

    lam_a, lam_b = levels[-2], levels[-1]
    gap = lam_b - lam_a
    a_lo, a_hi = _inside_range(centres[-2], half, N)
    b_lo, b_hi = _inside_range(centres[-1], half, N)
    totals = [0] * s
    states = outside = 0

    def run(R, budget, out):
        nonlocal states, outside
        thr = budget + 1e-12
        top = R * lam_b
        excess = top - thr + _RUN_MARGIN * (top + abs(budget) + 1.0)
        if excess <= 0.0:
            n_safe = 0
        elif gap > 0.0 and excess / gap <= R:
            n_safe = math.ceil(excess / gap)
        else:
            # equal levels, or even n = R is too close to call
            n_safe = R + 1
        count = R + 1 - n_safe
        n_sum = (R + n_safe) * count // 2
        if out:
            inside = 0
        else:
            lo = max(n_safe, a_lo, R - b_hi)
            hi = min(R, a_hi, R - b_lo)
            inside = max(hi - lo + 1, 0)
        for n in range(n_safe - 1, -1, -1):
            rest = R - n
            cost = n * lam_a
            if cost + rest * lam_b > thr:
                break
            if rest * lam_b <= budget - cost + 1e-12:
                count += 1
                n_sum += n
                if not out and a_lo <= n <= a_hi and b_lo <= rest <= b_hi:
                    inside += 1
        totals[-2] += n_sum
        totals[-1] += count * R - n_sum
        states += count
        outside += count - inside
        if states > _STATE_GUARD:
            raise ResourceError(
                f"state count exceeds guard {_STATE_GUARD}; use a sampling scheme")

    def walk(i, R, budget, out):
        if i == s - 2:
            run(R, budget, out)
            return
        # levels ascend, so the cheapest completion with n_i fixed puts
        # everything else on level i+1; prune subtrees that cannot fit
        lam, lam_next, centre = levels[i], levels[i + 1], centres[i]
        thr = budget + 1e-12
        for n_i in range(R, -1, -1):
            rest = R - n_i
            cost = n_i * lam
            if cost + rest * lam_next > thr:
                break
            before = states
            walk(i + 1, rest, budget - cost, out or abs(n_i - centre) > half)
            totals[i] += n_i * (states - before)

    walk(0, N, budget, False)
    return OccupationCensus(states, tuple(totals), outside)


def gibbs_parameter(spectrum, E):
    """Inverse-temperature analog b_E with mean level energy E.

    Solved scale-free: with x_i = (lambda_i - lambda_0) / (lambda_max -
    lambda_0) on [0, 1] and t = (E - lambda_0) / (lambda_max - lambda_0),
    the weighted mean of x under e^(-beta x) is strictly decreasing in
    beta.  ``grow_end`` doubles the ends (-1, 1) until they bracket the
    beta with mean t, ``brentq`` solves for it, and b_E = beta /
    (lambda_max - lambda_0).  The weights are taken relative to the lowest
    level for beta >= 0 and to the highest for beta < 0, so every weight
    is <= 1 and none overflows.  For beta < 0 the residual is
    (1 - t) - mean(1 - x), with 1 - x and 1 - t formed from the highest
    level, (lambda_max - lambda) / (lambda_max - lambda_0): near the top,
    where the mean of x rounds to eps absolute, those keep full precision.
    """
    levels = spectrum.levels
    if not (levels[0] < E < levels[-1]):
        raise DomainError(f"E = {E} outside the attainable range "
                          f"({levels[0]}, {levels[-1]})")
    width = levels[-1] - levels[0]
    xs = [(lam - levels[0]) / width for lam in levels]
    ys = [(levels[-1] - lam) / width for lam in levels]
    t, u = (E - levels[0]) / width, (levels[-1] - E) / width

    def residual(beta):
        if beta >= 0.0:
            w = [math.exp(-beta * x) for x in xs]
            return sum(x * wi for x, wi in zip(xs, w)) / sum(w) - t
        w = [math.exp(beta * y) for y in ys]
        return u - sum(y * wi for y, wi in zip(ys, w)) / sum(w)

    lo, f_lo = grow_end(residual, -1.0, 1.0)
    hi, f_hi = grow_end(residual, 1.0, -1.0)
    return brentq(residual, lo, hi, xtol=1e-14, rtol=8.9e-16,
                  fa=f_lo, fb=f_hi) / width


def default_psi(x):
    """Slowly growing band factor; the double logarithm, floored at 1."""
    return math.log(math.log(max(x, math.e**math.e)))


def concentration_report(spectrum, N_list, E):
    """Empirical concentration of occupations around the Gibbs profile.

    For each N the admissible states (energy budget N*E) are enumerated,
    per-level mean occupations are compared against the prediction
    B e^(-b_E lambda_i) with B = N/L0, and the fraction of states with
    any level outside the +-B sqrt(L0 ln L0) psi(L0) band is recorded,
    with psi = ``default_psi``.
    The fraction should trend downward as N grows.
    """
    levels = spectrum.levels
    b_E = gibbs_parameter(spectrum, E)
    try:
        L0 = sum(math.exp(-b_E * lam) for lam in levels)
    except OverflowError:
        L0 = math.inf
    if not 0.0 < L0 < math.inf:
        # b_E < 0 overflows, most at the top level; b_E >> 0 underflows
        fault = "overflows" if L0 else "underflows to 0"
        raise DomainError(f"L0 = sum of e^(-b_E lambda) {fault} at b_E = "
                          f"{b_E!r}, level {levels[-1 if L0 else 0]!r}")
    ln_L0 = math.log(max(L0, math.e))
    entries = []
    for N in N_list:
        B = N / L0
        half = B * math.sqrt(L0 * ln_L0) * default_psi(L0)
        predicted = [B * math.exp(-b_E * lam) for lam in levels]
        budget = N * E
        if budget == math.inf:
            raise DomainError(f"energy budget N*E overflows: N = {N}, "
                              f"E = {E!r}, N*E = inf")
        census = enumerate_states(spectrum, N, budget, band=(predicted, half))
        means = [t / census.states for t in census.level_totals]
        entries.append({
            "N": N,
            "states": census.states,
            "empirical_means": means,
            "predicted": predicted,
            "band_halfwidth": half,
            "outside_fraction": census.outside / census.states,
        })
    fracs = [e["outside_fraction"] for e in entries]
    return {
        "b_E": b_E,
        "L0": L0,
        "entries": entries,
        "trend_non_increasing": all(b <= a + 1e-15 for a, b in zip(fracs, fracs[1:])),
    }
