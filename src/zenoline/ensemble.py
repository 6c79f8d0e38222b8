"""Desk-scale enumeration checks of the concentration statements.

Exhaustive enumeration of occupation-number vectors under a particle
count and an energy budget, the Gibbs parameter fit, and the
Maxwell-Boltzmann limit of the Bose integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import specfun
from .errors import DomainError, ResourceError
from .roots import brentq

__all__ = [
    "SpectrumSpec",
    "OccupationCensus",
    "enumerate_states",
    "gibbs_parameter",
    "concentration_report",
    "boltzmann_limit_check",
    "default_psi",
]

_STATE_GUARD = 100_000_000


@dataclass(frozen=True)
class SpectrumSpec:
    """A discrete positive spectrum, levels sorted ascending."""

    levels: tuple

    def __post_init__(self):
        levels = tuple(float(x) for x in self.levels)
        if not levels:
            raise DomainError("spectrum must have at least one level")
        if any(x <= 0 for x in levels):
            raise DomainError("all levels must be positive")
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise DomainError("levels must be sorted ascending")
        object.__setattr__(self, "levels", levels)


@dataclass(frozen=True)
class OccupationCensus:
    """Aggregate over all admissible occupation vectors."""

    states: int
    level_totals: tuple

    def __post_init__(self):
        if self.states < 0:
            raise DomainError("state count cannot be negative")


def enumerate_states(spectrum, N, E_max, collect=None):
    """Count all occupation vectors with sum N_i = N and
    sum lambda_i N_i <= E_max, all vectors equiprobable.

    ``collect``, if given, is called with each vector (a tuple).  The
    census carries per-level occupation totals.
    """
    if N < 0:
        raise DomainError(f"N must be non-negative, got {N}")
    levels = spectrum.levels
    s = len(levels)
    totals = [0] * s
    counter = [0]

    def recurse(i, remaining, budget, vec):
        if counter[0] > _STATE_GUARD:
            raise ResourceError(
                f"state count exceeds guard {_STATE_GUARD}; use a sampling scheme")
        if i == s - 1:
            # last level takes the remainder if the budget allows
            if remaining * levels[i] <= budget + 1e-12:
                counter[0] += 1
                vec[i] = remaining
                for j, n_j in enumerate(vec):
                    totals[j] += n_j
                if collect is not None:
                    collect(tuple(vec))
                vec[i] = 0
            return
        # levels ascend, so the cheapest completion with n_i fixed puts
        # everything else on level i+1; prune subtrees that cannot fit
        for n_i in range(remaining, -1, -1):
            rest = remaining - n_i
            cost = n_i * levels[i]
            if cost + rest * levels[i + 1] > budget + 1e-12:
                break
            vec[i] = n_i
            recurse(i + 1, rest, budget - cost, vec)
            vec[i] = 0

    recurse(0, N, float(E_max), [0] * s)
    return OccupationCensus(states=counter[0], level_totals=tuple(totals))


def gibbs_parameter(spectrum, E):
    """Inverse-temperature analog b_E with mean level energy E.

    The weighted mean sum(lambda e^(-b lambda)) / sum(e^(-b lambda)) is
    strictly decreasing in b: doubling the bracket ends outward from
    (-1, 1) brackets b_E, and ``brentq`` solves for it.  The weights are
    taken relative to the lowest level, e^(-b (lambda - lambda_0)).
    Where those overflow (b < 0 on a wide spectrum), they are taken
    relative to the highest level instead, so that every weight is <= 1.
    """
    levels = spectrum.levels
    if not (levels[0] < E < levels[-1]):
        raise DomainError(f"E = {E} outside the attainable range "
                          f"({levels[0]}, {levels[-1]})")

    def weighted(b, shift):
        w = [math.exp(-b * (lam - shift)) for lam in levels]
        return sum(lam * wi for lam, wi in zip(levels, w)) / sum(w)

    def mean(b):
        try:
            m = weighted(b, levels[0])
        except OverflowError:
            m = math.inf
        return m if m < math.inf else weighted(b, levels[-1])

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if mean(lo) > E:
            break
        lo *= 2.0
    for _ in range(200):
        if mean(hi) < E:
            break
        hi *= 2.0
    return brentq(lambda b: mean(b) - E, lo, hi, xtol=1e-14, rtol=8.9e-16)


def default_psi(x):
    """Slowly growing band factor; the double logarithm, floored at 1."""
    return math.log(math.log(max(x, math.e**math.e)))


def concentration_report(spectrum, N_list, E, psi=default_psi):
    """Empirical concentration of occupations around the Gibbs profile.

    For each N the admissible states (energy budget N*E) are enumerated,
    per-level mean occupations are compared against the prediction
    B e^(-b_E lambda_i) with B = N/L0, and the fraction of states with
    any level outside the +-B sqrt(L0 ln L0) psi(L0) band is recorded.
    The fraction should trend downward as N grows.
    """
    levels = spectrum.levels
    b_E = gibbs_parameter(spectrum, E)
    L0 = sum(math.exp(-b_E * lam) for lam in levels)
    ln_L0 = math.log(max(L0, math.e))
    entries = []
    for N in N_list:
        B = N / L0
        half = B * math.sqrt(L0 * ln_L0) * psi(L0)
        predicted = [B * math.exp(-b_E * lam) for lam in levels]
        outside = [0]

        def check(vec):
            if any(abs(n - p) > half for n, p in zip(vec, predicted)):
                outside[0] += 1

        census = enumerate_states(spectrum, N, N * E, collect=check)
        means = [t / census.states for t in census.level_totals]
        entries.append({
            "N": N,
            "states": census.states,
            "empirical_means": means,
            "predicted": predicted,
            "band_halfwidth": half,
            "outside_fraction": outside[0] / census.states,
        })
    fracs = [e["outside_fraction"] for e in entries]
    return {
        "b_E": b_E,
        "L0": L0,
        "entries": entries,
        "trend_non_increasing": all(b <= a + 1e-15 for a, b in zip(fracs, fracs[1:])),
    }


def boltzmann_limit_check(gamma, kappa_list):
    """Ratio of the Bose integral to its Maxwell-Boltzmann limit
    Gamma(gamma+1) e^kappa, for a sequence of kappa going to -infinity.

    The deficit ratio - 1 = sum_{j>=2} e^((j-1) kappa) / j^(gamma+1)
    decays like e^kappa / 2^(gamma+1).  Where e^kappa <= 0.6 it is summed
    as that series, which keeps its digits and never divides by an
    e^kappa that has underflowed to 0.
    """
    if any(k > 0 for k in kappa_list):
        raise DomainError("kappa values must be non-positive")
    s = gamma + 1.0
    g = specfun.gamma_fn(s)
    rows = []
    for kappa in kappa_list:
        z = math.exp(kappa)
        if z <= 0.6:
            # the tail after a term is at most 1.5 times that term
            deficit, z_j, j = 0.0, z, 2
            while True:
                term = z_j / j**s
                deficit += term
                if term <= 1e-17 * deficit:
                    break
                z_j *= z
                j += 1
        else:
            deficit = specfun.bose_integral(gamma, kappa).value / (g * z) - 1.0
        rows.append({"kappa": kappa, "ratio": 1.0 + deficit, "deficit": deficit})
    return {"gamma": gamma, "rows": rows}
