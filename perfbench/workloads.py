"""Seeded request lists of the four benchmark workloads.

A request is one public call into zenoline (or one CLI process).  The
CLI default grids are always part of a workload; the seed only draws
the extra grid points and sizes from the ranges stated below, so that
the same seed gives the same inputs.  Ranges are narrow where a draw
would otherwise change the amount of work from seed to seed.

This module imports zenoline and nothing else heavy: importing it and
calling ``build`` is the set-up that ``setup_s`` times.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from zenoline import diagram, ensemble, partition, scatter
from zenoline.cli import parse_grid

import oracles
import spans
from oracles import B_DEFAULT, B_GRID, GAMMA0, MU_GRID, P_GRID, RHO_GRID

SRC = Path(__file__).resolve().parent.parent / "src"
SPANS_SHIM = Path(__file__).resolve().parent / "spans.py"

FAMILIES = ("lennard_jones", "generalized_lj", "morse", "buckingham")
V_GRID = (1.02, 1000.0, 400)  # the geomspace the isotherm command solves on


@dataclass
class Request:
    """One timed call.  ``call(traced)`` runs it; ``points`` is how many
    independent inputs it solves; ``failures(out)`` counts the points a
    successful call reports as failed; ``check(out)`` raises
    ``oracles.OracleError`` when a value is outside tolerance."""

    name: str
    call: Callable[[bool], Any]
    points: int = 1
    failures: Callable[[Any], int] = lambda out: 0
    check: Callable[[Any], None] = lambda out: None


def _curve_failures(curve):
    return len(curve.meta["failures"])


# ---------------------------------------------------------------- eos


def eos_isotherms(rng):
    """solve_phi on the CLI grid, then one imperfect isotherm per P, the
    ideal isotherm on the default and a seeded P grid, and the default
    jamming run.
    The three seeded P values split [0.5, 0.95] into thirds and take one
    point in each at the same seeded offset, where each imperfect
    isotherm costs about the median request, so that the request median
    does not move with the seed.  The default grid keeps P = 1.0, which
    fails at commit 064145d and is counted, not skipped."""
    p_default = parse_grid(P_GRID)
    u_p = rng.random()
    p_extra = [0.5 + (i + u_p) * 0.15 for i in range(3)]
    v_grid = np.geomspace(*V_GRID)
    mu_grid = parse_grid(MU_GRID)
    state = {}

    def solve(traced):
        state["eos"] = diagram.solve_phi(GAMMA0, v_grid)
        return state["eos"]

    long = [Request(
        "jamming_extension",
        lambda traced: diagram.jamming_extension(
            mu_grid, diagram.FractalEos.identity(GAMMA0), gamma0=GAMMA0,
            anchor_P=2.5),
        check=lambda c: oracles.check_jamming_rows(c.rows))]
    for label, grid in (("default", p_default), ("seeded", p_extra)):
        long.append(Request(
            f"ideal_isotherm[{label}]",
            lambda traced, g=grid: diagram.ideal_isotherm(g, GAMMA0),
            points=len(grid), check=oracles.check_ideal_points))
    short = [Request(
        f"imperfect_isotherm[P={P!r}]",
        lambda traced, P=P: diagram.imperfect_isotherm(
            [P], state["eos"], GAMMA0),
        check=lambda pts: oracles.check_imperfect_points(pts, state["eos"]))
        for P in p_default + p_extra]
    # The imperfect isotherms, in a seeded order, are cut into three
    # blocks with a long request after each, so that the requests near
    # the median latency are spread over the whole pass rather than timed
    # in one stretch of a few seconds.
    rng.shuffle(short)
    reqs = [Request("solve_phi", solve, check=oracles.check_eos)]
    cut = (len(short) + 2) // 3
    for i, req in enumerate(long):
        reqs += short[i * cut:(i + 1) * cut] + [req]
    return reqs


# ------------------------------------------------------------ scatter


def scatter_scans(rng):
    """For each potential family: the Zeno-analog trace on the default B
    grid and on the same grid shifted by a seeded fraction of a step,
    the compressibility curve at B = 100 on the default rho grid and on
    a shifted one, and the critical summary at the default B = 100.
    Shifted grids keep the point count from seed to seed.  The rho shift
    is drawn from [0.5, 1) of a step, which puts exactly 22 of the 44
    shifted points past the buckingham degeneracy density (rho near
    0.0907; 22 of 45 at the default grid, by design), so the failure count
    does not move with the seed either."""
    b_lo, b_hi, b_step = (float(x) for x in B_GRID.split(":"))
    r_lo, r_hi, r_step = (float(x) for x in RHO_GRID.split(":"))
    u_b, u_rho = rng.random(), rng.uniform(0.5, 1.0)
    b_shift = [b_lo + (i + u_b) * b_step
               for i in range(int(round((b_hi - b_lo) / b_step)))]
    rho_shift = [r_lo + (i + u_rho) * r_step
                 for i in range(int(round((r_hi - r_lo) / r_step)))]
    grids = {"default": (parse_grid(B_GRID), parse_grid(RHO_GRID)),
             "seeded": (b_shift, rho_shift)}
    reqs = []
    for family in FAMILIES:
        pot = scatter.PotentialSpec(family)
        for label, (b_grid, rho_grid) in grids.items():
            reqs.append(Request(
                f"trace_zeno_analog[{family},{label}]",
                lambda traced, p=pot, g=b_grid: scatter.trace_zeno_analog(p, g),
                points=len(b_grid), failures=_curve_failures,
                check=lambda c, p=pot: oracles.check_zeno_rows(p, c.rows)))
            reqs.append(Request(
                f"compressibility_curve[{family},{label}]",
                lambda traced, p=pot, g=rho_grid: scatter.compressibility_curve(
                    p, B_DEFAULT, g),
                points=len(rho_grid), failures=_curve_failures,
                check=lambda c, p=pot: oracles.check_compressibility(
                    p, B_DEFAULT, c)))
        reqs.append(Request(
            f"critical_summary[{family}]",
            lambda traced, p=pot: scatter.critical_summary(p, B=B_DEFAULT),
            check=lambda s, p=pot: oracles.check_critical(p, B_DEFAULT, s)))
    return reqs


# ------------------------------------------------------- exact counts


def spectrum(rng):
    """Six levels 1 + i/2 with a seeded jitter in [0, 0.05): with the
    budget below, N = 36 admits about 1e5 occupation vectors."""
    return ensemble.SpectrumSpec(tuple(sorted(
        1.0 + 0.5 * i + rng.uniform(0.0, 0.05) for i in range(6))))


ENSEMBLE_E = 1.885
ENSEMBLE_N = (4, 12, 36)


def exact_counts(rng):
    """The partition table at n = 2000 (the size of the CLI probe, and
    the peak of memory) and at a seeded n in [1500, 1600], the threshold
    k0 at both sizes, the global-distribution fit with and without k at a
    seeded n in [1e4, 1e5], the kappa = 0 fit at n = 1e6, the
    one-dimensional threshold at a seeded n in [1e6, 1e9], and the
    concentration report on a seeded spectrum."""
    n_table = (2000, rng.randint(1500, 1600))
    n_fit = rng.randint(10_000, 100_000)
    n_ncr = int(10 ** rng.uniform(6.0, 9.0))
    spec = spectrum(rng)
    state = {}

    def check_table(t):
        state[t.n_max] = oracles.check_partition_table(t)

    reqs = []
    for n in n_table:
        reqs.append(Request(f"build_partition_table[{n}]",
                            lambda traced, n=n:
                            partition.build_partition_table(n, n),
                            check=check_table))
    for n in n_table:
        reqs.append(Request(
            f"condensate_threshold[{n}]",
            lambda traced, n=n: partition.condensate_threshold(n),
            check=lambda th: oracles.check_threshold(th, state.get(th.n))))

    def fit_k0(traced):
        dist = partition.solve_global_distribution(n_fit)
        state["k0"] = dist.n_cap
        return dist

    reqs.append(Request(f"solve_global_distribution[{n_fit}]", fit_k0,
                        check=lambda d: oracles.check_fit(d, n_fit, None)))
    reqs.append(Request(
        f"solve_global_distribution[{n_fit},k0/2]",
        lambda traced: partition.solve_global_distribution(
            n_fit, state["k0"] // 2),
        check=lambda d: oracles.check_fit(d, n_fit, state["k0"] // 2)))
    reqs.append(Request(
        "solve_global_distribution[1000000]",
        lambda traced: partition.solve_global_distribution(10**6),
        check=lambda d: oracles.check_fit(d, 10**6, None)))
    reqs.append(Request(f"ncr_dimension1[{n_ncr}]",
                        lambda traced: partition.ncr_dimension1(n_ncr),
                        check=lambda v: oracles.check_ncr(v, n_ncr)))
    reqs.append(Request(
        "concentration_report",
        lambda traced: ensemble.concentration_report(
            spec, list(ENSEMBLE_N), ENSEMBLE_E),
        points=len(ENSEMBLE_N),
        check=lambda rep: oracles.check_concentration(
            spec.levels, ENSEMBLE_E, rep)))
    return reqs


# -------------------------------------------------------- cli commands

# name, arguments after the program name
CLI_REQUESTS = (
    ("threshold", ["threshold"]),
    ("partition", ["partition"]),
    ("zeno", ["zeno"]),
    ("compressibility", ["compressibility"]),
    ("critical", ["critical"]),
    ("isotherm", ["isotherm"]),
    ("jamming", ["jamming"]),
    ("ensemble", ["ensemble"]),
    ("reference", ["reference"]),
    ("partition_n2000", ["partition", "--n", "2000"]),
)

# the console-script entry point of the installed `zenoline` command
CLI_MAIN = "import sys; from zenoline.cli import main; sys.exit(main())"


@dataclass
class CliResult:
    stdout: str
    spans: Any = None  # the span aggregate of a traced request


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ZENOLINE_THREADS", None)
    return env


def run_cli(argv, traced):
    """One CLI request as its own process.  Traced requests go through
    the span shim, which prints its aggregate on standard error."""
    if traced:
        cmd = [sys.executable, str(SPANS_SHIM), "--", *argv]
    else:
        cmd = [sys.executable, "-c", CLI_MAIN, *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    result = CliResult(proc.stdout)
    last = proc.stderr.rstrip("\n").rpartition("\n")[2]
    if traced and last.startswith(spans.MARKER):
        result.spans = spans.from_json(last[len(spans.MARKER):])
    return result


def cli_commands(rng):
    """The nine subcommands at their defaults plus `partition --n 2000`,
    each its own process, in a seeded order."""
    order = list(CLI_REQUESTS)
    rng.shuffle(order)
    return [Request(f"cli.{name}",
                    lambda traced, a=argv: run_cli(a, traced),
                    check=lambda r, n=name: oracles.check_cli(n, r.stdout))
            for name, argv in order]


WORKLOADS = {
    "eos_isotherms": eos_isotherms,
    "scatter_scans": scatter_scans,
    "exact_counts": exact_counts,
    "cli_commands": cli_commands,
}


def build(name, seed):
    """The request list of workload ``name`` for ``seed``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
