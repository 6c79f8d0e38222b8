"""Every public callable of the library modules is reached by a
subcommand, or an allow-list says why it stays.

The golden-output invocations of ``test_cli`` and the console-script
invocations of CI run in-process through ``cli.main`` under
``sys.setprofile``, which records the code of every Python frame that
starts.  A function in a module's ``__all__`` is reached when its code
runs; a class is reached when any function defined on the class runs.
An unreached name must be on ALLOWED, and an allow-listed name must stay
unreached, so the list can neither grow silently nor go stale.
"""

import contextlib
import inspect
import io
import os
import sys

import pytest

import zenoline
from zenoline import (cli, curves, diagram, ensemble, partition, roots,
                      scatter, specfun)

import test_cli

MODULES = (diagram, ensemble, partition, scatter, specfun, curves, roots)

# the console-script step of .github/workflows/tests.yml, less --help:
# every subcommand at its defaults in both formats, then the named runs
CI_INVOCATIONS = [[*fmt, name] for name in cli._COMMANDS
                  for fmt in ((), ("--format", "json"))] + [line.split() for line in """
isotherm --mode imperfect --P-grid 0.05:0.95:0.05
--format json isotherm --mode imperfect --P-grid 0.05:0.95:0.05
critical --B 1e30
compressibility --potential morse
critical --potential morse
compressibility --potential buckingham
critical --potential buckingham
compressibility --potential generalized_lj
critical --potential generalized_lj
jamming --gamma0 0.9
jamming --mu-grid 0:-2:-0.05
reference --table substances
reference --table t-ratios
threshold --n 1
threshold --n 2
threshold --n 20000
ensemble --levels 1e-100,3e-100 --E 1.5e-100 --N-list 2
ensemble --levels 1000,1001 --E 1000.001 --N-list 2
ensemble --levels 1000,1001 --E 1000.9 --N-list 2
ensemble --levels 1,1e308,1.5e308 --E 1e308 --N-list 1,2,8
isotherm --mode imperfect --gamma0 1e-9 --P-grid 0.05:0.5:0.05
zeno --B-grid 5:1e15:5
""".strip().splitlines()]
# the exit codes CI checks for; every other invocation exits 0
CI_EXIT_CODES = {
    "ensemble --levels 1000,1001 --E 1000.001 --N-list 2": cli.EXIT_CONFIG,
    "ensemble --levels 1000,1001 --E 1000.9 --N-list 2": cli.EXIT_CONFIG,
    "ensemble --levels 1,1e308,1.5e308 --E 1e308 --N-list 1,2,8": cli.EXIT_CONFIG,
    "isotherm --mode imperfect --gamma0 1e-9 --P-grid 0.05:0.5:0.05":
        cli.EXIT_NUMERIC,
    "zeno --B-grid 5:1e15:5": cli.EXIT_RESOURCE,
}

_BENCHMARK = "bound by perfbench until the benchmark revision (ROADMAP item 5)"
ALLOWED = {
    "diagram.ideal_isotherm": f"{_BENCHMARK}; isotherm solves the identity "
                              "member with imperfect_isotherm itself",
    "diagram.reference_tables": f"{_BENCHMARK}; reference reads curves",
    "scatter.alpha_from_second_derivative":
        f"{_BENCHMARK}; the inflection route of criterion 5",
    "partition.build_partition_table":
        f"{_BENCHMARK}; the O(n^2) table goes with ROADMAP item 11",
    "partition.PartitionTable": "built only by build_partition_table (item 11)",
    "partition.solve_global_distribution":
        f"{_BENCHMARK}; a distribution subcommand or deletion is item 12",
    "partition.GlobalDistribution": "returned only by solve_global_distribution",
    "partition.ncr_dimension1": f"{_BENCHMARK}; item 12",
    "specfun.bose_integral": f"{_BENCHMARK}; item 12",
    "specfun.finite_n_integral": f"{_BENCHMARK}; item 12",
    "specfun.gamma_fn": "serves only the Bose integrals and the fit (item 12)",
    "specfun.BoseIntegralResult": f"{_BENCHMARK}; its evaluations are a span "
                                  "counter",
    "specfun.improper_quad": f"{_BENCHMARK}; the last scipy import",
    "diagram.bachinskii_density":
        "criterion 8, the paper's parabola; its subcommand is ROADMAP item 6",
    "scatter.alpha_from_first_derivative":
        "the public level function A(r), compared with the second-derivative "
        "route by criteria 5 and 6",
}


# a function compiled outside the package, such as the _replace that
# every namedtuple shares, proves no one class reached; the __new__ that
# namedtuple and the __init__ that dataclass generate per class are
# compiled from a string
_PACKAGE = os.path.dirname(zenoline.__file__) + os.sep


def _function_codes(obj):
    """The code objects of a function, or of the functions defined on a
    class (methods, class and static methods, property accessors)."""
    members = vars(obj).values() if inspect.isclass(obj) else (obj,)
    codes = set()
    for member in members:
        if isinstance(member, (classmethod, staticmethod)):
            member = member.__func__
        accessors = ((member.fget, member.fset, member.fdel)
                     if isinstance(member, property) else (member,))
        for f in accessors:
            code = getattr(inspect.unwrap(f), "__code__", None) if f else None
            if code and (code.co_filename == "<string>"
                         or code.co_filename.startswith(_PACKAGE)):
                codes.add(code)
    return codes


def public_codes():
    """{module.name: the code objects of it} over every callable in the
    ``__all__`` of MODULES."""
    return {f"{module.__name__.rpartition('.')[2]}.{name}":
            _function_codes(getattr(module, name))
            for module in MODULES for name in module.__all__
            if callable(getattr(module, name))}


def run_traced(invocations):
    """Run each argv through ``cli.main`` with its output discarded, and
    return the exit codes and the set of code objects that ran."""
    # a cached result would skip the code behind it in this run
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    started = set()

    def profile(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    previous = sys.getprofile()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            codes = [cli.main(list(argv)) for argv in invocations]
        finally:
            sys.setprofile(previous)
    return codes, started


@pytest.fixture(scope="module")
def traced():
    """The exit codes of the golden and the CI invocations, and the
    public names that none of them reached."""
    golden = [list(argv) for argv, _ in test_cli.TestGoldenOutput._DIGESTS]
    codes, started = run_traced(golden + CI_INVOCATIONS)
    unreached = {name for name, own in public_codes().items()
                 if not own & started}
    return codes[:len(golden)], codes[len(golden):], unreached


def test_invocations_exit_as_checked(traced):
    golden, ci, _ = traced
    assert golden == [cli.EXIT_OK] * len(golden)
    assert ci == [CI_EXIT_CODES.get(" ".join(argv), cli.EXIT_OK)
                  for argv in CI_INVOCATIONS]


def test_every_public_callable_is_reached_or_allowed(traced):
    _, _, names = traced
    assert sorted(names - set(ALLOWED)) == [], \
        "public callables that no subcommand reaches and ALLOWED does not list"


def test_allow_list_is_not_stale(traced):
    _, _, names = traced
    assert sorted(set(ALLOWED) - names) == [], \
        "ALLOWED lists names that a subcommand now reaches, or that are gone"
