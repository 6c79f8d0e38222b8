"""The package runs on the Python standard library alone.

numpy, scipy, mpmath and hypothesis are test and benchmark dependencies.
The one import outside the standard library is scipy.integrate inside
``specfun.improper_quad``.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import zenoline

SRC = Path(zenoline.__file__).resolve().parent
ROOT = SRC.parent.parent

# (module file, enclosing function, imported module)
ALLOWED = {("specfun.py", "improper_quad", "scipy.integrate")}


def _imports(tree):
    """(enclosing function or None, absolute module name) for every
    import statement at any depth; relative imports are left out."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Import):
            found.extend((func, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((func, node.module))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_imports_are_standard_library():
    outside = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, module in _imports(tree):
            if module.split(".")[0] not in sys.stdlib_module_names:
                outside.add((path.name, func, module))
    assert outside == ALLOWED


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_runs_without_site_packages():
    """A ``python -S`` interpreter has no site-packages, so it cannot
    import numpy or scipy: every command at its defaults, the imperfect
    isotherm below its branch top and ``PhaseCurve.column`` must run in
    it."""
    code = (
        "import contextlib, importlib.util, io, json, sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "from zenoline import cli, scatter\n"
        "runs = [[name] for name in cli._COMMANDS]\n"
        "runs.append(['isotherm', '--mode', 'imperfect', "
        "'--P-grid', '0.1:0.9:0.1'])\n"
        "codes = {}\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes[' '.join(argv)] = cli.main(argv)\n"
        "curve = scatter.trace_zeno_analog(scatter.PotentialSpec("
        "'lennard_jones'), [5.0, 10.0])\n"
        "print(json.dumps({'codes': codes, 'alpha': curve.column('alpha'),\n"
        "    'missing': [m for m in ('numpy', 'scipy')\n"
        "                if importlib.util.find_spec(m) is None]}))\n")
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, check=True,
                          timeout=300)
    out = json.loads(proc.stdout)
    assert out["missing"] == ["numpy", "scipy"]
    assert len(out["codes"]) == 10
    assert set(out["codes"].values()) == {0}, out["codes"]
    alpha = out["alpha"]
    assert len(alpha) == 2 and alpha[0] < alpha[1]
