import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenoline
from zenoline import cli
from zenoline.errors import DomainError, SolverError


def _fresh_interpreter(code):
    """Run `code` in a new interpreter with the package on its path and
    return its standard output."""
    src = str(Path(zenoline.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    return proc.stdout


class TestParseGrid:
    def test_inclusive_endpoints(self):
        assert cli.parse_grid("1:3:1") == [1.0, 2.0, 3.0]
        assert cli.parse_grid("0:-0.2:-0.1") == pytest.approx([0.0, -0.1, -0.2])

    def test_fractional_step(self):
        grid = cli.parse_grid("0.5:1.0:0.25")
        assert grid == pytest.approx([0.5, 0.75, 1.0])

    def test_errors(self):
        for bad in ("1:2", "a:b:c", "1:2:0", "2:1:1", "nan:1:0.1", "1:nan:0.1",
                    "1:2:nan", "inf:1:-1", "1:inf:1", "0:1:inf",
                    "2:1e300:1e-300", "-1e308:1e308:1"):
            with pytest.raises(DomainError):
                cli.parse_grid(bad)


class TestWriters:
    def test_csv_float_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [(0.1 + 0.2, 1.0 / 3.0), (2.0 ** -52, 123456.789012345678)]
        cli.write_csv(str(path), ("a", "b"), rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        for row, line in zip(rows, lines[1:]):
            parsed = tuple(float(x) for x in line.split(","))
            assert parsed == row  # %.17g is lossless for doubles

    def test_json_document(self, tmp_path):
        path = tmp_path / "out.json"
        cli.write_json(str(path), ("x",), [(1.5,)], meta={"note": "n"})
        doc = json.loads(path.read_text())
        assert doc["columns"] == ["x"]
        assert doc["rows"] == [[1.5]]
        assert doc["meta"] == {"note": "n"}

    def test_manifest_content(self, tmp_path):
        path = tmp_path / "out.csv"
        cfg = {"n": 10, "x": 1.5}
        cli.write_manifest(str(path), "threshold", cfg, ("a", "b"), 3)
        man = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        canonical = json.dumps(cfg, sort_keys=True, default=str)
        assert man["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()
        assert man["quantities"] == ["a", "b"]
        assert man["rows"] == 3
        assert man["command"] == "threshold"
        # the runtime is the standard library, whatever this process loaded
        assert set(man["versions"]) == {"zenoline", "python"}
        # deterministic output: no clocks, hosts or paths
        assert not any("time" in k or "date" in k for k in man)


class TestMain:
    def test_threshold_to_stdout(self, capsys):
        assert cli.main(["threshold", "--n", "100"]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        assert header == "n,k0_exact,k0_leading,k0_two_term"
        assert row.split(",")[0] == "100"

    def test_partition_csv_and_manifest(self, tmp_path):
        out = tmp_path / "p.csv"
        assert cli.main(["--out", str(out), "partition", "--n", "8"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,p_k"
        assert len(lines) == 9
        assert sum(int(r.split(",")[1]) for r in lines[1:]) == 22  # p(8)
        man = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert man["rows"] == 8

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["zeno", "--potential", "lj", "--B-grid", "5:25:10"]
        assert cli.main(["--out", str(a)] + args) == 0
        assert cli.main(["--out", str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes()
        man_a = (tmp_path / "a.csv.manifest.json").read_bytes()
        man_b = (tmp_path / "b.csv.manifest.json").read_bytes()
        assert man_a == man_b

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 50}))
        assert cli.main(["--config", str(cfg), "threshold"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("50,")
        assert cli.main(["--config", str(cfg), "threshold", "--n", "60"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("60,")

    def test_json_format_flag(self, capsys):
        assert cli.main(["--format", "json", "reference", "--table",
                         "t-ratios"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["T_cr_over_T_B"]
        assert doc["rows"] == [[0.39], [2.79]]

    def test_reference_tables(self, capsys):
        assert cli.main(["reference", "--table", "substances"]) == 0
        out = capsys.readouterr().out
        assert "Ar" in out and "119.3" in out

    def test_ensemble_command(self, capsys):
        assert cli.main(["ensemble", "--levels", "1,2,3,4",
                         "--N-list", "4,6,8", "--E", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "N,states,outside_fraction,band_halfwidth"
        assert len(lines) == 4


class TestExitCodes:
    def test_no_command(self, capsys):
        assert cli.main([]) == cli.EXIT_CONFIG
        capsys.readouterr()

    def test_domain_error(self, capsys):
        assert cli.main(["zeno", "--potential", "yukawa"]) == cli.EXIT_CONFIG
        assert "unknown potential" in capsys.readouterr().err
        assert cli.main(["reference", "--table", "nope"]) == cli.EXIT_CONFIG
        capsys.readouterr()

    def test_non_finite_input(self, capsys):
        for argv, msg in (
                (["zeno", "--B-grid", "nan:1:0.1"], "non-finite bound"),
                (["zeno", "--B-grid", "2:1e300:1e-300"], "non-finite bound"),
                (["zeno", "--B-grid", "0:1:inf"], "non-finite bound"),
                (["compressibility", "--B", "nan"], "B must be >= 10"),
                (["compressibility", "--B", "inf"], "B must be >= 10"),
                (["critical", "--B", "inf"], "B must be finite, got inf"),
                (["critical", "--B", "nan"], "B must be finite, got nan"),
                (["compressibility", "--B", "1e200"],
                 "B = 1e+200 is too large: 8 B^6 overflows"),
                (["critical", "--B", "1e60"], "B = 1e+60 is too large"),
                (["zeno", "--B-grid", "5:1e308:1e308"],
                 "B = 1e+308 is too large: 8 B^6 overflows"),
                (["jamming", "--anchor-P", "nan"], "anchor pressure nan not beyond"),
                (["jamming", "--anchor-P", "inf"], "anchor pressure inf not beyond")):
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert msg in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["--config", str(bad), "threshold"]) == cli.EXIT_CONFIG
        capsys.readouterr()

    def test_resource_error(self, capsys):
        # the partition table cap trips the resource guard
        assert cli.main(["partition", "--n", "30000"]) == cli.EXIT_RESOURCE
        assert "resource guard" in capsys.readouterr().err

    def test_cell_cap_resource_error(self, capsys):
        # 7001^2 cells pass the n cap but not the cell cap
        assert cli.main(["partition", "--n", "7000"]) == cli.EXIT_RESOURCE
        assert "cells exceeds cap" in capsys.readouterr().err

    def test_partition_nonpositive_n(self, capsys):
        for n in ("0", "-3"):
            assert cli.main(["partition", "--n", n]) == cli.EXIT_CONFIG
        capsys.readouterr()

    def test_jamming_nonpositive_gamma0(self, capsys):
        for g in ("0", "-0.5"):
            assert cli.main(["jamming", "--gamma0", g]) == cli.EXIT_CONFIG
        assert "need gamma0 + 1 > 1" in capsys.readouterr().err

    def test_jamming_small_gamma0(self, capsys):
        # the analytic slope at mu = 0 takes zeta(gamma0 + 1) and its
        # derivative, finite for every gamma0 > 0; the trace jams at once
        for g in ("1e-15", "5e-5", "1e-4"):
            for variant in ("ode", "linear"):
                assert cli.main(["jamming", "--gamma0", g, "--variant", variant]) \
                    == cli.EXIT_OK
                rows = capsys.readouterr().out.splitlines()[1:]
                assert float(rows[0].split(",")[3]) == float(g)
                assert rows[1].split(",")[3] == "0"

    def test_isotherm_nonpositive_gamma0(self, capsys):
        # P = 1 (in the default grid) divides by zeta(gamma0 + 1)
        for g in ("0", "-0.5"):
            assert cli.main(["isotherm", "--gamma0", g]) == cli.EXIT_CONFIG
            assert "P = 1 needs gamma0 + 1 > 1" in capsys.readouterr().err

    def test_isotherm_negative_gamma0_below_unit_pressure(self, capsys):
        assert cli.main(["isotherm", "--gamma0", "-0.5",
                         "--P-grid", "0.1:0.5:0.1"]) == cli.EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 6

    def test_imperfect_isotherm_gamma0_outside_unit_interval(self, capsys):
        # the phi(V) trace needs 0 < gamma < 1
        for g in ("0", "1", "1.5", "3"):
            assert cli.main(["isotherm", "--mode", "imperfect", "--gamma0", g]) \
                == cli.EXIT_CONFIG
            assert f"0 < gamma < 1, got gamma={float(g)}" in capsys.readouterr().err

    def test_imperfect_isotherm_above_branch_top(self, capsys):
        # the default grid ends at P = 1.0, above the branch top
        assert cli.main(["isotherm", "--mode", "imperfect"]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "failed at P = 1.0" in err and "P_max = 0.989925" in err

    def test_isotherm_large_gamma0(self, capsys):
        # Li_402 at z <= 0.6 overflows k**s after a few terms
        assert cli.main(["isotherm", "--gamma0", "400"]) == cli.EXIT_OK
        capsys.readouterr()

    def test_numeric_error(self, capsys, monkeypatch):
        def boom(cfg):
            raise SolverError("synthetic solver failure")

        monkeypatch.setitem(cli._COMMANDS, "threshold", (boom, ()))
        assert cli.main(["threshold"]) == cli.EXIT_NUMERIC
        assert "synthetic solver failure" in capsys.readouterr().err


class TestCommandTable:
    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_default_run_succeeds(self, name, capsys):
        assert cli.main([name]) == cli.EXIT_OK
        assert capsys.readouterr().out

    def test_every_flag_has_a_default(self):
        keys = {k for _, flags in cli._COMMANDS.values() for k in flags}
        assert keys <= set(cli._DEFAULTS)

    # the numerical packages each run loads: none, since zeta, the
    # polylogarithms and the geomspace grid are pure Python
    _BUDGET = {
        "threshold": (["threshold"], []),
        "partition": (["partition"], []),
        "ensemble": (["ensemble"], []),
        "reference": (["reference"], []),
        "partition-n2000": (["partition", "--n", "2000"], []),
        "zeno": (["zeno"], []),
        "compressibility": (["compressibility"], []),
        "critical": (["critical"], []),
        "isotherm": (["isotherm"], []),
        "jamming": (["jamming"], []),
        "isotherm-imperfect": (
            ["isotherm", "--mode", "imperfect", "--P-grid", "0.1:0.3:0.1"], []),
    }

    def test_budget_covers_every_command(self):
        assert {argv[0] for argv, _ in self._BUDGET.values()} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv, expected", list(_BUDGET.values()),
                             ids=list(_BUDGET))
    def test_scipy_import_budget(self, argv, expected):
        # a fresh interpreter runs the command; the loaded packages are the
        # top-level numpy, scipy and mpmath and scipy's public subpackages
        # (scipy.special brings scipy's private helpers and scipy.version)
        code = ("import contextlib, io, json, sys; from zenoline import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main({argv!r})\n"
                "print(json.dumps([code, list(sys.modules)]))")
        code, modules = json.loads(_fresh_interpreter(code))
        assert code == cli.EXIT_OK
        parts = [m.split(".") for m in modules]
        loaded = {p[0] for p in parts if p[0] in ("numpy", "scipy", "mpmath")}
        loaded |= {"scipy." + p[1] for p in parts if p[0] == "scipy" and len(p) > 1
                   and not p[1].startswith("_") and p[1] != "version"}
        assert sorted(loaded) == expected

    @pytest.mark.parametrize("argv", [["threshold"], ["zeno"], ["isotherm"]],
                             ids=["threshold", "zeno", "isotherm"])
    def test_manifest_names_loaded_packages(self, argv, tmp_path):
        # a fresh-process manifest names neither numpy nor scipy
        out = tmp_path / "out.csv"
        _fresh_interpreter(
            f"import sys; from zenoline import cli; "
            f"sys.exit(cli.main({['--out', str(out)] + argv!r}))")
        versions = json.loads((tmp_path / "out.csv.manifest.json").read_text())[
            "versions"]
        assert not {"numpy", "scipy"} & set(versions)

    def test_flag_spelling(self):
        args = cli.build_parser().parse_args(
            ["jamming", "--mu-grid", "0:-0.1:-0.1", "--anchor-P", "3"])
        assert (args.mu_grid, args.anchor_P) == ("0:-0.1:-0.1", "3")
