import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zenoline
from zenoline import cli, scatter
from zenoline.errors import DomainError, ResourceError, SolverError

import oracles


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

    def test_size_cap(self):
        # the cap is checked on the cell count, before a list is built
        assert len(cli.parse_grid(f"0:{cli._GRID_CAP - 1}:1")) == cli._GRID_CAP
        for spec in ("5:100:1e-300", "5:1e15:5", f"0:{cli._GRID_CAP}:1"):
            with pytest.raises(ResourceError, match=re.escape(
                    f"grid {spec!r} has more than {cli._GRID_CAP} points")):
                cli.parse_grid(spec)


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

    def test_manifest_hashes_the_parsed_settings(self, tmp_path):
        # the hash covers the values the handler receives: a flag equal to
        # the default, another command's key in the config file and the
        # output format leave it as it is
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"B": 50.0}))

        def config_hash(*argv):
            out = tmp_path / "out"
            assert cli.main(["--out", str(out)] + list(argv)) == cli.EXIT_OK
            return json.loads((tmp_path / "out.manifest.json").read_text())[
                "config_hash"]

        same = {config_hash("threshold"), config_hash("threshold", "--n", "100"),
                config_hash("--config", str(cfg), "threshold"),
                config_hash("--format", "json", "threshold")}
        assert len(same) == 1
        assert config_hash("threshold", "--n", "101") not in same

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
        assert cli.main(["isotherm", "--mode", "foo"]) == cli.EXIT_CONFIG
        assert "unknown isotherm mode 'foo'" in capsys.readouterr().err

    def test_non_finite_input(self, capsys):
        for argv, msg in (
                (["zeno", "--B-grid", "nan:1:0.1"], "non-finite bound"),
                (["zeno", "--B-grid", "2:1e300:1e-300"], "non-finite bound"),
                (["zeno", "--B-grid", "0:1:inf"], "non-finite bound"),
                (["compressibility", "--B", "nan"], "B must be >= 10"),
                (["compressibility", "--B", "inf"], "B must be >= 10"),
                (["critical", "--B", "inf"], "B must be finite and exceed 1, got inf"),
                (["critical", "--B", "nan"], "B must be finite and exceed 1, got nan"),
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_out(self, fmt, tmp_path, capsys):
        # a missing directory, a directory, and a manifest path that is a
        # directory: a diagnostic and exit 2, not a traceback
        (tmp_path / "x.csv.manifest.json").mkdir()
        for out, path, reason in (
                (tmp_path / "missing" / "x.csv", tmp_path / "missing" / "x.csv",
                 "No such file or directory"),
                (tmp_path, tmp_path, "Is a directory"),
                (tmp_path / "x.csv", tmp_path / "x.csv.manifest.json",
                 "Is a directory")):
            argv = ["--out", str(out), "--format", fmt, "threshold"]
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == \
                f"zenoline threshold: cannot write {path}: {reason}\n"

    def test_resource_error(self, capsys):
        # the partition table cap trips the resource guard
        assert cli.main(["partition", "--n", "30000"]) == cli.EXIT_RESOURCE
        assert "resource guard" in capsys.readouterr().err

    def test_grid_cap_resource_error(self, capsys):
        # every --*-grid flag is held to the point cap
        for argv in (["zeno", "--B-grid", "5:1e15:5"],
                     ["compressibility", "--rho-grid", "0.002:0.18:1e-300"],
                     ["isotherm", "--P-grid", "1e-300:1:1e-300"],
                     ["jamming", "--mu-grid", "0:-1:-1e-12"]):
            assert cli.main(argv) == cli.EXIT_RESOURCE
            assert capsys.readouterr().err == (
                f"zenoline {argv[0]}: resource guard: grid {argv[2]!r} has "
                f"more than {cli._GRID_CAP} points\n")

    def test_cell_cap_resource_error(self, capsys):
        # 7001^2 cells pass the n cap but not the cell cap
        assert cli.main(["partition", "--n", "7000"]) == cli.EXIT_RESOURCE
        assert "cells exceeds cap" in capsys.readouterr().err

    def test_threshold_n_cap_resource_error(self, capsys):
        # the streamed threshold scan is held to the n cap
        assert cli.main(["threshold", "--n", "20001"]) == cli.EXIT_RESOURCE
        assert "resource guard" in capsys.readouterr().err

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

    def test_critical_large_B(self, capsys):
        # at B = 1e30 each radius is solved on its cell next to r*, and the
        # critical pair is the crossings of A = alpha nearest r* (mpmath)
        for family in scatter._FAMILIES:
            assert cli.main(["critical", "--B", "1e30", "--potential", family]) \
                == cli.EXIT_OK
            pot = scatter.PotentialSpec(family)
            summary = scatter.critical_summary(pot, B=1e30)
            row = capsys.readouterr().out.splitlines()[1]
            assert float(row.split(",")[0]) == summary.Z_cr
            r_star, a_star = summary.notes["r_star"], summary.notes["alpha_star"]
            alpha = a_star * summary.rho_cr_over_rho_B
            pair = scatter.stationary_pair(scatter.ScatterProblem(pot, 1e30, alpha))
            roots = oracles.level_roots_mpmath(pot, 1e30, alpha, r_max=20.0)
            assert pair.r_lo == pytest.approx(
                max(r for r in roots if r < r_star), rel=1e-13, abs=0.0)
            assert pair.r_hi == pytest.approx(
                min(r for r in roots if r > r_star), rel=1e-13, abs=0.0)

    def test_ensemble_wide_spectrum(self, capsys):
        # the Gibbs bracket probe b = -1 weighs level 1000 by e^999
        assert cli.main(["ensemble", "--levels", "1,1000", "--E", "999.9",
                         "--N-list", "2"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].startswith("2,2,")

    def test_ensemble_tiny_levels(self, capsys):
        # E sits 1e-9 of the level gap above the lowest level; the mean
        # residual in the scale-free variable does not cancel there, so
        # the band half-width is mpmath's 16628164.3793876026 to 1.2e-15
        assert cli.main(["ensemble", "--levels",
                         "3.3724499869913306e-59,5.565576033258947e-59",
                         "--E", "3.3724499891844564e-59", "--N-list", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "2,3,0,16628164.379387582"

    def test_ensemble_non_finite_levels(self, capsys):
        for levels in ("1,inf", "1,nan,3"):
            assert cli.main(["ensemble", "--levels", levels, "--E", "2",
                             "--N-list", "2"]) == cli.EXIT_CONFIG
            assert "all levels must be finite" in capsys.readouterr().err

    def test_ensemble_weight_sum_overflow(self, capsys):
        # b_E < 0 solves the mean, but e^(-b_E lambda) overflows at the top
        assert cli.main(["ensemble", "--levels", "1000,1001", "--E", "1000.9",
                         "--N-list", "2"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "overflows at b_E = -2.197" in err and "level 1001.0" in err

    def test_ensemble_budget_overflow(self, capsys):
        # the Gibbs solve and L0 succeed, but the budget N*E of N = 2
        # overflows, and the error names N, E and the product
        assert cli.main(["ensemble", "--levels", "1,1e308,1.5e308", "--E", "1e308",
                         "--N-list", "1,2,8"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == ("zenoline ensemble: energy budget N*E "
                                           "overflows: N = 2, E = 1e+308, N*E = inf\n")

    def test_ensemble_weight_sum_underflow(self, capsys):
        # b_E = 6.9 solves the mean, but L0 ~ e^-6907 underflows
        assert cli.main(["ensemble", "--levels", "1000,1001", "--E", "1000.001",
                         "--N-list", "2"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "underflows to 0 at b_E = 6.906" in err and "level 1000.0" in err

    @pytest.mark.parametrize("argv", [
        ["partition", "--n", "abc"],
        ["partition", "--n", "1e3"],
        ["threshold", "--n", "1.5"],
        ["isotherm", "--gamma0", "abc"],
        ["critical", "--B", "abc"],
        ["jamming", "--anchor-P", "abc"],
        ["ensemble", "--levels", "a,b"],
        ["ensemble", "--N-list", "x"],
    ], ids=" ".join)
    def test_malformed_number(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{argv[1]} takes " in err and f"values, got {argv[2]!r}" in err

    @pytest.mark.parametrize("command, config, flag", [
        ("zeno", {"B_grid": 5}, "--B-grid"),
        ("isotherm", {"P_grid": ["0.1:0.5:0.1"]}, "--P-grid"),
        ("threshold", {"n": 100.5}, "--n"),
        ("threshold", {"n": True}, "--n"),
        ("critical", {"B": [100.0]}, "--B"),
        ("threshold", {"format": "xml"}, "--format"),
        ("threshold", {"out": 1}, "--out"),
        ("critical", {"potential": ["lj"]}, "potential"),
        ("threshold", {"nn": 5}, "nn"),
        ("threshold", [1], "must hold a JSON object"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, (dict, list)) else v)
    def test_config_values_checked_as_flags(self, command, config, flag,
                                             tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg), command]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    def test_config_key_of_another_command(self, tmp_path, capsys):
        # one config file can serve several subcommands
        assert cli.main(["threshold"]) == 0
        expect = capsys.readouterr().out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"B": 50.0}))
        assert cli.main(["--config", str(cfg), "threshold"]) == 0
        assert capsys.readouterr().out == expect

    def test_numeric_error(self, capsys, monkeypatch):
        def boom(cfg):
            raise SolverError("synthetic solver failure")

        monkeypatch.setitem(cli._COMMANDS, "threshold", (boom, ()))
        assert cli.main(["threshold"]) == cli.EXIT_NUMERIC
        assert "synthetic solver failure" in capsys.readouterr().err


# extreme flag values of all nine subcommands: each run ends in one of
# the exit codes, never in an exception
EXTREME_INVOCATIONS = [line.split() for line in """
zeno --B-grid 1e51:1e51:1
zeno --potential buckingham --B-grid 1.0000001:1.0000002:0.0000001
zeno --B-grid 1e-300:1e-299:1e-300
compressibility --B 1e51
compressibility --rho-grid 0:1e6:1e5
compressibility --B 10 --rho-grid 1e-300:2e-300:1e-300
critical --B 1e30
critical --B 1.0000001
isotherm --gamma0 -0.99
isotherm --gamma0 1e300
isotherm --gamma0 1e-300
isotherm --P-grid 1e-300:2e-300:1e-300
isotherm --mode imperfect --gamma0 0.999999
isotherm --mode imperfect --gamma0 1e-300
jamming --gamma0 1e-300
jamming --gamma0 1e300
jamming --anchor-P 1e308
jamming --variant linear --mu-grid 0:-1e300:-1e299
partition --n 30000
partition --n 1
threshold --n 20001
threshold --n 1
ensemble --levels 1e-100,3e-100 --E 1.5e-100 --N-list 2
ensemble --levels 1000,1001 --E 1000.001 --N-list 2
ensemble --levels 1,1.0000000001 --E 1.00000000005 --N-list 5
ensemble --levels 1e300,2e300 --E 1.5e300 --N-list 2
ensemble --N-list 0
reference --table nope
""".strip().splitlines()]


@pytest.mark.parametrize("argv", EXTREME_INVOCATIONS, ids=" ".join)
def test_extreme_flag_values_exit_by_design(argv, capsys):
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC,
                              cli.EXIT_RESOURCE)
    capsys.readouterr()


def test_extreme_invocations_cover_every_subcommand():
    assert {argv[0] for argv in EXTREME_INVOCATIONS} == set(cli._COMMANDS)


class TestPotentialNames:
    # each scatter command, with grids cut short to keep the runs cheap
    _SCATTER_RUNS = [["zeno", "--B-grid", "5:100:95"],
                     ["compressibility", "--rho-grid", "0.002:0.18:0.089"],
                     ["critical"]]

    @pytest.mark.parametrize("family", list(scatter._FAMILIES))
    @pytest.mark.parametrize("argv", _SCATTER_RUNS, ids=lambda argv: argv[0])
    def test_every_family_accepted(self, argv, family, capsys):
        assert cli.main(argv + ["--potential", family]) == cli.EXIT_OK
        assert capsys.readouterr().out

    @pytest.mark.parametrize("argv", _SCATTER_RUNS, ids=lambda argv: argv[0])
    def test_lj_is_lennard_jones(self, argv, capsys):
        outputs = []
        for name in ("lj", "lennard_jones"):
            assert cli.main(argv + ["--potential", name]) == cli.EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", _SCATTER_RUNS, ids=lambda argv: argv[0])
    def test_unknown_name_rejected(self, argv, tmp_path, capsys):
        # a name no family has, and a list where a config file gives a name
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"potential": ["lj"]}))
        for run in (argv + ["--potential", "yukawa"], ["--config", str(config)] + argv):
            assert cli.main(run) == cli.EXIT_CONFIG
            assert "unknown potential" in capsys.readouterr().err


def test_console_script_is_main():
    tomllib = pytest.importorskip("tomllib")
    root = Path(zenoline.__file__).resolve().parent.parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["zenoline"]
    assert target == "zenoline.cli:main"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


class TestCommandTable:
    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_default_run_succeeds(self, name, capsys):
        assert cli.main([name]) == cli.EXIT_OK
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [[name] for name in cli._COMMANDS]
        + [["isotherm", "--mode", "imperfect", "--P-grid", "0.05:0.95:0.05"]],
        ids=list(cli._COMMANDS) + ["isotherm-imperfect"])
    def test_json_matches_csv(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_OK
        header, *lines = capsys.readouterr().out.splitlines()
        assert cli.main(["--format", "json"] + argv) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == header.split(",")
        assert len(doc["rows"]) == len(lines)
        for line, row in zip(lines, doc["rows"]):
            cells = line.split(",")
            assert len(row) == len(cells)
            for cell, value in zip(cells, row):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    assert cell == str(value)
                elif isinstance(value, int):
                    assert int(cell) == value
                else:
                    assert float(cell) == value

    def test_every_flag_has_a_default(self):
        keys = {k for _, flags in cli._COMMANDS.values() for k in flags}
        assert keys <= set(cli._DEFAULTS)

    # what each run loads.  No numerical package: zeta, the
    # polylogarithms and the geomspace grid are pure Python.  Of
    # zenoline, the front end and the one library module the command
    # computes with; dataclasses only for CondensateThreshold in
    # partition; json only for --format json, --config and a manifest.
    _FRONT = {"zenoline", "zenoline.cli", "zenoline.curves", "zenoline.errors",
              "zenoline.records", "zenoline.roots"}
    _SCATTER = _FRONT | {"zenoline.scatter"}
    _DIAGRAM = _FRONT | {"zenoline.diagram", "zenoline.specfun"}
    _PARTITION = _FRONT | {"zenoline.partition"}
    _ENSEMBLE = _FRONT | {"zenoline.ensemble"}
    # the reference tables are constants of curves
    _REFERENCE = {"zenoline", "zenoline.cli", "zenoline.curves", "zenoline.errors"}
    # name: (argv, numerical packages, zenoline modules, dataclasses, json)
    _BUDGET = {
        "threshold": (["threshold"], [], _PARTITION, True, False),
        "partition": (["partition"], [], _PARTITION, True, False),
        "ensemble": (["ensemble"], [], _ENSEMBLE, False, False),
        "reference": (["reference"], [], _REFERENCE, False, False),
        "partition-n2000": (["partition", "--n", "2000"], [], _PARTITION,
                            True, False),
        "zeno": (["zeno"], [], _SCATTER, False, False),
        "compressibility": (["compressibility"], [], _SCATTER, False, False),
        "critical": (["critical"], [], _SCATTER, False, False),
        "isotherm": (["isotherm"], [], _DIAGRAM, False, False),
        "jamming": (["jamming"], [], _DIAGRAM, False, False),
        "isotherm-imperfect": (
            ["isotherm", "--mode", "imperfect", "--P-grid", "0.1:0.3:0.1"], [],
            _DIAGRAM, False, False),
    }

    def test_budget_covers_every_command(self):
        assert {case[0][0] for case in self._BUDGET.values()} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv, expected, package, dataclasses, json_",
                             list(_BUDGET.values()), ids=list(_BUDGET))
    def test_scipy_import_budget(self, argv, expected, package, dataclasses,
                                 json_):
        # a fresh interpreter runs the command, with nothing imported
        # beyond the interpreter's start-up before it; the loaded packages
        # are the top-level numpy, scipy and mpmath and scipy's public
        # subpackages (scipy.special brings scipy's private helpers and
        # scipy.version)
        code = ("import io, sys\n"
                "before = set(sys.modules)\n"
                "from zenoline import cli\n"
                "sys.stdout = io.StringIO()\n"
                f"code = cli.main({argv!r})\n"
                "sys.stdout = sys.__stdout__\n"
                "print(code, *sorted(set(sys.modules) - before))")
        code, *modules = _fresh_interpreter(code).split()
        assert int(code) == cli.EXIT_OK
        parts = [m.split(".") for m in modules]
        loaded = {p[0] for p in parts if p[0] in ("numpy", "scipy", "mpmath")}
        loaded |= {"scipy." + p[1] for p in parts if p[0] == "scipy" and len(p) > 1
                   and not p[1].startswith("_") and p[1] != "version"}
        assert sorted(loaded) == expected
        assert {m for m in modules if m.split(".")[0] == "zenoline"} == package
        assert ("dataclasses" in modules) == dataclasses
        assert ("json" in modules) == json_

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


class TestGoldenOutput:
    """The stdout of fixed invocations, pinned by sha256.

    A change that is not meant to move a number leaves every digest as
    it is.  A deliberate move of digits updates this table in its own
    change and says so.  The floats come from this interpreter's
    CPython and the C library's libm, so the digests hold for the
    platform they were computed on (CPython 3.11, glibc x86-64), as
    the pinned samples of ``test_diagram.py::test_samples_unchanged``
    do.
    """

    _DIGESTS = [
        (("zeno",),
         "89572bece3b4ab2d81f6a5f31d687be28903da5593c486f1f093554d38eb6a59"),
        (("compressibility",),
         "ecb49541c131219033695829705bc2f566a45e205daafca0e3e5500cf02a66bd"),
        (("critical",),
         "b36ec7913ef8f28a96b3c1d6e5e4b98a42b1540bc8f96b9743a7730fa045bf2d"),
        (("isotherm",),
         "f9c757b4627b2d97a555c734672149247d5bf14504e0ccd489db8e4325bbc74f"),
        (("jamming",),
         "3127ba1e717a2e74119212abdd6594b5df36fdef84ac782a7a6c055ab0b307dd"),
        (("partition",),
         "f5309cadcdb7e7547b06ae403ee0d984c098389aaad10c572c9dc2d8ee8104e1"),
        (("threshold",),
         "49ae2af2cc7f08a9384d79324f935ad1539a2795ed282bfd047ae64c6a5c4ffa"),
        (("ensemble",),
         "02f147ab2a73960a80321dc6b12b0371bb551d1a862fe1822c417290f3296d6f"),
        (("reference",),
         "0ccbcbc7d41d463554c72885fff26a5ef733fad5a487b5d19af1d42519446db2"),
        (("partition", "--n", "2000"),
         "b50c70639cf7e4524890d8ce1b025fff6179704f96955b8eec76c0997b768760"),
        (("threshold", "--n", "2000"),
         "5c25c0808e48c72eda21cb92091ffa9720296a7872cecafa90e4c17749b2bf94"),
        (("isotherm", "--mode", "imperfect", "--P-grid", "0.05:0.95:0.05"),
         "02cc825256be22d4ae047480c46a3e6a79ffbbecff917c49bd5f84074b7656ff"),
        (("isotherm", "--P-grid", "0.001:0.6:0.001"),
         "8bdf860cdbc8327313a46ad5c8677b68a59a41d172ea87145bd4158c1fc270b7"),
        (("jamming", "--variant", "linear"),
         "2df2d198390ce827d233d7b5c1f7af20908cbfc9c6e93ad7c0e5e604446e49f3"),
        (("zeno", "--potential", "morse"),
         "f7b2d323d270e27751f8095c2414a1e2a3da0eeaf1c8e6a0a0b8d77d8597d5e6"),
        (("compressibility", "--potential", "morse"),
         "23cf6309a45b06276d5c7108db381c2371dccc66dc66dd0c1f1189f3bf4d8533"),
        (("critical", "--potential", "morse"),
         "209328148db86ca9a2c0f4bdb71ca2b587c0da6c90a2f2c967c3abbe0ad0b6f9"),
        (("zeno", "--potential", "buckingham"),
         "dac464f991a6de799da9c795a616490f28036582a84216857b8753f7393d0072"),
        (("compressibility", "--potential", "buckingham"),
         "aa5a0de043e11e0c2c2d32e2e846284f8f622ed3f6ec815c504ef8ebc4b0803e"),
        (("critical", "--potential", "buckingham"),
         "8413282ec17bc1545616fbe471c5833df1de4135f15d528ab118913277af7171"),
        (("zeno", "--potential", "generalized_lj"),
         "89572bece3b4ab2d81f6a5f31d687be28903da5593c486f1f093554d38eb6a59"),
        (("compressibility", "--potential", "generalized_lj"),
         "ecb49541c131219033695829705bc2f566a45e205daafca0e3e5500cf02a66bd"),
        (("critical", "--potential", "generalized_lj"),
         "b36ec7913ef8f28a96b3c1d6e5e4b98a42b1540bc8f96b9743a7730fa045bf2d"),
    ]

    @pytest.mark.parametrize("argv, digest", _DIGESTS,
                             ids=[" ".join(a) for a, _ in _DIGESTS])
    def test_stdout_digest(self, argv, digest, capsys):
        assert cli.main(list(argv)) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
