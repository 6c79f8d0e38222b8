"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from zenoline import diagram, partition, scatter, specfun  # noqa: E402

COUNTS = ("specfun.quad.neval", "ensemble.states", "partition.cells")


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k in COUNTS}


@pytest.mark.parametrize("name", ["exact_counts", "scatter_scans"])
def test_traced_counts_repeat(name):
    first, _ = run.per_layer(workloads, name, 3, 0.0)
    second, _ = run.per_layer(workloads, name, 3, 0.0)
    assert _counts(first) == _counts(second)
    assert first["specfun.polylog.near1_calls"] == 0
    assert sum(_counts(first).values()) > 0


def _bindings():
    return [(owner, attr) for owner, attr, _, _ in spans.targets()]


def test_wrappers_removed_after_traced_run():
    before = {(o, a): o.__dict__[a] for o, a in _bindings()}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            for owner, attr in before:
                assert owner.__dict__[attr] is not before[(owner, attr)]
            assert diagram.polylog is specfun.polylog
            raise RuntimeError("leave the traced block by an exception")
    for (owner, attr), fn in before.items():
        assert owner.__dict__[attr] is fn
        assert not hasattr(fn, "__wrapped__")
    run.per_layer(workloads, "exact_counts", 5, 0.0)
    for (owner, attr), fn in before.items():
        assert owner.__dict__[attr] is fn


def test_self_time_with_overlapping_children():
    # parent [0, 10]; pool children [1, 5] and [3, 7] overlap; a grandchild
    # [2, 3] inside the first child; an unrelated root [20, 21]
    recorded = [
        (1, "parent", 0.0, 10.0, None, 1, None),
        (2, "child", 1.0, 5.0, 1, 1, None),
        (3, "child", 3.0, 7.0, 1, 1, None),
        (4, "grandchild", 2.0, 3.0, 2, 1, None),
        (5, "other", 20.0, 21.0, None, 5, None),
    ]
    selfs = spans.self_times(recorded)
    assert selfs == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0, 5: 1.0}
    agg = spans.aggregate(recorded)
    assert agg["calls"]["child"] == 2
    assert agg["self_s"]["child"] == 7.0


def test_pool_spans_parent_to_the_span_open_on_the_request_thread():
    pot = scatter.PotentialSpec("lennard_jones")
    tracer = spans.Tracer()
    with tracer:
        rid, start = tracer.begin_request()
        scatter.compressibility_curve(pot, 100.0, [0.01, 0.05, 0.09, 0.13])
        tracer.end_request(rid, start)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
    (curve,) = by_name["scatter.compressibility_curve"]
    pairs = by_name["scatter.stationary_pair"]
    assert len(pairs) == 4
    assert all(p[4] == curve[0] for p in pairs)
    selfs = spans.self_times(tracer.spans)
    assert 0.0 <= selfs[curve[0]] <= curve[3] - curve[2]


def test_oracles_reject_wrong_outputs():
    pts = diagram.ideal_isotherm([0.3, 0.7])
    oracles.check_ideal_points(pts)
    bad = [pts[0], pts[1]._replace(Z=pts[1].Z * (1.0 + 1e-9))]
    with pytest.raises(oracles.OracleError):
        oracles.check_ideal_points(bad)
    table = partition.build_partition_table(60, 60)
    oracles.check_partition_table(table)
    table._rows[3][60] += 1
    with pytest.raises(oracles.OracleError):
        oracles.check_partition_table(table)
    th = partition.condensate_threshold(60)
    with pytest.raises(oracles.OracleError):
        oracles.check_threshold(
            dataclasses.replace(th, k0_exact=th.k0_exact + 1), None)


def test_cli_output_checked_against_library():
    result = workloads.run_cli(["threshold"], traced=False)
    oracles.check_cli("threshold", result.stdout)
    header, row = result.stdout.splitlines()
    for wrong in (f"{header}\n{row.replace(',', ',1', 1)}\n",
                  f"{header.upper()}\n{row}\n"):
        with pytest.raises(oracles.OracleError):
            oracles.check_cli("threshold", wrong)


def test_traced_cli_child_reports_spans():
    result = workloads.run_cli(["ensemble"], traced=True)
    oracles.check_cli("ensemble", result.stdout)
    assert result.spans["calls"]["ensemble.enumerate_states"] == 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_counts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs():
    def names(seed):
        return [r.name for r in workloads.build("eos_isotherms", seed)]

    assert names(7) == names(7)
    assert names(7) != names(8)


def test_point_counts_do_not_grow_with_passes():
    passes = [run.Pass() for _ in range(3)]
    for p, failed in zip(passes, (1, 2, 1)):
        p.attempted, p.failed = 10, failed
    assert run.point_counts(passes[:1]) == (10, 1)
    assert run.point_counts(passes) == (10, 2)


def test_scatter_failures_do_not_move_with_the_seed():
    counts = {run.run_pass(workloads.build("scatter_scans", seed)).failed
              for seed in (1, 2, 3)}
    assert counts == {44}
