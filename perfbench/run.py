"""zenoline benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload eos_isotherms --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  A run repeats the workload's request list, one
request at a time, as often as fits in ``--seconds`` (at least once), and
checks every output against the oracles in ``oracles.py`` outside the
timed region.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it first repeats the list untraced for half the time, then
traced through the wrappers of ``spans.py`` for the rest, and prints the
per-layer metrics.  The last line of standard output is the result
object; the line before it records provenance.  A run whose outputs
fail an oracle exits 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
FLOOR_REPEATS = 3


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load():
    """Import the workloads from this checkout's sources, or exit."""
    if not (SRC / "zenoline" / "__init__.py").is_file():
        _fail(f"no zenoline sources under {SRC}")
    sys.path[:0] = [str(HERE), str(SRC)]
    os.environ.pop("ZENOLINE_THREADS", None)
    import workloads
    import zenoline

    if Path(zenoline.__file__).resolve().parent != SRC / "zenoline":
        _fail(f"imported zenoline from {zenoline.__file__}, not from {SRC}")
    return workloads


# --------------------------------------------------------------- timing


def _timed_process(cmd, env):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=170)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        _fail(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr[-300:]}")
    return elapsed, proc


def measure_setup(workloads, name, seed):
    """Median wall time of a fresh interpreter that imports zenoline and
    builds the workload's inputs."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "workloads.build(sys.argv[2], int(sys.argv[3]))")
    cmd = [sys.executable, "-c", code, str(HERE), name, str(seed)]
    env = workloads.child_env()
    return statistics.median(_timed_process(cmd, env)[0]
                             for _ in range(SETUP_REPEATS))


def import_floor(workloads):
    """cli.python_s, cli.import_s and the -X importtime split of scipy
    and mpmath, all from fresh interpreters."""
    env = workloads.child_env()
    bare = statistics.median(
        _timed_process([sys.executable, "-c", "pass"], env)[0]
        for _ in range(FLOOR_REPEATS))
    full = statistics.median(
        _timed_process([sys.executable, "-c", "import zenoline"], env)[0]
        for _ in range(FLOOR_REPEATS))
    _, proc = _timed_process(
        [sys.executable, "-X", "importtime", "-c", "import zenoline"], env)
    self_us = {"scipy": 0, "mpmath": 0}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s*\|\s*\d+\s*\|\s*(\S+)", line)
        if m:
            top = m.group(2).split(".")[0]
            if top in self_us:
                self_us[top] += int(m.group(1))
    return {"cli.python_s": bare, "cli.import_s": full - bare,
            "cli.import.scipy_s": self_us["scipy"] * 1e-6,
            "cli.import.mpmath_s": self_us["mpmath"] * 1e-6}


# --------------------------------------------------------------- passes


class Pass:
    """Outcome of one pass over the request list."""

    def __init__(self):
        self.latency = {}
        self.attempted = 0
        self.failed = 0
        self.spans = None

    @property
    def wall(self):
        return sum(self.latency.values())


def run_pass(requests, tracer=None):
    import oracles
    import spans

    out = Pass()
    if tracer is not None:
        out.spans = spans.empty()
    for req in requests:
        gc.collect()  # start each request from the same collector state
        if tracer is not None:
            rid, t_req = tracer.begin_request()
        t0 = time.perf_counter()
        try:
            result, error = req.call(tracer is not None), None
        except Exception as exc:  # noqa: BLE001 - a raising request is a failed point
            result, error = None, exc
        out.latency[req.name] = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_request(rid, t_req)
            spans.merge(out.spans, tracer.drain())
            child = getattr(result, "spans", None)
            if child is not None:
                spans.merge(out.spans, child)
        out.attempted += req.points
        if error is not None:
            out.failed += req.points
            continue
        out.failed += req.failures(result)
        try:
            req.check(result)
        except oracles.OracleError as exc:
            print(f"perfbench: {req.name}: wrong output: {exc}", file=sys.stderr)
            raise
        finally:
            if tracer is not None:
                tracer.spans.clear()  # calls the oracles made are not the workload's
        del result
    return out


def point_counts(passes):
    """Attempted and failed points of a run.  Every pass solves the same
    points again, so the run attempts one pass's points, and a point
    counts as failed when it failed in any pass (the worst pass).  This
    keeps both counts independent of how many passes fit in the run."""
    return passes[0].attempted, max(p.failed for p in passes)


def run_for(requests, seconds, tracer=None):
    """At least one pass, and further passes while the next one, as long
    as the last, would end within `seconds`."""
    passes, start = [], time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(run_pass(requests, tracer))
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            return passes


# -------------------------------------------------------------- metrics


def end_to_end(workloads, name, seed, seconds):
    setup = measure_setup(workloads, name, seed)
    passes = run_for(workloads.build(name, seed), seconds)
    who = resource.RUSAGE_CHILDREN if name == "cli_commands" \
        else resource.RUSAGE_SELF
    attempted, failed = point_counts(passes)
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(p.wall for p in passes),
        "job_p50_s": statistics.median(
            t for p in passes for t in p.latency.values()),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    return metrics, passes


def per_layer(workloads, name, seed, seconds):
    import spans

    requests = workloads.build(name, seed)
    plain = run_for(requests, seconds / 2.0)
    tracer = spans.Tracer()
    with tracer:
        traced = run_for(requests, seconds / 2.0, tracer)
    first = traced[0].spans
    calls, counters = first["calls"], first["counters"]

    def self_s(*names):
        return statistics.median(sum(p.spans["self_s"].get(n, 0.0) for n in names)
                             for p in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    quad_calls = sum(calls.get(n, 0) for n in spans.QUAD_SPANS)
    enum_incl = statistics.median(
        p.spans["incl_s"].get("ensemble.enumerate_states", 0.0) for p in traced)
    m = {
        "specfun.polylog.calls": calls.get("specfun.polylog", 0),
        "specfun.polylog.series_calls": counters.get(
            "specfun.polylog.series_calls", 0),
        "specfun.polylog.near1_calls": counters.get(
            "specfun.polylog.near1_calls", 0),
        "specfun.polylog.self_s": self_s("specfun.polylog"),
        "specfun.polylog.p50_us": spans.p50_us(
            first["durations"].get("specfun.polylog", [])),
        "specfun.quad.calls": quad_calls,
        "specfun.quad.neval": counters.get("specfun.quad.neval", 0),
        "specfun.quad.self_s": self_s(*spans.QUAD_SPANS),
        "specfun.riemann_zeta.calls": calls.get("specfun.riemann_zeta", 0),
        "diagram.solve_phi.self_s": self_s("diagram.solve_phi"),
        "diagram.solve_phi.polylog_calls": counters.get(
            "diagram.solve_phi.polylog_calls", 0),
        "diagram.ideal_isotherm.self_s": self_s("diagram.ideal_isotherm"),
        "diagram.imperfect_isotherm.self_s": self_s("diagram.imperfect_isotherm"),
        "diagram.inv_phi.calls": calls.get("diagram.inv_phi", 0),
        "diagram.polylog_per_point": ratio(
            counters.get("diagram.isotherm_polylog_calls", 0),
            counters.get("diagram.isotherm_points", 0)),
        "diagram.jamming_extension.self_s": self_s("diagram.jamming_extension"),
        "diagram.jamming_extension.polylog_calls": counters.get(
            "diagram.jamming_extension.polylog_calls", 0),
        "scatter.stationary_pair.calls": calls.get("scatter.stationary_pair", 0),
        "scatter.stationary_pair.self_s": self_s("scatter.stationary_pair"),
        "scatter.stationary_pair.p50_us": spans.p50_us(
            first["durations"].get("scatter.stationary_pair", [])),
        "scatter.zeno_condition_root.calls": calls.get(
            "scatter.zeno_condition_root", 0),
        "scatter.zeno_condition_root.self_s": self_s(
            "scatter.zeno_condition_root"),
        "scatter.critical_summary.self_s": self_s("scatter.critical_summary"),
        "scatter.point_failures": counters.get("scatter.point_failures", 0),
        "partition.build_partition_table.self_s": self_s(
            "partition.build_partition_table"),
        "partition.cells": counters.get("partition.cells", 0),
        "partition.condensate_threshold.self_s": self_s(
            "partition.condensate_threshold"),
        "partition.solve_global_distribution.self_s": self_s(
            "partition.solve_global_distribution"),
        "partition.quad_per_fit": ratio(
            counters.get("partition.fit_quad_calls", 0),
            calls.get("partition.solve_global_distribution", 0)),
        "ensemble.enumerate_states.self_s": self_s("ensemble.enumerate_states"),
        "ensemble.states": counters.get("ensemble.states", 0),
        "ensemble.states_per_s": ratio(counters.get("ensemble.states", 0),
                                       enum_incl),
    }
    floor = import_floor(workloads) if name == "cli_commands" else {}
    for key in ("cli.python_s", "cli.import_s", "cli.import.scipy_s",
                "cli.import.mpmath_s"):
        m[key] = floor.get(key, 0.0)
    for cmd, _ in workloads.CLI_REQUESTS:
        m[f"cli.{cmd}.wall_s"] = statistics.median(
            p.latency.get(f"cli.{cmd}", 0.0) for p in plain)
    m["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                             - statistics.median(p.wall for p in plain))
    both = plain + traced
    attempted, failed = point_counts(both)
    m["fail_frac"] = failed / attempted
    return m, both


# ----------------------------------------------------------- provenance


def provenance(seed):
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [l.split(":", 1)[1].strip() for l in fh
                     if l.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "zenoline").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def declared(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = _load()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")
    import oracles

    units = declared(args.trace)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, passes = measure(workloads, args.workload, args.seed,
                                  args.seconds)
    except oracles.OracleError:
        return 1
    if set(metrics) != set(units):
        _fail(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
              "measured and declared in BENCHMARK.json")
    attempted, failed = point_counts(passes)
    shown = {**metrics, "fail_frac": failed / attempted}
    for key, value in shown.items():
        print(f"{key:44s} {value!r} {units.get(key, 'ratio')}")
    print(json.dumps({"provenance": provenance(args.seed),
                      "workload": args.workload, "passes": len(passes),
                      "requests_per_pass": len(passes[0].latency)}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
