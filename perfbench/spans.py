"""Span tracer for the benchmark's traced runs.

Wrappers are installed from outside the package, around the public
functions of each zenoline module and at every name another module
bound them under (``diagram.polylog`` is the same function as
``specfun.polylog``).  Each call records a span: name, start, end,
parent span, request id and optional counters.  ``uninstall`` puts the
original objects back, so untraced timings never pass through a wrapper.

Run as a script, this module is the shim for traced CLI requests:

    python3 perfbench/spans.py -- partition --n 2000

installs the wrappers, runs ``zenoline.cli.main`` on the arguments,
and prints the span aggregate as the last line of standard error,
prefixed by ``MARKER``.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

MARKER = "PERFBENCH-SPANS "

# span names whose per-call durations are kept, for the p50 metrics
_KEEP_DURATIONS = ("specfun.polylog", "scatter.stationary_pair")
# the QUADPACK entry points, reported together as specfun.quad
QUAD_SPANS = ("specfun.bose_integral", "specfun.finite_n_integral",
              "specfun.improper_quad")


# Counter functions receive the call's arguments and its result, which
# is None when the call raised.

def _polylog_branch(args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return {"specfun.polylog.near1_calls" if z > 0.6
            else "specfun.polylog.series_calls": 1}


def _quad_evals(args, kwargs, result):
    if result is None:
        return None
    return {"specfun.quad.neval": result.evaluations}


def _table_cells(args, kwargs, result):
    if result is None:
        return None
    return {"partition.cells": (result.n_max + 1) * (result.k_max + 1)}


def _census_states(args, kwargs, result):
    if result is None:
        return None
    return {"ensemble.states": result.states}


def _curve_failures(args, kwargs, result):
    if result is None:
        return None
    return {"scatter.point_failures": len(result.meta["failures"])}


def _isotherm_points(args, kwargs, result):
    # attempted points, so that a raising call still counts its grid
    return {"diagram.isotherm_points": len(args[0])}


def targets():
    """(owner, attribute, span name, counter function) for every wrapped
    binding.  Imported lazily so that importing this module does not
    import zenoline."""
    from zenoline import diagram, ensemble, partition, scatter, specfun

    polylog = ("specfun.polylog", _polylog_branch)
    zeta = ("specfun.riemann_zeta", None)
    return [
        (specfun, "polylog") + polylog,
        (diagram, "polylog") + polylog,
        (specfun, "riemann_zeta") + zeta,
        (diagram, "riemann_zeta") + zeta,
        (specfun, "bose_integral", "specfun.bose_integral", _quad_evals),
        (specfun, "finite_n_integral", "specfun.finite_n_integral", _quad_evals),
        (specfun, "improper_quad", "specfun.improper_quad", _quad_evals),
        (diagram, "solve_phi", "diagram.solve_phi", None),
        (diagram, "ideal_isotherm", "diagram.ideal_isotherm", _isotherm_points),
        (diagram, "imperfect_isotherm", "diagram.imperfect_isotherm",
         _isotherm_points),
        (diagram, "jamming_extension", "diagram.jamming_extension", None),
        (diagram.FractalEos, "inv_phi", "diagram.inv_phi", None),
        (scatter, "trace_zeno_analog", "scatter.trace_zeno_analog",
         _curve_failures),
        (scatter, "compressibility_curve", "scatter.compressibility_curve",
         _curve_failures),
        (scatter, "critical_summary", "scatter.critical_summary", None),
        (scatter, "stationary_pair", "scatter.stationary_pair", None),
        (scatter, "zeno_condition_root", "scatter.zeno_condition_root", None),
        (partition, "build_partition_table", "partition.build_partition_table",
         _table_cells),
        (partition, "condensate_threshold", "partition.condensate_threshold",
         None),
        (partition, "solve_global_distribution",
         "partition.solve_global_distribution", None),
        (ensemble, "enumerate_states", "ensemble.enumerate_states",
         _census_states),
    ]


class Tracer:
    """Collects spans of wrapped calls.

    Spans opened on a thread other than the one that began the request
    (the pool threads of ``scatter``) are parented to the innermost span
    open on the request's thread, so they may overlap each other.
    """

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, request, counters)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_stack = None
        self._installed = []
        self.request = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counters):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._request_stack:
                parent = tracer._request_stack[-1]
            else:
                parent = tracer.request
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = counters(args, kwargs, result) if counters else None
                tracer.spans.append((sid, name, start, end, parent,
                                     tracer.request, extra))

        return functools.wraps(fn)(wrapper)

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        originals = {}
        for owner, attr, name, counters in targets():
            fn = owner.__dict__[attr]
            # one binding site per function object keeps a single wrapper
            wrapped = originals.get(id(fn))
            if wrapped is None:
                wrapped = originals[id(fn)] = self._wrap(fn, name, counters)
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def begin_request(self):
        """Open a request span on the calling thread."""
        rid = next(self._ids)
        self.request = rid
        self._request_stack = self._stack()
        return rid, time.perf_counter()

    def end_request(self, rid, start, name="request"):
        self.spans.append((rid, name, start, time.perf_counter(), None, rid, None))
        self.request = None
        self._request_stack = None

    def drain(self):
        """Aggregate the recorded spans and forget them."""
        spans, self.spans = self.spans, []
        return aggregate(spans)


def _union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by the union of its child spans."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _union_length(children.get(sid, ()), start, end)
            for sid, _, start, end, _, _, _ in spans}


# (metric, ancestor span names, counted span names): counts spans of the
# counted names that have one of the ancestors above them
_NESTED_COUNTS = (
    ("diagram.solve_phi.polylog_calls", ("diagram.solve_phi",),
     ("specfun.polylog",)),
    ("diagram.jamming_extension.polylog_calls", ("diagram.jamming_extension",),
     ("specfun.polylog",)),
    ("diagram.isotherm_polylog_calls",
     ("diagram.ideal_isotherm", "diagram.imperfect_isotherm"),
     ("specfun.polylog",)),
    ("partition.fit_quad_calls", ("partition.solve_global_distribution",),
     QUAD_SPANS),
)


def aggregate(spans):
    """Reduce spans to mergeable sums: per-name calls and self time,
    summed counters, kept durations and ancestor-based counts."""
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    agg = empty()
    for sid, name, start, end, parent, _, extra in spans:
        agg["calls"][name] += 1
        agg["self_s"][name] += selfs[sid]
        agg["incl_s"][name] += end - start
        if name in _KEEP_DURATIONS:
            agg["durations"][name].append(end - start)
        if extra:
            for key, value in extra.items():
                agg["counters"][key] += value
        for metric, ancestors, counted in _NESTED_COUNTS:
            if name not in counted:
                continue
            p = parent
            while p is not None and p in by_id:
                if by_id[p][1] in ancestors:
                    agg["counters"][metric] += 1
                    break
                p = by_id[p][4]
    return agg


def merge(total, part):
    """Add the aggregate ``part`` into ``total`` in place."""
    for key in ("calls", "self_s", "counters", "incl_s"):
        for name, value in part[key].items():
            total[key][name] += value
    for name, values in part["durations"].items():
        total["durations"][name].extend(values)
    return total


def empty():
    return {"calls": defaultdict(int), "self_s": defaultdict(float),
            "counters": defaultdict(int), "durations": defaultdict(list),
            "incl_s": defaultdict(float)}


def to_json(agg):
    return json.dumps({k: dict(v) for k, v in agg.items()})


def from_json(text):
    raw = json.loads(text)
    agg = empty()
    for key, values in raw.items():
        agg[key].update(values)
    return agg


def p50_us(durations):
    return statistics.median(durations) * 1e6 if durations else 0.0


def _cli_child(argv):
    """Run the zenoline CLI under the tracer; report spans on stderr."""
    from zenoline import cli

    tracer = Tracer()
    with tracer:
        rid, start = tracer.begin_request()
        try:
            code = cli.main(argv)
        finally:
            tracer.end_request(rid, start)
    sys.stdout.flush()
    sys.stderr.write("\n" + MARKER + to_json(tracer.drain()) + "\n")
    return code


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--"]:
        args = args[1:]
    sys.exit(_cli_child(args))
