"""Command-line front end.

Subcommands cover the curve tracers and tables of the library modules;
outputs are deterministic CSV or JSON files plus a sibling manifest
recording versions, the configuration hash, and the emitted quantities.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, diagram, ensemble, partition, scatter
from .curves import geomspace
from .errors import DomainError, ResourceError, ZenolineError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4

_POTENTIALS = {
    "lj": "lennard_jones",
    "lennard_jones": "lennard_jones",
    "generalized_lj": "generalized_lj",
    "morse": "morse",
    "buckingham": "buckingham",
}


def parse_grid(spec):
    """Parse 'lo:hi:step' into a strictly monotone list of floats."""
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise DomainError(f"grid must be lo:hi:step, got {spec!r}") from None
    if step == 0 or (hi - lo) * step < 0:
        raise DomainError(f"grid {spec!r} is empty or not monotone")
    cells = (hi - lo) / step
    # NaN or infinite bounds and steps, and spans that overflow
    if not all(map(math.isfinite, (lo, hi, step, cells))):
        raise DomainError(f"grid {spec!r} has a non-finite bound, step or size")
    return [lo + i * step for i in range(int(math.floor(cells + 1e-9)) + 1)]


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_csv(path, columns, rows):
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def write_json(path, columns, rows, meta=None):
    doc = {"columns": list(columns),
           "rows": [list(r) for r in rows]}
    if meta:
        doc["meta"] = meta
    _write(path, json.dumps(doc, indent=2, sort_keys=True, default=_fmt) + "\n")


def write_manifest(out_path, command, config, columns, n_rows):
    if out_path is None:
        return
    # only a run that writes a manifest pays for loading OpenSSL
    import hashlib

    canonical = json.dumps(config, sort_keys=True, default=str)
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        # the runtime is the standard library: no other package moves a number
        "versions": {"zenoline": __version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        "quantities": list(columns),
        "rows": n_rows,
    }
    with open(str(out_path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _potential(name):
    try:
        return scatter.PotentialSpec(family=_POTENTIALS[name])
    except KeyError:
        raise DomainError(f"unknown potential {name!r}") from None


def _cmd_zeno(cfg):
    curve = scatter.trace_zeno_analog(_potential(cfg["potential"]),
                                      parse_grid(cfg["B_grid"]))
    return curve.columns, curve.rows, curve.meta


def _cmd_compressibility(cfg):
    curve = scatter.compressibility_curve(
        _potential(cfg["potential"]), float(cfg["B"]), parse_grid(cfg["rho_grid"]))
    return curve.columns, curve.rows, curve.meta


def _cmd_critical(cfg):
    cs = scatter.critical_summary(_potential(cfg["potential"]), B=float(cfg["B"]))
    cols = ("Z_cr", "rho_cr_over_rho_B", "T_cr_over_T_B")
    return cols, [(cs.Z_cr, cs.rho_cr_over_rho_B, cs.T_cr_over_T_B)], \
        {k: v for k, v in cs.notes.items() if isinstance(v, (int, float, str))}


def _cmd_isotherm(cfg):
    grid = parse_grid(cfg["P_grid"])
    gamma0 = float(cfg["gamma0"])
    if cfg["mode"] == "ideal":
        pts = diagram.ideal_isotherm(grid, gamma0)
    elif cfg["mode"] == "imperfect":
        eos = diagram.solve_phi(gamma0, geomspace(1.02, 1000.0, 400))
        pts = diagram.imperfect_isotherm(grid, eos, gamma0)
    else:
        raise DomainError(f"unknown isotherm mode {cfg['mode']!r}")
    return ("P_r", "Z", "a", "T_r"), [tuple(p) for p in pts], {"mode": cfg["mode"]}


def _cmd_jamming(cfg):
    eos = diagram.FractalEos.identity(float(cfg["gamma0"]))
    curve = diagram.jamming_extension(
        parse_grid(cfg["mu_grid"]), eos, gamma0=float(cfg["gamma0"]),
        anchor_P=float(cfg["anchor_P"]), variant=cfg["variant"])
    meta = {k: v for k, v in curve.meta.items() if not isinstance(v, tuple)}
    return curve.columns, curve.rows, meta


def _cmd_partition(cfg):
    n = int(cfg["n"])
    row = partition.pk_row(n)
    return ("k", "p_k"), list(enumerate(row, start=1)), \
        {"n": n, "total": str(sum(row))}


def _cmd_threshold(cfg):
    th = partition.condensate_threshold(int(cfg["n"]))
    return ("n", "k0_exact", "k0_leading", "k0_two_term"), \
        [(th.n, th.k0_exact, th.k0_leading, th.k0_two_term)], {}


def _cmd_ensemble(cfg):
    levels = tuple(float(x) for x in str(cfg["levels"]).split(","))
    n_list = [int(x) for x in str(cfg["N_list"]).split(",")]
    rep = ensemble.concentration_report(
        ensemble.SpectrumSpec(levels), n_list, float(cfg["E"]))
    rows = [(e["N"], e["states"], e["outside_fraction"], e["band_halfwidth"])
            for e in rep["entries"]]
    return ("N", "states", "outside_fraction", "band_halfwidth"), rows, \
        {"b_E": rep["b_E"], "L0": rep["L0"],
         "trend_non_increasing": rep["trend_non_increasing"]}


def _cmd_reference(cfg):
    name = cfg["table"]
    if name == "rotation-angles":
        tables = diagram.reference_tables()["rotation_angles"]
        return ("V_threshold", "angle_rad"), list(tables), {}
    if name == "substances":
        subs = diagram.reference_tables()["substances"]
        rows = [(s, d["epsilon_K"], d["T_cr_quarter_K"], d["E_cr_eps_over_k"])
                for s, d in subs.items()]
        return ("substance", "epsilon_K", "T_cr_quarter_K", "E_cr_eps_over_k"), \
            rows, {}
    if name == "t-ratios":
        return ("T_cr_over_T_B",), [(v,) for v in diagram.T_CR_OVER_T_B_REFERENCES], {}
    raise DomainError(f"unknown reference table {name!r}")


# each subcommand: its handler, and the config keys it takes as flags;
# config key x_y is flag --x-y
_COMMANDS = {
    "zeno": (_cmd_zeno, ("potential", "B_grid")),
    "compressibility": (_cmd_compressibility, ("potential", "B", "rho_grid")),
    "critical": (_cmd_critical, ("potential", "B")),
    "isotherm": (_cmd_isotherm, ("P_grid", "gamma0", "mode")),
    "jamming": (_cmd_jamming, ("mu_grid", "gamma0", "anchor_P", "variant")),
    "partition": (_cmd_partition, ("n",)),
    "threshold": (_cmd_threshold, ("n",)),
    "ensemble": (_cmd_ensemble, ("levels", "N_list", "E")),
    "reference": (_cmd_reference, ("table",)),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="zenoline")
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--out", help="output file path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    sub = parser.add_subparsers(dest="command")
    for name, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(name)
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    return parser


_DEFAULTS = {
    "potential": "lj",
    "B": 100.0,
    "B_grid": "5:100:5",
    "rho_grid": "0.002:0.18:0.004",
    "P_grid": "0.05:1.0:0.05",
    "gamma0": 0.2,
    "mode": "ideal",
    "mu_grid": "0:-0.5:-0.01",
    "anchor_P": 2.5,
    "variant": "ode",
    "n": 100,
    "levels": "1,2,3,4",
    "N_list": "4,6,8",
    "E": 2.0,
    "table": "rotation-angles",
    "format": "csv",
}


def merge_config(args):
    """Layer defaults, then the config file, then explicit flags."""
    cfg = dict(_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise DomainError("config file must hold a JSON object")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key in ("config",):
            continue
        if value is not None:
            cfg[key] = value
    return cfg


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = merge_config(args)
        handler, _ = _COMMANDS[args.command]
        columns, rows, meta = handler(cfg)
    except ResourceError as exc:
        print(f"zenoline {args.command}: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ZenolineError as exc:
        code = EXIT_CONFIG if isinstance(exc, DomainError) else EXIT_NUMERIC
        print(f"zenoline {args.command}: {exc}", file=sys.stderr)
        return code
    out = cfg.get("out")
    if cfg.get("format", "csv") == "json":
        write_json(out, columns, rows, meta)
    else:
        write_csv(out, columns, rows)
    # the hash covers the scientific configuration, not the output path
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    write_manifest(out, args.command, hashed, columns, len(rows))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
