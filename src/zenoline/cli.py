"""Command-line front end.

Subcommands cover the curve tracers and tables of the library modules;
outputs are deterministic CSV or JSON files plus a sibling manifest
recording versions, the configuration hash, and the emitted quantities.
Each handler imports the one library module it computes with, so a run
loads no other; `reference` prints constant tables and loads none.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .curves import (ROTATION_ANGLES, SUBSTANCES, T_CR_OVER_T_B_REFERENCES,
                     geomspace)
from .errors import DomainError, ResourceError, ZenolineError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4

_ALIASES = {"lj": "lennard_jones"}  # any other --potential is a family name

# the most points a --*-grid flag may ask for
_GRID_CAP = 1_000_000


def parse_grid(spec):
    """Parse 'lo:hi:step' into a strictly monotone list of floats; a grid
    of more than _GRID_CAP points raises ResourceError."""
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
    # checked before the list is built: a tiny step can ask for ~1e17 points
    if cells + 1e-9 >= _GRID_CAP:
        raise ResourceError(f"grid {spec!r} has more than {_GRID_CAP} points")
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
    import json

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
    import json

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
    from . import scatter

    try:
        return scatter.PotentialSpec(family=_ALIASES.get(name, name))
    except (DomainError, TypeError):
        raise DomainError(f"unknown potential {name!r}") from None


def _cmd_zeno(cfg):
    from . import scatter

    curve = scatter.trace_zeno_analog(_potential(cfg["potential"]),
                                      parse_grid(cfg["B_grid"]))
    return curve.columns, curve.rows, curve.meta


def _cmd_compressibility(cfg):
    from . import scatter

    curve = scatter.compressibility_curve(
        _potential(cfg["potential"]), cfg["B"], parse_grid(cfg["rho_grid"]))
    return curve.columns, curve.rows, curve.meta


def _cmd_critical(cfg):
    from . import scatter

    cs = scatter.critical_summary(_potential(cfg["potential"]), B=cfg["B"])
    cols = ("Z_cr", "rho_cr_over_rho_B", "T_cr_over_T_B")
    return cols, [(cs.Z_cr, cs.rho_cr_over_rho_B, cs.T_cr_over_T_B)], \
        {k: v for k, v in cs.notes.items() if isinstance(v, (int, float, str))}


def _cmd_isotherm(cfg):
    from . import diagram

    grid, gamma0 = parse_grid(cfg["P_grid"]), cfg["gamma0"]
    if cfg["mode"] == "ideal":
        eos = diagram.FractalEos.identity(gamma0)
    elif cfg["mode"] == "imperfect":
        eos = diagram.solve_phi(gamma0, geomspace(1.02, 1000.0, 400))
    else:
        raise DomainError(f"unknown isotherm mode {cfg['mode']!r}")
    pts = diagram.imperfect_isotherm(grid, eos, gamma0)
    return ("P_r", "Z", "a", "T_r"), [tuple(p) for p in pts], {"mode": cfg["mode"]}


def _cmd_jamming(cfg):
    from . import diagram

    eos = diagram.FractalEos.identity(cfg["gamma0"])
    curve = diagram.jamming_extension(
        parse_grid(cfg["mu_grid"]), eos, gamma0=cfg["gamma0"],
        anchor_P=cfg["anchor_P"], variant=cfg["variant"])
    meta = {k: v for k, v in curve.meta.items() if not isinstance(v, tuple)}
    return curve.columns, curve.rows, meta


def _cmd_partition(cfg):
    from . import partition

    row = partition.pk_row(cfg["n"])
    return ("k", "p_k"), list(enumerate(row, start=1)), \
        {"n": cfg["n"], "total": str(sum(row))}


def _cmd_threshold(cfg):
    from . import partition

    th = partition.condensate_threshold(cfg["n"])
    return ("n", "k0_exact", "k0_leading", "k0_two_term"), \
        [(th.n, th.k0_exact, th.k0_leading, th.k0_two_term)], {}


def _cmd_ensemble(cfg):
    from . import ensemble

    rep = ensemble.concentration_report(
        ensemble.SpectrumSpec(cfg["levels"]), cfg["N_list"], cfg["E"])
    rows = [(e["N"], e["states"], e["outside_fraction"], e["band_halfwidth"])
            for e in rep["entries"]]
    return ("N", "states", "outside_fraction", "band_halfwidth"), rows, \
        {"b_E": rep["b_E"], "L0": rep["L0"],
         "trend_non_increasing": rep["trend_non_increasing"]}


def _cmd_reference(cfg):
    # constant tables, read from curves, so no library module is loaded
    name = cfg["table"]
    if name == "rotation-angles":
        return ("V_threshold", "angle_rad"), list(ROTATION_ANGLES), {}
    if name == "substances":
        rows = [(s, d["epsilon_K"], d["T_cr_quarter_K"], d["E_cr_eps_over_k"])
                for s, d in SUBSTANCES.items()]
        return ("substance", "epsilon_K", "T_cr_quarter_K", "E_cr_eps_over_k"), \
            rows, {}
    if name == "t-ratios":
        return ("T_cr_over_T_B",), [(v,) for v in T_CR_OVER_T_B_REFERENCES], {}
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


# the type of each numeric config key; levels and N_list are comma-separated
_NUMBERS = {"B": float, "gamma0": float, "anchor_P": float, "E": float,
            "n": int, "levels": float, "N_list": int}


def _parse_numbers(cfg, keys):
    """The values of `keys` in cfg, the numeric ones parsed from their
    text, as a flag's are; a malformed one, or a grid that is not text,
    raises DomainError naming the flag and the value."""
    parsed = {key: cfg[key] for key in keys}
    for key in keys:
        value, flag = cfg[key], "--" + key.replace("_", "-")
        if key.endswith("_grid") and not isinstance(value, str):
            raise DomainError(f"{flag} takes a lo:hi:step string, got {value!r}")
        if key not in _NUMBERS:
            continue
        kind, text = _NUMBERS[key], str(value)
        try:
            parsed[key] = [kind(x) for x in text.split(",")] \
                if key in ("levels", "N_list") else kind(text)
        except ValueError:
            raise DomainError(f"{flag} takes {kind.__name__} values, "
                              f"got {value!r}") from None
    return parsed


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
    "gamma0": 0.2,  # diagram.GAMMA0, stated here so as not to load diagram
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
        import json

        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise DomainError("config file must hold a JSON object")
        # a key of another subcommand is accepted, so one file serves several
        unknown = sorted(set(loaded) - set(_DEFAULTS) - {"out"})
        if unknown:
            raise DomainError(f"config file has unknown key(s) {unknown}")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            cfg[key] = value
    if cfg["format"] not in ("csv", "json"):
        raise DomainError(f"--format takes csv or json, got {cfg['format']!r}")
    if not isinstance(cfg.get("out"), (str, type(None))):
        raise DomainError(f"--out takes a path, got {cfg['out']!r}")
    return cfg


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = merge_config(args)
        handler, keys = _COMMANDS[args.command]
        settings = _parse_numbers(cfg, keys)
        columns, rows, meta = handler(settings)
    except ResourceError as exc:
        print(f"zenoline {args.command}: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ZenolineError as exc:
        code = EXIT_CONFIG if isinstance(exc, DomainError) else EXIT_NUMERIC
        print(f"zenoline {args.command}: {exc}", file=sys.stderr)
        return code
    out = cfg.get("out")
    try:
        if cfg["format"] == "json":
            write_json(out, columns, rows, meta)
        else:
            write_csv(out, columns, rows)
        # the hash covers exactly the settings the handler received, parsed
        write_manifest(out, args.command, settings, columns, len(rows))
    except OSError as exc:
        if out is None:  # standard output, not a path the configuration named
            raise
        print(f"zenoline {args.command}: cannot write {exc.filename or out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
