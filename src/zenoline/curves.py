"""Sampled-curve container and grids shared by all tracers, and the
bundled reference tables: the ratios that both diagram and scatter
report, the rotation angles and the substance data."""

from __future__ import annotations

import math
from types import MappingProxyType

from .errors import DomainError

__all__ = ["PhaseCurve", "linspace", "geomspace", "T_CR_OVER_T_B_REFERENCES",
           "ROTATION_ANGLES", "SUBSTANCES"]

# the reference critical-temperature ratios T_cr/T_B, which the
# `reference` table lists and `critical_summary` notes beside its own
T_CR_OVER_T_B_REFERENCES = (0.39, 2.79)

# rotation angles (radians) applied to the reduced-volume bands
ROTATION_ANGLES = ((0.30, 0.049), (0.25, 0.052), (0.20, 0.058), (0.17, 0.066))

# per-substance reference data: well depth (K), quarter critical
# temperature (K), and the critical-energy estimate in the same units
SUBSTANCES = MappingProxyType({
    "Ne": {"epsilon_K": 36.3, "T_cr_quarter_K": 11.0, "E_cr_eps_over_k": 10.5},
    "Ar": {"epsilon_K": 119.3, "T_cr_quarter_K": 37.0, "E_cr_eps_over_k": 35.0},
    "Kr": {"epsilon_K": 171.0, "T_cr_quarter_K": 52.0, "E_cr_eps_over_k": 50.0},
    "N2": {"epsilon_K": 95.9, "T_cr_quarter_K": 31.0, "E_cr_eps_over_k": 28.0},
    "CH4": {"epsilon_K": 148.2, "T_cr_quarter_K": 47.0, "E_cr_eps_over_k": 43.0},
    "C2H6": {"epsilon_K": 243.0, "T_cr_quarter_K": 76.0, "E_cr_eps_over_k": 70.0},
})


def linspace(start, stop, num):
    """num evenly spaced floats from start to stop, by numpy's linspace
    arithmetic: start + i * step with step = (stop - start) / (num - 1),
    and the last point set to stop."""
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def geomspace(start, stop, num):
    """num floats from start to stop in geometric progression, for
    0 < start, stop, by numpy's geomspace arithmetic: 10^y over the
    ``linspace`` of log10(start) to log10(stop), with both ends set to
    start and stop.  log10 and the power are the C library's; numpy
    builds that take them from SIMD kernels (AVX-512) can differ by one
    ulp at some interior points."""
    if not (start > 0 and stop > 0):
        raise DomainError(f"geomspace needs positive ends, got {start}, {stop}")
    logs = linspace(math.log10(start), math.log10(stop), num)
    return [start] + [10.0**y for y in logs[1:-1]] + [stop]


class PhaseCurve:
    """An ordered list of sampled points with metadata.

    Parameters
    ----------
    columns : tuple of str
        Names of the per-point values, first entry is the independent
        variable.
    rows : list of tuple
        One tuple per sample, same length as ``columns``.
    meta : dict
        Free-form provenance (grids, per-point failures, settings).
    """

    __slots__ = ("columns", "rows", "meta")

    def __init__(self, columns, rows, meta=None):
        self.columns = tuple(columns)
        self.rows = rows
        self.meta = {} if meta is None else meta
        for row in rows:
            if len(row) != len(self.columns):
                raise DomainError(
                    f"row of width {len(row)} does not match columns {self.columns}"
                )

    def __len__(self):
        return len(self.rows)

    def column(self, name):
        """Return one named column as a list of floats."""
        try:
            j = self.columns.index(name)
        except ValueError:
            raise DomainError(f"no column {name!r} in {self.columns}") from None
        return [float(row[j]) for row in self.rows]
