"""Sampled-curve container and grid shared by all tracers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = ["PhaseCurve", "linspace", "geomspace"]


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


@dataclass
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

    columns: tuple
    rows: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        for row in self.rows:
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
