"""Brent's bracketing root finder, and the growth of an open bracket end.

R. P. Brent, *Algorithms for Minimization without Derivatives* (1973),
ch. 4, in the form of scipy's C ``brentq``: inverse quadratic
extrapolation, secant interpolation or bisection on a sign-change
bracket.  The port keeps scipy's iterate arithmetic, sign tests, swaps
and argument checks step for step, so it returns the same float as
``scipy.optimize.brentq`` on the same problem without loading scipy.
Its failures are the package's own: BracketError (a ValueError) and
SolverError (a RuntimeError), each opening with scipy's wording and
then naming the bracket, f at its ends and the iteration reached, so
no caller has to translate them.
"""

from __future__ import annotations

import math

from .errors import BracketError, SolverError

__all__ = ["brentq", "grow_end"]

# scipy's defaults: xtol 2e-12, rtol 4 * float64 eps, 100 iterations
_RTOL = 4.0 * 2.0**-52


def _failure(cls, head, a, b, fa, fb, k, tail=""):
    """cls with scipy's wording ``head``, then [a, b], f at the ends
    (fb None where f(b) was not reached) and the iteration k."""
    ends = f"f(a) = {fa!r}" + ("" if fb is None else f", f(b) = {fb!r}")
    return cls(f"{head} On [a, b] = [{a!r}, {b!r}], {ends}; iteration {k}{tail}.")


def _nan_value(x, a, b, fa, fb, k):
    return _failure(BracketError, f"The function value at x={x} is NaN; "
                    "solver cannot continue.", a, b, fa, fb, k)


def brentq(f, a, b, xtol=2e-12, rtol=_RTOL, maxiter=100, *, fa=None, fb=None):
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Stops when the bracket is narrower than xtol + rtol |x| or f is
    exactly 0, and returns a float.  Raises ValueError for xtol <= 0 or
    rtol < 4 eps, BracketError for a bracket without a sign change or a
    NaN value of f, and SolverError after maxiter iterations.  Each opens
    with scipy's message, then names [a, b], f at its ends and the
    iteration; the SolverError also the x that iteration ended at and f
    there.

    ``fa`` and ``fb`` are f(a) and f(b) where the caller already has
    them; f is then not called there.  They pass the same NaN and sign
    checks as computed values, and the iterates are the same, so the
    same float comes back.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    a = xpre = float(a)
    b = xcur = float(b)
    fa = fpre = float(f(xpre) if fa is None else fa)
    if fpre != fpre:
        raise _nan_value(xpre, a, b, fa, None, 0)
    fb = fcur = float(f(xcur) if fb is None else fb)
    if fcur != fcur:
        raise _nan_value(xcur, a, b, fa, fb, 0)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # every value compared by sign below is neither 0 nor NaN, so its sign
    # is the result of a comparison with 0
    if (fpre < 0) == (fcur < 0):
        raise _failure(BracketError, "f(a) and f(b) must have different signs.",
                       a, b, fa, fb, 0)
    xblk = fblk = spre = scur = 0.0
    for k in range(1, maxiter + 1):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # the tolerance is 2 delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to inf or NaN here, which fails the step test
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _nan_value(xcur, a, b, fa, fb, k)
    raise _failure(SolverError, f"Failed to converge after {maxiter} iterations.",
                   a, b, fa, fb, maxiter,
                   f" ended at x = {xcur!r}, f(x) = {fcur!r}")


def grow_end(f, x, sign):
    """(x, f(x)) at the first of x, 2x, 4x, ..., x 2^200 where f has the
    sign of ``sign``: the far end of a bracket around a root at unknown
    distance, with the value that `brentq` takes as ``fa`` or ``fb``.  A
    zero of f (f may be flat in floats) does not stop the growth, but is
    returned as a root at the last end; any other value there raises
    SolverError."""
    fx = f(x)
    for _ in range(200):
        if fx * sign > 0:
            return x, fx
        x *= 2.0
        fx = f(x)
    if not fx * sign >= 0:
        raise SolverError(f"no sign change in 200 doublings: f({x!r}) = {fx!r}")
    return x, fx
