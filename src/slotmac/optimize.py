"""Small derivative-free minimizers used by the solvers.

The objectives here are cheap, smooth on the open unit interval, and can
have more than one dip, so the strategy everywhere is the blunt one: a
dense scan to find the right neighborhood, then golden-section search on
the bracket around the best grid point.

The dense scan can be screened.  ``scan_then_golden`` then evaluates a
vectorized ``screen`` of the objective on the whole grid in one call, and
the exact scalar objective only at the grid points whose screened value is
within ``SCREEN_SLACK`` of the screened minimum, and inside the
golden-section polish.  Every number returned still comes from the scalar
objective, and the result equals the unscreened one whenever the screen is
within SCREEN_SLACK / 2 of f at every grid point: each grid minimizer of f
is then kept, so the first-index tie rule and the bracket come out the
same.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
SCREEN_SLACK = 1e-9  # absolute; a screen must be within half of it of f


def golden_section(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Minimize f on [lo, hi], assuming a single minimum inside.

    Shrinks the bracket until it is narrower than tol (finite, positive)
    or a step no longer narrows it, and returns the best point evaluated
    along the way, so a flat-bottomed f still comes back with a
    trustworthy value.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    check_tol(tol)
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    while b - a > tol:
        width = b - a
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        x, fx = (c, fc) if fc <= fd else (d, fd)
        if fx < best_f:
            best_x, best_f = x, fx
        if b - a >= width:
            break
    return best_x, best_f


def check_tol(tol: float) -> None:
    """Reject a tolerance no search can stop at: zero, negative or not finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def scan_then_golden(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    points: int,
    tol: float = 1e-12,
    screen: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, float]:
    """Evaluate f on an inclusive uniform grid, then refine the minimum by
    golden-section search on the bracket around the best grid point; ties
    go to the first grid point.

    With a ``screen`` (f vectorized over an array of grid points), f itself
    is evaluated only where the screen is within SCREEN_SLACK of its
    minimum; the result is the unscreened one if |screen - f| <
    SCREEN_SLACK / 2 on the grid.
    """
    if points < 2:
        raise ValueError("need at least two grid points")
    step = (hi - lo) / (points - 1)
    xs = [lo + i * step for i in range(points)]
    if screen is None:
        near = range(points)
    else:
        screened = screen(np.array(xs))
        near = np.flatnonzero(screened <= screened.min() + SCREEN_SLACK).tolist()
    values = {j: f(xs[j]) for j in near}
    i = min(near, key=values.__getitem__)
    a = xs[i - 1] if i > 0 else xs[i]
    b = xs[i + 1] if i < points - 1 else xs[i]
    if a == b:
        return xs[i], values[i]
    x, fx = golden_section(f, a, b, tol)
    if values[i] < fx:
        return xs[i], values[i]
    return x, fx
