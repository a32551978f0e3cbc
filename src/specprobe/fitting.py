"""Log-log power-law fits, free of numpy.

``fit_power_law`` is the least-squares line through ``(log x, log y)``
that every scaling certificate reads its exponent from; ``gap_scaling``
applies it to the gaps of a list of eigenvalues.  Both take plain
sequences, so the command line fits a cached spectrum's eigenvalues
without loading numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

__all__ = ["PowerLawFit", "fit_power_law", "gap_scaling"]


class PowerLawFit(NamedTuple):
    """Least-squares fit of ``y = exp(log_intercept) * x**exponent``."""

    exponent: float
    log_intercept: float
    r_squared: float


def fit_power_law(
    points: Sequence[tuple[float, float]],
    window: tuple[int, int] | None = None,
) -> PowerLawFit:
    """Fit a power law through ``(x, y)`` pairs on log-log axes.

    ``window`` restricts the fit to the half-open index range
    ``[window[0], window[1])`` of the supplied sequence.  All used points
    must have positive coordinates and there must be at least five of them,
    at two distinct ``x`` at least.  The line is the centred least-squares
    one, its sums taken with ``math.fsum``.
    """
    try:
        pts = [(float(x), float(y)) for x, y in points]
    except (TypeError, ValueError):
        raise ValueError("points must be a sequence of (x, y) pairs") from None
    if window is None:
        i0, i1 = 0, len(pts)
    else:
        i0, i1 = int(window[0]), int(window[1])
        if not (0 <= i0 < i1 <= len(pts)):
            raise ValueError("window out of range")
    used = pts[i0:i1]
    n = len(used)
    if n < 5:
        raise ValueError("need at least five points to fit")
    if not all(0.0 < v < math.inf for point in used for v in point):
        raise ValueError("power-law fit needs positive finite points")
    lx = [math.log(x) for x, _ in used]
    ly = [math.log(y) for _, y in used]
    mean_x, mean_y = math.fsum(lx) / n, math.fsum(ly) / n
    dx = [v - mean_x for v in lx]
    dy = [v - mean_y for v in ly]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise ValueError("power-law fit needs two distinct x")
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    intercept = mean_y - slope * mean_x
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly))
    ss_tot = math.fsum(d * d for d in dy)
    if ss_tot <= 1e-30:
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return PowerLawFit(exponent=slope, log_intercept=intercept, r_squared=r_squared)


def gap_scaling(eigenvalues: Sequence[float], window: tuple[int, int] | None = None) -> PowerLawFit:
    """Power-law fit of consecutive eigenvalue gaps against the eigenvalue.

    ``window`` indexes the gaps: gap ``i`` is ``eigenvalues[i + 1] -
    eigenvalues[i]``, plotted at ``eigenvalues[i]``.
    """
    lams = [float(lam) for lam in eigenvalues]
    if len(lams) < 6:
        raise ValueError("need at least six levels to fit gap growth")
    return fit_power_law([(a, b - a) for a, b in zip(lams, lams[1:])], window)
