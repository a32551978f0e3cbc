"""Truncated channel kernels of the propagator.

The level-L channel kernel is

    K(t, r, s) = sum_{l <= L} exp(-i lam_l t) f_l(r) f_l(s),

with real normalized eigenfunctions.  The full radial kernel carries the
additional weight (r s)^(-(d-1)/2), exported alongside the raw values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "kernel_matrix",
    "gram_matrix",
    "parseval_check",
    "export_kernel_grid",
]


# grid columns per block of the Gram matrix's sum
_COLUMN_BLOCK = 1024


def _check_cap(table, level_cap: int) -> None:
    count = len(table.eigenvalues)
    if not (0 <= level_cap < count):
        raise ValueError(
            f"truncation level {level_cap} outside the solved range 0..{count - 1}"
        )


def kernel_matrix(table, t: float, radii: Sequence[float], level_cap: int) -> np.ndarray:
    """Kernel matrix over a set of grid radii at one time; only the samples
    at those radii are read."""
    _check_cap(table, level_cap)
    f = table.block([table.grid.index_of(r) for r in radii], slice(level_cap + 1))
    phases = np.exp(-1j * table.eigenvalues[: level_cap + 1] * t)
    return (f.T * phases) @ f


def gram_matrix(table, level_cap: int) -> np.ndarray:
    """Simpson-weighted Gram matrix of the first ``level_cap + 1`` levels,
    summed over blocks of ``_COLUMN_BLOCK`` grid columns, so that one block
    of samples is held at a time."""
    _check_cap(table, level_cap)
    weights = table.grid.simpson_weights
    g = np.zeros((level_cap + 1, level_cap + 1))
    for start in range(0, table.grid.n_points, _COLUMN_BLOCK):
        columns = slice(start, start + _COLUMN_BLOCK)
        f = table.block(columns, slice(level_cap + 1))
        g += (f * weights[columns]) @ f.T
    return g


def parseval_check(table, level_cap: int) -> float:
    """Double integral of |K(0,r,s)|^2; equals L+1 for orthonormal levels."""
    g = gram_matrix(table, level_cap)
    return float(np.sum(g * g))


def export_kernel_grid(
    table,
    ts: Sequence[float],
    rs: Sequence[float],
    ss: Sequence[float],
    level_cap: int,
    path,
):
    """CSV of kernel values on a (t, r, s) product grid, t-major order."""
    from .formats import fmt, write_csv

    if len(ts) == 0 or len(rs) == 0 or len(ss) == 0:
        raise ValueError("kernel export needs nonempty t, r, s grids")
    radii = sorted(set(rs) | set(ss))
    pos = {radius: k for k, radius in enumerate(radii)}
    power = -(table.channel.d - 1) / 2.0

    header = ["t", "r", "s", "reK", "imK", "weighted_reK", "weighted_imK"]
    rows = []
    for t in ts:
        matrix = kernel_matrix(table, float(t), radii, level_cap)
        for r in rs:
            for s in ss:
                value = complex(matrix[pos[r], pos[s]])
                weighted = (float(r) * float(s)) ** power * value
                rows.append(
                    [fmt(x) for x in (t, r, s, value.real, value.imag, weighted.real, weighted.imag)]
                )
    return write_csv(path, header, rows)
