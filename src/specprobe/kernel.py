"""Truncated channel kernels of the propagator.

The level-L channel kernel is

    K(t, r, s) = sum_{l <= L} exp(-i lam_l t) f_l(r) f_l(s),

with real normalized eigenfunctions.  The full radial kernel carries the
additional weight (r s)^(-(d-1)/2), exported alongside the raw values.

No numpy: a kernel matrix is a list of rows of sums over the levels, the
Parseval sum and the orthonormality defect are read off the Gram terms
the table writer stores per level, and ``K(0)``'s eigenvalues come from
cyclic Jacobi rotations.
"""

from __future__ import annotations

import cmath
import math
from operator import mul
from typing import Sequence

__all__ = ["kernel_matrix", "parseval_check", "orthonormality_defect", "symmetric_eigenvalues",
           "t0_eigenvalues", "export_kernel_grid"]


def _levels(table, level_cap: int, field: str = "eigenvalues") -> tuple:
    """The record's per-level ``field`` up to ``level_cap``; ``ValueError``
    for a cap outside the levels or a record without ``field`` for each."""
    record, count = table.record, len(table.record.eigenvalues)
    if not (0 <= level_cap < count):
        raise ValueError(f"truncation level {level_cap} outside the solved range 0..{count - 1}")
    if len(getattr(record, field)) != count:
        raise ValueError(f"the table's record holds no {field} for each level")
    return getattr(record, field)[: level_cap + 1]


def kernel_matrix(table, t: float, radii: Sequence[float], level_cap: int) -> list[list[complex]]:
    """Kernel matrix over a set of grid radii at one time, as a list of
    rows; only the samples at those radii are read, and each pair of radii
    is summed once."""
    phases = [cmath.exp(-1j * lam * t) for lam in _levels(table, level_cap)]
    f = table.columns([table.grid.index_of(r) for r in radii], slice(level_cap + 1))
    k = [[0j] * len(f) for _ in f]
    for i, fr in enumerate(f):
        weighted = list(map(mul, phases, fr))
        for j in range(i, len(f)):
            k[i][j] = k[j][i] = sum(map(mul, weighted, f[j]))
    return k


def t0_eigenvalues(table, radii: Sequence[float], level_cap: int) -> list[float]:
    """Eigenvalues, ascending, of ``K(0) = F^T F`` over ``radii``, ``F`` the
    samples of the levels up to ``level_cap``, one column per radius.  Past
    ``level_cap + 1`` radii the Jacobi pass runs on ``F F^T``, whose
    eigenvalues are the nonzero ones of ``F^T F``; the others are 0."""
    _levels(table, level_cap)  # the cap's check
    f = table.columns([table.grid.index_of(r) for r in radii], slice(level_cap + 1))
    rows = f if len(f) <= level_cap + 1 else list(zip(*f))
    eigs = symmetric_eigenvalues([[sum(map(mul, x, y)) for y in rows] for x in rows])
    return sorted(eigs + [0.0] * (len(f) - len(rows)))


def parseval_check(table, level_cap: int) -> float:
    """Double integral of |K(0,r,s)|^2, the sum of the squared Gram matrix
    of the first ``level_cap + 1`` levels, from the writer's stored terms;
    equals L+1 for orthonormal levels."""
    return sum(_levels(table, level_cap, "parseval_terms"))


def orthonormality_defect(table, level_cap: int) -> float:
    """``max |G - I|`` over the Gram matrix of the first ``level_cap + 1`` levels."""
    return max(_levels(table, level_cap, "gram_defects"))


def symmetric_eigenvalues(a: Sequence[Sequence[float]]) -> list[float]:
    """Eigenvalues, ascending, of a small real symmetric matrix (its rows),
    by cyclic Jacobi rotations, each of which zeroes one off-diagonal pair,
    until none is above 1e-18 of the Frobenius norm: dropping those moves
    no eigenvalue by more than the matrix's order times that (Weyl)."""
    a = [list(map(float, row)) for row in a]
    tiny = 1e-18 * math.sqrt(sum(x * x for row in a for x in row))
    pairs = [(p, q) for p in range(len(a)) for q in range(p + 1, len(a))]
    for _ in range(60):
        if all(abs(a[p][q]) <= tiny for p, q in pairs):
            break
        for p, q in ((p, q) for p, q in pairs if abs(a[p][q]) > tiny):
            # tan of the angle that zeroes a[p][q], the smaller root
            theta = 0.5 * (a[q][q] - a[p][p]) / a[p][q]
            tan = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(tan, 1.0)
            s = tan * c
            for row in a:
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
            a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                          [s * x + c * y for x, y in zip(a[p], a[q])])
            a[p][q] = a[q][p] = 0.0
    return sorted(row[i] for i, row in enumerate(a))


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
                value = complex(matrix[pos[r]][pos[s]])
                weighted = (float(r) * float(s)) ** power * value
                rows.append(
                    [fmt(x) for x in (t, r, s, value.real, value.imag, weighted.real, weighted.imag)]
                )
    return write_csv(path, header, rows)
