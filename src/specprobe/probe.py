"""Non-smoothness probe: windowed spectral functional and its scaling.

The probe pairs the spectral window with modulated bump overlaps,

    G(tau, j, k) = sum_l khat(lam_l - tau) (phi_j, f_l) (psi_k, conj f_l),

evaluated along the resonant sequence tau = lam_l, j = k = sqrt(lam_l).
The boundary amplitude prediction makes |G| decay no faster than
lam^(-1/(2c)), the quantitative obstruction to C^1 smoothing.  Along that
sequence ``tau``, ``j`` and ``k`` are functions of the level's eigenvalue,
so a ``ProbePoint`` and a ``probe.csv`` row hold ``lam`` alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import TruncationError
from .fitting import PowerLawFit, fit_power_law
from .wkb import allowed_interval, extract_C_lambda, rephased_amplitude

__all__ = [
    "TestFunction",
    "WindowSpec",
    "ProbePoint",
    "ProbeSequence",
    "make_bump",
    "window_hat",
    "overlap",
    "predicted_overlap",
    "probe_G",
    "isolation_check",
    "probe_sequence",
    "probe_rows",
    "PROBE_CSV_HEADER",
]


class _TestFunction(NamedTuple):
    center: float
    halfwidth: float
    samples: np.ndarray
    mass: float


class TestFunction(_TestFunction):
    """Non-negative smooth bump sampled on an eigenfunction grid."""

    __slots__ = ()

    def __new__(cls, center: float, halfwidth: float, samples: np.ndarray, mass: float):
        if mass <= 0.0:
            raise ValueError("bump mass must be positive")
        return super().__new__(cls, center, halfwidth, samples, mass)

    @property
    def support(self) -> tuple[float, float]:
        return self.center - self.halfwidth, self.center + self.halfwidth


class _WindowSpec(NamedTuple):
    sigma: float


class WindowSpec(_WindowSpec):
    """Gaussian spectral window ``khat(mu) = exp(-(sigma mu)^2)``."""

    __slots__ = ()

    def __new__(cls, sigma: float = 1.0):
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise ValueError("sigma must be positive and finite")
        return super().__new__(cls, sigma)


def window_hat(spec: WindowSpec, mu) -> float:
    """Window transform at offset ``mu``; even and rapidly decaying."""
    arg = np.asarray(spec.sigma * mu, dtype=float)
    out = np.exp(-(arg * arg))
    if np.ndim(mu) == 0:
        return float(out)
    return out


def make_bump(center: float, halfwidth: float, grid) -> TestFunction:
    """Bump ``exp(-1/(1-u^2))`` on ``|u| < 1``, ``u = (r-center)/halfwidth``.

    Sampled on the grid; mass is the Simpson integral of the samples.
    """
    if halfwidth <= 0.0:
        raise ValueError("halfwidth must be positive")
    lo, hi = center - halfwidth, center + halfwidth
    if lo <= 0.0:
        raise ValueError("bump support must stay a positive distance from 0")
    if lo < grid.r_min or hi > grid.r_max:
        raise ValueError("bump support falls off the grid")
    u = (grid.r - center) / halfwidth
    samples = np.zeros(grid.n_points)
    inside = np.abs(u) < 1.0
    samples[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    mass = float(grid.simpson_weights @ samples)
    return TestFunction(center=center, halfwidth=halfwidth, samples=samples, mass=mass)


def _support(tf: TestFunction) -> slice:
    inside = np.flatnonzero(tf.samples)
    return slice(inside[0], inside[-1] + 1)


def _weights(tf: TestFunction, phase: float, grid, support: slice) -> np.ndarray:
    """Simpson weights times ``tf e^(i r phase)`` on ``support``."""
    modulation = np.exp(1j * phase * grid.r[support])
    return grid.simpson_weights[support] * tf.samples[support] * modulation


def overlap(tf: TestFunction, phase: float, pair, grid) -> complex:
    """Modulated pairing ``int exp(i r phase) tf(r) f(r) dr`` by Simpson.

    ``pair`` is one eigenpair.  Only the support of ``tf`` is summed, in
    the order in which ``probe_G`` sums each level of a table.
    """
    if tf.samples.shape != pair.samples.shape:
        raise ValueError("test function and eigenpair live on different grids")
    support = _support(tf)
    return complex(np.sum(pair.samples[support] * _weights(tf, phase, grid, support)))


def _overlaps(table, tf: TestFunction, phases: Sequence[float]) -> np.ndarray:
    """``overlap`` of every level of ``table`` at each of ``phases``, one row
    per phase.  The table's samples on the support of ``tf`` are read once,
    in blocks of levels that hold about one grid row of samples."""
    grid = table.grid
    if tf.samples.shape != (grid.n_points,):
        raise ValueError("test function and eigenpair live on different grids")
    support = _support(tf)
    weights = [_weights(tf, phase, grid, support) for phase in phases]
    count = len(table.eigenvalues)
    out = np.empty((len(weights), count), dtype=complex)
    step = max(1, grid.n_points // (support.stop - support.start))
    for lo in range(0, count, step):
        levels = slice(lo, lo + step)
        rows = table.block(support, levels)
        for row, w in zip(out, weights):
            row[levels] = np.sum(rows * w, axis=-1)
    return out


def predicted_overlap(c_lambda: complex, lam: float, mass: float) -> complex:
    """Leading-order resonant overlap ``conj(C) mass / (2 lam^(1/4))``.

    ``c_lambda`` must carry the plane-wave phase convention, i.e. the
    rephased boundary amplitude.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    return complex(np.conj(c_lambda)) * mass / (2.0 * lam**0.25)


def _check_support_allowed(tf: TestFunction, channel, model, lam: float) -> None:
    a, b = allowed_interval(channel, model, lam)
    lo, hi = tf.support
    if not (a <= lo and hi <= b):
        raise ValueError(
            f"bump support [{lo}, {hi}] leaves the allowed region "
            f"({a:.4f}, {b:.4f}) at lam={lam:.4f}"
        )


def probe_G(
    table,
    tau: float,
    j: float,
    k: float,
    window: WindowSpec,
    phi: TestFunction,
    psi: TestFunction,
) -> complex:
    """Windowed functional ``sum_l khat(lam_l - tau) (phi_j, f_l)(psi_-k, f_l)``.

    Requires the table to extend far enough that the truncated tail is
    below 1e-14 in window weight.
    """
    a = _overlaps(table, phi, [j])[0]
    b = _overlaps(table, psi, [-k])[0]
    return _windowed_sum(table.eigenvalues, tau, window, a, b)


def _windowed_sum(lams: np.ndarray, tau: float, window: WindowSpec, a, b) -> complex:
    """``sum_l khat(lam_l - tau) a_l b_l`` over the levels of ``lams``."""
    tail = window_hat(window, float(lams[-1]) - tau)
    if tail >= 1e-14:
        raise TruncationError(
            f"spectrum truncated too early for tau={tau:.6g}: "
            f"last window weight {tail:.3e}",
            tail_bound=float(tail),
        )
    a = window_hat(window, lams - tau) * a
    # the product written out in real arithmetic, as Python's complex
    # product does it: numpy's complex multiply may fuse the operations, and
    # the resonant term must equal the product of its overlaps to the bit
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    return complex(np.sum(re), np.sum(im))


def isolation_check(table, level: int, window: WindowSpec) -> float:
    """Sum of window weights at all other levels: ``sum_{l' != l} khat``."""
    lams = table.eigenvalues
    lam = lams[level]
    others = np.delete(lams, level)
    return float(np.sum(window_hat(window, others - lam)))


class ProbePoint(NamedTuple):
    """``G`` at ``tau = lam``, ``j = k = sqrt(lam)`` of one level."""

    level: int
    lam: float
    G: complex
    predicted_magnitude: float
    isolation: float


class ProbeSequence(NamedTuple):
    points: list
    fit: PowerLawFit
    lower_bound_const: float


def probe_sequence(
    table,
    phi: TestFunction,
    psi: TestFunction,
    window: WindowSpec,
    l_range: tuple[int, int],
) -> ProbeSequence:
    """Resonant probe along ``tau = lam_l``, ``j = k = sqrt(lam_l)``.

    Returns the per-level points, the log-log fit of |G| against lam,
    and the smallest rescaled magnitude ``|G| (1 + tau + j + k)^(1/2c)``.
    """
    lo, hi = l_range
    if not (0 <= lo < hi < len(table.eigenvalues)):
        raise ValueError("l_range outside the solved spectrum")
    if hi - lo + 1 < 10:
        raise ValueError("need at least ten probe points")
    channel, model = table.channel, table.model
    _check_support_allowed(phi, channel, model, float(table.eigenvalues[lo]))
    _check_support_allowed(psi, channel, model, float(table.eigenvalues[lo]))

    inv_two_c = 1.0 / (2.0 * model.growth_index)
    lams = table.eigenvalues
    roots = [math.sqrt(float(lams[level])) for level in range(lo, hi + 1)]
    # the overlaps of every level at every probe's phase, read once
    at_phi = _overlaps(table, phi, roots)
    at_psi = _overlaps(table, psi, [-root for root in roots])
    points = []
    fit_data = []
    lower = math.inf
    for level, root, a, b in zip(range(lo, hi + 1), roots, at_phi, at_psi):
        pair = table.pair(level)
        lam = pair.lam
        g = _windowed_sum(lams, lam, window, a, b)
        c_re = rephased_amplitude(extract_C_lambda(pair, channel, model), lam)
        predicted = abs(c_re) ** 2 * phi.mass * psi.mass / (4.0 * root)
        iso = isolation_check(table, level, window)
        points.append(ProbePoint(level, lam, g, predicted, iso))
        fit_data.append((lam, abs(g)))
        lower = min(lower, abs(g) * (1.0 + lam + 2.0 * root) ** inv_two_c)
    return ProbeSequence(
        points=points, fit=fit_power_law(fit_data), lower_bound_const=lower
    )


PROBE_CSV_HEADER = [
    "d",
    "n",
    "l",
    "lambda",
    "reG",
    "imG",
    "absG",
    "predicted_abs",
    "isolation",
]


def probe_rows(table, sequence: ProbeSequence) -> list:
    """CSV rows for one channel's probe sequence, already formatted."""
    from .formats import fmt

    rows = []
    for p in sequence.points:
        rows.append(
            [
                str(table.channel.d),
                str(table.channel.n),
                str(p.level),
                fmt(p.lam),
                fmt(p.G.real),
                fmt(p.G.imag),
                fmt(abs(p.G)),
                fmt(p.predicted_magnitude),
                fmt(p.isolation),
            ]
        )
    return rows
