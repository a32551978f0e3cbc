"""Shooting eigensolver for the half-line radial operators.

The discrete problem is the standard fourth-order three-term recurrence.
Integration starts outward from a small-radius seed built from the regular
free solution ``sqrt(r) J_nu(r sqrt(lam))``, inward from a decaying seed at
the far boundary, and the two branches are matched at the outer turning
point through their logarithmic derivatives.

One probe sweep at a spectral parameter gives both the node count of the
full outward sweep (which jumps at each eigenvalue) and the mismatch, at a
match index fixed once per level and read off the sampled potential.  Past
the turning point the outward sweep stops once ``w y`` grows with one
sign, after which the recurrence admits no sign change.  A
level is bracketed from a guess by node count and refined by regula falsi
on the mismatch, with the Anderson-Bjorck (Illinois-type) end scaling and
a bisection whenever the end mismatches do not bracket a single root; the
node count alone decides which end a probe replaces.  Levels from 3 on
start from the quadratic extrapolation of the three below, so the WKB
action is inverted only for the grid and the first three levels.

Each eigenvalue is the discrete one plus the asymptotic correction of
Numerov's ``h^4`` dispersion (``_dispersion_shift``), which leaves about
4e-11 relative error at 180 points per wavelength; the samples stay the
discrete eigenvectors.

A ``SpectrumTable`` stores the eigenvalues ``(L,)``, the samples ``(L, N)``
and the per-level solver counters and corrections; an ``EigenPair``'s node
count and value and slope at ``r = 1`` are derived from its row.  The
cache, format version 3, lists eigenvalues, counters and corrections in
JSON beside one ``.npy`` of samples.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BracketError, ConsistencyError
from .potential import Channel, PotentialModel, effective_potential
from .specfun import _gl_rule, _retained_scale, integrate_sqrt_singular
from .wkb import (
    classical_edges,
    inverse_action,
    level_density,
    quantization_target,
    turning_points,
)

__all__ = [
    "RadialGrid",
    "EigenPair",
    "SpectrumTable",
    "ShootResult",
    "build_grid",
    "boundary_series_small_r",
    "shoot_mismatch",
    "solve_level",
    "solve_spectrum",
    "save_spectrum",
    "load_spectrum",
    "SpectrumFormatError",
    "export_spectrum_csv",
]

SPECTRUM_FORMAT_VERSION = 3

DEFAULT_POINTS_PER_WAVELENGTH = 180.0
DEFAULT_DECAY_MARGIN = 35.0
DEFAULT_MIN_POINTS = 1000
DEFAULT_REL_TOL = 1e-10
MIN_POINTS_PER_WAVELENGTH = 40.0
MIN_DECAY_MARGIN = 5.0
MIN_REL_TOL = 1e-15  # a few ulps: the bracket cannot shrink much further
BRACKET_STEP = 0.1  # first bracketing step, as a fraction of the expected gap


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid ``r_i = r_min + i h`` with ``r = 1`` on a node."""

    r_min: float
    r_max: float
    h: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 9:
            raise ValueError("grid needs at least nine points")
        if not (0.0 < self.r_min < self.r_max) or self.h <= 0.0:
            raise ValueError("need 0 < r_min < r_max and h > 0")
        span = self.r_min + (self.n_points - 1) * self.h
        if abs(span - self.r_max) > 1e-9 * self.r_max:
            raise ValueError("r_max inconsistent with r_min + (n-1) h")
        if self.n_points % 2 == 0:
            raise ValueError("need an odd point count for the composite rule")

    @cached_property
    def r(self) -> np.ndarray:
        return self.r_min + self.h * np.arange(self.n_points)

    @cached_property
    def simpson_weights(self) -> np.ndarray:
        w = np.full(self.n_points, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * (self.h / 3.0)

    def index_of(self, value: float) -> int:
        i = int(round((value - self.r_min) / self.h))
        if not (0 <= i < self.n_points):
            raise ValueError(f"radius {value} outside the grid")
        if abs(self.r_min + i * self.h - value) > 1e-6 * self.h:
            raise ValueError(f"radius {value} does not sit on a grid node")
        return i


def build_grid(
    channel: Channel,
    model: PotentialModel,
    lam_max: float,
    points_per_wavelength: float = DEFAULT_POINTS_PER_WAVELENGTH,
    decay_margin: float = DEFAULT_DECAY_MARGIN,
    min_points: int = DEFAULT_MIN_POINTS,
) -> RadialGrid:
    """Grid adequate for all spectral parameters up to ``lam_max``.

    The step resolves the shortest local wavelength with at least the
    requested number of points (never fewer than 40), ``r = 1`` falls on a
    node exactly, the point count is odd and at least ``min_points``, and
    the far boundary carries at least ``decay_margin`` units of decay
    beyond the outer turning point.
    """
    if points_per_wavelength < MIN_POINTS_PER_WAVELENGTH:
        raise ValueError("points_per_wavelength must be at least 40")
    if decay_margin < MIN_DECAY_MARGIN:
        raise ValueError("decay_margin must be at least 5")
    big_t = turning_points(channel, model, lam_max).T  # validates lam_max

    kernel = lambda r: np.sqrt(
        np.maximum(effective_potential(channel, model, np.asarray(r)) - lam_max, 0.0)
    )
    lo, hi = big_t, big_t * 1.05 + 0.5
    acc = integrate_sqrt_singular(kernel, lo, hi, "left", rel_tol=1e-8)
    while acc < decay_margin:
        lo, hi = hi, hi * 1.2
        acc += integrate_sqrt_singular(kernel, lo, hi, "none", rel_tol=1e-8)
    r_far = hi

    r_min = min(1e-3, 0.1 * lam_max**-0.25)
    h_wave = 2.0 * math.pi / (points_per_wavelength * math.sqrt(lam_max))
    h_count = (r_far - r_min) / float(min_points)
    h_cap = min(h_wave, h_count)
    k = math.ceil((1.0 - r_min) / h_cap)
    h = (1.0 - r_min) / k
    n_int = math.ceil((r_far - r_min) / h)
    if n_int % 2 == 1:
        n_int += 1
    return RadialGrid(
        r_min=r_min, r_max=r_min + n_int * h, h=h, n_points=n_int + 1
    )


def boundary_series_small_r(channel: Channel, lam: float, r):
    """Regular free solution ``sqrt(r) J_nu(r sqrt(lam))`` near the origin.

    Behaves like ``(sqrt(lam)/2)^nu / Gamma(nu + 1) * r**(n + (d-1)/2)``
    as ``r`` tends to zero, with ``nu`` the channel's Bessel order.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("radii must be positive")
    from .specfun import bessel_j

    out = np.sqrt(arr) * bessel_j(channel.bessel_order, arr * math.sqrt(lam))
    if np.ndim(r) == 0:
        return float(out)
    return out


class ShootResult(NamedTuple):
    mismatch: float
    node_count: int


def _numerov(c, wm, wp, y0, y1, keep=None):
    """Run the recurrence ``y2 = (c*y1 - wm*y0) / wp`` over zipped lists.

    Returns the last two values and the number of sign changes among the
    new values; ``keep``, when given, receives each new value.  Sweeping
    inward is the same recurrence on reversed lists.
    """
    nodes = 0
    for ci, wmi, wpi in zip(c, wm, wp):
        y2 = (ci * y1 - wmi * y0) / wpi
        if y1 * y2 < 0.0:
            nodes += 1
        if keep is not None:
            keep(y2)
        y0, y1 = y1, y2
    return y0, y1, nodes


def _numerov_tail(c, wm, wc, wp, y0, y1):
    """``_numerov`` past the turning point, stopping once ``w y`` grows.

    ``wc`` holds the weight of the current value.  With ``z = w y`` the
    recurrence reads ``z2 = (c/w) z1 - z0``, and ``c/w = 12/w - 10 > 2``
    wherever ``0 < w < 1``, that is ``U > lam``.  So once ``|z|`` grows
    with one sign it keeps growing with that sign, and the sweep can stop:
    no later value changes sign.  The caller guarantees ``0 < w < 1`` at
    every new value.  Returns what ``_numerov`` returns.
    """
    nodes = 0
    for ci, wmi, wci, wpi in zip(c, wm, wc, wp):
        y2 = (ci * y1 - wmi * y0) / wpi
        if y1 * y2 < 0.0:
            nodes += 1
        elif (wpi * y2 - wci * y1) * y1 > 0.0:  # |z| grew, sign kept
            return y1, y2, nodes
        y0, y1 = y1, y2
    return y0, y1, nodes


class _Shooter:
    """Numerov sweeps of one channel on one grid.

    The effective potential is sampled once; the match index of a spectral
    parameter is the grid node nearest its outer turning point, read off
    those samples (they increase past their minimum, ``U`` being convex).
    """

    def __init__(self, channel: Channel, model: PotentialModel, grid: RadialGrid):
        self.channel = channel
        self.model = model
        self.grid = grid
        self.u = effective_potential(channel, model, grid.r)
        self.i_min = int(np.argmin(self.u))
        self.floor = float(self.u[self.i_min]) * (1.0 + 1e-12) + 1e-12

    def match_index(self, lam: float) -> int:
        """Grid node nearest the outer turning point of ``lam``."""
        u, n = self.u, self.grid.n_points
        if not lam < u[n - 7]:
            raise ValueError(
                f"turning point of lam={lam} too close to the grid end; "
                "the grid does not cover this spectral parameter"
            )
        if not lam > u[self.i_min]:
            raise ValueError(f"lam={lam} does not exceed the potential minimum")
        k = self.i_min + int(np.searchsorted(u[self.i_min :], lam))
        if lam - u[k - 1] < u[k] - lam:
            k -= 1
        return min(max(k, 3), n - 5)

    def _start(self, lam: float, m: int):
        """Recurrence coefficients, safe start index and outward seeds."""
        grid = self.grid
        h = grid.h
        w = 1.0 + (h * h / 12.0) * (lam - self.u)
        wl = w.tolist()

        # start the outward recurrence where the weights are safely positive;
        # below that the samples follow the regular free solution exactly
        i0 = 0
        if wl[0] < 0.75:
            i0 = int(np.argmax(w >= 0.75))
            if wl[i0] < 0.75:
                raise ConsistencyError("no safe start index; grid step too coarse")
        if i0 > m - 3:
            raise ValueError("safe start index reaches the matching point")

        # Python floats, not numpy scalars: the sweep loops run three times
        # faster on them, with the same IEEE results
        s0, s1 = boundary_series_small_r(
            self.channel, lam, np.array([grid.r_min + i0 * h, grid.r_min + (i0 + 1) * h])
        ).tolist()
        scale = max(abs(s0), abs(s1))
        if scale == 0.0 or not math.isfinite(scale):
            raise ConsistencyError("degenerate outward seed")
        return (12.0 - 10.0 * w).tolist(), wl, i0, s0 / scale, s1 / scale

    def _inward(self, lam: float, c, wl, m: int, keep=None):
        """Decaying solution from the far boundary: values at ``m + 1``, ``m``."""
        n = self.grid.n_points
        u = self.u
        theta = self.grid.h * 0.5 * (
            math.sqrt(max(u[n - 2] - lam, 0.0)) + math.sqrt(max(u[n - 1] - lam, 0.0))
        )
        z_far = math.exp(-theta)
        if keep is not None:
            keep(z_far)
            keep(1.0)
        z_p, z_c, _ = _numerov(
            c[n - 2 : m : -1], wl[n - 1 : m + 1 : -1], wl[n - 3 : m - 1 : -1],
            z_far, 1.0, keep,
        )
        return z_p, z_c

    def probe(self, lam: float, m: int) -> ShootResult:
        """Node count of the full outward sweep and mismatch at ``m``."""
        n = self.grid.n_points
        c, wl, i0, y0, y1 = self._start(lam, m)
        o_m, o_c, nodes = _numerov(c[i0 + 1 : m], wl[i0 : m - 1], wl[i0 + 2 : m + 1], y0, y1)
        _, o_p, k = _numerov(c[m : m + 1], wl[m - 1 : m], wl[m + 1 : m + 2], o_m, o_c)
        nodes += k
        # the tail may stop early from the first node with U > lam on, when
        # the weights stay positive to the grid end (they fall past T)
        s = n - 1
        if wl[n - 1] > 0.0:
            k_t = self.i_min + int(np.searchsorted(self.u[self.i_min :], lam, side="right"))
            s = max(m + 1, k_t - 1)
        y0, y1, k = _numerov(c[m + 1 : s], wl[m : s - 1], wl[m + 2 : s + 1], o_c, o_p)
        nodes += k
        y0, y1, k = _numerov_tail(c[s : n - 1], wl[s - 1 : n - 2], wl[s : n - 1], wl[s + 1 : n], y0, y1)
        nodes += k
        if not (math.isfinite(y1) and math.isfinite(y0)):
            raise ConsistencyError(
                "outward sweep overflowed; increase decay margin headroom"
            )

        i_p, i_c = self._inward(lam, c, wl, m)
        _, i_m, _ = _numerov(c[m : m + 1], wl[m + 1 : m + 2], wl[m - 1 : m], i_p, i_c)
        if not math.isfinite(i_m):
            raise ConsistencyError("inward sweep overflowed")
        if o_c == 0.0 or i_c == 0.0:
            raise ConsistencyError("matching point sits on a node; cannot form mismatch")
        h = self.grid.h
        mismatch = (o_p - o_m) / (2.0 * h * o_c) - (i_p - i_m) / (2.0 * h * i_c)
        return ShootResult(mismatch=mismatch, node_count=nodes)

    def assemble(self, lam: float, m: int, level: int, sweeps: int, bisections: int):
        """Normalised eigenfunction stitched at ``m``, with its own node count."""
        grid = self.grid
        c, wl, i0, y0, y1 = self._start(lam, m)
        ys_out = [y0, y1]
        _numerov(c[i0 + 1 : m], wl[i0 : m - 1], wl[i0 + 2 : m + 1], y0, y1, ys_out.append)
        ys_in = []
        self._inward(lam, c, wl, m, ys_in.append)
        ys_in.reverse()  # now the samples at m .. n-1

        f = np.empty(grid.n_points)
        f[i0 : m + 1] = ys_out
        f[m + 1 :] = np.asarray(ys_in[1:]) * (ys_out[-1] / ys_in[0])
        if i0 > 0:
            # extend below the safe start with the regular free solution,
            # scaled to match the seed continuation
            free = boundary_series_small_r(self.channel, lam, grid.r[:i0])
            anchor = boundary_series_small_r(self.channel, lam, float(grid.r[i0]))
            f[:i0] = free * (f[i0] / anchor)

        interior = f[i0:m]
        if interior[np.nonzero(interior)[0][0]] < 0.0:
            f = -f
        norm_sq = float(np.dot(grid.simpson_weights, f * f))
        if norm_sq <= 0.0 or not math.isfinite(norm_sq):
            raise ConsistencyError("assembled eigenfunction has a bad norm")
        f /= math.sqrt(norm_sq)

        return _eigenpair(grid, level, lam, f, sweeps, bisections)

    def solve(self, level: int, guess: float, step: float, rel_tol: float) -> "EigenPair":
        """Eigenpair ``level`` from a guess of its eigenvalue.

        Walks from ``guess`` in doubling steps, starting at ``step``, until
        the node counts of the two ends bracket the level, then takes
        regula falsi steps on the mismatch at a match index fixed from the
        guess.  Each probe replaces the end on its side of the node count,
        so the bracket always holds the eigenvalue; the step is a bisection
        when the end mismatches do not have the sign pattern of a single
        root (positive below, negative above), as when a mismatch pole
        lies in the bracket.  The bracket is refined until its width is
        at most ``rel_tol`` relative.  The pair's eigenvalue is the
        discrete one plus ``_dispersion_shift``; its samples are the
        discrete eigenvector.  Raises ``ConsistencyError`` when the
        assembled eigenfunction does not have ``level`` nodes.
        """
        floor = self.floor
        x = max(guess, floor)
        m = self.match_index(x)
        sweeps = 0
        a = b = None
        for _ in range(60):
            res = self.probe(x, m)
            sweeps += 1
            if res.node_count <= level:
                a, ga = x, res.mismatch
            else:
                b, gb = x, res.mismatch
            if a is not None and b is not None:
                fa, fb = ga, gb  # unscaled mismatches at the ends
                break
            if b is None:
                x = a + step
            elif b <= floor:
                raise BracketError(f"no lower bracket for level {level}")
            else:
                x = max(b - step, floor)
            step *= 2.0
        else:
            raise BracketError(f"no bracket for level {level}")

        bisections = 0
        moved = 0  # +1 after a new upper end, -1 after a new lower end
        falsi = False
        while True:
            half_tol = 0.5 * rel_tol * max(1.0, abs(a), abs(b))
            if ga > 0.0 > gb:
                # regula falsi, kept half a tolerance inside the bracket so
                # that a root next to one end closes the bracket in one step
                x = b - gb * (b - a) / (gb - ga)
                x = min(max(x, a + half_tol), b - half_tol)
                falsi = True
            elif falsi:
                # the falsi point's mismatch sign contradicts its node count:
                # it sits within rounding of the root, so step just past it
                x = a + half_tol if moved < 0 else b - half_tol
                falsi = False
            else:
                x = 0.5 * (a + b)
                bisections += 1
            if not a < x < b:
                raise ConsistencyError(
                    f"level {level}: bracket [{a!r}, {b!r}] cannot shrink "
                    f"to rel_tol {rel_tol:g}"
                )
            res = self.probe(x, m)
            sweeps += 1
            g = res.mismatch
            if res.node_count <= level:
                if moved < 0:
                    gb *= _retained_scale(g, ga)
                a, ga, fa = x, g, g
                moved = -1
            else:
                if moved > 0:
                    ga *= _retained_scale(g, gb)
                b, gb, fb = x, g, g
                moved = 1
            if g == 0.0 or b - a <= rel_tol * max(1.0, abs(x)):
                break
        # the end with the smaller mismatch: the last probe is often the
        # half-tolerance step past a regula falsi point that hit the root
        lam = a if abs(fa) <= abs(fb) else b
        pair = self.assemble(lam, m, level, sweeps + 1, bisections)
        if pair.node_count != level:
            raise ConsistencyError(f"level {level}: converged node count {pair.node_count}")
        shift = _dispersion_shift(self, lam)
        return dataclasses.replace(pair, lam=lam + shift, shift=shift)


def _dispersion_shift(shooter: "_Shooter", lam: float) -> float:
    """Numerov's eigenvalue error at a discrete eigenvalue, to be added to it.

    For constant ``k^2 = lam - U`` the recurrence carries the wave number
    ``k + k^5 h^4/480 + O(h^6)``, so the discrete level sits below the true
    one by ``h^4/(480 pi) int (lam - U)_+^(5/2) dr * dlam/dl`` (the
    asymptotic correction of Andrew & Paine, Numer. Math. 47, 1985).  The
    first integral is a Simpson sum over the sampled potential; the level
    spacing is the semiclassical ``dlam/dl = 2 pi / int (lam - U)^(-1/2)``
    over the allowed region ``[a, T]``, integrated in ``theta`` with
    ``r = a + (T - a)(1 - cos theta)/2``, which takes out the inverse
    square roots at both edges.
    """
    grid = shooter.grid
    k2 = np.maximum(lam - shooter.u, 0.0)
    fifth = float(np.dot(grid.simpson_weights, k2 * k2 * np.sqrt(k2)))
    (a,), (b,) = classical_edges(shooter.channel, shooter.model, [lam])
    # 48 Gauss-Legendre nodes on (0, pi): the integrand is smooth in theta,
    # and the shift needs only a few digits of it
    nodes, weights = _gl_rule(48)
    theta = 0.5 * math.pi * (nodes + 1.0)
    half = 0.5 * (b - a)
    u = effective_potential(shooter.channel, shooter.model, a + half * (1.0 - np.cos(theta)))
    period = 0.5 * math.pi * float(np.dot(weights, half * np.sin(theta) / np.sqrt(lam - u)))
    return grid.h**4 * fifth / (240.0 * period)


def shoot_mismatch(
    channel: Channel, model: PotentialModel, lam: float, grid: RadialGrid
) -> ShootResult:
    """Log-derivative mismatch at the outer turning point and node count.

    The node count includes the sign flip of the divergent tail, so it
    equals the number of eigenvalues below ``lam`` except on a vanishing
    neighbourhood of each eigenvalue.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    shooter = _Shooter(channel, model, grid)
    return shooter.probe(lam, shooter.match_index(lam))


@dataclass(frozen=True)
class EigenPair:
    """One normalized eigenfunction with its spectral parameter.

    ``level`` is the level that was solved for; ``node_count`` is counted
    afresh on the samples, so the two can disagree.  ``sweeps`` is the
    number of shooting sweeps the level cost (the probes and the assembly)
    and ``bisections`` how many probes were bisection steps.  ``shift`` is
    the dispersion correction included in ``lam``: ``lam - shift`` is the
    eigenvalue of the discrete recurrence that ``samples`` solve.
    """

    level: int
    lam: float
    samples: np.ndarray
    node_count: int
    f_at_1: float
    fprime_at_1: float
    sweeps: int
    bisections: int
    shift: float = 0.0


def _eigenpair(grid: RadialGrid, level, lam, samples, sweeps, bisections, shift=0.0) -> EigenPair:
    """Eigenpair of one row of samples, with the fields derived from them."""
    f = samples
    k1 = grid.index_of(1.0)
    fp1 = (f[k1 - 2] - 8.0 * f[k1 - 1] + 8.0 * f[k1 + 1] - f[k1 + 2]) / (12.0 * grid.h)
    return EigenPair(
        level=level,
        lam=float(lam),
        samples=f,
        node_count=int(np.count_nonzero(f[:-1] * f[1:] < 0.0)),
        f_at_1=float(f[k1]),
        fprime_at_1=float(fp1),
        sweeps=int(sweeps),
        bisections=int(bisections),
        shift=float(shift),
    )


@dataclass(frozen=True)
class SpectrumTable:
    """Levels ``0 .. L-1`` of one channel on a shared grid, one row each."""

    channel: Channel
    model: PotentialModel
    grid: RadialGrid
    eigenvalues: np.ndarray
    samples: np.ndarray
    sweeps: tuple[int, ...]
    bisections: tuple[int, ...]
    shifts: tuple[float, ...]
    tolerances: dict

    def __post_init__(self):
        count = len(self.eigenvalues)
        shape = (count, self.grid.n_points)
        per_level = (self.sweeps, self.bisections, self.shifts)
        if self.samples.shape != shape or any(len(x) != count for x in per_level):
            raise ValueError(f"table arrays do not hold {count} levels on the grid")

    def pair(self, level: int) -> EigenPair:
        if not 0 <= level < len(self.eigenvalues):
            raise IndexError(f"level {level} outside 0..{len(self.eigenvalues) - 1}")
        return _eigenpair(
            self.grid, level, self.eigenvalues[level], self.samples[level],
            self.sweeps[level], self.bisections[level], self.shifts[level],
        )

    @cached_property
    def eigenpairs(self) -> tuple[EigenPair, ...]:
        """Every level as an eigenpair; the samples are views of the rows."""
        return tuple(self.pair(level) for level in range(len(self.eigenvalues)))

    def truncated(self, count: int) -> "SpectrumTable":
        """The table of the first ``count`` levels."""
        return dataclasses.replace(
            self,
            eigenvalues=self.eigenvalues[:count],
            samples=self.samples[:count],
            sweeps=self.sweeps[:count],
            bisections=self.bisections[:count],
            shifts=self.shifts[:count],
        )


def _action_guess(channel: Channel, model: PotentialModel, level: int):
    """WKB eigenvalue guess and its bracketing step."""
    lam = inverse_action(model, quantization_target(channel, level))
    return lam, BRACKET_STEP / level_density(model, lam)


def _default_grid(channel, model, l_max, points_per_wavelength, decay_margin):
    lam_top = inverse_action(model, quantization_target(channel, l_max) + 2.0)
    return build_grid(
        channel,
        model,
        1.1 * lam_top,
        points_per_wavelength=points_per_wavelength,
        decay_margin=decay_margin,
    )


def solve_level(
    channel: Channel,
    model: PotentialModel,
    level: int,
    grid: RadialGrid | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    points_per_wavelength: float = DEFAULT_POINTS_PER_WAVELENGTH,
    decay_margin: float = DEFAULT_DECAY_MARGIN,
) -> EigenPair:
    """Eigenpair with exactly ``level`` interior nodes.

    Brackets the eigenvalue by the node count of the shooting sweep, then
    refines the log-derivative mismatch to relative tolerance ``rel_tol``.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    if grid is None:
        grid = _default_grid(channel, model, level, points_per_wavelength, decay_margin)
    guess, step = _action_guess(channel, model, level)
    return _Shooter(channel, model, grid).solve(level, guess, step, rel_tol)


def solve_spectrum(
    channel: Channel,
    model: PotentialModel,
    l_max: int,
    grid: RadialGrid | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    points_per_wavelength: float = DEFAULT_POINTS_PER_WAVELENGTH,
    decay_margin: float = DEFAULT_DECAY_MARGIN,
) -> SpectrumTable:
    """All eigenpairs of levels ``0 .. l_max`` on one shared grid.

    Levels 0 to 2 start from the WKB guess; each later level starts from
    the quadratic through the last three eigenvalues, with a bracketing
    step of BRACKET_STEP times the gap it predicts.
    """
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    if grid is None:
        grid = _default_grid(channel, model, l_max, points_per_wavelength, decay_margin)
    shooter = _Shooter(channel, model, grid)
    samples = np.empty((l_max + 1, grid.n_points))
    lams, sweeps, bisections, shifts = [], [], [], []
    for level in range(l_max + 1):
        if level < 3:
            guess, step = _action_guess(channel, model, level)
        else:
            guess = 3.0 * (lams[-1] - lams[-2]) + lams[-3]
            step = BRACKET_STEP * (guess - lams[-1])
        pair = shooter.solve(level, guess, step, rel_tol)
        if lams and pair.lam <= lams[-1]:
            raise ConsistencyError(f"level {level}: eigenvalues not increasing")
        samples[level] = pair.samples
        lams.append(pair.lam)
        sweeps.append(pair.sweeps)
        bisections.append(pair.bisections)
        shifts.append(pair.shift)
    return SpectrumTable(
        channel=channel,
        model=model,
        grid=grid,
        eigenvalues=np.array(lams),
        samples=samples,
        sweeps=tuple(sweeps),
        bisections=tuple(bisections),
        shifts=tuple(shifts),
        tolerances={
            "rel_tol": rel_tol,
            "points_per_wavelength": points_per_wavelength,
            "decay_margin": decay_margin,
        },
    )


def save_spectrum(table: SpectrumTable, path) -> Path:
    """Persist a table as JSON metadata plus a binary sample sidecar."""
    path = Path(path)
    sidecar = path.with_suffix(".npy")
    np.save(sidecar, table.samples)
    doc = {
        "format_version": SPECTRUM_FORMAT_VERSION,
        "model": table.model.spec_string,
        "threshold_radius": table.model.threshold_radius,
        "harmonic": table.model.harmonic,
        "d": table.channel.d,
        "n": table.channel.n,
        "grid": {
            "r_min": table.grid.r_min,
            "r_max": table.grid.r_max,
            "h": table.grid.h,
            "n_points": table.grid.n_points,
        },
        "tolerances": table.tolerances,
        "samples_file": sidecar.name,
        "levels": {
            "lambda": table.eigenvalues.tolist(),
            "sweeps": list(table.sweeps),
            "bisections": list(table.bisections),
            "shift": list(table.shifts),
        },
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="ascii")
    return path


class SpectrumFormatError(ValueError):
    """A saved table in a format version other than ``SPECTRUM_FORMAT_VERSION``."""


def load_spectrum(path) -> SpectrumTable:
    path = Path(path)
    doc = json.loads(path.read_text(encoding="ascii"))
    if doc.get("format_version") != SPECTRUM_FORMAT_VERSION:
        raise SpectrumFormatError(
            f"unsupported spectrum format version {doc.get('format_version')}"
        )
    model = PotentialModel.from_spec(
        doc["model"],
        threshold_radius=doc["threshold_radius"],
        harmonic=doc["harmonic"],
    )
    channel = Channel(doc["d"], doc["n"])
    g = doc["grid"]
    grid = RadialGrid(g["r_min"], g["r_max"], g["h"], g["n_points"])
    levels = doc["levels"]
    return SpectrumTable(
        channel=channel,
        model=model,
        grid=grid,
        eigenvalues=np.array(levels["lambda"], dtype=float),
        samples=np.load(path.parent / doc["samples_file"]),
        sweeps=tuple(levels["sweeps"]),
        bisections=tuple(levels["bisections"]),
        shifts=tuple(levels["shift"]),
        tolerances=doc["tolerances"],
    )


def export_spectrum_csv(tables: Sequence[SpectrumTable], path) -> Path:
    from .formats import fmt, write_csv

    header = ["n", "l", "lambda", "nodes", "f_at_1", "fprime_at_1"]
    rows = []
    for table in sorted(tables, key=lambda t: t.channel.n):
        for p in table.eigenpairs:
            rows.append(
                [
                    str(table.channel.n),
                    str(p.level),
                    fmt(p.lam),
                    str(p.node_count),
                    fmt(p.f_at_1),
                    fmt(p.fprime_at_1),
                ]
            )
    return write_csv(path, header, rows)
