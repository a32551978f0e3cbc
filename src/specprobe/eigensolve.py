"""Shooting eigensolver for the half-line radial operators.

The discrete problem is the standard fourth-order three-term recurrence,
run on Numerov's ``z = w y`` as ``z[i+1] = g[i] z[i] - z[i-1]`` over one
array of ``g`` per spectral parameter (``_sweep``).  Integration starts
outward from a small-radius seed built from the regular free solution
``sqrt(r) J_nu(r sqrt(lam))``, inward from a decaying seed where the
decay ``h sum sqrt(U - lam)`` from the match point reaches
``INWARD_DECAY`` (40; at the far boundary if it never does), and the two
branches are matched at the outer turning point through their
logarithmic derivatives.  The samples beyond the inward start are 0:
``e^-40`` is below half an ulp of the samples at the match point.  The
same bound places the far boundary: ``build_grid`` ends the grid where
the decay past the top level's turning point reaches ``INWARD_DECAY``, so
on a default grid every level's inward sweep starts inside it.
Through a centrifugal barrier of more than ``BARRIER_EXPONENT`` of decay
the outward sweep starts where that much is left, and the samples below
its start are 0 too.

One probe sweep at a spectral parameter gives the mismatch at a match
index read off the sampled potential, the mismatch's slope in ``lam``
(Cooley's derivative, Math. Comp. 15, 1961), summed from ``z^2`` during
the sweep, and a node count that jumps at each eigenvalue: the sign
changes of the outward sweep up to the match index and of the inward one
from there, plus one where the mismatch is negative (B. R. Johnson,
J. Chem. Phys. 69, 4678, 1978).  Neither sweep runs past the other.
A level is refined by safeguarded Newton steps on the mismatch: the node
counts bracket it, a step off the level's branch becomes a bisection, and
where rounding stalls Newton above the tolerance the node counts close
the bracket.  Levels from 3 on start from the polynomial in ``lam^p``,
``p = (c + 1)/(2c)``, through the levels below (quadratic for level 3,
cubic from level 4): the action grows like ``lam^p``, so ``lam^p`` is
nearly linear in the level.  That takes about 2.2 sweeps per level on
the quartic; the WKB action is inverted only for the grid and the first
three levels.  The sweep expected to be a level's last stores its
values, which are the level's samples.

Each eigenvalue is the discrete one plus the asymptotic correction of
Numerov's ``h^4`` dispersion (``_dispersion_shifts``, one call for all
levels, its level spacing from ``wkb.allowed_integrals``), which leaves
about 4e-11 relative error at 180 points per wavelength; the samples stay
the discrete eigenvectors.

A ``SpectrumTable`` is its cache record (``formats.SpectrumRecord``:
channel, model, ``RadialGrid``, solver settings, and the per-level
eigenvalues, counters and corrections) plus the samples ``(L, N)``; the
table reads its channel, model and grid through the record and holds the
eigenvalues as an array of the record's.  An ``EigenPair``'s node count
and value and slope at ``r = 1`` are derived from its row.  The cache,
format version 3, is the record as JSON beside one ``.npy`` of samples
that takes the record's name.  One writer (``_write_table``) stages the
``.npy`` header, the rows and then the record beside their targets, and
moves both files over the old ones (``formats.replace_files``).  A solve
given the cache's path passes it each level's row as the level converges,
so it never holds more than one row; a save passes the rows of a table it
has.  A write that fails leaves an earlier table's files as they were,
and a table loaded before goes on reading the file it opened.  A loaded
table checks the ``.npy`` header and size against the record once and
then reads what a command asks for, a row or a block of columns, from the
file it opened into a new read-only array (``_SampleFile``), so a process
holds O(N) samples, not O(L N).
"""

from __future__ import annotations

import math
import os
import weakref
from collections.abc import Sequence
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .defaults import (  # also read from here, as eigensolve.DEFAULT_*
    DEFAULT_POINTS_PER_WAVELENGTH,
    DEFAULT_REL_TOL,
    MIN_POINTS_PER_WAVELENGTH,
)
from .errors import BracketError, ConsistencyError
from .formats import RadialGrid, SpectrumRecord, read_spectrum_record, replace_files
from .potential import Channel, PotentialModel, effective_potential
# not called here any more; the name stays because specbench/tracing.py
# wraps it, and test_benchmark_tooling requires every wrapped name to resolve
from .specfun import integrate_sqrt_singular
from .wkb import (
    _root_integrals,
    allowed_integrals,
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
    "export_spectrum_csv",
]

DEFAULT_MIN_POINTS = 1000
BARRIER_EXPONENT = 300.0  # most decay the outward sweep climbs: e^300 ~ 1e130
# decay from the match point at which the inward sweep starts: e^-40 ~ 4.2e-18
# is below half an ulp of the samples there, so the zeros beyond lose nothing
INWARD_DECAY = 40.0
MAX_SWEEPS = 60  # probe sweeps per level before the refinement gives up
# Newton's steps shrink like step^2/gap once a step is this small against
# the gap, so a step that does not shrink there is rounding noise
NEWTON_SETTLED = 1e-3
_LN2 = math.log(2.0)


def build_grid(
    channel: Channel,
    model: PotentialModel,
    lam_max: float,
    points_per_wavelength: float = DEFAULT_POINTS_PER_WAVELENGTH,
) -> RadialGrid:
    """Grid adequate for all spectral parameters up to ``lam_max``.

    The step resolves the shortest local wavelength with at least the
    requested number of points (never fewer than 40), ``r = 1`` falls on a
    node exactly, the point count is odd and at least
    ``DEFAULT_MIN_POINTS``, and the far boundary carries at least
    ``INWARD_DECAY`` units of decay beyond the outer turning point of
    ``lam_max``: the inward sweep of every level up to ``lam_max`` starts
    inside the grid.
    """
    if points_per_wavelength < MIN_POINTS_PER_WAVELENGTH:
        raise ValueError("points_per_wavelength must be at least 40")
    big_t = turning_points(channel, model, lam_max)  # validates lam_max

    # the decay int sqrt(U - lam_max) past T, over the pieces
    # [T, 1.05 T + 0.5] and then each 1.2 times the last, summed in order
    # up to the piece that reaches INWARD_DECAY
    lo, r_far, acc = big_t, big_t * 1.05 + 0.5, 0.0
    while True:
        acc += float(_root_integrals(channel, model, np.array([lam_max]),
                                     np.array([lo]), np.array([r_far]))[0])
        if acc >= INWARD_DECAY:
            break
        lo, r_far = r_far, r_far * 1.2

    r_min = min(1e-3, 0.1 * lam_max**-0.25)
    h_wave = 2.0 * math.pi / (points_per_wavelength * math.sqrt(lam_max))
    h_count = (r_far - r_min) / float(DEFAULT_MIN_POINTS)
    h_cap = min(h_wave, h_count)
    k = math.ceil((1.0 - r_min) / h_cap)
    h = (1.0 - r_min) / k
    n_int = math.ceil((r_far - r_min) / h)
    if n_int % 2 == 1:
        n_int += 1
    return RadialGrid(r_min=r_min, h=h, n_points=n_int + 1)


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


def _sweep(g, z0, z1, keep=None):
    """Run Numerov's recurrence ``z2 = g z1 - z0`` on ``z = w y`` over ``g``.

    Returns the last two values, the number of sign changes among the new
    values and the sum of their squares; ``keep``, when given, receives
    each new value.  Sweeping inward is the same recurrence on the
    reversed list.
    """
    nodes = 0
    s = 0.0
    for gi in g:
        z2 = gi * z1 - z0
        if z1 * z2 < 0.0:
            nodes += 1
        s += z2 * z2
        if keep is not None:
            keep(z2)
        z0 = z1
        z1 = z2
    return z0, z1, nodes, s


class _Probe(NamedTuple):
    """One probe sweep: its ``ShootResult``, the slope of the mismatch in
    ``lam``, and with ``keep`` the samples stitched at the match index,
    not yet normalised, else None."""

    result: ShootResult
    slope: float
    samples: np.ndarray | None


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
        # past the minimum of U the weights 1 + h^2 (lam - U)/12 fall to the
        # grid end; this keeps the last one positive for every lam above it,
        # so the inward sweep's sign changes are those of y
        if grid.h**2 * (self.u[-1] - self.u[self.i_min]) / 12.0 >= 1.0:
            raise ValueError("grid step too coarse for its far end: h^2 (U - min U)/12 >= 1")

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
        """Recurrence coefficients ``g`` (a memoryview), weights ``w``, start
        index, outward seeds of ``z``, and whether the start is inside a
        barrier, below which the samples are 0."""
        grid = self.grid
        h = grid.h
        t = (h * h / 12.0) * (lam - self.u)
        w = 1.0 + t

        # start the outward recurrence where the weights are safely positive;
        # below that the samples follow the regular free solution exactly
        i0 = 0
        if w[0] < 0.75:
            i0 = int(np.argmax(w >= 0.75))
            if w[i0] < 0.75:
                raise ConsistencyError("no safe start index; grid step too coarse")
        # through a high centrifugal barrier the regular solution grows by
        # exp(h sum sqrt(U - lam)) before the allowed region; past
        # BARRIER_EXPONENT of that the sweep would overflow (and the free
        # seed underflow), so it starts where that much is left, on the
        # growing solution, whose decaying part dies by exp(-2 BARRIER_EXPONENT)
        k = i0 + int(np.searchsorted(-self.u[i0 : self.i_min + 1], -lam))
        left = h * np.cumsum(np.sqrt(self.u[i0:k] - lam)[::-1])[::-1]
        barrier = left.size > 0 and left[0] > BARRIER_EXPONENT
        if barrier:
            left = left[int(np.searchsorted(-left, -BARRIER_EXPONENT)) :]
            i0 = k - left.size
        if i0 > m - 3:
            raise ValueError("safe start index reaches the matching point")
        if barrier:
            seeds = (1.0, math.exp(h * math.sqrt(self.u[i0] - lam)))
        else:
            seeds = boundary_series_small_r(
                self.channel, lam, np.array([grid.r_min + i0 * h, grid.r_min + (i0 + 1) * h])
            ).tolist()
            scale = max(map(abs, seeds))
            if scale == 0.0 or not math.isfinite(scale):
                raise ConsistencyError("degenerate outward seed")
            seeds = (seeds[0] / scale, seeds[1] / scale)
        # the seeds lose the growth still ahead, in a power of two, so that
        # the sums of z^2 stay finite and every value keeps its bits
        e = -int(left[0] / _LN2) if left.size else 0
        z0, z1 = (math.ldexp(y * float(wi), e) for y, wi in zip(seeds, w[i0 : i0 + 2]))
        # 12/w - 10, written so that t keeps its low bits.  A memoryview
        # yields Python floats, on which the sweep runs three times faster
        # than on numpy scalars, and its slices copy nothing
        g = memoryview(2.0 - 12.0 * t / w)
        return g, w, i0, z0, z1, barrier

    def _shoot(self, lam: float, m: int, keep: bool = False) -> _Probe:
        """Probe sweep at ``lam``, matched at ``m``; see ``_Probe``.

        The mismatch's slope is Cooley's derivative: the outward
        log-derivative at ``m`` moves with ``lam`` by
        ``-int_0^m y^2 / y_m^2``, the inward one by ``+int_m^oo y^2 / y_m^2``.
        Both integrals are trapezoid sums of ``z^2``, which differs from
        ``y^2`` by ``O(h^2 lam)`` relative where the samples are large.
        """
        grid = self.grid
        n, h, u = grid.n_points, grid.h, self.u
        g, w, i0, z0, z1, barrier = self._start(lam, m)
        outward = [z0, z1] if keep else None
        zo_m, zo_c, nodes, s_out = _sweep(
            g[i0 + 1 : m], z0, z1, outward.append if keep else None
        )
        s_out += z0 * z0 + z1 * z1
        zo_p = g[m] * zo_c - zo_m

        # the decaying solution from where INWARD_DECAY of decay from m is
        # reached, or from the far boundary (the samples beyond are 0); its
        # seeds are scaled by a power of two against the growth up to m, as
        # the outward ones are
        decay = np.sqrt(np.maximum(u[m:] - lam, 0.0))
        depth = int(np.searchsorted(h * np.cumsum(decay), INWARD_DECAY))
        end = min(m + max(depth, 2), n - 1)
        theta = h * 0.5 * (float(decay[end - m - 1]) + float(decay[end - m]))
        e = -int(h * float(decay[: end - m + 1].sum()) / _LN2)
        z0 = math.ldexp(float(w[end]) * math.exp(-theta), e)
        z1 = math.ldexp(float(w[end - 1]), e)
        inward = [z0, z1] if keep else None
        zi_p, zi_c, k, s_in = _sweep(g[end - 1 : m : -1], z0, z1, inward.append if keep else None)
        s_in += z0 * z0 + z1 * z1
        zi_m = g[m] * zi_c - zi_p
        if not (math.isfinite(zi_m) and math.isfinite(s_in) and math.isfinite(s_out)):
            raise ConsistencyError("sweep overflowed")
        if zo_c == 0.0 or zi_c == 0.0:
            raise ConsistencyError("matching point sits on a node; cannot form mismatch")
        w_m, w_c, w_p = w[m - 1 : m + 2].tolist()
        o_m, o_c, o_p = zo_m / w_m, zo_c / w_c, zo_p / w_p
        i_m, i_c, i_p = zi_m / w_m, zi_c / w_c, zi_p / w_p
        mismatch = (o_p - o_m) / (2.0 * h * o_c) - (i_p - i_m) / (2.0 * h * i_c)
        # Johnson's count: the sign changes of both sweeps (those of y, the
        # weights being positive) and one where the mismatch is negative
        nodes += k + (mismatch < 0.0)
        # node m closes both sums; the trapezoid rule halves it in each
        slope = -h * (s_out / (zo_c * zo_c) + s_in / (zi_c * zi_c) - 1.0)
        result = ShootResult(mismatch=mismatch, node_count=nodes)
        if not keep:
            return _Probe(result, slope, None)

        f = np.empty(n)
        f[i0 : m + 1] = np.asarray(outward) / w[i0 : m + 1]
        inward.reverse()  # now the values at m .. end
        f[m + 1 : end + 1] = np.asarray(inward[1:]) * (f[m] / inward[0]) * (w[m] / w[m + 1 : end + 1])
        f[end + 1 :] = 0.0  # below exp(-INWARD_DECAY) of the samples at m
        if barrier:
            f[:i0] = 0.0  # below exp(-BARRIER_EXPONENT) of the samples at i0
        elif i0 > 0:
            # extend below the safe start with the regular free solution,
            # scaled to match the seed continuation
            free = boundary_series_small_r(self.channel, lam, grid.r[:i0])
            anchor = boundary_series_small_r(self.channel, lam, float(grid.r[i0]))
            f[:i0] = free * (f[i0] / anchor)
        return _Probe(result, slope, f)

    def assemble(self, lam: float, m: int, level: int, sweeps: int, bisections: int,
                 samples: np.ndarray | None = None):
        """Normalised eigenfunction stitched at ``m``, with its own node count.

        ``samples`` are those a probe sweep kept; by default a sweep at
        ``lam`` keeps them.
        """
        if samples is None:
            samples = self._shoot(lam, m, keep=True).samples
        grid = self.grid
        f = samples
        if f[np.flatnonzero(f)[0]] < 0.0:
            f = -f
        # a power of two rescales the samples exactly, keeping f * f finite
        f *= 2.0 ** -math.frexp(float(np.max(np.abs(f))))[1]
        norm_sq = float(np.dot(grid.simpson_weights, f * f))
        if norm_sq <= 0.0 or not math.isfinite(norm_sq):
            raise ConsistencyError("assembled eigenfunction has a bad norm")
        f /= math.sqrt(norm_sq)

        return _eigenpair(grid, level, lam, f, sweeps, bisections)

    def solve(self, level: int, guess: float, gap: float, rel_tol: float,
              expect: float = math.inf) -> "EigenPair":
        """Eigenpair ``level`` of the discrete recurrence from a guess.

        Takes Newton steps ``-D/D'`` on the mismatch ``D`` at a match index
        fixed from the guess, each at most half the expected ``gap``.  The
        mismatch has one root per eigenvalue, between poles, and the node
        counts of the probes bracket the level.  A probe whose count is
        neither ``level`` nor ``level + 1``, or whose step leaves the
        bracket, lies off the level's branch: the next probe is ``gap``
        times the count's distance from ``level + 1/2`` away when that is
        inside the bracket, else its midpoint, and the match moves to the
        new probe's turning point.  A Newton step that stops shrinking is
        rounding noise, and the node counts close the bracket from there.
        The level has converged when the step is at most half of
        ``rel_tol`` relative, or the bracket at most ``rel_tol``; its
        eigenvalue is the last probe plus that step, kept in the bracket.
        ``expect`` is the expected size of the first step: the probe
        expected to be the last stores its samples, so no sweep is spent
        on assembly when it is.  Raises ``ConsistencyError`` when the
        bracket cannot shrink to the tolerance, or when the assembled
        eigenfunction does not have ``level`` nodes.
        """
        x = max(guess, self.floor)
        m = self.match_index(x)
        a, b = self.floor, math.inf  # node counts: at most level at a, more at b
        cap = 0.5 * gap
        sweeps = bisections = 0
        prev = math.inf  # the last Newton step; inf after a safeguard step
        for _ in range(MAX_SWEEPS):
            half_tol = 0.5 * rel_tol * max(1.0, abs(x))
            probe = self._shoot(x, m, keep=expect <= half_tol)
            sweeps += 1
            nodes = probe.result.node_count
            if nodes <= level:
                a = x
            else:
                b = x
            step = -probe.result.mismatch / probe.slope
            # next to the level the count is level below it, level + 1 above
            near = level <= nodes <= level + 1
            if near and abs(step) <= half_tol or b - a <= 2.0 * half_tol:
                break
            # quadratic convergence: the next step is about this one squared
            # times its ratio to the square of the last one
            expect = abs(step) ** 3 / prev**2 if prev < math.inf else step * step / gap
            if near and abs(step) >= prev and prev <= NEWTON_SETTLED * gap:
                # where Newton converges quadratically a step that does not
                # shrink is rounding noise in the mismatch, and the root lies
                # within it: close in by the node count, from twice the step
                # on the root's side of x, then by halving the bracket
                x += 2.0 * abs(step) if x == a else -2.0 * abs(step)
                if not a < x < b:
                    x = 0.5 * (a + b)
            else:
                step = min(max(step, -cap), cap)
                if near and a < x + step < b:
                    x += step
                    prev = abs(step)
                    continue
                # off the level's branch of the mismatch: a node count off by
                # k levels is about k gaps away; else halve the bracket
                jump = x + (level + 0.5 - nodes) * gap
                x = jump if a < jump < b else 0.5 * (a + b)
            if not a < x < b:
                raise ConsistencyError(
                    f"level {level}: bracket [{a!r}, {b!r}] cannot shrink to rel_tol {rel_tol:g}"
                )
            bisections += 1
            prev = expect = math.inf
            m = self.match_index(x)  # the turning point of the new probe
        else:
            raise BracketError(f"level {level}: no convergence in {MAX_SWEEPS} sweeps")
        lam = min(max(x + step, a), b)
        if probe.samples is None:
            sweeps += 1  # the assembly sweep
        pair = self.assemble(lam, m, level, sweeps, bisections, probe.samples)
        if pair.node_count != level:
            raise ConsistencyError(f"level {level}: converged node count {pair.node_count}")
        return pair


def _dispersion_shifts(shooter: "_Shooter", lams) -> np.ndarray:
    """Numerov's eigenvalue errors at discrete eigenvalues, to be added to them.

    For constant ``k^2 = lam - U`` the recurrence carries the wave number
    ``k + k^5 h^4/480 + O(h^6)``, so the discrete level sits below the true
    one by ``h^4/(480 pi) int (lam - U)_+^(5/2) dr * dlam/dl`` (the
    asymptotic correction of Andrew & Paine, Numer. Math. 47, 1985).  The
    first integral is a Simpson sum over the sampled potential; the level
    spacing is the semiclassical ``dlam/dl = 2 pi / int (lam - U)^(-1/2)``
    over the allowed region ``[a, T]``, from ``wkb.allowed_integrals`` for
    all levels at once; the shift needs only a few digits of it.
    """
    grid = shooter.grid
    lams = np.asarray(lams, dtype=float)
    fifth = np.array([
        np.dot(grid.simpson_weights, k2 * k2 * np.sqrt(k2))
        for k2 in (np.maximum(lam - shooter.u, 0.0) for lam in lams.tolist())
    ])
    channel, model = shooter.channel, shooter.model
    a, b = classical_edges(channel, model, lams)
    potential = lambda r: effective_potential(channel, model, r)
    period = allowed_integrals(potential, a, b, lams)[1]
    return grid.h**4 * fifth / (240.0 * period)


def shoot_mismatch(
    channel: Channel, model: PotentialModel, lam: float, grid: RadialGrid
) -> ShootResult:
    """Log-derivative mismatch at the outer turning point and node count.

    The node count is read where the outward and inward sweeps meet: their
    sign changes, plus one where the mismatch is negative.  It equals the
    number of eigenvalues below ``lam`` except where the mismatch is
    rounding noise, on a vanishing neighbourhood of each eigenvalue.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    shooter = _Shooter(channel, model, grid)
    return shooter._shoot(lam, shooter.match_index(lam)).result


class EigenPair(NamedTuple):
    """One normalized eigenfunction with its spectral parameter.

    ``level`` is the level that was solved for; ``node_count`` is counted
    afresh on the samples, so the two can disagree.  ``sweeps`` is the
    number of shooting sweeps the level cost (the probes, and an assembly
    sweep when the last probe did not store its values) and
    ``bisections`` how many probes a safeguard step placed instead of
    Newton.  ``shift`` is the dispersion correction included in ``lam``:
    ``lam - shift`` is the eigenvalue of the discrete recurrence, and
    ``samples`` solve it at a spectral parameter within ``rel_tol`` of it.
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


class _SampleFile:
    """The samples of a saved table, read on demand from its ``.npy`` file.

    ``open`` opens the file once and checks its header against its size;
    each ``read`` copies whole rows, or one column range of each row, from
    the open file at their offsets into a new read-only array.  A file
    replaced after it was opened goes on being read, since the reads go
    through the descriptor and not the path.  ``head`` is the first rows of
    the same file, and the descriptor is closed once the file and every
    head of it are freed.
    """

    __slots__ = ("fd", "offset", "shape", "_whole", "__weakref__")

    def __init__(self, fd: int, offset: int, shape: tuple[int, int], whole=None):
        self.fd, self.offset, self.shape = fd, offset, shape
        self._whole = whole  # the file a head keeps open
        if whole is None:
            weakref.finalize(self, os.close, fd)

    @classmethod
    def open(cls, path) -> "_SampleFile":
        """The file at ``path``; ``ValueError`` unless it is a version 1.0
        ``.npy`` of a C-ordered float64 matrix, in exactly the bytes its
        header declares."""
        fmt = np.lib.format
        fd = os.open(path, os.O_RDONLY)
        try:
            with os.fdopen(fd, "rb", closefd=False) as file:
                if fmt.read_magic(file) != (1, 0):
                    raise ValueError(f"{path}: not a version 1.0 .npy file")
                shape, fortran_order, dtype = fmt.read_array_header_1_0(file)
                offset = file.tell()
            if len(shape) != 2 or fortran_order or dtype != np.dtype(float):
                raise ValueError(f"{path}: not a C-ordered float64 matrix")
            if os.fstat(fd).st_size != offset + 8 * shape[0] * shape[1]:
                raise ValueError(f"{path}: the size disagrees with the header")
        except BaseException:
            os.close(fd)
            raise
        return cls(fd, offset, shape)

    def head(self, count: int) -> "_SampleFile":
        return _SampleFile(self.fd, self.offset, (count, self.shape[1]), self._whole or self)

    def read(self, levels: range, columns: range) -> np.ndarray:
        """Rows ``levels`` at ``columns``, both unit-step ranges inside the shape."""
        out = np.empty((len(levels), len(columns)))
        width = self.shape[1]
        start = self.offset + 8 * (levels.start * width + columns.start)
        if len(columns) == width:  # whole rows lie next to each other
            parts = [(out, start)]
        else:
            parts = [(row, start + 8 * k * width) for k, row in enumerate(out)]
        for buffer, at in parts:
            if os.preadv(self.fd, [buffer], at) != buffer.nbytes:
                raise EOFError("the samples file ends before its header says")
        out.flags.writeable = False
        return out


class _EigenPairs(Sequence):
    """A table's levels as eigenpairs, each built from its row when it is
    read; a slice is a tuple of them.  It holds no row."""

    __slots__ = ("table",)

    def __init__(self, table: "SpectrumTable"):
        self.table = table

    def __len__(self) -> int:
        return len(self.table.record.eigenvalues)

    def __getitem__(self, index):
        levels = range(len(self))[index]
        if isinstance(index, slice):
            return tuple(self.table.pair(level) for level in levels)
        return self.table.pair(levels)


class _SpectrumTable(NamedTuple):
    record: SpectrumRecord
    samples: np.ndarray | _SampleFile


class SpectrumTable(_SpectrumTable):
    """Levels ``0 .. L-1`` of one channel on a shared grid: the cache record
    and one row of samples per level.

    The samples are an ``(L, N)`` array for a table held in memory, and
    for a loaded table its ``.npy`` file (``_SampleFile``), from which
    each read copies what it asks for.  ``row``, ``block`` and
    ``eigenpairs`` serve both.  The table has no ``__slots__``, so its
    instance dict holds ``eigenvalues`` once it is first read;
    ``eigenpairs`` is a view that reads each pair's row when that pair is
    read, and keeps none.
    """

    def __new__(cls, record: SpectrumRecord, samples: np.ndarray | _SampleFile):
        shape = (len(record.eigenvalues), record.grid.n_points)
        if samples.shape != shape:
            raise ValueError(f"samples do not hold {shape[0]} levels on the grid")
        return super().__new__(cls, record, samples)

    @property
    def channel(self) -> Channel:
        return self.record.channel

    @property
    def model(self) -> PotentialModel:
        return self.record.model

    @property
    def grid(self) -> RadialGrid:
        return self.record.grid

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.array(self.record.eigenvalues, dtype=float)

    def _read(self, levels: range, columns: range) -> np.ndarray:
        if isinstance(self.samples, _SampleFile):
            return self.samples.read(levels, columns)
        return self.samples[levels.start : levels.stop, columns.start : columns.stop]

    def row(self, level: int) -> np.ndarray:
        """The samples of one level: a view of the row in memory, or a
        read-only copy read from the file."""
        level = range(len(self.eigenvalues))[level]
        return self._read(range(level, level + 1), range(self.grid.n_points))[0]

    def block(self, columns: slice | Sequence[int] = slice(None),
              levels: slice = slice(None)) -> np.ndarray:
        """Samples of ``levels`` (every level by default) at ``columns``, a
        unit-step slice of the grid or a list of grid indices, which index
        as a list's do, one row per level; a loaded table reads only those."""
        levels = range(len(self.eigenvalues))[levels]
        points = range(self.grid.n_points)
        if isinstance(columns, slice):
            return self._read(levels, points[columns])
        out = np.empty((len(levels), len(columns)))
        for k, i in enumerate(columns):
            i = points[i]
            out[:, k] = self._read(levels, range(i, i + 1))[:, 0]
        return out

    def pair(self, level: int) -> EigenPair:
        if not 0 <= level < len(self.eigenvalues):
            raise IndexError(f"level {level} outside 0..{len(self.eigenvalues) - 1}")
        rec = self.record
        return _eigenpair(
            self.grid, level, self.eigenvalues[level], self.row(level),
            rec.sweeps[level], rec.bisections[level], rec.shifts[level],
        )

    @property
    def eigenpairs(self) -> Sequence[EigenPair]:
        """Every level as an eigenpair, read when it is indexed; in memory
        the samples are views of the rows."""
        return _EigenPairs(self)

    def truncated(self, count: int) -> "SpectrumTable":
        """The table of the first ``count`` levels."""
        samples = self.samples
        head = samples.head(count) if isinstance(samples, _SampleFile) else samples[:count]
        return SpectrumTable(self.record.truncated(count), head)


def _action_guess(channel: Channel, model: PotentialModel, level: int):
    """WKB eigenvalue guess and the gap it expects above it."""
    lam = inverse_action(model, quantization_target(channel, level))
    return lam, 1.0 / level_density(model, lam)


def _default_grid(channel, model, l_max, points_per_wavelength):
    lam_top = inverse_action(model, quantization_target(channel, l_max) + 2.0)
    return build_grid(channel, model, 1.1 * lam_top, points_per_wavelength)


def solve_level(
    channel: Channel,
    model: PotentialModel,
    level: int,
    grid: RadialGrid | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    points_per_wavelength: float = DEFAULT_POINTS_PER_WAVELENGTH,
) -> EigenPair:
    """Eigenpair with exactly ``level`` interior nodes.

    Newton steps on the log-derivative mismatch from the WKB guess, kept
    on the level by the node count of the shooting sweep, to relative
    tolerance ``rel_tol``.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    if grid is None:
        grid = _default_grid(channel, model, level, points_per_wavelength)
    shooter = _Shooter(channel, model, grid)
    pair = shooter.solve(level, *_action_guess(channel, model, level), rel_tol)
    shift = float(_dispersion_shifts(shooter, [pair.lam])[0])
    return pair._replace(lam=pair.lam + shift, shift=shift)


def solve_spectrum(
    channel: Channel,
    model: PotentialModel,
    l_max: int,
    grid: RadialGrid | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    points_per_wavelength: float = DEFAULT_POINTS_PER_WAVELENGTH,
    path=None,
) -> SpectrumTable:
    """All eigenpairs of levels ``0 .. l_max`` on one shared grid.

    Levels 0 to 2 start from the WKB guess; level 3 from the quadratic in
    ``lam^p``, ``p = (c + 1)/(2c)`` with ``c`` the growth index, through
    the three below, each later level from the cubic through the four
    below, whose last finite difference is the expected first step.
    The dispersion shifts of all levels are taken in one call at the end.

    Without ``path`` the samples are held in one array.  With it the table
    is saved there as it is solved, through the writer of ``save_spectrum``,
    each level's row staged as the level converges, and the table returned
    reads its samples from the saved file; a solve that fails leaves the
    files of an earlier table at ``path`` as they were.
    """
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    if grid is None:
        grid = _default_grid(channel, model, l_max, points_per_wavelength)
    shooter = _Shooter(channel, model, grid)
    shape = (l_max + 1, grid.n_points)
    tolerances = {"rel_tol": rel_tol, "points_per_wavelength": points_per_wavelength}
    if path is None:
        samples = np.empty(shape)
        return SpectrumTable(_solve_levels(shooter, l_max, tolerances, samples.__setitem__),
                             samples)
    path = Path(path)
    record = _write_table(path, shape, partial(_solve_levels, shooter, l_max, tolerances))
    return SpectrumTable(record, _SampleFile.open(path.with_suffix(".npy")))


def _solve_levels(shooter: _Shooter, l_max: int, tolerances: dict, keep) -> SpectrumRecord:
    """The record of levels ``0 .. l_max``; ``keep(level, row)`` receives
    each level's samples as the level converges."""
    c = shooter.model.growth_index
    power = (c + 1.0) / (2.0 * c)
    lams, sweeps, bisections = [], [], []
    for level in range(l_max + 1):
        if level < 3:
            guess, gap = _action_guess(shooter.channel, shooter.model, level)
            expect = math.inf
        else:
            below = np.array(lams[-4:]) ** power
            diffs = [float(np.diff(below, j)[-1]) for j in range(below.size)]
            ahead = sum(diffs)
            guess = ahead ** (1.0 / power)
            # d lam / d(lam^p) = lam / (p lam^p) carries the last difference over
            gap, expect = guess - lams[-1], abs(diffs[-1]) * guess / (power * ahead)
        pair = shooter.solve(level, guess, gap, tolerances["rel_tol"], expect)
        if lams and pair.lam <= lams[-1]:
            raise ConsistencyError(f"level {level}: eigenvalues not increasing")
        keep(level, pair.samples)
        lams.append(pair.lam)
        sweeps.append(pair.sweeps)
        bisections.append(pair.bisections)
    lams = np.array(lams)
    shifts = _dispersion_shifts(shooter, lams)
    return SpectrumRecord(
        channel=shooter.channel,
        model=shooter.model,
        grid=shooter.grid,
        tolerances=tolerances,
        eigenvalues=tuple((lams + shifts).tolist()),
        sweeps=tuple(sweeps),
        bisections=tuple(bisections),
        shifts=tuple(shifts.tolist()),
    )


def _write_table(path: Path, shape: tuple[int, int], fill) -> SpectrumRecord:
    """Stage the ``.npy`` header ``np.save`` writes for a float64 array of
    ``shape``, the rows that ``fill(keep)`` passes to ``keep(level, row)``
    in level order and the record it returns, then move both files over the
    old ones in one ``replace_files``; returns the record."""
    record = None

    def samples(file):
        nonlocal record
        header = {"descr": np.lib.format.dtype_to_descr(np.dtype(float)),
                  "fortran_order": False, "shape": shape}
        np.lib.format.write_array_header_1_0(file, header)
        record = fill(lambda level, row: file.write(row))

    replace_files({path.with_suffix(".npy"): samples,
                   path: lambda file: file.write(record.to_json().encode("ascii"))})
    return record


def save_spectrum(table: SpectrumTable, path) -> Path:
    """Persist a table as its JSON record plus a binary sample sidecar, the
    ``.npy`` that ``np.save`` writes of its samples, row by row through the
    writer of a solve to a path; a save that fails leaves both files of an
    earlier table as they were."""
    path = Path(path)

    def fill(keep):
        for level in range(len(table.eigenvalues)):
            keep(level, np.ascontiguousarray(table.row(level), dtype=float))
        return table.record

    _write_table(path, table.samples.shape, fill)
    return path


def load_spectrum(path) -> SpectrumTable:
    """The table saved at ``path``: its record, and its samples read from
    the ``.npy`` on demand.  A sample file whose header or size disagrees
    with the record raises ``ValueError`` here, before any read."""
    path = Path(path)
    record = read_spectrum_record(path)
    return SpectrumTable(record, _SampleFile.open(path.with_suffix(".npy")))


def export_spectrum_csv(tables: Sequence[SpectrumTable], path) -> Path:
    from .formats import fmt, write_csv

    header = ["d", "n", "l", "lambda", "nodes", "f_at_1", "fprime_at_1"]
    rows = []
    for table in sorted(tables, key=lambda t: (t.channel.d, t.channel.n)):
        for p in table.eigenpairs:
            rows.append(
                [
                    str(table.channel.d),
                    str(table.channel.n),
                    str(p.level),
                    fmt(p.lam),
                    str(p.node_count),
                    fmt(p.f_at_1),
                    fmt(p.fprime_at_1),
                ]
            )
    return write_csv(path, header, rows)
