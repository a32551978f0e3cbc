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

One probe sweep at a spectral parameter gives the node count of the full
outward sweep (which jumps at each eigenvalue), the mismatch at a match
index read off the sampled potential, and the mismatch's slope in ``lam``
(Cooley's derivative, Math. Comp. 15, 1961), summed from ``z^2`` during
the sweep.  Past the turning point the outward sweep stops once ``z``
grows with one sign, after which the recurrence admits no sign change.
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
that takes the record's name.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .defaults import (  # also read from here, as eigensolve.DEFAULT_*
    DEFAULT_POINTS_PER_WAVELENGTH,
    DEFAULT_REL_TOL,
    MIN_POINTS_PER_WAVELENGTH,
)
from .errors import BracketError, ConsistencyError
from .formats import RadialGrid, SpectrumRecord, read_spectrum_record
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
_DECAY_PIECES = 8  # pieces of build_grid's decay integral per call of the rule
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
    # up to the piece that reaches INWARD_DECAY; _DECAY_PIECES at a time
    edges = [big_t, big_t * 1.05 + 0.5]
    acc, done = 0.0, 0
    while acc < INWARD_DECAY:
        while len(edges) < done + _DECAY_PIECES + 1:
            edges.append(edges[-1] * 1.2)
        lo, hi = np.array(edges[done:-1]), np.array(edges[done + 1 :])
        for piece in _root_integrals(channel, model, np.full(lo.shape, lam_max), lo, hi).tolist():
            acc += piece
            done += 1
            if acc >= INWARD_DECAY:
                break
    r_far = edges[done]

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


def _sweep(g, z0, z1, keep=None, stop=False):
    """Run Numerov's recurrence ``z2 = g z1 - z0`` on ``z = w y`` over ``g``.

    Returns the last two values, the number of sign changes among the new
    values and the sum of their squares; ``keep``, when given, receives
    each new value.  Sweeping inward is the same recurrence on the
    reversed list.  With ``stop`` the sweep ends before the first new value
    that carries ``|z|`` further from zero with one sign: the caller
    guarantees ``g > 2`` (``U > lam``) from that value on, so ``|z|`` would
    keep growing with that sign and no later value could change sign.
    """
    nodes = 0
    s = 0.0
    for gi in g:
        z2 = gi * z1 - z0
        if z1 * z2 < 0.0:
            nodes += 1
        elif stop and (z2 - z1) * z1 > 0.0:
            break
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
        # grid end; this keeps the last one positive for every lam above it
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

    def _tail_nodes(self, g, lam: float, m: int, z0: float, z1: float) -> int:
        """Sign changes of the outward samples past ``m + 1``, continuing
        the sweep from its values at ``m`` and ``m + 1``.

        The weights stay positive to the grid end (``_Shooter`` checks the
        last one), so ``sign z = sign y``, and the sweep stops early from
        the first node with ``U > lam`` on.
        """
        n = self.grid.n_points
        k_t = self.i_min + int(np.searchsorted(self.u[self.i_min :], lam, side="right"))
        s = max(m + 1, k_t - 1)
        z0, z1, nodes, _ = _sweep(g[m + 1 : s], z0, z1)
        z0, z1, k, _ = _sweep(g[s : n - 1], z0, z1, stop=True)
        if not (math.isfinite(z0) and math.isfinite(z1)):
            raise ConsistencyError("outward sweep overflowed past the turning point")
        return nodes + k

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
        if zo_c * zo_p < 0.0:
            nodes += 1
        nodes += self._tail_nodes(g, lam, m, zo_c, zo_p)

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
        zi_p, zi_c, _, s_in = _sweep(g[end - 1 : m : -1], z0, z1, inward.append if keep else None)
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

    The node count includes the sign flip of the divergent tail, so it
    equals the number of eigenvalues below ``lam`` except on a vanishing
    neighbourhood of each eigenvalue.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    shooter = _Shooter(channel, model, grid)
    return shooter._shoot(lam, shooter.match_index(lam)).result


@dataclass(frozen=True)
class EigenPair:
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


@dataclass(frozen=True)
class SpectrumTable:
    """Levels ``0 .. L-1`` of one channel on a shared grid: the cache record
    and one row of samples per level."""

    record: SpectrumRecord
    samples: np.ndarray

    def __post_init__(self):
        shape = (len(self.record.eigenvalues), self.grid.n_points)
        if self.samples.shape != shape:
            raise ValueError(f"samples do not hold {shape[0]} levels on the grid")

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

    def pair(self, level: int) -> EigenPair:
        if not 0 <= level < len(self.eigenvalues):
            raise IndexError(f"level {level} outside 0..{len(self.eigenvalues) - 1}")
        rec = self.record
        return _eigenpair(
            self.grid, level, self.eigenvalues[level], self.samples[level],
            rec.sweeps[level], rec.bisections[level], rec.shifts[level],
        )

    @cached_property
    def eigenpairs(self) -> tuple[EigenPair, ...]:
        """Every level as an eigenpair; the samples are views of the rows."""
        return tuple(self.pair(level) for level in range(len(self.eigenvalues)))

    def truncated(self, count: int) -> "SpectrumTable":
        """The table of the first ``count`` levels."""
        return SpectrumTable(self.record.truncated(count), self.samples[:count])


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
    return dataclasses.replace(pair, lam=pair.lam + shift, shift=shift)


def solve_spectrum(
    channel: Channel,
    model: PotentialModel,
    l_max: int,
    grid: RadialGrid | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    points_per_wavelength: float = DEFAULT_POINTS_PER_WAVELENGTH,
) -> SpectrumTable:
    """All eigenpairs of levels ``0 .. l_max`` on one shared grid.

    Levels 0 to 2 start from the WKB guess; level 3 from the quadratic in
    ``lam^p``, ``p = (c + 1)/(2c)`` with ``c`` the growth index, through
    the three below, each later level from the cubic through the four
    below, whose last finite difference is the expected first step.
    The dispersion shifts of all levels are taken in one call at the end.
    """
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    if grid is None:
        grid = _default_grid(channel, model, l_max, points_per_wavelength)
    shooter = _Shooter(channel, model, grid)
    c = model.growth_index
    power = (c + 1.0) / (2.0 * c)
    samples = np.empty((l_max + 1, grid.n_points))
    lams, sweeps, bisections = [], [], []
    for level in range(l_max + 1):
        if level < 3:
            guess, gap = _action_guess(channel, model, level)
            expect = math.inf
        else:
            below = np.array(lams[-4:]) ** power
            diffs = [float(np.diff(below, j)[-1]) for j in range(below.size)]
            ahead = sum(diffs)
            guess = ahead ** (1.0 / power)
            # d lam / d(lam^p) = lam / (p lam^p) carries the last difference over
            gap, expect = guess - lams[-1], abs(diffs[-1]) * guess / (power * ahead)
        pair = shooter.solve(level, guess, gap, rel_tol, expect)
        if lams and pair.lam <= lams[-1]:
            raise ConsistencyError(f"level {level}: eigenvalues not increasing")
        samples[level] = pair.samples
        lams.append(pair.lam)
        sweeps.append(pair.sweeps)
        bisections.append(pair.bisections)
    lams = np.array(lams)
    shifts = _dispersion_shifts(shooter, lams)
    record = SpectrumRecord(
        channel=channel,
        model=model,
        grid=grid,
        tolerances={"rel_tol": rel_tol, "points_per_wavelength": points_per_wavelength},
        eigenvalues=tuple((lams + shifts).tolist()),
        sweeps=tuple(sweeps),
        bisections=tuple(bisections),
        shifts=tuple(shifts.tolist()),
    )
    return SpectrumTable(record, samples)


def save_spectrum(table: SpectrumTable, path) -> Path:
    """Persist a table as its JSON record plus a binary sample sidecar."""
    path = Path(path)
    np.save(path.with_suffix(".npy"), table.samples)
    return table.record.write(path)


def load_spectrum(path) -> SpectrumTable:
    """The table saved at ``path``: its record and its samples."""
    path = Path(path)
    return SpectrumTable(read_spectrum_record(path), np.load(path.with_suffix(".npy")))


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
