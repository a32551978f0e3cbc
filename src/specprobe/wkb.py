"""Semiclassical certificates for the computed spectra.

Turning points, action integrals, quantization residuals, boundary
amplitudes, profile residuals, and the scaling fits that certify how they
grow with the spectral parameter.  Turning points and the edges of allowed
regions come from one Newton iteration over an array of levels
(``_newton_edge``); ``U`` is convex, so started on the far side of each
root it converges monotonically.  Every integral from one edge of an
allowed region to the other (the action, its exact derivative in ``lam``
and the solver's level spacing) comes from one fixed Gauss-Legendre rule
in an angle that takes out the square roots at both edges
(``allowed_integrals``); the inverse of the action is Newton's method on
it.  Phase and turning-point coordinate are integrals of ``sqrt|lam - U|``
between a radius and ``T`` by the same rule (``_root_integrals``), and
the error-control integral runs on it too, its pieces split at the zeros
of its integrand (``_kinked_integrals``).  No integral here is adaptive.
Tables are read through ``eigenvalues``, ``grid``, ``block`` and
``eigenpairs`` (``lam``, ``level``, ``samples``, ``f_at_1``,
``fprime_at_1``), so this module needs no solver, and a table read from
disk holds one row at a time.  The ``wkb`` command reads each level's five
samples around ``r = 1`` in one block (``summarize``), and whole rows only
at the Langer ladder's levels; ``amplitude_scaling`` reads the summaries.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ThresholdError
from .potential import Channel, PotentialModel, effective_potential, eval_potential
from .fitting import PowerLawFit, fit_power_law
from .specfun import _gl_rule, langer_profile
# not called here any more; the name stays because specbench/tracing.py
# wraps it, and test_benchmark_tooling requires every wrapped name to resolve
from .specfun import integrate_sqrt_singular

__all__ = [
    "PhaseZeta",
    "LangerFit",
    "WkbSummary",
    "turning_points",
    "classical_edges",
    "allowed_integrals",
    "action_integral",
    "quantization_target",
    "bs_residual",
    "phase_and_zeta",
    "allowed_interval",
    "amplitude_from_boundary",
    "extract_C_lambda",
    "rephased_amplitude",
    "allowed_region_residual",
    "langer_residual",
    "appendix_error_integral",
    "amplitude_scaling",
    "summarize",
    "export_wkb_csv",
]


# least depth lam - min U, relative to lam, of a well in which the rounding
# noise of lam - U (16 ulps of lam) falls below 1e-11 of it; about 3.6e-4
_MIN_WELL_DEPTH = 16.0 * float(np.finfo(float).eps) / 1e-11
# radii per evaluation of the rule in _root_integrals; bounds its arrays
_BLOCK = 256
# cap on the steps of _newton_edge and inverse_action; from their starts
# ten have sufficed
_NEWTON_ITERS = 100
# half-width, relative to T, of the window where appendix_error_integral
# interpolates (r - T) g instead of evaluating it
_NEAR_T = 0.1
# intervals per piece of the sign scan for the zeros of (r - T) g; two zeros
# within one interval go unseen.  On the package's test models and channels
# the zeros lie 0.3 T apart or more, all below 2 T
_SCAN = 128
# bracket width, relative to the zero, at which _refine_zeros stops; a part
# cut that far off a kink of |(r - T) g| is off by about its square
_ZERO_TOL = 1e-10
# doubling pieces of appendix_error_integral per batch: the quartic ladder
# takes 14 at each rung, the sextic 10 and the harmonic 20
_DOUBLINGS = 16


class PhaseZeta(NamedTuple):
    phase: float
    zeta: float  # signed: negative below T, positive above (times i)


def _newton_edge(fun, targets: np.ndarray, r: np.ndarray, outward: float) -> np.ndarray:
    """Edge of ``{fun <= target}`` on one convex branch of ``fun``, per target.

    ``fun(r, k)`` is the ``k``-th derivative of the function over an array.
    Every ``r`` starts on the branch with ``fun(r) >= target``; from there
    Newton's method on a convex function moves monotonically to the root,
    never past it, and a target's iteration stops once its step is small
    and no longer shrinks (far from the root a step may still grow).  The last ulps are then walked so that each edge
    is the last float of the set in the direction ``outward`` (``inf`` on
    an increasing branch, ``-inf`` on a decreasing one):
    ``fun(edge) <= target < fun(nextafter(edge, outward))``.
    """
    r = np.array(r, dtype=float)
    step = np.full(r.shape, np.inf)
    live = np.ones(r.shape, dtype=bool)
    for _ in range(_NEWTON_ITERS):
        new = (fun(r[live], 0) - targets[live]) / fun(r[live], 1)
        size = np.abs(new)
        stop = (new == 0.0) | ((size >= np.abs(step[live])) & (size <= 1e-8 * r[live]))
        idx = np.flatnonzero(live)
        move = idx[~stop]
        r[move] -= new[~stop]
        step[move] = new[~stop]
        live[idx[stop]] = False
        if not live.any():
            break
    else:
        raise ValueError("turning point iteration did not converge")
    inward = -outward
    while True:
        out = fun(r, 0) > targets
        if not out.any():
            break
        r[out] = np.nextafter(r[out], inward)
    while True:
        nxt = np.nextafter(r, outward)
        grow = fun(nxt, 0) <= targets
        if not grow.any():
            return r
        r[grow] = nxt[grow]


def _upper_start(model: PotentialModel, targets: np.ndarray) -> np.ndarray:
    # V is at least each of its terms, so the root of V = t past the
    # minimum of U (and that of U = t, since U >= V) is at most each term's
    return np.min(
        [(targets / t.coefficient) ** (1.0 / t.exponent) for t in model.terms], axis=0
    )


def _potential_min_radius(channel: Channel, model: PotentialModel) -> float:
    # U' = 0 where r^3 V'(r) = 2 gamma: a sum of positive powers of r, so
    # convex and increasing, and each term alone puts its root above r_c
    if channel.gamma == 0.0:
        return 0.0

    def fun(r, k):
        vp = eval_potential(model, r, 1)
        return r**3 * vp if k == 0 else r * r * (3.0 * vp + r * eval_potential(model, r, 2))

    target = np.array([2.0 * channel.gamma])
    start = np.min(
        [(target / (t.coefficient * t.exponent)) ** (1.0 / (t.exponent + 2))
         for t in model.terms],
        axis=0,
    )
    return float(_newton_edge(fun, target, start, math.inf)[0])


def _bare_edges(model: PotentialModel, targets: np.ndarray) -> np.ndarray:
    """Root ``X`` of ``V = target``, the edge of ``{V <= target}``, for every target."""
    fun = lambda r, k: eval_potential(model, r, k)
    return _newton_edge(fun, targets, _upper_start(model, targets), math.inf)


def _outer_edges(channel: Channel, model: PotentialModel, targets: np.ndarray) -> np.ndarray:
    """Outer edge of ``{U <= target}`` for every target above the minimum of ``U``."""
    fun = lambda r, k: effective_potential(channel, model, r, k)
    return _newton_edge(fun, targets, _upper_start(model, targets), math.inf)


def _inner_edges(channel: Channel, model: PotentialModel, targets: np.ndarray) -> np.ndarray:
    """Inner edge of ``{U <= target}`` for every target above the minimum of ``U``.

    0 when gamma is 0.  ``U`` is convex, and ``U >= gamma/r^2`` puts
    ``sqrt(gamma/target)`` at or below the edge.
    """
    if channel.gamma == 0.0:
        return np.zeros_like(targets)
    fun = lambda r, k: effective_potential(channel, model, r, k)
    return _newton_edge(fun, targets, np.sqrt(channel.gamma / targets), -math.inf)


def _checked_levels(channel, model, lams, r_c: float) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    if not np.all(np.isfinite(lams) & (lams > 0.0)):
        raise ValueError("lam must be positive and finite")
    if r_c > 0.0:
        low = effective_potential(channel, model, r_c) >= lams * (1.0 - _MIN_WELL_DEPTH)
        if low.any():
            raise ValueError(
                f"lam={lams[low][0]} does not exceed the potential minimum by "
                f"{_MIN_WELL_DEPTH:.2g} relative; no resolvable turning point"
            )
    return lams


def classical_edges(channel: Channel, model: PotentialModel, lams):
    """Edges of the classically allowed region ``{U <= lam}``, per ``lam``.

    Returns the inner edges (0 when gamma is 0) and the outer ones, the
    turning points ``T``, as arrays.  Each edge is the last float of the
    region on its side.  Raises ``ValueError`` as ``turning_points`` does.
    """
    lams = _checked_levels(channel, model, lams, _potential_min_radius(channel, model))
    return _inner_edges(channel, model, lams), _outer_edges(channel, model, lams)


def turning_points(channel: Channel, model: PotentialModel, lam: float) -> float:
    """Outer classical turning point ``T``: the outer root of ``U = lam``.

    It is the last float at which ``U`` does not exceed ``lam``.  Raises
    ``ValueError`` when ``lam`` does not exceed the minimum of the
    effective potential by ``_MIN_WELL_DEPTH`` relative: below that depth
    the classical region is rounding noise for the phase integral.  The
    bare turning point ``X`` of ``V`` is ``_bare_edges``.
    """
    lams = _checked_levels(channel, model, [lam], _potential_min_radius(channel, model))
    return float(_outer_edges(channel, model, lams)[0])


def allowed_integrals(potential, a, b, lams):
    """Integrals of ``sqrt(lam - U)`` and ``(lam - U)^(-1/2)`` over ``[a, b]``, per ``lam``.

    ``potential`` evaluates ``U`` over an array of radii; ``a``, ``b`` and
    ``lams`` are arrays of one shape with ``U <= lam`` on each ``[a, b]``,
    whose ends may be simple roots of ``lam - U``.  With
    ``r = a + (b - a)(1 - cos theta)/2`` both integrands, ``dr`` included,
    are smooth in ``theta`` on ``[0, pi]``: ``sin theta`` takes out the
    inverse square roots at both ends.  One 48-node Gauss-Legendre rule in
    ``theta`` then gives both integrals to rounding for the polynomial
    potentials of this package, all levels from one array of nodes.
    """
    r, dr, weights = _theta_rule(a, b)
    root = np.sqrt(lams[:, None] - potential(r))
    return 0.5 * math.pi * ((dr * root) @ weights), 0.5 * math.pi * ((dr / root) @ weights)


def _theta_rule(a, b):
    """Radii, ``dr/dtheta`` and weights of the rule of ``allowed_integrals``,
    one row per ``[a, b]``; ``pi/2`` times the weighted sum of ``f dr`` over
    a row integrates ``f``."""
    nodes, weights = _gl_rule(48)
    theta = 0.5 * math.pi * (nodes + 1.0)
    half = (0.5 * (b - a))[:, None]
    return a[:, None] + half * (1.0 - np.cos(theta)), half * np.sin(theta), weights


def _root_integrals(channel, model, lams, a, b) -> np.ndarray:
    """``int_a^b sqrt|lam - U|`` for arrays of ``lam``, ``a`` and ``b``, by the
    rule of ``allowed_integrals``, ``_BLOCK`` intervals at a time.  Each row
    is summed on its own, so equal intervals give equal bits wherever they sit."""
    out = np.empty(a.shape)
    for i in range(0, a.size, _BLOCK):
        block = slice(i, i + _BLOCK)
        r, dr, weights = _theta_rule(a[block], b[block])
        root = np.sqrt(np.abs(lams[block, None] - effective_potential(channel, model, r)))
        out[block] = 0.5 * math.pi * np.sum(dr * root * weights, axis=1)
    return out


def _bare_action(model: PotentialModel, lams: np.ndarray, big_x=None):
    """Action ``(1/pi) int_0^X sqrt(lam - V)`` and its exact ``lam``-derivative
    ``(1/(2 pi)) int_0^X (lam - V)^(-1/2)``, per ``lam``; ``X`` is computed
    when not given."""
    if big_x is None:
        big_x = _bare_edges(model, lams)
    potential = lambda r: eval_potential(model, r)
    root, inverse = allowed_integrals(potential, np.zeros_like(lams), big_x, lams)
    return root / math.pi, inverse / (2.0 * math.pi)


def _checked_lam(lam: float) -> np.ndarray:
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    return np.array([lam], dtype=float)


def action_integral(model: PotentialModel, lam: float, big_x: float | None = None) -> float:
    """Semiclassical action ``(1/pi) * int_0^X sqrt(lam - V)`` of the bare potential.

    ``big_x``, the root of ``V = lam``, is computed when not given.
    """
    lams = _checked_lam(lam)
    edges = None if big_x is None else np.array([big_x], dtype=float)
    return float(_bare_action(model, lams, edges)[0][0])


def level_density(model: PotentialModel, lam: float) -> float:
    """Derivative of the action in ``lam``; reciprocal of the local gap."""
    return float(_bare_action(model, _checked_lam(lam))[1][0])


def _single_term_inverse(term, target: float) -> float:
    # action of kappa r^(2c) = lam^((c+1)/(2c)) kappa^(-1/(2c)) const / pi,
    # const = int_0^1 sqrt(1 - u^(2c)) du via the beta function
    c = term.exponent / 2.0
    inv = 1.0 / (2.0 * c)
    const = math.gamma(inv) * math.gamma(1.5) / (2.0 * c * math.gamma(inv + 1.5))
    return (target * math.pi * term.coefficient**inv / const) ** (2.0 * c / (c + 1.0))


def inverse_action(model: PotentialModel, target: float) -> float:
    """Spectral parameter at which the action reaches ``target`` (> 0).

    Closed form for one term.  A sum of terms is at least each of them, so
    the largest single-term inverse is a lower bound, and Newton's method
    on ``log A`` in ``log lam`` starts there.  That function is nearly
    linear: integrating ``A`` by parts puts its slope ``lam A'/A`` between
    the terms' ``(c+1)/(2c)``.  A step of at most 1e-8 leaves an error of
    the order of its square, below rounding, and ends the iteration.
    """
    if not (math.isfinite(target) and target > 0.0):
        raise ValueError("target action must be positive")
    lam = max(_single_term_inverse(term, target) for term in model.terms)
    if len(model.terms) == 1:
        return lam
    for _ in range(_NEWTON_ITERS):
        action, density = _bare_action(model, np.array([lam]))
        step = math.log(target / action[0]) * action[0] / (lam * density[0])
        lam *= math.exp(step)
        if abs(step) <= 1e-8:
            return lam
    raise ValueError(f"inverse action did not converge for target {target}")


def quantization_target(channel: Channel, level: int) -> float:
    """Quantization count ``l + n/2 + d/4`` for the given channel level."""
    if level < 0:
        raise ValueError("level must be non-negative")
    return level + channel.n / 2.0 + channel.d / 4.0


def bs_residual(pair, channel: Channel, model: PotentialModel) -> float:
    """Action minus the quantization count at the pair's spectral parameter."""
    return action_integral(model, pair.lam) - quantization_target(channel, pair.level)


def phase_and_zeta(
    channel: Channel, model: PotentialModel, lam: float, r
) -> PhaseZeta:
    """Phase ``S(r) = int_1^r sqrt(lam - U)`` and turning-point coordinate.

    ``zeta`` is returned through a signed real convention: for ``r`` below
    the outer turning point it equals ``-|zeta|`` (the coordinate is the
    negative real number ``-(3/2 int_r^T sqrt(lam-U))^(2/3)`` to the power
    1 in its natural phase); for ``r`` above it is the positive magnitude
    of the imaginary coordinate ``i * int_T^r sqrt(U - lam)``.  The phase
    requires ``U < lam`` at both ``1`` and ``r``; it stops at ``T``, so
    above ``T`` it is ``S(T)``.  ``r`` may be a scalar or an array, and
    the fields take its shape.

    Both come from the rule of ``allowed_integrals`` between ``r`` and
    ``T``; it does not take out the square root at a channel's inner edge
    ``a``, so at ``a + delta (T - a)`` it holds 2e-13 relative at ``delta =
    1e-3`` but 5e-9 at 1e-6.  The package's windows start at 0.5, ``T/2``
    or 0.8, clear of that.
    """
    rs = np.asarray(r, dtype=float)
    big_t = turning_points(channel, model, lam)
    below = (rs < big_t) & (np.abs(rs - big_t) > 1e-12 * big_t)
    if np.any(below & (effective_potential(channel, model, rs) >= lam)):
        raise ValueError("r is inside the inner forbidden region")
    if effective_potential(channel, model, 1.0) >= lam:
        raise ValueError("phase undefined: U(1) >= lam")
    zetas = _zeta(channel, model, lam, big_t, np.append(rs.ravel(), 1.0))
    zeta = zetas[:-1].reshape(rs.shape)
    phase = np.minimum(zeta, 0.0) - zetas[-1]
    if rs.ndim == 0:
        return PhaseZeta(phase=float(phase), zeta=float(zeta))
    return PhaseZeta(phase=phase, zeta=zeta)


def _zeta(channel, model, lam, big_t, rs: np.ndarray) -> np.ndarray:
    # Signed zeta of phase_and_zeta at every radius: the integral of
    # sqrt|lam - U| between r and T, signed as r - T.  Radii within 1e-12
    # relative of T get 0.
    lo, hi = np.minimum(rs, big_t), np.maximum(rs, big_t)
    dist = _root_integrals(channel, model, np.full(rs.shape, lam), lo, hi)
    return np.where(hi - lo > 1e-12 * hi, np.sign(rs - big_t) * dist, 0.0)


def _allowed_edges(channel, model, lams: np.ndarray, r_c: float):
    """Edges of ``allowed_interval`` for every ``lam``; nan where the set is empty."""
    half = 0.5 * lams
    a = np.full(lams.shape, math.nan)
    b = np.full(lams.shape, math.nan)
    ok = half > (effective_potential(channel, model, r_c) if r_c > 0.0 else 0.0)
    if ok.any():
        outer = _outer_edges(channel, model, half[ok])
        # Python's pow, as for one lam: numpy's differs from it in the last bit
        lo = np.maximum(
            [lam ** -0.25 for lam in lams[ok].tolist()], _inner_edges(channel, model, half[ok])
        )
        empty = lo >= outer
        a[ok] = np.where(empty, math.nan, lo)
        b[ok] = np.where(empty, math.nan, outer)
    return a, b


def allowed_interval(
    channel: Channel, model: PotentialModel, lam: float
) -> tuple[float, float]:
    """Interval ``{r >= lam^(-1/4) : U(r) <= lam/2}``.

    The upper edge is the last float with ``U <= lam/2``; the lower one is
    ``lam^(-1/4)`` or the first float with ``U <= lam/2``, whichever is
    larger.  Raises ``ThresholdError`` when the set is empty, carrying the
    failing spectral parameter.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    a, b = _allowed_edges(channel, model, np.array([lam]), _potential_min_radius(channel, model))
    if math.isnan(a[0]):
        raise ThresholdError(
            f"allowed region empty at lam={lam}: no r >= lam^(-1/4) with U(r) <= lam/2",
            lam=lam,
        )
    return float(a[0]), float(b[0])


def boundary_values(grid, read):
    """``f(1)`` and ``f'(1)`` (five-point central difference) from ``read(columns)``,
    the samples at a slice of ``grid``'s columns: one row, or one per level."""
    k1 = grid.index_of(1.0)
    f = read(slice(k1 - 2, k1 + 3))
    return f[..., 2], (f[..., 0] - 8.0 * f[..., 1] + 8.0 * f[..., 3] - f[..., 4]) / (12.0 * grid.h)


def amplitude_from_boundary(
    f1: float, fp1: float, lam: float, u1: float, u1p: float
) -> complex:
    """Boundary amplitude ``w(0) - i w'(0)`` from unit-boundary data.

    ``f1`` and ``fp1`` are the eigenfunction and its derivative at ``r = 1``;
    ``u1`` and ``u1p`` the effective potential and its derivative there.
    """
    gap = lam - u1
    if gap <= 0.0:
        raise ValueError("amplitude extraction needs U(1) < lam")
    w0 = gap**0.25 * f1
    w0p = gap**-0.25 * fp1 - 0.25 * u1p * gap**-1.25 * f1
    return complex(w0, -w0p)


def extract_C_lambda(pair, channel: Channel, model: PotentialModel) -> complex:
    """Boundary amplitude of an eigenpair, evaluated at ``r = 1``."""
    u1 = effective_potential(channel, model, 1.0)
    u1p = effective_potential(channel, model, 1.0, 1)
    return amplitude_from_boundary(pair.f_at_1, pair.fprime_at_1, pair.lam, u1, u1p)


def rephased_amplitude(c_lambda: complex, lam: float) -> complex:
    """Amplitude with the free phase at ``r = 1`` removed: ``C e^(-i sqrt(lam))``."""
    return c_lambda * cmath.exp(-1j * math.sqrt(lam))


def allowed_region_residual(
    pair,
    c_lambda: complex,
    channel: Channel,
    model: PotentialModel,
    grid,
    window: tuple[float, float] = (0.8, 1.2),
) -> float:
    """Sup over the window of ``|f - lam^(-1/4) Re(C e^(i S))|``.

    The window must sit inside the classically allowed region.
    """
    lam = pair.lam
    lo, hi = window
    if not (0.0 < lo < hi):
        raise ValueError("bad window")
    big_t = turning_points(channel, model, lam)
    if hi >= big_t:
        raise ValueError("window reaches the turning point")
    r = grid.r
    mask = (r >= lo) & (r <= hi)
    if not np.any(mask):
        raise ValueError("window contains no grid points")
    phases = phase_and_zeta(channel, model, lam, r[mask]).phase
    modeled = lam**-0.25 * np.real(c_lambda * np.exp(1j * phases))
    return float(np.max(np.abs(pair.samples[mask] - modeled)))


class LangerFit(NamedTuple):
    residual: float
    alpha: float
    window: tuple[float, float]


def langer_residual(pair, channel: Channel, model: PotentialModel, grid) -> LangerFit:
    """Best sup-norm match of ``f`` against the turning-point profile.

    Minimizes ``sup |f/a - alpha P(-zeta)|`` over the scalar ``alpha`` on
    ``[max(1, T/2), 0.98 T]`` and returns the minimum normalized by
    ``|alpha|``, the matched ``alpha``, and the window.
    """
    lam = pair.lam
    big_t = turning_points(channel, model, lam)
    lo = max(1.0, 0.5 * big_t)
    hi = 0.98 * big_t
    if lo >= hi:
        raise ValueError("turning point too small for a profile window")
    r = grid.r
    mask = (r >= lo) & (r <= hi)
    rs = r[mask]
    if rs.size < 8:
        raise ValueError("profile window contains too few grid points")
    u = effective_potential(channel, model, rs)
    scaled = pair.samples[mask] * (lam - u) ** 0.25
    profile = langer_profile(-_zeta(channel, model, lam, big_t, rs))

    alpha = _minimax_scale(scaled, profile)
    if alpha == 0.0:
        raise ValueError("profile match degenerate: alpha = 0")
    sup = float(np.max(np.abs(scaled - alpha * profile)))
    return LangerFit(residual=sup / abs(alpha), alpha=alpha, window=(float(lo), float(hi)))


def _minimax_scale(s: np.ndarray, p: np.ndarray) -> float:
    """The ``alpha`` that minimizes ``max_i |s_i - alpha p_i|``, to two ulps.

    The function is convex and piecewise linear, and a subgradient at
    ``alpha`` is ``-p_i sign(s_i - alpha p_i)`` at the ``i`` where the
    maximum is taken, so the minimum is found by bisection on its sign,
    one array pass per halving.  It lies within ``2 F(alpha0) / max |p|``
    of any ``alpha0``, since ``F(alpha) >= |alpha - alpha0| max |p| -
    F(alpha0)``; the least-squares ``alpha0`` starts the bracket.
    """
    dot = float(np.dot(p, p))
    if dot == 0.0:
        return 0.0
    alpha0 = float(np.dot(s, p)) / dot
    width = 2.0 * float(np.max(np.abs(s - alpha0 * p))) / float(np.max(np.abs(p)))
    a, b = alpha0 - width, alpha0 + width
    while b - a > 2.0 * math.ulp(max(abs(a), abs(b))):
        mid = 0.5 * (a + b)
        diff = s - mid * p
        i = int(np.argmax(np.abs(diff)))
        if p[i] * diff[i] < 0.0:  # F rises with alpha: the minimum is below
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def _scaled_g(channel, model, lam, big_t, rs: np.ndarray) -> np.ndarray:
    # (r - T) g(r), with g = 5/(36 zeta^2) - Ucal as in appendix_error_integral
    u = effective_potential(channel, model, rs)
    du = effective_potential(channel, model, rs, 1)
    d2u = effective_potential(channel, model, rs, 2)
    gap = lam - u
    ucal = d2u / (4.0 * gap**2) + 5.0 * du**2 / (16.0 * gap**3)
    zeta = _zeta(channel, model, lam, big_t, rs)
    return (rs - big_t) * (5.0 / (36.0 * -zeta * np.abs(zeta)) - ucal)


def _scaled_g_near(channel, model, lam, big_t) -> Callable[[np.ndarray], np.ndarray]:
    """Interpolant of ``(r - T) g(r)`` on ``[(1 - _NEAR_T) T, (1 + _NEAR_T) T]``.

    Degree 23 on the 24 first-kind Chebyshev nodes, none of which is ``T``:
    the coefficients are the cosine sums of the values at the nodes, and
    the returned function evaluates the series over an array of radii by
    Clenshaw's recurrence.  The formula loses about
    ``3 log10(T / |r - T|)`` digits to cancellation; the nearest nodes sit
    ``0.0065 T`` away, where that is 6.5 digits.
    """
    half = _NEAR_T * big_t
    theta = math.pi * (np.arange(24) + 0.5) / 24
    values = _scaled_g(channel, model, lam, big_t, big_t + half * np.cos(theta))
    coef = (2.0 / 24) * (np.cos(np.outer(np.arange(24), theta)) @ values)
    coef[0] *= 0.5

    def near(rs: np.ndarray) -> np.ndarray:
        x = (rs - big_t) / half
        b1 = b2 = np.zeros(x.shape)
        for c in coef[:0:-1]:
            b1, b2 = 2.0 * x * b1 - b2 + c, b1
        return x * b1 - b2 + coef[0]

    return near


def appendix_error_integral(channel: Channel, model: PotentialModel, lam: float) -> float:
    """Error-control integral ``int_{1/2}^inf |g(zeta)| |lam - U|^(1/2) dr``.

    ``g = 5/(36 zeta^2) - Ucal`` with ``Ucal`` the standard potential-form
    error term.  ``g`` has a simple pole at ``T`` and ``(r - T) g`` is
    analytic there (Olver's ``psi(zeta)/zeta``; *Asymptotics and Special
    Functions*, ch. 11), but its two terms each grow like ``|r - T|^-3``
    and cancel.  Within ``_NEAR_T T`` of ``T`` it is therefore read off
    ``_scaled_g_near``.  The integrand ``|(r - T) g| |lam - U|^(1/2) /
    |r - T|`` behaves like ``|r - T|^(-1/2)`` at ``T``, which the rule of
    ``allowed_integrals`` takes out at the ends of each piece: one piece
    below ``T``, one on ``[T, 2T]``, and doubling pieces above until one
    adds at most 1e-12 of the total, ``_DOUBLINGS`` pieces at a time
    (``_kinked_integrals``).
    """
    big_t = turning_points(channel, model, lam)
    if effective_potential(channel, model, 0.5) >= lam:
        raise ThresholdError(
            f"appendix integral needs U(1/2) < lam; lam={lam} too small", lam=lam
        )
    near = _scaled_g_near(channel, model, lam, big_t)

    def scaled(rs) -> np.ndarray:
        close = np.abs(rs - big_t) < _NEAR_T * big_t
        h = np.empty(rs.shape)
        h[close] = near(rs[close])
        h[~close] = _scaled_g(channel, model, lam, big_t, rs[~close])
        return h

    def weight(rs) -> np.ndarray:
        gap = lam - effective_potential(channel, model, rs)
        return np.sqrt(np.abs(gap)) / np.abs(rs - big_t)

    # [1/2, T], [T, 2T] and the first doublings, then doublings only; a
    # power of two times T is the same float however it is reached
    lo = np.concatenate(([0.5], big_t * 2.0 ** np.arange(_DOUBLINGS + 1)))
    hi = np.append(lo[1:], 2.0 * lo[-1])
    pieces = _kinked_integrals(scaled, weight, lo, hi).tolist()
    total = pieces[0] + pieces[1]
    pieces = pieces[2:]
    while True:
        for piece in pieces:
            total += piece
            if piece <= 1e-12 * total:
                return total
        lo = hi[-1] * 2.0 ** np.arange(_DOUBLINGS)
        hi = 2.0 * lo
        pieces = _kinked_integrals(scaled, weight, lo, hi).tolist()


def _kinked_integrals(scaled, weight, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``int |scaled(r)| weight(r) dr`` over each ``[lo, hi]``.

    ``scaled`` is smooth, so ``|scaled|`` has a kink at each of its zeros;
    ``weight`` is smooth inside each piece but may have an inverse square
    root at its ends.  The zeros are bracketed by the signs of ``scaled`` at
    ``_SCAN + 1`` equispaced radii per piece and refined by regula falsi
    (``_refine_zeros``), all pieces at once; each piece is split at them,
    and each part integrated by the rule of ``allowed_integrals``.  Every
    node goes to ``scaled`` and ``weight`` in one array call.
    """
    frac = np.linspace(0.0, 1.0, _SCAN + 1)
    scan = lo[:, None] + (hi - lo)[:, None] * frac
    signs = scaled(scan.ravel()).reshape(scan.shape)
    rows, cols = np.nonzero(signs[:, :-1] * signs[:, 1:] < 0.0)
    zeros = _refine_zeros(
        scaled, scan[rows, cols], scan[rows, cols + 1], signs[rows, cols], signs[rows, cols + 1]
    )
    # the parts of each piece, in order: np.nonzero lists the brackets by row
    cuts = [[x] for x in lo.tolist()]
    for row, z in zip(rows.tolist(), zeros.tolist()):
        cuts[row].append(z)
    for row, x in enumerate(hi.tolist()):
        cuts[row].append(x)
    owner = np.array([row for row, c in enumerate(cuts) for _ in c[1:]])
    a = np.array([x for c in cuts for x in c[:-1]])
    b = np.array([x for c in cuts for x in c[1:]])
    r, dr, weights = _theta_rule(a, b)
    rs = r.ravel()
    f = (np.abs(scaled(rs)) * weight(rs)).reshape(r.shape)
    parts = 0.5 * math.pi * np.sum(dr * f * weights, axis=1)
    return np.bincount(owner, weights=parts, minlength=lo.size)


def _refine_zeros(fun, a, b, fa, fb) -> np.ndarray:
    """A zero of ``fun`` in each bracket ``[a, b]``, where ``fa`` and ``fb``
    differ in sign, by the Illinois variant of regula falsi over all
    brackets at once, until each is at most ``_ZERO_TOL`` of its end wide
    or its secant stops moving."""
    a, b, fa, fb = (np.array(x, dtype=float) for x in (a, b, fa, fb))
    side = np.zeros(a.shape, dtype=int)  # the end kept last: -1 a, +1 b
    live = np.ones(a.shape, dtype=bool)
    x = 0.5 * (a + b)
    for _ in range(_NEWTON_ITERS):
        live &= b - a > _ZERO_TOL * np.abs(b)
        if not live.any():
            break
        i = np.flatnonzero(live)
        xi = (a[i] * fb[i] - b[i] * fa[i]) / (fb[i] - fa[i])
        xi = np.where((xi > a[i]) & (xi < b[i]), xi, 0.5 * (a[i] + b[i]))
        stalled = xi == x[i]
        x[i] = xi
        fx = fun(xi)
        left = np.sign(fx) == np.sign(fa[i])  # x replaces a, and b is kept
        # Illinois: the value at an end kept twice in a row is halved
        fb[i] = np.where(left & (side[i] == 1), 0.5 * fb[i], fb[i])
        fa[i] = np.where(~left & (side[i] == -1), 0.5 * fa[i], fa[i])
        a[i], fa[i] = np.where(left, xi, a[i]), np.where(left, fx, fa[i])
        b[i], fb[i] = np.where(left, b[i], xi), np.where(left, fb[i], fx)
        side[i] = np.where(left, 1, -1)
        live[i[stalled | (fx == 0.0)]] = False
    return x


def amplitude_scaling(
    summaries: Sequence[WkbSummary], l_range: tuple[int, int] | None = None
) -> tuple[PowerLawFit, tuple[int, int]]:
    """Power-law fit of ``|C_lambda|`` against the eigenvalue over one
    channel's ``summarize`` rows, and the first and last level fitted: the
    levels with an amplitude (``lam > U(1)``) inside ``l_range``, both ends
    included, when at least five are there, else all levels with one."""
    usable = [s for s in summaries if not cmath.isnan(s.c_lambda)]
    inside = [s for s in usable if l_range and l_range[0] <= s.level <= l_range[1]]
    if len(inside) >= 5:
        usable = inside
    fit = fit_power_law([(s.lam, abs(s.c_lambda)) for s in usable])
    return fit, (usable[0].level, usable[-1].level)


class WkbSummary(NamedTuple):
    """Per-level semiclassical summary used by the export and reports."""

    d: int
    n: int
    level: int
    lam: float
    action: float
    residual: float
    turning_t: float
    turning_x: float
    phase_to_turning: float
    c_lambda: complex
    allowed: tuple[float, float] | None


def summarize(table, channel: Channel, model: PotentialModel) -> list[WkbSummary]:
    """Build per-level summaries for every eigenpair of a table.

    The turning points and the edges of the allowed intervals of all levels
    come from one array iteration each, on the potential minimum found once,
    and the phases from 1 to the turning points from one call of the rule.
    """
    # the five samples around r = 1 of every level, in one read
    f1, fp1 = (v.tolist() for v in boundary_values(table.grid, table.block))
    lams = table.eigenvalues
    r_c = _potential_min_radius(channel, model)
    big_t = _outer_edges(channel, model, _checked_levels(channel, model, lams, r_c))
    big_x = _bare_edges(model, lams)
    edge_a, edge_b = _allowed_edges(channel, model, lams, r_c)
    u1 = effective_potential(channel, model, 1.0)
    u1p = effective_potential(channel, model, 1.0, 1)
    actions = _bare_action(model, lams, big_x)[0].tolist()
    phases = _root_integrals(channel, model, lams, np.ones_like(lams), big_t).tolist()
    out = []
    for i, lam in enumerate(lams.tolist()):
        action = actions[i]
        residual = action - quantization_target(channel, i)
        if lam > u1:
            c_lam = amplitude_from_boundary(f1[i], fp1[i], lam, u1, u1p)
            phase_z = phases[i]
        else:
            c_lam = complex(math.nan, math.nan)
            phase_z = math.nan
        allowed = None if math.isnan(edge_a[i]) else (float(edge_a[i]), float(edge_b[i]))
        out.append(
            WkbSummary(
                d=channel.d,
                n=channel.n,
                level=i,
                lam=lam,
                action=action,
                residual=residual,
                turning_t=float(big_t[i]),
                turning_x=float(big_x[i]),
                phase_to_turning=phase_z,
                c_lambda=c_lam,
                allowed=allowed,
            )
        )
    return out


def export_wkb_csv(summaries: Sequence[WkbSummary], path) -> None:
    from .formats import fmt, write_csv

    header = [
        "d",
        "n",
        "l",
        "lambda",
        "T",
        "X",
        "Z",
        "action",
        "bs_residual",
        "absC",
        "allowed_a",
        "allowed_b",
    ]
    rows = []
    for s in sorted(summaries, key=lambda s: (s.d, s.n, s.level)):
        a, b = s.allowed if s.allowed is not None else (math.nan, math.nan)
        rows.append(
            [
                str(s.d),
                str(s.n),
                str(s.level),
                fmt(s.lam),
                fmt(s.turning_t),
                fmt(s.turning_x),
                fmt(s.phase_to_turning),
                fmt(s.action),
                fmt(s.residual),
                fmt(abs(s.c_lambda)),
                fmt(a),
                fmt(b),
            ]
        )
    return write_csv(path, header, rows)
