"""Semiclassical certificates for the computed spectra.

Turning points, action integrals, quantization residuals, boundary
amplitudes, profile residuals, and the scaling fits that certify how they
grow with the spectral parameter.  Phase and turning-point coordinate come
from one cumulative integral of ``sqrt|lam - U|`` over sorted radii
(``_zeta``).  Tables are read only through ``eigenvalues`` and
``eigenpairs``, and eigenpairs through ``lam``, ``level``, ``samples``,
``f_at_1``, ``fprime_at_1``, so this module needs no solver.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ThresholdError
from .potential import Channel, PotentialModel, effective_potential, eval_potential
from .specfun import (
    PowerLawFit,
    _gl_adaptive,
    _gl_segments,
    _retained_scale,
    fit_power_law,
    integrate_sqrt_singular,
    langer_profile,
)

__all__ = [
    "TurningPoints",
    "PhaseZeta",
    "LangerFit",
    "AppendixSplit",
    "WkbSummary",
    "turning_points",
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
    "gap_scaling",
    "amplitude_scaling",
    "summarize",
    "export_wkb_csv",
]


_END_NOISE = 16.0 * float(np.finfo(float).eps)  # per unit of lam / |lam - U|
_END_TOL = 1e-11  # relative accuracy of the segment of _zeta that reaches T
# _zeta holds _END_TOL only where |lam - U| >= _END_NOISE lam / _END_TOL,
# the rounding noise of lam - U below _END_TOL of it.  A lam with
# lam - min U under that depth has no such radius: the whole well is
# rounding noise at that accuracy, and the segment quadrature grinds
# (seconds at a relative depth of 1e-8, minutes at 1e-12).
_MIN_WELL_DEPTH = _END_NOISE / _END_TOL  # relative to lam, about 3.6e-4


class TurningPoints(NamedTuple):
    T: float  # outer root of gamma/r^2 + V = lam
    X: float  # root of V = lam


class PhaseZeta(NamedTuple):
    phase: float
    zeta: float  # signed: negative below T, positive above (times i)


def _bisect_increasing(func, lo: float, hi: float, iters: int = 200) -> float:
    flo = func(lo)
    fhi = func(hi)
    if flo > 0.0 or fhi < 0.0:
        raise ValueError("root not bracketed")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if func(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo  # the last point with func <= 0


def _root_above(func, lo: float) -> float:
    # root of an increasing func above lo: bracket it by doubling from
    # max(2 lo, 1) until func turns positive, then bisect
    hi = max(2.0 * lo, 1.0)
    while func(hi) <= 0.0:
        hi *= 2.0
    return _bisect_increasing(func, lo, hi)


def _potential_min_radius(channel: Channel, model: PotentialModel) -> float:
    # U' = -2 gamma / r^3 + V' is strictly increasing with a unique zero
    if channel.gamma == 0.0:
        return 0.0
    uprime = lambda r: effective_potential(channel, model, r, 1)
    lo, hi = 1e-8, 1.0
    while uprime(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("potential minimum not found")
    while uprime(lo) >= 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise ValueError("potential minimum not found")
    return _bisect_increasing(uprime, lo, hi)


def turning_points(channel: Channel, model: PotentialModel, lam: float) -> TurningPoints:
    """Outer classical turning point of ``U`` and bare turning point of ``V``.

    Each is the last float at which the potential does not exceed ``lam``.
    Raises ``ValueError`` when ``lam`` does not exceed the minimum of the
    effective potential by ``_MIN_WELL_DEPTH`` relative: below that depth
    the classical region is rounding noise for the phase integral.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    r_c = _potential_min_radius(channel, model)
    if r_c > 0.0 and effective_potential(channel, model, r_c) >= lam * (1.0 - _MIN_WELL_DEPTH):
        raise ValueError(
            f"lam={lam} does not exceed the potential minimum by {_MIN_WELL_DEPTH:.2g} "
            "relative; no resolvable turning point"
        )
    u = lambda r: effective_potential(channel, model, r) - lam
    big_t = _root_above(u, max(r_c, 1e-12))
    big_x = _root_above(lambda r: eval_potential(model, r) - lam, 1e-300)
    return TurningPoints(T=big_t, X=big_x)


def action_integral(model: PotentialModel, lam: float) -> float:
    """Semiclassical action ``(1/pi) * int_0^X sqrt(lam - V)`` of the bare potential."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    big_x = _root_above(lambda r: eval_potential(model, r) - lam, 1e-300)
    integrand = lambda r: np.sqrt(np.maximum(lam - eval_potential(model, r), 0.0))
    return integrate_sqrt_singular(integrand, 0.0, big_x, "right", rel_tol=1e-11) / math.pi


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
    the largest single-term inverse bounds the root from below;
    ``lam A'/A >= (c+1)/(2c)`` for the largest ``c`` (integrate ``A`` by
    parts) bounds it from above.  Regula falsi with the Anderson-Bjorck
    end scaling on ``log(A/target)``, nearly linear in ``log lam``, closes
    the bracket to 1e-10 in ``log lam``.
    """
    if target <= 0.0:
        raise ValueError("target action must be positive")
    lam = max(_single_term_inverse(term, target) for term in model.terms)
    if len(model.terms) == 1:
        return lam
    g = lambda x: math.log(action_integral(model, math.exp(x)) / target)
    a = math.log(lam)
    ga = g(a)
    if ga >= 0.0:  # the lower bound is the root, to rounding
        return lam
    c = model.terms[-1].exponent / 2.0
    b = a - ga * 2.0 * c / (c + 1.0)
    gb = g(b)
    moved = 0  # +1 after a new upper end, -1 after a new lower end
    for _ in range(60):
        if gb <= 0.0 or b - a <= 1e-10:  # gb <= 0: b is the root, to rounding
            return math.exp(b)
        x = b - gb * (b - a) / (gb - ga)
        if not a < x < b:
            return math.exp(b)
        gx = g(x)
        if gx < 0.0:
            if moved < 0:
                gb *= _retained_scale(gx, ga)
            a, ga, moved = x, gx, -1
        else:
            if moved > 0:
                ga *= _retained_scale(gx, gb)
            b, gb, moved = x, gx, 1
    raise ValueError(f"inverse action did not converge for target {target}")


def level_density(model: PotentialModel, lam: float) -> float:
    """Derivative of the action in ``lam``; reciprocal of the local gap."""
    if len(model.terms) == 1:
        c = model.terms[0].exponent / 2.0
        return (c + 1.0) / (2.0 * c) * action_integral(model, lam) / lam
    delta = 1e-4 * lam
    return (
        action_integral(model, lam + delta) - action_integral(model, lam - delta)
    ) / (2.0 * delta)


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
    """
    rs = np.asarray(r, dtype=float)
    big_t = turning_points(channel, model, lam).T
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
    # Signed zeta of phase_and_zeta at every radius, from one cumulative
    # integral of sqrt|lam - U| over the sorted distinct radii on each side
    # of T: Gauss-Legendre panels between neighbours, and the square-root
    # substitution on the one segment that reaches T.  Radii within 1e-12
    # relative of T get 0.  lam - U carries rounding noise of about eps lam,
    # about 1.5 eps lam / |lam - U(r)| of the segment from r to T, so that
    # segment converges to the larger of _END_TOL and a multiple of its noise
    # (at most 1, where |lam - U(r)| itself is rounding noise).
    kernel = lambda r: np.sqrt(np.abs(lam - effective_potential(channel, model, r)))
    noise = _END_NOISE * lam
    end_tol = lambda r: max(_END_TOL, noise / (float(kernel(r)) ** 2 + noise))
    off_t = np.abs(rs - big_t) > 1e-12 * np.maximum(rs, big_t)
    out = np.zeros(rs.shape)
    for side in (-1.0, 1.0):
        mask = off_t & (side * (rs - big_t) > 0.0)
        if not np.any(mask):
            continue
        pts, where = np.unique(rs[mask], return_inverse=True)
        segs = _gl_segments(kernel, pts)
        if side < 0.0:
            end = integrate_sqrt_singular(kernel, pts[-1], big_t, "right", end_tol(pts[-1]))
            dist = end + np.append(np.cumsum(segs[::-1])[::-1], 0.0)
        else:
            end = integrate_sqrt_singular(kernel, big_t, pts[0], "left", end_tol(pts[0]))
            dist = end + np.append(0.0, np.cumsum(segs))
        out[mask] = side * dist[where]
    return out


def allowed_interval(
    channel: Channel, model: PotentialModel, lam: float
) -> tuple[float, float]:
    """Interval ``{r >= lam^(-1/4) : U(r) <= lam/2}``.

    Raises ``ThresholdError`` when the set is empty, carrying the failing
    spectral parameter.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    half = 0.5 * lam
    r_c = _potential_min_radius(channel, model)
    if r_c > 0.0 and effective_potential(channel, model, r_c) >= half:
        raise ThresholdError(
            f"allowed region empty at lam={lam}: potential floor above lam/2", lam=lam
        )
    u = lambda r: effective_potential(channel, model, r) - half
    b = _root_above(u, max(r_c, 1e-12))
    if channel.gamma == 0.0:
        a_barrier = 0.0
    else:
        # inner edge: U decreasing there, so negate for the bisection
        inner = lambda r: -u(r)
        lo_in = r_c
        while u(lo_in) <= 0.0:
            lo_in *= 0.5
            if lo_in < 1e-300:
                lo_in = 0.0
                break
        a_barrier = _bisect_increasing(inner, lo_in, r_c) if lo_in > 0.0 else 0.0
    a = max(lam ** (-0.25), a_barrier)
    if a >= b:
        raise ThresholdError(
            f"allowed region empty at lam={lam}: lower edge {a} above upper edge {b}",
            lam=lam,
        )
    return (a, b)


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
    big_t = turning_points(channel, model, lam).T
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
    big_t = turning_points(channel, model, lam).T
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

    dot = float(np.dot(profile, profile))
    alpha0 = float(np.dot(scaled, profile)) / dot if dot > 0 else 0.0
    sup = lambda alpha: float(np.max(np.abs(scaled - alpha * profile)))
    vmax = float(np.max(np.abs(profile)))
    width = 2.0 * sup(alpha0) / vmax if vmax > 0 else 1.0
    a, b = alpha0 - width, alpha0 + width
    for _ in range(200):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if sup(m1) <= sup(m2):
            b = m2
        else:
            a = m1
    alpha = 0.5 * (a + b)
    if alpha == 0.0:
        raise ValueError("profile match degenerate: alpha = 0")
    return LangerFit(
        residual=sup(alpha) / abs(alpha), alpha=alpha, window=(float(lo), float(hi))
    )


@dataclass(frozen=True)
class AppendixSplit:
    """Split of the profile error integral around the turning point."""

    lam: float
    eps: float
    inner: float  # [1/2, (1-eps) T]
    near: float  # [(1-eps) T, (1+eps) T] minus the excluded band
    outer: float  # [(1+eps) T, infinity)
    band_halfwidth: float
    band_estimate: float

    @property
    def total(self) -> float:
        return self.inner + self.near + self.outer


def appendix_error_integral(
    channel: Channel, model: PotentialModel, lam: float, eps: float = 0.1
) -> AppendixSplit:
    """Error-control integral ``int_{1/2}^inf |g(zeta)| |lam - U|^(1/2) dr``.

    ``g = 5/(36 zeta^2) - Ucal`` with ``Ucal`` the standard potential-form
    error term; the split reports the inner, near-turning-point, and outer
    contributions separately.  A band of half-width ten canonical grid
    steps around ``T`` is excluded from the near part and estimated by
    square-root extrapolation from its edges instead.
    """
    if not (0.0 < eps <= 0.25):
        raise ValueError("eps must be in (0, 1/4]")
    big_t = turning_points(channel, model, lam).T
    if effective_potential(channel, model, 0.5) >= lam:
        raise ThresholdError(
            f"appendix integral needs U(1/2) < lam; lam={lam} too small", lam=lam
        )
    delta = 10.0 * (2.0 * math.pi / (40.0 * math.sqrt(lam)))
    if delta >= eps * big_t:
        raise ValueError("excluded band exceeds the near window; raise lam or eps")

    def weighted(rs) -> np.ndarray:
        rs = np.asarray(rs, dtype=float)
        u = effective_potential(channel, model, rs)
        du = effective_potential(channel, model, rs, 1)
        d2u = effective_potential(channel, model, rs, 2)
        gap = lam - u
        ucal = d2u / (4.0 * gap**2) + 5.0 * du**2 / (16.0 * gap**3)
        zeta = _zeta(channel, model, lam, big_t, rs)
        g = 5.0 / (36.0 * -zeta * np.abs(zeta)) - ucal
        return np.abs(g) * np.sqrt(np.abs(gap))

    inner = _gl_adaptive(weighted, 0.5, (1.0 - eps) * big_t, 1e-7)

    # resolve the |r - T|^(-1/2) profile by integrating in s = sqrt(|r - T|)
    s_lo, s_hi = math.sqrt(delta), math.sqrt(eps * big_t)
    left = _gl_adaptive(lambda s: 2.0 * s * weighted(big_t - s * s), s_lo, s_hi, 1e-7)
    right = _gl_adaptive(lambda s: 2.0 * s * weighted(big_t + s * s), s_lo, s_hi, 1e-7)
    near = left + right

    outer = 0.0
    lo = (1.0 + eps) * big_t
    span = big_t
    while True:
        piece = _gl_adaptive(weighted, lo, lo + span, 1e-7)
        outer += piece
        lo += span
        span *= 2.0
        if piece <= 1e-12 * (inner + near + outer) or piece <= 1e-300:
            break

    edge = float(np.sum(weighted(np.array([big_t - delta, big_t + delta]))))
    band_estimate = 2.0 * delta * edge
    return AppendixSplit(
        lam=lam,
        eps=eps,
        inner=inner,
        near=near,
        outer=outer,
        band_halfwidth=delta,
        band_estimate=band_estimate,
    )


def gap_scaling(table, window: tuple[int, int] | None = None) -> PowerLawFit:
    """Power-law fit of consecutive eigenvalue gaps against the eigenvalue."""
    lams = table.eigenvalues
    if lams.size < 6:
        raise ValueError("need at least six levels to fit gap growth")
    gaps = np.diff(lams)
    points = list(zip(lams[:-1], gaps))
    return fit_power_law(points, window)


def amplitude_scaling(
    table, channel: Channel, model: PotentialModel, window: tuple[int, int] | None = None
) -> PowerLawFit:
    """Power-law fit of the boundary amplitude modulus against the eigenvalue."""
    points = []
    u1 = effective_potential(channel, model, 1.0)
    for pair in table.eigenpairs:
        if pair.lam > u1:
            points.append((pair.lam, abs(extract_C_lambda(pair, channel, model))))
    return fit_power_law(points, window)


@dataclass(frozen=True)
class WkbSummary:
    """Per-level semiclassical summary used by the export and reports."""

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
    """Build per-level summaries for every eigenpair of a table."""
    out = []
    u1 = effective_potential(channel, model, 1.0)
    for pair in table.eigenpairs:
        pts = turning_points(channel, model, pair.lam)
        action = action_integral(model, pair.lam)
        residual = action - quantization_target(channel, pair.level)
        if pair.lam > u1:
            c_lam = extract_C_lambda(pair, channel, model)
            phase_z = -float(_zeta(channel, model, pair.lam, pts.T, np.array([1.0]))[0])
        else:
            c_lam = complex(math.nan, math.nan)
            phase_z = math.nan
        try:
            allowed = allowed_interval(channel, model, pair.lam)
        except ThresholdError:
            allowed = None
        out.append(
            WkbSummary(
                n=channel.n,
                level=pair.level,
                lam=pair.lam,
                action=action,
                residual=residual,
                turning_t=pts.T,
                turning_x=pts.X,
                phase_to_turning=phase_z,
                c_lambda=c_lam,
                allowed=allowed,
            )
        )
    return out


def export_wkb_csv(summaries: Sequence[WkbSummary], path) -> None:
    from .formats import fmt, write_csv

    header = [
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
    for s in sorted(summaries, key=lambda s: (s.n, s.level)):
        a, b = s.allowed if s.allowed is not None else (math.nan, math.nan)
        rows.append(
            [
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
