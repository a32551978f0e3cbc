"""Special functions and numerical primitives.

Bessel functions of the first kind are computed here over whole arrays
(ascending series below a crossover, Hankel asymptotic expansion above,
each element summed until it converges) so the package needs no
special-function library.  Also: the turning-point profile from
``J_{1/3} + J_{-1/3}``, the Gauss-Legendre nodes of the fixed rule
between turning points of ``wkb.allowed_integrals``, by which every
integral of the package is taken; one locally adaptive quadrature over
an interval (square-root endpoints substituted away), which no package
code calls any more and the tests keep as a reference.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = [
    "bessel_j",
    "langer_profile",
    "integrate_sqrt_singular",
]

_SERIES_MAX_TERMS = 500


def _bessel_series(nu: float, x):
    # Ascending series sum_k (-1)^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)),
    # summed until every element's term is below 1e-17 of its total; the
    # later terms of an element that got there first are under half an ulp
    # of its total and change no bit of it.  Reliable in double precision
    # up to the crossover used below.
    xs = np.ravel(np.asarray(x, dtype=float))
    zero = xs == 0.0
    if nu < 0.0 and zero.any():
        raise ValueError("bessel series diverges at x = 0 for negative order")
    half = 0.5 * xs
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.exp(nu * np.log(half) - math.lgamma(nu + 1.0))
    term[zero] = 1.0 if nu == 0.0 else 0.0
    total = term
    q = -half * half
    for k in range(1, _SERIES_MAX_TERMS):
        term = term * (q / (k * (nu + k)))
        total = total + term
        if (np.abs(term) <= 1e-17 * np.abs(total) + 5e-324).all():
            return total
    raise QuadratureError(f"bessel series did not converge for nu={nu}")


def _bessel_hankel(nu: float, x):
    # Large-argument expansion J_nu(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi)
    # with chi = x - nu pi/2 - pi/4.  The expansion is asymptotic; each
    # element keeps its partial sums at the smallest term seen, which is
    # where truncation error bottoms out, and leaves the sum once its terms
    # are negligible or have grown tenfold past that smallest one.
    xs = np.ravel(np.asarray(x, dtype=float))
    mu = 4.0 * nu * nu
    best_p, best_q = np.ones(xs.size), np.zeros(xs.size)
    idx = np.arange(xs.size)
    p_sum, q_sum = best_p.copy(), best_q.copy()
    term, smallest = best_p.copy(), best_p.copy()
    for k in range(1, 200):
        if idx.size == 0:
            break
        term = term * ((mu - (2 * k - 1) ** 2) / (8.0 * xs[idx] * k))
        sign = -1.0 if (k // 2) % 2 else 1.0
        if k % 2 == 0:
            p_sum = p_sum + sign * term
        else:
            q_sum = q_sum + sign * term
        size = np.abs(term)
        better = size <= smallest
        smallest = np.where(better, size, smallest)
        best_p[idx[better]] = p_sum[better]
        best_q[idx[better]] = q_sum[better]
        done = (better & (size <= 1e-17)) | (~better & (size > 10.0 * smallest) & (k > 4))
        if done.any():
            live = ~done
            idx, term, smallest = idx[live], term[live], smallest[live]
            p_sum, q_sum = p_sum[live], q_sum[live]
    chi = xs - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * xs)) * (best_p * np.cos(chi) - best_q * np.sin(chi))


def _series_crossover(nu: float) -> float:
    # Below the crossover the ascending series is free of damaging
    # cancellation; above it the asymptotic expansion has bottomed out
    # well under 1e-12.  Validated for orders up to about 12; for larger
    # orders the hand-off band x ~ 2 nu loses accuracy gradually.
    a = abs(nu)
    if a <= 10.0:
        return max(14.0, a + 6.0)
    return 1.9 * a


def _bessel_any_order(nu: float, x) -> np.ndarray:
    # Internal path: any order nu > -1, elementwise over x >= 0.
    x = np.asarray(x, dtype=float)
    if (x < 0.0).any():
        raise ValueError("bessel argument must be non-negative")
    series = x <= _series_crossover(nu)
    if series.all():
        return _bessel_series(nu, x).reshape(x.shape)
    out = np.empty(x.shape)
    out[series] = _bessel_series(nu, x[series])
    out[~series] = _bessel_hankel(nu, x[~series])
    return out


def bessel_j(nu: float, x):
    """Bessel function of the first kind ``J_nu(x)`` for ``nu >= 0``.

    ``x`` may be a scalar, giving a float, or an array of non-negative values.
    """
    if nu < 0.0:
        raise ValueError("order nu must be non-negative")
    out = _bessel_any_order(nu, x)
    return float(out) if np.ndim(x) == 0 else out


def langer_profile(z):
    """Turning-point profile ``sqrt(pi z / 6) (J_{1/3}(z) + J_{-1/3}(z))``.

    Tends to ``cos(z - pi/4)`` with an ``O(1/z)`` error as ``z`` grows.
    ``z`` may be a scalar, giving a float, or an array of positive values.
    """
    arr = np.asarray(z, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("langer_profile needs z > 0")
    s = _bessel_any_order(1.0 / 3.0, arr) + _bessel_any_order(-1.0 / 3.0, arr)
    out = np.sqrt(math.pi * arr / 6.0) * s
    return float(out) if np.ndim(z) == 0 else out


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def integrate_sqrt_singular(
    f: Callable,
    a: float,
    b: float,
    singular_end: str = "none",
    rel_tol: float = 1e-9,
) -> float:
    """Integrate ``f`` over ``[a, b]`` with square-root endpoint handling.

    ``singular_end`` may be ``"left"``, ``"right"``, or ``"none"``.  A
    singular end means ``f`` behaves like ``C * sqrt(x - a)`` (or
    ``sqrt(b - x)``) there; the substitution ``x = a + u**2`` removes the
    root so that plain Gauss panels converge at full order.  ``f`` is
    called with arrays of sample points.

    The rule is locally adaptive 16-point Gauss-Legendre.  A segment whose
    halves disagree with it by more than ``rel_tol`` relative plus 1e-15 of
    the first estimate of the whole is split, so only segments next to a
    singularity of ``f`` are refined, and rounding noise in ``f`` (near a
    root of ``lam - U``) cannot split forever; both halves of every live
    segment go to ``f`` in one call.  A segment that must be split again
    although it spans at most 4096 ulps of its midpoint raises
    ``QuadratureError``: its halves' outer nodes would sit within 11 ulps
    of their ends, placed by rounding rather than by the rule.  A
    non-finite sample of ``f`` raises ``QuadratureError`` without numpy's
    floating-point warning: next to a non-integrable singularity the
    splitting reaches samples that overflow.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise ValueError("need finite a < b")
    if singular_end not in ("none", "left", "right"):
        raise ValueError("singular_end must be 'none', 'left', or 'right'")
    if singular_end == "left":
        g = lambda u: 2.0 * u * np.asarray(f(a + u * u), dtype=float)
    elif singular_end == "right":
        g = lambda u: 2.0 * u * np.asarray(f(b - u * u), dtype=float)
    else:
        g = f
    lo, hi = (a, b) if g is f else (0.0, math.sqrt(b - a))
    lo, hi = np.array([lo], dtype=float), np.array([hi], dtype=float)
    nodes, weights = _gl_rule(16)

    def rule(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        with np.errstate(all="ignore"):
            y = np.asarray(g((mid[:, None] + half[:, None] * nodes).ravel()), dtype=float)
        if not np.all(np.isfinite(y)):
            raise QuadratureError("integrand returned a non-finite value")
        return (y.reshape(-1, nodes.size) @ weights) * half

    whole = rule(lo, hi)
    floor = 1e-15 * abs(float(whole[0]))
    total = 0.0
    while True:
        m = 0.5 * (lo + hi)
        left, right = np.split(rule(np.concatenate([lo, m]), np.concatenate([m, hi])), 2)
        halves = left + right
        ok = np.abs(halves - whole) <= rel_tol * np.abs(halves) + floor
        for value in halves[ok].tolist():  # left to right; np.sum would round otherwise
            total += value
        if ok.all():
            return total
        split = ~ok
        if np.any(hi[split] - lo[split] <= 4096.0 * np.spacing(np.abs(m[split]))):
            raise QuadratureError(f"quadrature did not converge to rel_tol={rel_tol}")
        lo, hi = np.concatenate([lo[split], m[split]]), np.concatenate([m[split], hi[split]])
        whole = np.concatenate([left[split], right[split]])
