"""Polynomial confining potentials and angular channel data.

The operators studied here act on the half line and have the form
``-d^2/dr^2 + gamma/r^2 + V(r)`` where ``V`` is a positive combination of
even powers ``r^(2c_m)`` and ``gamma`` encodes the angular momentum sector
of a rotationally symmetric problem in ``d`` space dimensions.  This module
evaluates the model of ``V`` and the channel's effective potential (both
declared in the numpy-free ``model``, and re-exported here), and validates
the structural assumptions (convexity, super-quadratic growth, derivative
ratios) that the rest of the package relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Channel, PotentialModel, PowerTerm

__all__ = [
    "PowerTerm",
    "PotentialModel",
    "Channel",
    "AssumptionReport",
    "eval_potential",
    "effective_potential",
    "validate_assumptions",
]


def _as_positive_radii(r):
    arr = np.asarray(r, dtype=float)
    # two reductions and no temporaries: a nan fails both comparisons
    if arr.size and not (arr.min() > 0.0 and arr.max() < math.inf):
        raise ValueError("radii must be positive and finite")
    return arr


def eval_potential(model: PotentialModel, r, order: int = 0):
    """Evaluate ``V`` or one of its first three derivatives.

    ``r`` may be a scalar or an array; the result matches its shape.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be one of 0, 1, 2, 3")
    arr = _as_positive_radii(r)
    total = np.zeros_like(arr)
    for term in model.terms:
        factor = term.coefficient
        for j in range(order):
            factor *= term.exponent - j
        if factor != 0.0:
            total = total + factor * arr ** (term.exponent - order)
    if np.ndim(r) == 0:
        return float(total)
    return total


# d^order/dr^order of r^(-2): prefactors (-2), (-2)(-3), (-2)(-3)(-4).
_INV_SQ_FACTORS = (1.0, -2.0, 6.0, -24.0)


def effective_potential(channel: Channel, model: PotentialModel, r, order: int = 0):
    """Evaluate ``gamma/r^2 + V(r)`` or one of its first three derivatives."""
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be one of 0, 1, 2, 3")
    arr = _as_positive_radii(r)
    out = channel.gamma * _INV_SQ_FACTORS[order] * arr ** (-2 - order)
    out = out + eval_potential(model, arr, order)
    if np.ndim(r) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of sampling the structural assumptions on a radial window.

    ``max_admissible_c`` is the sampled infimum of ``r V'/(2 V)``.  The
    growth check asks it to reach ``min_term_c``, the smallest ``c_m``:
    ``r V' >= 2 min_m c_m V`` holds at every ``r`` for a positive sum,
    while ``r V'/(2 V)`` only tends to the growth index ``c = deg(V)/2``.
    ``worst_ratios[j-1]`` is the sampled supremum of
    ``r |V^(j)| / |V^(j-1)|`` for ``j = 1, 2, 3``; it is reported, not
    enforced against any particular bound.
    """

    convexity_ok: bool
    growth_ok: bool
    superquadratic_ok: bool
    ratio_ok: bool
    max_admissible_c: float
    admissible_argmin: float
    worst_ratios: tuple[float, float, float]
    min_term_c: float
    window: tuple[float, float]
    samples: int

    @property
    def passed(self) -> bool:
        return (
            self.convexity_ok
            and self.growth_ok
            and self.superquadratic_ok
            and self.ratio_ok
        )


def validate_assumptions(
    model: PotentialModel,
    r_lo: float | None = None,
    r_hi: float | None = None,
    samples: int = 400,
) -> AssumptionReport:
    """Sample convexity, growth, and derivative-ratio assumptions.

    Parameters
    ----------
    model : PotentialModel
    r_lo, r_hi : float, optional
        Window of radii to sample; defaults to ``[R, 100 R]`` where ``R``
        is the model threshold radius.  ``r_lo`` may not undercut ``R``.
    samples : int
        Number of geometrically spaced sample points (at least 16).
    """
    if r_lo is None:
        r_lo = model.threshold_radius
    if r_hi is None:
        r_hi = 100.0 * model.threshold_radius
    if not (model.threshold_radius <= r_lo < r_hi):
        raise ValueError("need threshold_radius <= r_lo < r_hi")
    if samples < 16:
        raise ValueError("need at least 16 samples")

    r = np.geomspace(r_lo, r_hi, samples)
    v = eval_potential(model, r, 0)
    dv = eval_potential(model, r, 1)
    d2v = eval_potential(model, r, 2)
    d3v = eval_potential(model, r, 3)

    convexity_ok = bool(np.all(d2v > 0.0))
    positive = bool(np.all(v > 0.0))

    admissible = r * dv / (2.0 * v)
    i_min = int(np.argmin(admissible))
    max_admissible_c = float(admissible[i_min])
    c = model.terms[0].exponent / 2.0  # the smallest c_m
    growth_ok = positive and max_admissible_c >= c * (1.0 - 1e-12)
    superquadratic_ok = max_admissible_c > 1.0

    ratios = (
        float(np.max(r * np.abs(dv) / np.abs(v))),
        float(np.max(r * np.abs(d2v) / np.abs(dv))),
        float(np.max(r * np.abs(d3v) / np.abs(d2v))),
    )
    ratio_ok = all(math.isfinite(x) for x in ratios)

    return AssumptionReport(
        convexity_ok=convexity_ok,
        growth_ok=growth_ok,
        superquadratic_ok=superquadratic_ok,
        ratio_ok=ratio_ok,
        max_admissible_c=max_admissible_c,
        admissible_argmin=float(r[i_min]),
        worst_ratios=ratios,
        min_term_c=c,
        window=(float(r_lo), float(r_hi)),
        samples=int(samples),
    )
