"""Polynomial confining potentials and angular channel data.

The operators studied here act on the half line and have the form
``-d^2/dr^2 + gamma/r^2 + V(r)`` where ``V`` is a positive combination of
even powers ``r^(2c_m)`` and ``gamma`` encodes the angular momentum sector
of a rotationally symmetric problem in ``d`` space dimensions.  This module
owns the model of ``V``, the channel bookkeeping, and the validator for the
structural assumptions (convexity, super-quadratic growth, derivative
ratios) that the rest of the package relies on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerTerm",
    "PotentialModel",
    "Channel",
    "AssumptionReport",
    "eval_potential",
    "effective_potential",
    "validate_assumptions",
]

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)\s*\*\s*)?"
    r"r\s*\^\s*(?P<exp>[0-9]+)\s*$"
)
_TERM_SPLIT_RE = re.compile(r"(?<![eE])\+")


@dataclass(frozen=True, order=True)
class PowerTerm:
    """One monomial ``coefficient * r**exponent`` of the confining potential."""

    exponent: int
    coefficient: float

    def __post_init__(self):
        if not isinstance(self.exponent, int):
            raise ValueError("exponent must be an integer")
        if not (math.isfinite(self.coefficient) and self.coefficient > 0.0):
            raise ValueError("coefficient must be positive and finite")


@dataclass(frozen=True)
class PotentialModel:
    """A sum of even powers ``sum_m kappa_m r^(2 c_m)`` with ``c_m >= 2``.

    Parameters
    ----------
    terms : tuple of PowerTerm
        Monomials of the potential.  Exponents must be even; exponents
        below 4 are rejected unless ``harmonic`` is set.
    threshold_radius : float
        Radius beyond which the structural assumptions are asserted.
    harmonic : bool
        Permits the exponent-2 reference model.  It violates the
        super-quadratic growth requirement and is only meant for sanity
        checks against closed-form spectra.
    """

    terms: tuple[PowerTerm, ...]
    threshold_radius: float = 1.0
    harmonic: bool = False

    def __post_init__(self):
        if not self.terms:
            raise ValueError("potential needs at least one term")
        merged: dict[int, float] = {}
        for term in self.terms:
            if term.exponent % 2 != 0 or term.exponent <= 0:
                raise ValueError(
                    f"exponent {term.exponent} is not a positive even integer"
                )
            if term.exponent < 4 and not self.harmonic:
                raise ValueError(
                    f"exponent {term.exponent} below 4 requires harmonic=True"
                )
            merged[term.exponent] = merged.get(term.exponent, 0.0) + term.coefficient
        canonical = tuple(
            PowerTerm(exponent, coefficient)
            for exponent, coefficient in sorted(merged.items())
        )
        object.__setattr__(self, "terms", canonical)
        if not (math.isfinite(self.threshold_radius) and self.threshold_radius > 0):
            raise ValueError("threshold_radius must be positive")

    @classmethod
    def from_spec(
        cls,
        text: str,
        threshold_radius: float = 1.0,
        harmonic: bool = False,
    ) -> "PotentialModel":
        """Parse a model string such as ``"1*r^4+0.5*r^6"``.

        A ``+`` right after an exponent marker (``1e+2``) is part of the
        coefficient; every other ``+`` separates terms.
        """
        parts = _TERM_SPLIT_RE.split(text)
        terms = []
        for part in parts:
            m = _TERM_RE.match(part)
            if m is None:
                raise ValueError(f"cannot parse potential term {part!r}")
            coeff = float(m.group("coeff")) if m.group("coeff") else 1.0
            terms.append(PowerTerm(int(m.group("exp")), coeff))
        return cls(tuple(terms), threshold_radius=threshold_radius, harmonic=harmonic)

    @classmethod
    def pure(
        cls,
        exponent: int,
        coefficient: float = 1.0,
        threshold_radius: float = 1.0,
        harmonic: bool = False,
    ) -> "PotentialModel":
        return cls(
            (PowerTerm(exponent, coefficient),),
            threshold_radius=threshold_radius,
            harmonic=harmonic,
        )

    @property
    def growth_index(self) -> float:
        """Growth index ``c = deg(V)/2``, the largest ``c_m`` of the sum.

        This is the paper's ``c``, the growth of ``V`` at infinity, which
        every exponent formula uses.
        """
        return self.terms[-1].exponent / 2.0

    @property
    def spec_string(self) -> str:
        """Model string that parses back to exactly these coefficients.

        Coefficients print as ``%g`` when that is exact (``1``, ``0.5``)
        and as ``.17g`` otherwise, so two models never share a string,
        and so never share a spectrum cache entry.
        """
        return "+".join(f"{_exact(t.coefficient)}*r^{t.exponent}" for t in self.terms)


def _exact(x: float) -> str:
    short = f"{x:g}"
    text = short if float(short) == x else f"{x:.17g}"
    return text.replace("e+", "e")  # "+" separates the terms of a spec


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


@dataclass(frozen=True)
class Channel:
    """Angular sector of the ``d``-dimensional problem.

    ``gamma`` is the coefficient of the centrifugal term and
    ``bessel_order`` the order of the Bessel function describing the
    regular solution of the free problem near the origin.
    """

    d: int
    n: int

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 3:
            raise ValueError("dimension d must be an integer >= 3")
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError("sector index n must be a non-negative integer")

    @property
    def gamma(self) -> float:
        return (self.d - 1) * (self.d - 3) / 4.0 + self.n * (self.n + self.d - 2)

    @property
    def bessel_order(self) -> float:
        return self.n + (self.d - 2) / 2.0

    @property
    def regular_exponent(self) -> float:
        """Power of the regular solution at the origin, ``n + (d-1)/2``."""
        return self.n + (self.d - 1) / 2.0


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
