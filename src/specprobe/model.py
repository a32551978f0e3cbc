"""The confining potential's model and the angular channel, free of numpy.

``PotentialModel`` is a sum of even powers ``kappa_m r^(2 c_m)`` parsed
from a string such as ``"1*r^4+0.5*r^6"``; ``Channel`` is the angular
sector ``(d, n)`` and its centrifugal coefficient ``gamma``.  Both are
plain data, so the command line checks a configuration before it loads
numpy.  ``validate_assumptions`` checks the paper's hypotheses on ``V``
(convexity, super-quadratic growth, bounded derivative ratios) exactly,
from the two edges of a radial window.  ``potential`` evaluates the model
on arrays and re-exports all of these.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = ["PowerTerm", "PotentialModel", "Channel", "AssumptionReport", "validate_assumptions"]

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


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of checking the structural assumptions on a radial window.

    ``max_admissible_c`` is the infimum of ``r V'/(2 V)`` over the window,
    taken at ``admissible_argmin``, its left edge.  The growth check asks
    it to reach ``min_term_c``, the smallest ``c_m``: ``r V' >= 2 min_m c_m
    V`` holds at every ``r`` for a positive sum, while ``r V'/(2 V)`` only
    tends to the growth index ``c = deg(V)/2``.  ``worst_ratios[j-1]`` is
    the supremum of ``r |V^(j)| / |V^(j-1)|`` for ``j = 1, 2, 3``, taken at
    the right edge; it is reported, not enforced against any particular
    bound.
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

    @property
    def passed(self) -> bool:
        return (
            self.convexity_ok
            and self.growth_ok
            and self.superquadratic_ok
            and self.ratio_ok
        )


def _ratio(model: PotentialModel, r: float, j: int) -> tuple[float, float]:
    """``r V^(j)(r) / V^(j-1)(r)`` and the sum of its weights.

    The ratio is the mean of ``s_m = e_m - j + 1`` under the weights
    ``kappa_m [e_m]_(j-1) r^(s_m)``, ``[e]_k`` the falling factorial.  The
    weights are scaled by the power of the term that dominates at ``r``
    (the highest for ``r >= 1``, else the lowest), so no power overflows,
    and their sum has the sign of ``V^(j-1)(r)``.  The mean is taken as
    that term's power plus the mean offset from it, exact for one term.
    """
    top = model.terms[-1 if r >= 1.0 else 0].exponent
    weights = []
    for term in model.terms:
        factor = term.coefficient
        for i in range(j - 1):
            factor *= term.exponent - i
        weights.append(factor * r ** (term.exponent - top))
    total = math.fsum(weights)
    offset = math.fsum(w * (t.exponent - top) for w, t in zip(weights, model.terms))
    return top - j + 1 + offset / total, total


def validate_assumptions(
    model: PotentialModel,
    r_lo: float | None = None,
    r_hi: float | None = None,
) -> AssumptionReport:
    """Check convexity, growth, and derivative-ratio assumptions exactly.

    Each ratio ``r V^(j)/V^(j-1)`` (``j = 1, 2, 3``) is a mean of the
    powers ``s_m = e_m - j + 1 >= 0`` of ``V = sum_m kappa_m r^(e_m)``
    under weights proportional to ``r^(s_m)`` (``_ratio``), so its
    derivative in ``log r`` is their variance, which is never negative.
    Every ratio grows with ``r``: ``r V'/(2V)`` has its infimum at
    ``r_lo`` and the three ratios their suprema at ``r_hi``.  ``V`` and
    ``V''`` are sums of positive terms, which is checked at ``r_lo``.

    Parameters
    ----------
    model : PotentialModel
    r_lo, r_hi : float, optional
        The radial window; defaults to ``[R, 100 R]`` where ``R`` is the
        model threshold radius.  ``r_lo`` may not undercut ``R``, and
        ``r_hi`` must be finite.
    """
    if r_lo is None:
        r_lo = model.threshold_radius
    if r_hi is None:
        r_hi = 100.0 * model.threshold_radius
    if not (model.threshold_radius <= r_lo < r_hi < math.inf):
        raise ValueError("need threshold_radius <= r_lo < r_hi < inf")

    growth, positive = _ratio(model, r_lo, 1)
    convexity_ok = _ratio(model, r_lo, 3)[1] > 0.0
    max_admissible_c = 0.5 * growth
    c = model.terms[0].exponent / 2.0  # the smallest c_m
    growth_ok = positive > 0.0 and max_admissible_c >= c * (1.0 - 1e-12)
    superquadratic_ok = max_admissible_c > 1.0
    ratios = tuple(_ratio(model, r_hi, j)[0] for j in (1, 2, 3))
    return AssumptionReport(
        convexity_ok=convexity_ok,
        growth_ok=growth_ok,
        superquadratic_ok=superquadratic_ok,
        ratio_ok=all(math.isfinite(x) for x in ratios),
        max_admissible_c=max_admissible_c,
        admissible_argmin=float(r_lo),
        worst_ratios=ratios,
        min_term_c=c,
        window=(float(r_lo), float(r_hi)),
    )
