"""The confining potential's model and the angular channel, free of numpy.

``PotentialModel`` is a sum of even powers ``kappa_m r^(2 c_m)`` parsed
from a string such as ``"1*r^4+0.5*r^6"``; ``Channel`` is the angular
sector ``(d, n)`` and its centrifugal coefficient ``gamma``.  Both are
plain data, so the command line checks a configuration before it loads
numpy.  ``validate_assumptions`` states the paper's hypotheses on ``V``
(convexity, super-quadratic growth, bounded derivative ratios) in closed
form, read off the exponents: they hold on all of ``r > 0`` for every
model these classes accept.  ``potential`` evaluates the model on arrays
and re-exports all of these.
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
    harmonic : bool
        Permits the exponent-2 reference model.  It violates the
        super-quadratic growth requirement and is only meant for sanity
        checks against closed-form spectra.
    """

    terms: tuple[PowerTerm, ...]
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

    @classmethod
    def from_spec(cls, text: str, harmonic: bool = False) -> "PotentialModel":
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
        return cls(tuple(terms), harmonic=harmonic)

    @classmethod
    def pure(
        cls, exponent: int, coefficient: float = 1.0, harmonic: bool = False
    ) -> "PotentialModel":
        return cls((PowerTerm(exponent, coefficient),), harmonic=harmonic)

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
    """The structural assumptions of a model on ``r > 0``, in closed form.

    ``r V'/(2V)`` rises from ``min_term_c``, the smallest ``c_m``, as
    ``r -> 0`` to the growth index ``c = deg(V)/2`` as ``r -> inf``.
    ``ratio_bounds[j-1] = 2c - j + 1`` bounds ``r V^(j)/V^(j-1)`` for
    ``j = 1, 2, 3``; a single term meets each bound at every ``r``.
    """

    min_term_c: float
    c: float

    @property
    def ratio_bounds(self) -> tuple[float, float, float]:
        return (2.0 * self.c, 2.0 * self.c - 1.0, 2.0 * self.c - 2.0)

    @property
    def superquadratic(self) -> bool:
        """``V >= C r^(2+eps)`` at infinity: false only for ``r^2`` alone."""
        return self.c > 1.0


def validate_assumptions(model: PotentialModel) -> AssumptionReport:
    """The paper's assumptions on ``V = sum_m kappa_m r^(e_m)``, read off the exponents.

    Every ``kappa_m`` is positive and every ``e_m`` even and at least 2, so
    ``V``, ``V'`` and ``V''`` are sums of positive terms on ``r > 0``: ``V``
    is positive, increasing and convex.  Each ratio ``r V^(j)/V^(j-1)``
    (``j = 1, 2, 3``) is the mean of the powers ``s_m = e_m - j + 1 >= 0``
    under the positive weights ``kappa_m [e_m]_(j-1) r^(s_m)``, ``[e]_k``
    the falling factorial.  Its derivative in ``log r`` is their variance,
    which is never negative, so it rises from the least ``s_m`` as
    ``r -> 0`` to the greatest as ``r -> inf``.  No power of ``r`` is
    formed, and no window is needed.
    """
    return AssumptionReport(min_term_c=model.terms[0].exponent / 2.0, c=model.growth_index)
