"""The confining potential's model and the angular channel, free of numpy.

``PotentialModel`` is a sum of even powers ``kappa_m r^(2 c_m)`` parsed
from a string such as ``"1*r^4+0.5*r^6"``; ``Channel`` is the angular
sector ``(d, n)`` and its centrifugal coefficient ``gamma``.  Both are
named tuples whose constructors check their fields, free of numpy, so
the command line checks a configuration before it loads numpy.
``validate_assumptions`` states the paper's hypotheses on ``V``
(convexity, growth, bounded derivative ratios) in closed form, read off
the exponents: they hold on all of ``r > 0`` for every model these
classes accept.  Super-quadratic growth, ``V >= C r^(2+eps)`` at
infinity, depends on the largest exponent alone; a model is its terms,
and the command line decides from ``growth_index`` whether to accept
one that grows only like ``r^2``.  ``potential`` evaluates the model on
arrays.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

__all__ = ["PowerTerm", "PotentialModel", "Channel", "AssumptionReport", "validate_assumptions"]

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)\s*\*\s*)?"
    r"r\s*\^\s*(?P<exp>[0-9]+)\s*$"
)
_TERM_SPLIT_RE = re.compile(r"(?<![eE])\+")


class _PowerTerm(NamedTuple):
    exponent: int
    coefficient: float


class PowerTerm(_PowerTerm):
    """One monomial ``coefficient * r**exponent`` of the confining potential."""

    __slots__ = ()

    def __new__(cls, exponent: int, coefficient: float):
        if not isinstance(exponent, int):
            raise ValueError("exponent must be an integer")
        if not (math.isfinite(coefficient) and coefficient > 0.0):
            raise ValueError("coefficient must be positive and finite")
        return super().__new__(cls, exponent, coefficient)


class _PotentialModel(NamedTuple):
    terms: tuple[PowerTerm, ...]


class PotentialModel(_PotentialModel):
    """A sum of even powers ``sum_m kappa_m r^(2 c_m)`` with ``c_m >= 1``.

    ``terms`` are its monomials, each with a positive even exponent;
    terms of one exponent merge, and the terms come sorted by exponent.
    """

    __slots__ = ()

    def __new__(cls, terms: tuple[PowerTerm, ...]):
        if not terms:
            raise ValueError("potential needs at least one term")
        merged: dict[int, float] = {}
        for term in terms:
            if term.exponent % 2 != 0 or term.exponent <= 0:
                raise ValueError(
                    f"exponent {term.exponent} is not a positive even integer"
                )
            merged[term.exponent] = merged.get(term.exponent, 0.0) + term.coefficient
        canonical = tuple(
            PowerTerm(exponent, coefficient)
            for exponent, coefficient in sorted(merged.items())
        )
        return super().__new__(cls, canonical)

    @classmethod
    def from_spec(cls, text: str) -> "PotentialModel":
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
        return cls(tuple(terms))

    @classmethod
    def pure(cls, exponent: int, coefficient: float = 1.0) -> "PotentialModel":
        return cls((PowerTerm(exponent, coefficient),))

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


class _Channel(NamedTuple):
    d: int
    n: int


class Channel(_Channel):
    """Angular sector of the ``d``-dimensional problem.

    ``gamma`` is the coefficient of the centrifugal term and
    ``bessel_order`` the order of the Bessel function describing the
    regular solution of the free problem near the origin.
    """

    __slots__ = ()

    def __new__(cls, d: int, n: int):
        if not isinstance(d, int) or d < 3:
            raise ValueError("dimension d must be an integer >= 3")
        if not isinstance(n, int) or n < 0:
            raise ValueError("sector index n must be a non-negative integer")
        return super().__new__(cls, d, n)

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


class AssumptionReport(NamedTuple):
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
