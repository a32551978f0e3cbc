"""Polynomial confining potentials and angular channel data.

The operators studied here act on the half line and have the form
``-d^2/dr^2 + gamma/r^2 + V(r)`` where ``V`` is a positive combination of
even powers ``r^(2c_m)`` and ``gamma`` encodes the angular momentum sector
of a rotationally symmetric problem in ``d`` space dimensions.  This module
evaluates the model of ``V`` and the channel's effective potential on
arrays.  The model, the channel and the closed forms of the structural
assumptions (convexity, super-quadratic growth, derivative ratios) that
the rest of the package relies on are declared in the numpy-free
``model`` and re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (  # re-exported
    AssumptionReport,
    Channel,
    PotentialModel,
    PowerTerm,
    validate_assumptions,
)

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
