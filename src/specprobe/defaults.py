"""Solver defaults and their floors, declared once and free of numpy.

The command line builds its flags and checks from these before it loads
the solver; ``eigensolve`` re-exports them under the same names.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_POINTS_PER_WAVELENGTH",
    "DEFAULT_DECAY_MARGIN",
    "DEFAULT_REL_TOL",
    "MIN_POINTS_PER_WAVELENGTH",
    "MIN_DECAY_MARGIN",
    "MIN_REL_TOL",
]

DEFAULT_POINTS_PER_WAVELENGTH = 180.0
DEFAULT_DECAY_MARGIN = 35.0
DEFAULT_REL_TOL = 1e-10
MIN_POINTS_PER_WAVELENGTH = 40.0
MIN_DECAY_MARGIN = 5.0
MIN_REL_TOL = 1e-15  # a few ulps: the bracket cannot shrink much further
