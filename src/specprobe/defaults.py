"""Solver defaults and their floors, declared once and free of numpy.

The command line builds its flags and checks from these before it loads
the solver; ``eigensolve`` imports the ones it uses from here.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_POINTS_PER_WAVELENGTH",
    "DEFAULT_REL_TOL",
    "MIN_POINTS_PER_WAVELENGTH",
    "MIN_REL_TOL",
]

DEFAULT_POINTS_PER_WAVELENGTH = 180.0
DEFAULT_REL_TOL = 1e-10
MIN_POINTS_PER_WAVELENGTH = 40.0
MIN_REL_TOL = 1e-15  # a few ulps: the bracket cannot shrink much further
