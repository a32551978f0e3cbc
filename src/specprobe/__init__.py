"""Discrete spectra and WKB certificates for super-quadratic radial operators.

The package computes the discrete spectrum of half-line operators
``-d^2/dr^2 + gamma/r^2 + V(r)`` for confining polynomial ``V``, then
certifies the semiclassical structure of the eigenpairs: quantization
residuals, eigenvalue gap growth, boundary amplitude growth, turning-point
profiles, oscillatory probe functionals, and truncated spectral kernels.

The names below, and the submodules that hold them, load on first access
(PEP 562), so ``import specprobe`` and the command line's argument
handling stay free of numpy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "eigensolve": (
        "EigenPair",
        "RadialGrid",
        "SpectrumTable",
        "build_grid",
        "export_spectrum_csv",
        "load_spectrum",
        "save_spectrum",
        "solve_level",
        "solve_spectrum",
    ),
    "errors": (
        "BracketError",
        "ConsistencyError",
        "NumericsError",
        "QuadratureError",
        "ThresholdError",
        "TruncationError",
    ),
    "fitting": (
        "PowerLawFit",
        "fit_power_law",
        "gap_scaling",
    ),
    "kernel": (
        "export_kernel_grid",
        "kernel_matrix",
        "orthonormality_defect",
        "parseval_check",
        "symmetric_eigenvalues",
        "t0_eigenvalues",
    ),
    "model": (
        "AssumptionReport",
        "Channel",
        "PotentialModel",
        "PowerTerm",
        "validate_assumptions",
    ),
    "potential": (
        "effective_potential",
        "eval_potential",
    ),
    "probe": (
        "ProbePoint",
        "ProbeSequence",
        "TestFunction",
        "WindowSpec",
        "isolation_check",
        "make_bump",
        "overlap",
        "predicted_overlap",
        "probe_G",
        "probe_sequence",
        "window_hat",
    ),
    "specfun": (
        "bessel_j",
        "integrate_sqrt_singular",
        "langer_profile",
    ),
    "wkb": (
        "WkbSummary",
        "action_integral",
        "allowed_region_residual",
        "amplitude_scaling",
        "appendix_error_integral",
        "bs_residual",
        "export_wkb_csv",
        "extract_C_lambda",
        "langer_residual",
        "quantization_target",
        "rephased_amplitude",
        "summarize",
        "turning_points",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules, which load on first access too (``specprobe.wkb``)
_SUBMODULES = {*_EXPORTS, "defaults", "formats", "table"}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
