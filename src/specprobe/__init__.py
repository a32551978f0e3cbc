"""Discrete spectra and WKB certificates for super-quadratic radial operators.

The package computes the discrete spectrum of half-line operators
``-d^2/dr^2 + gamma/r^2 + V(r)`` for confining polynomial ``V``, then
certifies the semiclassical structure of the eigenpairs: quantization
residuals, eigenvalue gap growth, boundary amplitude growth, turning-point
profiles, oscillatory probe functionals, and truncated spectral kernels.
"""

from .eigensolve import (
    EigenPair,
    RadialGrid,
    SpectrumTable,
    build_grid,
    export_spectrum_csv,
    load_spectrum,
    save_spectrum,
    solve_level,
    solve_spectrum,
)
from .errors import (
    BracketError,
    ConsistencyError,
    NumericsError,
    QuadratureError,
    ThresholdError,
    TruncationError,
)
from .kernel import (
    export_kernel_grid,
    gram_matrix,
    kernel_matrix,
    parseval_check,
)
from .potential import (
    AssumptionReport,
    Channel,
    PotentialModel,
    PowerTerm,
    effective_potential,
    eval_potential,
    validate_assumptions,
)
from .probe import (
    ProbePoint,
    ProbeSequence,
    TestFunction,
    WindowSpec,
    isolation_check,
    make_bump,
    overlap,
    predicted_overlap,
    probe_G,
    probe_sequence,
    window_hat,
)
from .specfun import (
    PowerLawFit,
    bessel_j,
    fit_power_law,
    integrate_sqrt_singular,
    langer_profile,
)
from .wkb import (
    WkbSummary,
    action_integral,
    allowed_region_residual,
    amplitude_scaling,
    appendix_error_integral,
    bs_residual,
    export_wkb_csv,
    extract_C_lambda,
    gap_scaling,
    langer_residual,
    quantization_target,
    rephased_amplitude,
    summarize,
    turning_points,
)

__version__ = "0.1.0"
