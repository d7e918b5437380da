"""Schrodinger evolution from exponentially weighted time-averages.

The Cauchy datum u(0) is replaced by the condition
integral_0^T exp(r t) u(t) dt = mu; the package recovers u(0) and the full
trajectory by explicit eigenfunction expansion, reports per-mode conditioning,
and cross-checks against an independent Crank-Nicolson grid pipeline.
"""

from .averaging import (
    AveragingParams,
    ZetaFactors,
    apply_time_average,
    forward_smoothing_constant,
    zeta_factor,
    zeta_factors,
)
from .errors import (
    DegenerateModeError,
    IllPosedError,
    InvalidArgumentError,
    NumericError,
    SchrodavgError,
)
from .evolve import (
    Trajectory,
    propagate,
    sample_trajectory,
    trajectory_sup_norm,
)
from .fd_oracle import FdConfig, GridState, cn_step, oracle_mu_coeffs, oracle_time_average
from .recover import (
    ConditioningReport,
    conditioning_report,
    potential_shift_solution,
    reconstruct_solution,
    recover_initial,
    recover_via_shift,
    stability_bound,
)
from .spectral import (
    CUSTOM,
    DIRICHLET,
    PERIODIC,
    ModeCoefficients,
    SpectralBasis,
    load_coefficients,
    make_custom_basis,
    make_dirichlet_basis,
    make_periodic_basis,
    project_from_grid,
    save_coefficients,
    sobolev_norm,
    synthesize_on_grid,
    unit_floor_shift,
)

__version__ = "0.1.0"

# the public names the imports above bind, less the submodules that importing them binds too
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and type(value) is not type(spectral)]
