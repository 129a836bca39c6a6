"""Vorticity-stream solver for planar flow outside the unit disk.

Simulates the filtered second-grade system in vorticity form on a truncated
log-polar grid and ships a verification harness for the small-filter,
vanishing-viscosity scaling regime.
"""

__version__ = "0.1.0"

from .boundary_layer import build_corrector, corrector_scaling_report, eta
from .dynamics import (FlowState, ModelParams, RunConfig, Trajectory, energy,
                       initial_state, run)
from .elliptic import (recover_q, solve_poisson, solve_stream_helmholtz,
                       total_mass)
from .errors import (ConfigError, DegenerateFitError, DiskflowError,
                     GridError, NumericalFailure)
from .fields import (ScalarField, VectorField, advect, curl_perp, laplacian,
                     norm_l2, perp_grad, seminorm_hk)
from .grid import ExteriorGrid, GridSpec, build_grid
from .harness import (SweepConfig, SweepRecord, bound_margins, energy_audit,
                      fit_theorem_constant, run_sweep, write_sweep_csv)
from .initial_data import (InitialCase, canonical_psi, cut_profile,
                           hypothesis_report, make_initial)
from .ratefit import RateFit, fit_rate
from .verify import verify_corrector, verify_elliptic, verify_initial_data

__all__ = [
    "GridSpec", "ExteriorGrid", "build_grid",
    "ScalarField", "VectorField", "perp_grad", "curl_perp",
    "laplacian", "advect", "norm_l2", "seminorm_hk",
    "total_mass", "solve_poisson", "solve_stream_helmholtz", "recover_q",
    "ModelParams", "FlowState", "RunConfig", "Trajectory",
    "initial_state", "run", "energy",
    "InitialCase", "canonical_psi", "cut_profile", "make_initial",
    "hypothesis_report",
    "eta", "build_corrector", "corrector_scaling_report",
    "SweepConfig", "SweepRecord", "run_sweep", "write_sweep_csv",
    "fit_theorem_constant", "bound_margins", "energy_audit",
    "RateFit", "fit_rate",
    "verify_elliptic", "verify_corrector", "verify_initial_data",
    "DiskflowError", "ConfigError", "GridError", "NumericalFailure",
    "DegenerateFitError",
    "__version__",
]
