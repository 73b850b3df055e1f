"""Mode-truncated spectral solver for anisotropic Navier-Stokes in a cylinder.

The velocity field in the unit-radius cylinder is expanded in azimuthal
Fourier modes at a base wavenumber N.  Each retained harmonic k couples a
cosine family (u_r, v_th, u_z) and a sine family (v_r, u_th, v_z) of
meridional coefficient fields; the mean flow carries three fields.  The
package evolves these coupled (r, z) systems with an IMEX scheme, verifies
energy inequalities of the implicit Stokes blocks, cross-checks the mode
convolutions against a full 3-D solver, and measures per-mode decay and
anisotropic interpolation inequalities at desk scale.

Subpackage layout:

- ``grid``          meridional collocation grid, derivatives, quadrature
- ``state``         parameters, profiles, mode states, checkpoints
- ``stokes``        implicit coupled mode Stokes solver and its checks
- ``nonlinear``     quadratic term by convolution over harmonics, its checks
- ``stepper``       IMEX time integration, CFL, energy budgets
- ``functionals``   energy/dissipation functionals, decay reports
- ``inequalities``  disk-grid interpolation inequality checkers
- ``oracle``        independent full (r, theta, z) cross-check solver
- ``cli``           command-line entry points
"""

from .functionals import (
    DecayReport,
    EnergyHistory,
    accumulate,
    compute_D,
    compute_E,
    decay_report,
    decay_weights,
    load_history,
    mixed_norm_bounds,
    save_history,
    smallness_check,
    write_report_csv,
    write_report_json,
)
from .grid import CylGrid, build_grid
from .inequalities import (
    DiskGrid,
    TestFunction2D,
    angular_poincare_ratio,
    anisotropic_ratio,
    build_disk_grid,
    constant_scan,
    disk_function,
    isotropic_ratio,
    pointwise_weight_ok,
    radial_disk_function,
    radial_quartic_ratio,
    radial_ratio,
    separable_disk_function,
    vertical_sup_ratio,
    write_scan_report,
)
from .nonlinear import assemble_quadratic_rhs, flux_identity_residual, triad_bound_check
from .oracle import (
    FullField,
    OracleOpCache,
    build_full_field,
    full_divergence,
    full_l2,
    nonlinear_term_projection,
    oracle_step,
    project_to_modes,
    reconstruct_to_full,
    relative_l2,
)
from .state import (
    Params,
    InitProfile,
    ModeVelocity,
    ModePressure,
    ModeState,
    make_profile_divfree,
    make_initial_state,
    make_random_divfree_state,
    divergence_residual,
    reconstruct_point,
    save_checkpoint,
    load_checkpoint,
)
from .stepper import RunResult, RunSinks, StepConfig, run
from .stokes import (
    StokesOpCache,
    apply_viscous_operator,
    linear_flow_uL,
    mode_energy,
    mode_invariance_check,
    stokes_evolve,
    stokes_step,
)

__all__ = [
    "CylGrid",
    "build_grid",
    "Params",
    "InitProfile",
    "ModeVelocity",
    "ModePressure",
    "ModeState",
    "make_profile_divfree",
    "make_initial_state",
    "make_random_divfree_state",
    "divergence_residual",
    "reconstruct_point",
    "save_checkpoint",
    "load_checkpoint",
    "StokesOpCache",
    "stokes_step",
    "stokes_evolve",
    "mode_energy",
    "mode_invariance_check",
    "apply_viscous_operator",
    "linear_flow_uL",
    "assemble_quadratic_rhs",
    "flux_identity_residual",
    "triad_bound_check",
    "StepConfig",
    "RunSinks",
    "RunResult",
    "run",
    "EnergyHistory",
    "DecayReport",
    "accumulate",
    "compute_E",
    "compute_D",
    "decay_weights",
    "decay_report",
    "smallness_check",
    "mixed_norm_bounds",
    "save_history",
    "load_history",
    "write_report_json",
    "write_report_csv",
    "DiskGrid",
    "TestFunction2D",
    "build_disk_grid",
    "disk_function",
    "separable_disk_function",
    "radial_disk_function",
    "isotropic_ratio",
    "anisotropic_ratio",
    "radial_quartic_ratio",
    "radial_ratio",
    "angular_poincare_ratio",
    "pointwise_weight_ok",
    "vertical_sup_ratio",
    "constant_scan",
    "write_scan_report",
    "FullField",
    "OracleOpCache",
    "build_full_field",
    "project_to_modes",
    "reconstruct_to_full",
    "nonlinear_term_projection",
    "oracle_step",
    "full_l2",
    "full_divergence",
    "relative_l2",
]

__version__ = "0.1.0"
