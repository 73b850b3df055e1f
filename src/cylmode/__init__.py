"""Mode-truncated spectral solver for anisotropic Navier-Stokes in a cylinder.

The velocity field in the unit-radius cylinder is expanded in azimuthal
Fourier modes at a base wavenumber N.  Each retained harmonic k couples a
cosine family (u_r, v_th, u_z) and a sine family (v_r, u_th, v_z) of
meridional coefficient fields; the mean flow carries three fields.  A
state is one ``(K+1, 6, n_r, n_z)`` array indexed by harmonic and by the
slot constants ``UR, VTH, UZ, VR, UTH, VZ`` (the mean's sine slots are
zero) plus a ``(K+1, 2, n_r, n_z)`` pressure array indexed by ``P, Q``.
The package evolves these coupled (r, z) systems with an IMEX scheme, verifies
energy inequalities of the implicit Stokes blocks, cross-checks the mode
convolutions against a full 3-D solver, and measures per-mode decay and
the constants of anisotropic disk inequalities at desk scale.

Subpackage layout:

- ``grid``          meridional Chebyshev collocation grid, derivatives,
                    quadrature
- ``state``         parameters, profiles, mode states, checkpoints
- ``diagnostics``   one derivative-and-quadrature pass per state
- ``stokes``        implicit coupled mode Stokes solver, single-harmonic
                    evolution and linear flow
- ``nonlinear``     quadratic term by convolution over harmonics, flux check
- ``stepper``       IMEX time integration, CFL, energy budgets, harmonic
                    invariance
- ``functionals``   energy/dissipation functionals, histories, decay reports
- ``inequalities``  disk-grid interpolation inequality checkers
- ``oracle``        independent full (r, theta, z) cross-check solver
- ``cli``           command-line entry points
"""

import importlib

# the defining module of every exported name; a name is imported from it
# on first use, so that a process loads only the modules it runs
_HOMES = {
    "diagnostics": ("P", "Q", "UR", "UTH", "UZ", "VR", "VTH", "VZ",
                    "mode_energy"),
    "functionals": ("DecayReport", "EnergyHistory", "accumulate", "compute_D",
                    "compute_E", "decay_report", "harmonic_weight",
                    "load_history", "save_history", "smallness_check"),
    "grid": ("CylGrid", "build_grid"),
    "inequalities": ("DiskGrid", "TestFunction2D", "angular_poincare_ratio",
                     "anisotropic_ratio", "build_disk_grid", "constant_scan",
                     "disk_function", "isotropic_ratio",
                     "pointwise_weight_ok", "radial_disk_function",
                     "radial_quartic_ratio", "radial_ratio",
                     "separable_disk_function", "vertical_sup_ratio"),
    "nonlinear": ("assemble_quadratic_rhs", "flux_identity_residual"),
    "oracle": ("FullField", "OracleOpCache", "build_full_field", "oracle_step",
               "project_to_modes", "reconstruct_to_full", "relative_l2"),
    "state": ("Params", "InitProfile", "ModeState", "make_profile_divfree",
              "make_initial_state", "make_random_divfree_state",
              "divergence_residual", "poloidal_profile", "save_checkpoint",
              "load_checkpoint"),
    "stepper": ("PointResult", "RunResult", "RunSinks", "StepConfig",
                "mode_invariance_check", "run", "simulate_point"),
    "stokes": ("StokesOpCache", "apply_viscous_operator", "linear_flow_uL",
               "stokes_evolve", "stokes_step"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an exported name from its module on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
