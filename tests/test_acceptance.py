"""Acceptance battery: one go/no-go property per numbered criterion.

Each test prints exactly one verdict line (visible under ``pytest -s``)
and pins its tolerances inline.  The checks are scaling laws and
structural identities, not comparisons against quoted constants: energy
inequalities, harmonic invariance, divergence and flux preservation,
agreement with an independently discretized reference solver, inequality
constant scans, per-harmonic decay trends, mean-mode scaling in the
symmetry index N, and manufactured-solution time convergence.
"""

import math
import time

import numpy as np
import pytest

from cylmode.functionals import (
    EnergyHistory,
    accumulate,
    compute_E,
    smallness_check,
)
from cylmode.grid import build_grid
from cylmode.inequalities import (
    anisotropic_ratio,
    build_disk_grid,
    constant_scan,
    isotropic_ratio,
    radial_disk_function,
    radial_ratio,
    separable_disk_function,
)
from cylmode.nonlinear import assemble_quadratic_rhs, flux_identity_residual
from cylmode.oracle import (
    OracleOpCache,
    oracle_step,
    reconstruct_to_full,
    relative_l2,
)
from cylmode.state import (
    Params,
    divergence_residual,
    make_initial_state,
    make_random_divfree_state,
    poloidal_profile,
)
from cylmode.stepper import (StepConfig, RunSinks, mode_invariance_check,
                             run, simulate_point)
from cylmode.stokes import StokesOpCache, apply_viscous_operator, stokes_evolve
from quadratic_reference import nonlinear_term_projection


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid48():
    return build_grid(48, 32, 2.0 * math.pi)


def test_criterion_01_viscous_energy_inequality(grid48):
    # unforced single-harmonic evolutions: stored energy plus twice the
    # accumulated dissipation never exceeds the initial energy
    t0 = time.perf_counter()
    params = Params(nu=1.0, N=3, delta=0.0, eta=0.2, K=5)
    harmonics = (0, 1, 2, 5)
    worst = 0.0
    for nu in (1.0, 0.0):
        cache = StokesOpCache(grid48, nu)
        for i in range(10):
            k = harmonics[i % len(harmonics)]
            state = make_random_divfree_state(grid48, params, seed=100 + i)
            k_eff = k * params.N if k > 0 else 0
            hist = stokes_evolve(cache, state.u[k], 2e-2, 12, k_eff)
            e0 = hist.energy[0]
            for e, d in zip(hist.energy, hist.diss_integral):
                worst = max(worst, (e + 2.0 * d) / e0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 + 1e-10 and elapsed < 60.0
    _verdict(1, "viscous energy inequality", ok,
             f"max (E + 2*int D)/E0 = {worst:.12f} (limit 1 + 1e-10), "
             f"{elapsed:.1f} s (< 60 s)")


def test_criterion_02_single_harmonic_invariance(grid48):
    # the linear flow must not move energy between azimuthal harmonics
    leak = 0.0
    for nu in (1.0, 0.0):
        params = Params(nu=nu, N=3, delta=0.0, eta=0.2, K=4)
        for k0 in (0, 1, 3):
            leak = max(leak, mode_invariance_check(grid48, params, k0,
                                                   1e-2, 5, seed=k0))
    ok = leak == 0.0
    _verdict(2, "single-harmonic invariance", ok,
             f"max cross-harmonic leakage = {leak:.3e} (exactly 0)")


def test_criterion_03_divergence_preservation(grid48):
    # a full nonlinear run keeps every harmonic divergence-free at every
    # snapshot, not just at the final time
    params = Params(nu=1.0, N=4, delta=0.0, eta=0.2, K=3)
    profile = poloidal_profile(grid48, 0.3)
    state = make_initial_state(profile, params)
    worst = 0.0

    def watch(st, _measures):
        nonlocal worst
        worst = max(worst, float(np.max(divergence_residual(st))))

    cfg = StepConfig(dt=2.5e-3, t_end=0.05)
    result = run(state, cfg, sinks=RunSinks(on_snapshot=watch))
    ok = (not result.aborted) and worst <= 1e-9
    _verdict(3, "divergence preservation", ok,
             f"max normalized residual over snapshots = {worst:.3e} "
             f"(tol 1e-9), aborted = {result.aborted}")


def test_criterion_04_quadratic_flux_identity():
    # the advective terms must exchange energy without creating it, and
    # the quadrature defect must shrink under radial refinement
    params = Params(nu=1.0, N=3, delta=0.0, eta=0.2, K=4)
    residuals = {}
    for n_r in (48, 96):
        grid = build_grid(n_r, 32, 2.0 * math.pi)
        vals = [flux_identity_residual(
            make_random_divfree_state(grid, params, seed=200 + i))
            for i in range(20)]
        residuals[n_r] = vals
    max48 = max(residuals[48])
    mean48 = float(np.mean(residuals[48]))
    mean96 = float(np.mean(residuals[96]))
    ok = max48 <= 1e-8 and mean96 < mean48
    _verdict(4, "quadratic flux identity", ok,
             f"max residual at n_r=48: {max48:.3e} (tol 1e-8); mean "
             f"{mean48:.3e} -> {mean96:.3e} under refinement to n_r=96")


def test_criterion_05_nonlinear_assembly_audit():
    # convolution-based quadratic assembly vs projection of the pointwise
    # product computed on the fully resolved angular grid
    grid = build_grid(24, 16, 2.0 * math.pi)
    params = Params(nu=1.0, N=4, delta=0.0, eta=0.2, K=3)
    n_theta = 40
    worst = 0.0
    for seed, pair in ((21, (1, 2)), (22, (1, 3))):
        state = make_random_divfree_state(grid, params, seed=seed)
        for k in range(params.K + 1):
            if k not in pair:
                state.u[k] = 0.0
        full = reconstruct_to_full(state, n_theta)
        assembled = assemble_quadratic_rhs(state)
        scale = np.abs(assembled).max() or 1.0
        for k in range(params.K + 1):
            audit = nonlinear_term_projection(full, params, k)
            for a, b in zip(audit, assembled[k]):
                worst = max(worst, float(np.abs(a - b).max()) / scale)
    ok = worst <= 1e-10
    _verdict(5, "nonlinear assembly audit", ok,
             f"max node-wise relative mismatch = {worst:.3e} (tol 1e-10) "
             "over two-harmonic states")


def test_criterion_06_reference_trajectory_agreement():
    # the truncated solver follows an independently discretized full
    # angular-grid reference, and the gap scales linearly in dt
    grid = build_grid(24, 16, 2.0 * math.pi)
    params = Params(nu=1.0, N=4, delta=0.0, eta=0.2, K=3)
    profile = poloidal_profile(grid, 0.05)
    n_theta = 40
    n_steps = 200
    dt = 5e-4
    cache = OracleOpCache(grid, n_theta, params.nu)

    def discrepancy(dt_run, steps):
        state = make_initial_state(profile, params)
        full = reconstruct_to_full(state, n_theta)
        for _ in range(steps):
            full = oracle_step(full, dt_run, cache)
        cfg = StepConfig(dt=dt_run, t_end=steps * dt_run, nonlinear=True)
        result = run(state, cfg)
        return relative_l2(full, reconstruct_to_full(result.state, n_theta))

    disc = discrepancy(dt, n_steps)
    disc_half = discrepancy(dt / 2.0, 2 * n_steps)
    ratio = disc / disc_half if disc_half > 0.0 else math.inf
    ok = disc <= 1e-2 and 1.4 <= ratio <= 2.8
    _verdict(6, "reference trajectory agreement", ok,
             f"relative L2 gap after {n_steps} steps = {disc:.3e} "
             f"(tol 1e-2); halving dt shrinks it by {ratio:.2f}x "
             "(band [1.4, 2.8])")


def test_criterion_07_inequality_constant_scans():
    # randomized scans of every interpolation-ratio form: finite maxima,
    # grid-stable, exact collapse at p = 2, pointwise weight bound intact
    checks = ("isotropic", "anisotropic", "radial", "radial_quartic",
              "vertical")
    details = []
    ok = True
    for check in checks:
        rep = constant_scan(None, check, 100, 2024)
        fine = math.isfinite(rep["max_ratio"]) and rep["max_ratio"] > 0.0
        stable = rep["refinement_delta"] <= 0.10
        pointwise = rep.get("pointwise_weight_ok", True)
        ok = ok and fine and stable and bool(pointwise)
        details.append(f"{check}: max {rep['max_ratio']:.3f} "
                       f"(delta {rep['refinement_delta']:.3f})")
    disk = build_disk_grid(48, 64)
    radial = 1.0 - disk.r**2
    collapse = max(
        abs(isotropic_ratio(radial_disk_function(disk, radial), 2.0) - 1.0),
        abs(anisotropic_ratio(
            separable_disk_function(disk, disk.r * radial, mode=1), 2.0)
            - 1.0),
        abs(radial_ratio(radial_disk_function(disk, disk.r * radial), 2.0)
            - 1.0))
    ok = ok and collapse <= 1e-12
    _verdict(7, "inequality constant scans", ok,
             "; ".join(details) + f"; p=2 collapse |ratio-1| = {collapse:.1e}"
             " (tol 1e-12, refinement tol 0.10)")


def test_criterion_08_per_harmonic_decay_trend(grid48):
    # small three-fold-symmetric data at N = 8: each extra harmonic is
    # suppressed by at least N^eta, and the mean-mode energy functional
    # never exceeds twice its initial value
    t0 = time.perf_counter()
    params = Params(nu=1.0, N=8, delta=0.0, eta=0.25, K=6, small_eps=0.1)
    grid = build_grid(32, 32, 2.0 * math.pi)
    profile = poloidal_profile(grid, 1.0)
    values, _ = smallness_check(profile, params)
    # the amplitude gate is linear in the profile scale: aim just under it
    profile = profile.scaled(0.09 * params.small_eps / values["ns"] * 10.0)
    values, small_ok = smallness_check(profile, params)
    assert small_ok and values["ns"] <= 0.1

    # accumulate every step: the harmonic's fast initial transient must be
    # resolved by the running time integrals, not smeared by coarse sampling
    cfg = StepConfig(dt=2.5e-3, t_end=1.0, budget_every=1, nonlinear=True)
    point = simulate_point(profile, make_initial_state(profile, params), cfg)
    rate = point.decay.fitted["rate_j0"]
    need = params.eta * math.log(params.N)
    history = point.history
    e_vals = compute_E(history, 0, params, idx=range(history.n_snapshots))
    e_ok = max(e_vals) <= 2.0 * e_vals[0]
    elapsed = time.perf_counter() - t0
    ok = (not point.run.aborted and rate is not None and rate >= need
          and e_ok and elapsed < 600.0)
    _verdict(8, "per-harmonic decay trend", ok,
             f"fitted log-decay per harmonic = {rate:.3f} "
             f"(need >= eta*ln N = {need:.3f}); max E0(t)/E0(0) = "
             f"{max(e_vals) / e_vals[0]:.3f} (limit 2); amplitude gate "
             f"{values['ns']:.3f} <= 0.1; {elapsed:.1f} s (< 600 s)")


def test_criterion_09_mean_mode_scaling(grid48):
    # the nonlinearly generated mean mode weakens as the symmetry index
    # grows: fitted exponent of N at most -0.15
    base = Params(nu=1.0, N=8, delta=0.0, eta=0.25, K=3)
    profile = poloidal_profile(grid48, 0.3)
    alpha = profile.norms_dz(0)[0]

    def mean_sup(N):
        params = Params(nu=1.0, N=N, delta=0.0, eta=0.25, K=base.K)
        state = make_initial_state(profile, params)
        history = EnergyHistory()
        cfg = StepConfig(dt=2.5e-3, t_end=0.5, budget_every=1,
                         nonlinear=True)
        result = run(state, cfg, sinks=RunSinks(on_snapshot=lambda st, ms:
                                                accumulate(history, st, ms)))
        assert not result.aborted
        return math.sqrt(history.sups("inst")[-1, 0, 0]) / alpha

    r8 = mean_sup(8)
    r16 = mean_sup(16)
    exponent = math.log(r16 / r8) / math.log(2.0) if r8 > 0.0 else math.inf
    ok = exponent <= -0.15
    _verdict(9, "mean-mode scaling in N", ok,
             f"sup_t|u0|/|alpha|: N=8 -> {r8:.3e}, N=16 -> {r16:.3e}, "
             f"fitted exponent {exponent:.3f} (need <= -0.15)")


def test_criterion_10_manufactured_time_convergence():
    # forcing built from the discrete operators makes a known trajectory
    # exact in space; the remaining error must shrink at the scheme order
    grid = build_grid(24, 16, 2.0 * math.pi)
    params = Params(nu=1.0, N=3, delta=0.0, eta=0.2, K=2)
    base = make_random_divfree_state(grid, params, seed=7, roughness=None)
    lin = np.array([apply_viscous_operator(grid, base.u[k], params.nu,
                                           k * params.N)
                    for k in range(params.K + 1)])
    quad = assemble_quadratic_rhs(base)

    def forcing_for(t):
        a = 1.0 + 0.5 * np.sin(3.0 * t)
        da = 1.5 * np.cos(3.0 * t)
        return da * base.u + a * lin - a * a * quad

    def error(scheme, dt):
        t_end = 0.2
        res = run(base, StepConfig(dt=dt, t_end=t_end, scheme=scheme,
                                   nonlinear=True), forcing=forcing_for)
        a_end = 1.0 + 0.5 * np.sin(3.0 * t_end)
        num = den = 0.0
        for m_n, m_e in zip(res.state.u, base.u):
            for f_n, f_e in zip(m_n, m_e):
                num = max(num, float(np.abs(f_n - a_end * f_e).max()))
                den = max(den, float(np.abs(a_end * f_e).max()))
        return num / den

    dts = (4e-3, 2e-3, 1e-3)
    orders = {}
    for scheme, target in (("imex_euler", 1.0), ("imex_bdf2", 2.0)):
        errs = [error(scheme, dt) for dt in dts]
        obs = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        orders[scheme] = (obs, target)
    ok = all(abs(o - target) <= 0.3 for obs, target in orders.values()
             for o in obs)
    detail = "; ".join(
        f"{scheme}: observed {', '.join(f'{o:.2f}' for o in obs)} "
        f"(target {target:.0f} +/- 0.3)"
        for scheme, (obs, target) in orders.items())
    _verdict(10, "manufactured-solution time convergence", ok, detail)
