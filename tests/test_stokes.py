"""Implicit coupled mode Stokes solver: exactness, energy, structure.

The quantitative anchors are Bessel eigenmode decays of the axisymmetric
solver (independent special-function values), and residual checks that
apply the explicit discrete operators to the solver output, closing the
loop between the assembled blocks and the grid's derivative convention.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.special import j0, j1, jn_zeros

import cylmode.stokes

from cylmode.diagnostics import P, Q, UR, UTH, UZ, VR, VTH, VZ, measure_modes
from cylmode.grid import build_grid
from cylmode.state import Params
from cylmode.stepper import mode_invariance_check
from cylmode.stokes import (
    SingularOperatorError,
    StokesOpCache,
    _Probes,
    _eliminate,
    _factor_checked,
    _mean_dc_block,
    _radial_laplacian,
    _solve_family,
    _zeta_tables,
    stokes_step,
    stokes_evolve,
    project_divfree,
    linear_flow_problems,
    linear_flow_uL,
)
from stokes_reference import _real_block


def assemble_block(grid, kappa, nu, zeta1, zeta2, dt, diffusion=True):
    """Dense complex matrix of one (harmonic, vertical wavenumber) block.

    The physical form of the real block the solver factors: the axial
    momentum row is scaled back by ``i`` and the axial column by ``-i``.
    """
    n = grid.n_r
    A = _real_block(grid, kappa, nu, zeta1, zeta2, dt, diffusion).astype(complex)
    A[2 * n:3 * n, :] *= 1j
    A[:, 2 * n:3 * n] *= -1j
    return A


def _rand_mode(g, k, rng):
    m = np.zeros((6, g.n_r, g.n_z))
    r = g.r[:, None]
    z = g.z[None, :]
    env = r * (1.0 - r**2) ** 2
    nf = 3 if k == 0 else 6
    arrs = [env * (c[0] + c[1] * np.cos(z) + c[2] * np.sin(z) + c[3] * np.cos(2 * z))
            for c in rng.standard_normal((nf, 4))]
    if k == 0:
        m[UR], m[UTH], m[UZ] = arrs
    else:
        m[:] = arrs
    return m


def _splitmix64_signs(seed: int, size: int) -> list[float]:
    """Reference stream: splitmix64 in Python integers, top bit to a sign."""
    mask, state, signs = 2**64 - 1, seed, []
    for _ in range(size):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        signs.append(-1.0 if (z ^ (z >> 31)) >> 63 else 1.0)
    return signs


def test_probes_are_the_splitmix64_stream():
    # numpy's uint64 arithmetic wraps like the reference; the stream
    # continues across calls, whatever their shapes
    probes = _Probes(1234)
    got = np.concatenate([probes.signs(5).ravel(),
                          probes.signs((2, 3, 1)).ravel()])
    assert got.tolist() == _splitmix64_signs(1234, 11)


class TestBlockAssembly:
    def test_naive_mean_dc_block_is_singular(self, grid_cheb):
        # with pressure on the full node set the doubly degenerate block
        # carries a spurious pressure mode; the cache must not use it
        A = assemble_block(grid_cheb, 0, 1.0, 0.0, 0.0, 1e-3, True)
        with pytest.raises(SingularOperatorError):
            _factor_checked(A, _Probes(0), "probe")

    def test_zero_pivot_is_a_labelled_singular_block(self, grid_cheb):
        # an exactly zero column stops the LU itself before any probe runs
        A = assemble_block(grid_cheb, 4, 1.0, 1.0, 1.0, 1e-3, True)
        A[:, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A, np.ones(A.shape[0]))
        with pytest.raises(SingularOperatorError,
                           match="zero pivot in Stokes block zeroed"):
            _factor_checked(A, _Probes(0), "zeroed")

    def test_coupled_blocks_well_conditioned(self, grid_cheb):
        cache = StokesOpCache(grid_cheb, 1.0)
        cache.factors(4, 1e-3)   # raises on any singular bin
        cache.factors(0, 1e-3)   # degenerate bins take the decoupled path

    def test_cache_reuse(self, grid_cheb):
        cache = StokesOpCache(grid_cheb, 1.0)
        f1 = cache.factors(4, 1e-3)
        f2 = cache.factors(4, 1e-3)
        assert f1 is f2


class TestEliminatedTables:
    """The coupled bins of a step and of a projection are built by block
    elimination; the per-bin dense route (``stokes_reference._real_block``
    and ``_factor_checked``, ``_mean_dc_block`` on the mean's decoupled
    bins) is the reference."""

    @pytest.mark.parametrize("dt, diffusion",
                             [(2.5e-3, True), (1.0, True), (1.0, False)],
                             ids=["0.0025", "1.0", "projection"])
    @pytest.mark.parametrize("nu", [0.0, 1.0])
    @pytest.mark.parametrize("n_r, n_z", [(12, 8), (16, 16), (32, 32)])
    def test_tables_match_the_dense_route(self, n_r, n_z, nu, dt, diffusion):
        # kappa > 0 covers the bins with zeta1 = 0 (zeta = 0 and Nyquist),
        # where u_z decouples; kappa = 0 the mean's bins with zeta1 != 0
        g = build_grid(n_r, n_z, 2.0 * np.pi)
        lap = _radial_laplacian(g)
        zeta1, zeta2 = _zeta_tables(g)
        probes = _Probes(5)
        cache = StokesOpCache(g, nu)
        for kappa in (0, 1, 8, 32):
            table = cache.factors(kappa, dt, diffusion)
            dense = np.stack([
                _factor_checked(
                    _mean_dc_block(g, lap, nu, z2, dt, float(diffusion))
                    if kappa == 0 and z1 == 0.0
                    else _real_block(g, kappa, nu, z1, z2, dt, diffusion),
                    probes, "reference")
                for z1, z2 in zip(zeta1, zeta2)])
            assert np.abs(table - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("kappa, factors", [(0, 2), (1, 0), (8, 0)])
    def test_projection_factors_only_the_mean_dc_bins(self, grid_cheb,
                                                      monkeypatch, kappa,
                                                      factors):
        # a projection's coupled bins take the step's elimination; only
        # the mean's zeta = 0 and Nyquist bins are factored densely
        calls = []
        factor = cylmode.stokes.lu_factor

        def counted(a):
            calls.append(a)
            return factor(a)

        monkeypatch.setattr(cylmode.stokes, "lu_factor", counted)
        StokesOpCache(grid_cheb, 1.0).factors(kappa, 1.0, diffusion=False)
        assert len(calls) == factors

    def test_singular_schur_complement_names_its_bin(self, grid_cheb):
        # the coupled form of the mean's (0, 0) bin carries a spurious
        # pressure mode (test_naive_mean_dc_block_is_singular), so its Schur
        # complement is singular; planted beside a regular bin, it is the
        # one the error names
        g = grid_cheb
        n = g.n_r
        out = np.empty((2, 4 * n, 3 * n))
        with pytest.raises(SingularOperatorError,
                           match=r"kappa=0, zeta=0\.0\b"):
            _eliminate(g, _radial_laplacian(g), 0, 1.0, np.array([1.0, 0.0]),
                       np.array([1.0, 0.0]), 1e-3, 1.0, _Probes(0), out)

    def test_map_probe_checks_the_eliminated_map(self, grid_cheb,
                                                 monkeypatch):
        # a pressure map off by one part in 1e5 leaves the full-row probe,
        # which rides in the Schur solve's last column, exact; the map
        # probe A (op b) = W b must still reject it
        n = grid_cheb.n_r
        solve = cylmode.stokes.lu_solve

        def skewed(a, b):
            x = solve(a, b)
            if b.shape[-1] == 3 * n + 1:  # the Schur complement's solve
                x[..., :-1] *= 1.0 + 1e-5
            return x

        StokesOpCache(grid_cheb, 1.0).factors(4, 1e-3)
        monkeypatch.setattr(cylmode.stokes, "lu_solve", skewed)
        with pytest.raises(SingularOperatorError, match="probe residual"):
            StokesOpCache(grid_cheb, 1.0).factors(4, 1e-3)

    def test_build_memory_stays_near_the_table(self):
        # the build's temporaries peak at no more than 2 MB beside the
        # table at 32 x 32, one kappa (about 1.6 MB here); stacking per-bin
        # maps, or assembling every dense 4n x 4n block at once (2.2 MB),
        # would exceed it
        cache = StokesOpCache(build_grid(32, 32, 2.0 * np.pi), 1.0)
        cache.factors(8, 1.0)  # first-call allocations of numpy and LAPACK
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            table = cache.factors(8, 2.5e-3)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + 2_000_000


class TestStackedOperators:
    @pytest.mark.parametrize("kappa, mean_step",
                             [(0, False), (4, False), (0, True)],
                             ids=["0", "4", "mean"])
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_matches_dense_complex_solve(self, grid_cheb, rng, kappa,
                                         mean_step, diffusion):
        # every bin of the real stacked route against a dense solve of the
        # physical complex block (the decoupled block on mean-DC bins).
        # The mean step solves both families at kappa = 0, its u_th riding
        # in the sine family: the b rows decouple exactly, so its sine
        # slots and Q must come back exactly zero
        g = grid_cheb
        n = g.n_r
        nu, dt = 1.0, (1e-3 if diffusion else 1.0)
        cache = StokesOpCache(g, nu)
        rhs = rng.standard_normal((1, 3, n, g.n_z))
        if mean_step:
            u = np.zeros((6, n, g.n_z))
            u[[UR, UTH, UZ]] = rhs[0]
            rhs = u[None, [UR, UTH, UZ]] / dt
            new, press = stokes_step(cache, u, None, dt, 0, diffusion)
            for zero in (new[VR], new[VTH], new[VZ], press[Q]):
                assert np.all(zero == 0.0)
            got = (new[UR], new[UTH], new[UZ], press[P])
        else:
            got = _solve_family(cache, kappa, dt, diffusion, rhs)[0]
        rh = np.fft.rfft(rhs[0], axis=-1)
        zeta1, zeta2 = _zeta_tables(g)
        want = np.zeros((4, n, zeta1.size), dtype=complex)
        dc_bins = 0
        for mz, (z1, z2) in enumerate(zip(zeta1, zeta2)):
            if kappa == 0 and z1 == 0.0:
                A = _mean_dc_block(g, _radial_laplacian(g), nu, z2, dt,
                                   float(diffusion))
                dc_bins += 1
            else:
                A = assemble_block(g, kappa, nu, z1, z2, dt, diffusion)
            b = np.concatenate([rh[:, :, mz].ravel(), np.zeros(n)])
            b[n - 1::n] = 0.0  # no-slip rows
            want[:, :, mz] = scipy.linalg.solve(A, b).reshape(4, n)
        assert dc_bins == (2 if kappa == 0 else 0)
        want = np.fft.irfft(want, n=g.n_z, axis=-1)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_joint_families_match_separate_solves(self, grid_cheb, rng):
        g = grid_cheb
        r = g.r[:, None]
        dt, keff = 1e-3, 4
        cache = StokesOpCache(g, 1.0)
        m = _rand_mode(g, 2, rng)
        f = np.array([rng.standard_normal((g.n_r, g.n_z)) * r * (1.0 - r**2)
                      for _ in range(6)])
        new, press = stokes_step(cache, m, f, dt, keff)
        cos = _solve_family(cache, keff, dt, True, np.array(
            [[m[UR] / dt + f[0], m[VTH] / dt + f[1], m[UZ] / dt + f[2]]]))[0]
        sin = _solve_family(cache, keff, dt, True, np.array(
            [[m[VR] / dt + f[3], -(m[UTH] / dt + f[4]), m[VZ] / dt + f[5]]]))[0]
        joint = (new[UR], new[VTH], new[UZ], press[P],
                 new[VR], -new[UTH], new[VZ], press[Q])
        for a, b in zip(joint, (*cos, *sin)):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    def test_probe_checks_the_formed_operator(self, grid_cheb, monkeypatch):
        # a map that solves the full-row probe but is off by one part in
        # 1e5 on the velocity columns must be rejected
        solve = cylmode.stokes.lu_solve

        def skewed(lu, b):
            x = solve(lu, b)
            x[:, :-1] *= 1.0 + 1e-5
            return x

        A = assemble_block(grid_cheb, 4, 1.0, 1.0, 1.0, 1e-3, True)
        _factor_checked(A, _Probes(0), "probe")
        monkeypatch.setattr(cylmode.stokes, "lu_solve", skewed)
        with pytest.raises(SingularOperatorError, match="probe residual"):
            _factor_checked(A, _Probes(0), "probe")

    def test_stack_is_real_and_shaped(self, grid_cheb):
        cache = StokesOpCache(grid_cheb, 1.0)
        n = grid_cheb.n_r
        for kappa in (0, 4):
            ops = cache.factors(kappa, 1e-3)
            assert ops.dtype == np.float64
            assert ops.shape == (grid_cheb.n_z // 2 + 1, 4 * n, 3 * n)


class TestAxisymmetricEigenmodes:
    def test_swirl_bessel_decay(self, grid_cheb):
        # u_th = J1(lam r), J1(lam) = 0 is an eigenmode of the azimuthal
        # diffusion operator; backward Euler divides by (1 + dt lam^2)
        g = grid_cheb
        lam = jn_zeros(1, 1)[0]
        r = g.r[:, None]
        m = np.zeros((6, g.n_r, g.n_z))
        m[UTH] = j1(lam * r) * np.ones((1, g.n_z))
        cache = StokesOpCache(g, 1.0)
        dt, nsteps = 1e-2, 5
        cur = m
        for _ in range(nsteps):
            cur, _p = stokes_step(cache, cur, None, dt, 0)
        want = j1(lam * r) / (1.0 + dt * lam**2) ** nsteps
        assert np.abs(cur[UTH] - want).max() < 1e-8

    def test_axial_bessel_decay(self, grid_cheb):
        g = grid_cheb
        lam = jn_zeros(0, 1)[0]
        r = g.r[:, None]
        m = np.zeros((6, g.n_r, g.n_z))
        m[UZ] = j0(lam * r) * np.ones((1, g.n_z))
        cache = StokesOpCache(g, 1.0)
        dt, nsteps = 1e-2, 5
        cur = m
        for _ in range(nsteps):
            cur, _p = stokes_step(cache, cur, None, dt, 0)
        want = j0(lam * r) / (1.0 + dt * lam**2) ** nsteps
        assert np.abs(cur[UZ] - want).max() < 1e-8


class TestDiscreteEquationResiduals:
    def test_coupled_mode_solve_satisfies_equations(self, grid_cheb, rng):
        g = grid_cheb
        r = g.r[:, None]
        nu, dt, keff = 1.0, 1e-3, 5
        cache = StokesOpCache(g, nu)
        m = _rand_mode(g, 1, rng)
        f = np.array([rng.standard_normal((g.n_r, g.n_z)) * r * (1.0 - r**2)
                      for _ in range(6)])
        new, press = stokes_step(cache, m, f, dt, keff)

        def lap(a):
            return g.dr(g.dr(a)) + g.dr(a) / r

        def helm(a, pot):
            return a / dt - lap(a) + pot * a - nu**2 * g.dz_pow(a, 2)

        pot_rth = (1.0 + keff**2) / r**2
        pot_z = keff**2 / r**2
        res = [
            helm(new[UR], pot_rth) + 2 * keff / r**2 * new[VTH]
            + g.dr(press[P]) - (m[UR] / dt + f[0]),
            helm(new[VTH], pot_rth) + 2 * keff / r**2 * new[UR]
            - keff * press[P] / r - (m[VTH] / dt + f[1]),
            helm(new[UZ], pot_z) + g.dz(press[P]) - (m[UZ] / dt + f[2]),
            helm(new[VR], pot_rth) - 2 * keff / r**2 * new[UTH]
            + g.dr(press[Q]) - (m[VR] / dt + f[3]),
            helm(new[UTH], pot_rth) - 2 * keff / r**2 * new[VR]
            + keff * press[Q] / r - (m[UTH] / dt + f[4]),
            helm(new[VZ], pot_z) + g.dz(press[Q]) - (m[VZ] / dt + f[5]),
        ]
        scale = 1.0 / dt
        for rr in res:
            assert np.abs(rr[:-1, :]).max() / scale < 1e-10
        div_c = g.dr(new[UR]) + new[UR] / r + keff * new[VTH] / r + g.dz(new[UZ])
        div_s = g.dr(new[VR]) + new[VR] / r - keff * new[UTH] / r + g.dz(new[VZ])
        assert np.abs(div_c).max() < 1e-10
        assert np.abs(div_s).max() < 1e-10
        for fields in new:
            assert np.abs(fields[-1, :]).max() == 0.0

    def test_manufactured_steady_state(self, grid_cheb, rng):
        # forcing computed from the explicit operators must hold the state
        # exactly fixed under the implicit step
        g = grid_cheb
        r = g.r[:, None]
        nu, dt, keff = 1.0, 0.05, 3
        cache = StokesOpCache(g, nu)
        base = _rand_mode(g, 1, rng)
        star, _ = project_divfree(cache, base, keff)

        def lap(a):
            return g.dr(g.dr(a)) + g.dr(a) / r

        pot_rth = (1.0 + keff**2) / r**2
        pot_z = keff**2 / r**2
        f = np.array([
            -lap(star[UR]) + pot_rth * star[UR] - nu**2 * g.dz_pow(star[UR], 2)
            + 2 * keff / r**2 * star[VTH],
            -lap(star[VTH]) + pot_rth * star[VTH] - nu**2 * g.dz_pow(star[VTH], 2)
            + 2 * keff / r**2 * star[UR],
            -lap(star[UZ]) + pot_z * star[UZ] - nu**2 * g.dz_pow(star[UZ], 2),
            -lap(star[VR]) + pot_rth * star[VR] - nu**2 * g.dz_pow(star[VR], 2)
            - 2 * keff / r**2 * star[UTH],
            -lap(star[UTH]) + pot_rth * star[UTH] - nu**2 * g.dz_pow(star[UTH], 2)
            - 2 * keff / r**2 * star[VR],
            -lap(star[VZ]) + pot_z * star[VZ] - nu**2 * g.dz_pow(star[VZ], 2),
        ])
        new, press = stokes_step(cache, star, f, dt, keff)
        scale = max(np.abs(fl).max() for fl in star)
        drift = max(np.abs(a - b).max() for a, b in zip(new, star))
        assert drift / scale < 1e-9
        assert np.abs(press[P]).max() / scale < 1e-6
        assert np.abs(press[Q]).max() / scale < 1e-6


class TestFamilySymmetry:
    def test_mirrored_families_stay_mirrored(self, grid_cheb, rng):
        g = grid_cheb
        m = _rand_mode(g, 2, rng)
        m[VR] = m[UR].copy()
        m[UTH] = -m[VTH].copy()
        m[VZ] = m[UZ].copy()
        cache = StokesOpCache(g, 1.0)
        new, press = stokes_step(cache, m, None, 1e-3, 4)
        assert np.abs(new[VR] - new[UR]).max() < 1e-12
        assert np.abs(new[UTH] + new[VTH]).max() < 1e-12
        assert np.abs(new[VZ] - new[UZ]).max() < 1e-12
        assert np.abs(press[Q] - press[P]).max() < 1e-12


class TestEnergyInequality:
    @pytest.mark.parametrize("nu", [0.0, 1.0])
    @pytest.mark.parametrize("keff", [0, 1, 2, 5])
    def test_energy_plus_weighted_dissipation_monotone(self, grid_cheb, nu, keff):
        g = grid_cheb
        rng = np.random.default_rng(100 + keff)
        m0 = _rand_mode(g, 0 if keff == 0 else 1, rng)
        cache = StokesOpCache(g, nu)
        hist = stokes_evolve(cache, m0, 2e-3, 30, keff)
        lhs = np.array(hist.energy) + 2.0 * np.array(hist.diss_integral)
        assert (lhs - hist.energy[0]).max() <= 1e-10 * hist.energy[0]
        # energies decay monotonically for the pure Stokes flow
        e = np.array(hist.energy)
        assert np.all(np.diff(e) <= 1e-12 * e[0])

    def test_discrete_identity_residual_small(self, grid_cheb, rng):
        g = grid_cheb
        m0 = _rand_mode(g, 1, rng)
        cache = StokesOpCache(g, 1.0)
        dt = 2e-3
        hist = stokes_evolve(cache, m0, dt, 20, 3)
        scale = hist.energy[0] / dt
        assert np.abs(np.array(hist.identity_residual)).max() / scale < 1e-7


class TestDissipationWeights:
    def test_unit_wavenumber_drops_radial_weight(self, grid_cheb, rng):
        g = grid_cheb
        m = _rand_mode(g, 1, rng)
        d1, d2 = measure_modes(g, np.array([m, m]), [1, 2], j_max=0) \
            .quadform_terms(0.0)["dissipation"]
        grad_only = np.pi * sum(g.quad(g.dr(f) ** 2) for f in m)
        assert d1 == pytest.approx(grad_only, rel=1e-13)
        assert d2 > d1


class TestProjection:
    def test_idempotent_and_divergence_free(self, grid_cheb, rng):
        g = grid_cheb
        r = g.r[:, None]
        m = _rand_mode(g, 2, rng)
        cache = StokesOpCache(g, 1.0)
        p1, _ = project_divfree(cache, m, 6)
        p2, _ = project_divfree(cache, p1, 6)
        assert max(np.abs(a - b).max() for a, b in zip(p1, p2)) < 1e-12
        div_c = g.dr(p1[UR]) + p1[UR] / r + 6 * p1[VTH] / r + g.dz(p1[UZ])
        assert np.abs(div_c).max() < 1e-12

    def test_mean_projection_kills_radial_dc_only(self, grid_cheb, rng):
        g = grid_cheb
        r = g.r[:, None]
        m = _rand_mode(g, 0, rng)
        cache = StokesOpCache(g, 1.0)
        pm, _ = project_divfree(cache, m, 0)
        assert np.abs(pm[UTH] - m[UTH]).max() < 1e-12
        assert np.abs(np.fft.rfft(pm[UR], axis=1)[:, 0]).max() < 1e-13
        assert np.abs(g.dr(pm[UR]) + pm[UR] / r + g.dz(pm[UZ])).max() < 1e-12


class TestInvariance:
    def test_single_harmonic_stays_single(self, grid_cheb):
        params = Params(nu=1.0, N=4, delta=0.0, eta=0.25, K=3)
        leak = mode_invariance_check(grid_cheb, params, 1, 2e-3, 8, seed=3)
        assert leak == 0.0


class TestLinearFlow:
    def test_report_ratios_bounded_and_identity_tiny(self, grid_cheb):
        g = grid_cheb
        r = g.r[:, None]
        z = g.z[None, :]
        a_r = r * (1.0 - r**2) ** 2 * np.sin(z)
        a_z = (1.0 - r**2) ** 2 * np.cos(z)
        b_r = 0.5 * r * (1.0 - r**2) ** 2 * np.cos(2.0 * z)
        from cylmode.state import make_profile_divfree
        prof = make_profile_divfree(g, a_r, a_z, b_r, np.zeros_like(a_r))
        p = Params(nu=1.0, N=6, delta=0.1, eta=0.25, K=3)
        rep = linear_flow_uL(prof, p, dt=2e-3, n_steps=30)
        assert rep["j"] == list(range(p.m + 1))
        assert rep["identity_residual_max"] < 1e-8
        for key in ("ratio_sup", "ratio_dr", "ratio_over_r"):
            vals = np.array(rep[key])
            assert np.all(vals >= 0.0) and np.all(vals < 10.0)

    def test_requires_base_wavenumber_three(self, grid_cheb):
        g = grid_cheb
        z0 = np.zeros((g.n_r, g.n_z))
        from cylmode.state import make_profile_divfree
        prof = make_profile_divfree(g, z0, z0, z0, z0)
        p = Params(nu=1.0, N=2, delta=0.0, eta=0.25, K=2)
        with pytest.raises(ValueError, match="N >= 3"):
            linear_flow_uL(prof, p, dt=1e-3, n_steps=2)

    def test_base_wavenumber_rule_has_one_home(self):
        assert linear_flow_problems(2) == ["linear flow requires N >= 3"]
        assert linear_flow_problems(3) == []
