"""Full-cylinder reference solver: transforms, audits, and step comparison."""

import math

import numpy as np
import pytest
import scipy.linalg

from cylmode.grid import build_grid
from cylmode.state import ModeState, Params, make_random_divfree_state
from cylmode.nonlinear import assemble_quadratic_rhs
from cylmode.stepper import StepConfig, run
from cylmode.oracle import (
    CFLViolationError,
    ORACLE_MAX_NTHETA,
    OracleOpCache,
    SingularBinError,
    UnresolvedWavenumberError,
    build_full_field,
    check_cfl,
    full_divergence,
    full_l2,
    nonlinear_term_projection,
    oracle_step,
    project_to_modes,
    quad3,
    reconstruct_to_full,
    relative_l2,
    _bin_operator,
    _solve_all_bins,
    _velocity_columns,
)

N_THETA = 36  # multiple of 2 K N = 18, alias-free for quadratic products


def _params(K=3, N=3, nu=1.0):
    return Params(N=N, nu=nu, delta=0.1, eta=0.2, K=K)


@pytest.fixture(scope="module")
def grid():
    return build_grid(n_r=24, n_z=32, L_z=2.0 * np.pi)


@pytest.fixture(scope="module")
def cache(grid):
    return OracleOpCache(grid, N_THETA, nu=1.0)


def _rand_state(grid, p, seed, amplitude=1e-2, **kw):
    return make_random_divfree_state(grid, p, seed=seed, amplitude=amplitude,
                                     **kw)


class TestTransforms:
    def test_round_trip_identity(self, grid):
        p = _params()
        st = _rand_state(grid, p, seed=1)
        rng = np.random.default_rng(2)
        shape = st.modes[0].ur.shape
        st.pressures[0].P = rng.standard_normal(shape)
        for k in range(1, p.K + 1):
            st.pressures[k].P = rng.standard_normal(shape)
            st.pressures[k].Q = rng.standard_normal(shape)
        back = project_to_modes(reconstruct_to_full(st, N_THETA), p)
        for k in range(p.K + 1):
            for a, b in zip(back.modes[k].fields(), st.modes[k].fields()):
                assert np.abs(a - b).max() < 1e-13
            assert np.abs(back.pressures[k].P - st.pressures[k].P).max() < 1e-13
            assert np.abs(back.pressures[k].Q - st.pressures[k].Q).max() < 1e-13

    def test_unretained_harmonics_are_dropped(self, grid):
        p = _params()
        full = build_full_field(grid, N_THETA)
        rng = np.random.default_rng(3)
        prof = rng.standard_normal(full.ur.shape[::2])
        # azimuthal wavenumbers 1 and 4 are not multiples of N = 3
        for m in (1, 4):
            ang = np.cos(m * full.theta)[None, :, None]
            full.ur = full.ur + prof[:, None, :] * ang
            full.uth = full.uth + prof[:, None, :] * ang
        st = project_to_modes(full, p)
        assert st.total_l2_sq() < 1e-28  # transform rounding only

    def test_reconstruction_parseval(self, grid):
        p = _params()
        st = _rand_state(grid, p, seed=4)
        full = reconstruct_to_full(st, N_THETA)
        assert full_l2(full) ** 2 == pytest.approx(st.total_l2_sq(),
                                                   rel=1e-12)

    def test_reconstructed_state_is_divergence_free(self, grid):
        p = _params()
        st = _rand_state(grid, p, seed=5)
        full = reconstruct_to_full(st, N_THETA)
        div = full_divergence(full)
        # interior nodes only; the wall column multiplies zero velocity
        assert np.abs(div[:-1]).max() < 1e-12

    def test_resolution_guard(self, grid):
        p = _params()
        st = _rand_state(grid, p, seed=1)
        with pytest.raises(UnresolvedWavenumberError):
            reconstruct_to_full(st, 2 * p.K * p.N)
        full = build_full_field(grid, 16)
        with pytest.raises(UnresolvedWavenumberError):
            project_to_modes(full, p)


class TestNonlinearAudit:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_matches_convolution_assembly(self, grid, seed):
        # the pointwise-product route and the triad-convolution route must
        # agree on every retained harmonic to near rounding
        p = _params()
        st = _rand_state(grid, p, seed=seed)
        full = reconstruct_to_full(st, N_THETA)
        assembled = assemble_quadratic_rhs(st)
        scale = max(np.abs(f).max() for k in assembled
                    for f in assembled[k]) or 1.0
        for k in range(p.K + 1):
            audit = nonlinear_term_projection(full, p, k)
            assert len(audit) == len(assembled[k])
            for a, b in zip(audit, assembled[k]):
                assert np.abs(a - b).max() <= 1e-10 * max(scale, 1.0)


class TestOracleStep:
    def test_zero_stays_zero(self, grid, cache):
        p = _params()
        full = build_full_field(grid, N_THETA)
        out = oracle_step(full, p, 1e-3, cache=cache)
        assert full_l2(out) == 0.0
        assert out.t == pytest.approx(1e-3)

    def test_axisymmetry_is_preserved(self, grid, cache):
        p = _params()
        st = ModeState.zeros(grid, p)
        src = _rand_state(grid, p, seed=6)
        st.modes[0] = src.modes[0]
        full = reconstruct_to_full(st, N_THETA)
        out = oracle_step(full, p, 1e-3, cache=cache)
        back = project_to_modes(out, p)
        for k in range(1, p.K + 1):
            assert back.mode_l2_sq(k) < 1e-26

    def test_matches_harmonic_stepper(self, grid, cache):
        p = _params()
        dt, n_steps = 1e-3, 10
        st = _rand_state(grid, p, seed=21, roughness=None)
        mode_final = run(st, StepConfig(dt=dt, t_end=n_steps * dt)).state
        full = reconstruct_to_full(st, N_THETA)
        for _ in range(n_steps):
            full = oracle_step(full, p, dt, cache=cache)
        ref = reconstruct_to_full(mode_final, N_THETA)
        assert relative_l2(full, ref) < 1e-2

    def _abs_gap(self, grid, cache, eps, dt, n_steps):
        p = _params()
        st = _rand_state(grid, p, seed=21, amplitude=eps, roughness=None)
        mode_final = run(st, StepConfig(dt=dt, t_end=n_steps * dt)).state
        full = reconstruct_to_full(st, N_THETA)
        for _ in range(n_steps):
            full = oracle_step(full, p, dt, cache=cache)
        ref = reconstruct_to_full(mode_final, N_THETA)
        return math.sqrt(sum(quad3(full, (a - b) ** 2)
                             for a, b in zip(full.velocity(),
                                             ref.velocity())))

    def test_gap_shrinks_linearly_in_dt(self, grid, cache):
        # both integrators are consistent, so their disagreement at fixed
        # final time is dominated by the first-order splitting difference
        gaps = [self._abs_gap(grid, cache, 1e-2, dt, n)
                for dt, n in ((2e-3, 5), (1e-3, 10), (5e-4, 20))]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= 0.65 * a, gaps

    def test_gap_quadratic_in_amplitude(self, grid, cache):
        gaps = [self._abs_gap(grid, cache, eps, 1e-3, 10)
                for eps in (2e-2, 1e-2, 5e-3)]
        for a, b in zip(gaps, gaps[1:]):
            assert 3.0 <= a / b <= 4.8, gaps


def _complex_bin_solve(grid, nu, m, m1, z1, z2, s, idt, fr, fth, fz):
    """Dense complex solve of one (m, zeta) bin in physical variables."""
    n = grid.n_r
    D = grid.D_r
    eye = np.eye(n)
    rinv = np.diag(1.0 / grid.r)
    rinv2 = np.diag(1.0 / grid.r**2)
    lap = D @ D + rinv @ D - m**2 * rinv2 - nu**2 * z2 * eye
    h_perp = idt * eye - s * (lap - rinv2)
    h_z = idt * eye - s * lap
    if m1 == 0.0 and z1 == 0.0:
        h_th = h_perp.copy()
        P = D.copy()
        P[-1, :] = grid.w_r
        for h in (h_th, h_z):
            h[-1, :] = 0.0
            h[-1, -1] = 1.0
        wall = np.r_[np.ones(n - 1), 0.0]
        return (np.zeros(n), scipy.linalg.solve(h_th, wall * fth),
                scipy.linalg.solve(h_z, wall * fz),
                scipy.linalg.solve(P, wall * fr))
    A = np.zeros((4 * n, 4 * n), dtype=complex)
    A[:n, :n] = h_perp
    A[n:2 * n, n:2 * n] = h_perp
    A[:n, n:2 * n] = 2j * m1 * s * rinv2
    A[n:2 * n, :n] = -2j * m1 * s * rinv2
    A[2 * n:3 * n, 2 * n:3 * n] = h_z
    A[:n, 3 * n:] = D
    A[n:2 * n, 3 * n:] = 1j * m1 * rinv
    A[2 * n:3 * n, 3 * n:] = 1j * z1 * eye
    A[3 * n:, :n] = D + rinv
    A[3 * n:, n:2 * n] = 1j * m1 * rinv
    A[3 * n:, 2 * n:3 * n] = 1j * z1 * eye
    for i in range(n - 1, 3 * n, n):
        A[i, :] = 0.0
        A[i, i] = 1.0
    b = np.concatenate([fr, fth, fz, np.zeros(n)])
    b[n - 1::n] = 0.0
    return scipy.linalg.solve(A, b).reshape(4, n)


class TestBinOperators:
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_matches_dense_complex_solve(self, diffusion):
        # every bin of the real stacked route, mirrored -zeta bins and the
        # decoupled bins included, against a dense complex solve
        grid = build_grid(n_r=10, n_z=8, L_z=2.0 * np.pi)
        n_theta, nu = 8, 0.7
        dt = 1e-3 if diffusion else 1.0
        cache = OracleOpCache(grid, n_theta, nu)
        rhs = np.random.default_rng(7).standard_normal(
            (3, grid.n_r, n_theta, grid.n_z))
        got = _solve_all_bins(cache.factors(dt, diffusion), rhs)
        c = np.fft.fft(np.fft.rfft(rhs, axis=2), axis=3)
        m = np.arange(n_theta // 2 + 1)
        m1 = np.where(m == n_theta // 2, 0.0, m)
        zeta = 2.0 * np.pi / grid.L_z * np.fft.fftfreq(grid.n_z) * grid.n_z
        zeta1 = np.where(np.arange(grid.n_z) == grid.n_z // 2, 0.0, zeta)
        want = np.zeros((4,) + c.shape[1:], dtype=complex)
        for mi in range(m.size):
            for zi in range(grid.n_z):
                want[:, :, mi, zi] = _complex_bin_solve(
                    grid, nu, m[mi], m1[mi], zeta1[zi], zeta[zi] ** 2,
                    1.0 if diffusion else 0.0, 1.0 / dt, *c[:, :, mi, zi])
        want = np.fft.irfft(np.fft.ifft(want, axis=3), n=n_theta, axis=2)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_table_is_one_real_stack(self, grid, cache):
        ops = cache.factors(1e-3)
        n = grid.n_r
        assert ops.dtype == np.float64
        assert ops.shape == ((N_THETA // 2 + 1) * grid.n_z, 4 * n, 3 * n)
        assert cache.factors(1e-3) is ops

    def test_singular_bin_rejected(self, grid, cache):
        # the coupled form of the (m, zeta) = (0, 0) bin leaves the pressure
        # constant free; the build uses the decoupled form there instead
        n = grid.n_r
        A = cache._coupled_block(0.0, 0.0, 0.0, 0.0, 1.0, 1e3)
        with pytest.raises(SingularBinError):
            _bin_operator(A, _velocity_columns(n), np.random.default_rng(0),
                          "probe")
        A = cache._decoupled_block(0.0, 0.0, 1.0, 1e3)
        op = _bin_operator(A, _velocity_columns(n), np.random.default_rng(0),
                           "probe")
        assert np.abs(op[:n]).max() == 0.0  # radial velocity pinned to zero


class TestGuards:
    def test_azimuthal_cap(self, grid):
        with pytest.raises(ValueError):
            OracleOpCache(grid, ORACLE_MAX_NTHETA + 2, nu=1.0)

    def test_cfl_check_raises(self, grid):
        full = build_full_field(grid, N_THETA)
        full.ur = full.ur + 1.0
        with pytest.raises(CFLViolationError):
            check_cfl(full, dt=1.0)

    def test_cfl_number_returned(self, grid):
        full = build_full_field(grid, N_THETA)
        full.ur = full.ur + 1e-3
        cfl = check_cfl(full, dt=1e-3)
        assert 0.0 < cfl < 0.9

    def test_step_checks_cfl(self, grid, cache):
        p = _params()
        full = build_full_field(grid, N_THETA)
        full.ur = full.ur + 1.0
        with pytest.raises(CFLViolationError):
            oracle_step(full, p, 1.0, cache=cache)
