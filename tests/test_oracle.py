"""Full-cylinder reference solver: transforms, audits, and step comparison."""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from cylmode.diagnostics import P, Q, UR, UTH, UZ, VR, VTH, VZ
from cylmode.grid import build_grid, spectral_derivative
from cylmode.state import ModeState, Params, make_random_divfree_state
from cylmode.nonlinear import assemble_quadratic_rhs
from cylmode.stepper import StepConfig, run
import cylmode.oracle
from cylmode.oracle import (
    BinTransforms,
    CFLViolationError,
    ORACLE_MAX_NTHETA,
    OracleOpCache,
    SingularBinError,
    UnresolvedWavenumberError,
    build_full_field,
    check_cfl,
    oracle_step,
    project_to_modes,
    quad3,
    reconstruct_to_full,
    relative_l2,
    _bin_operator,
    _solve_all_bins,
    _velocity_columns,
)
from oracle_reference import coupled_block, dense_table
from quadratic_reference import nonlinear_term_projection

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


def full_l2(full):
    """L2 norm of the velocity over the solid cylinder."""
    s = sum(quad3(full, f * f) for f in full.u)
    return math.sqrt(max(s, 0.0))


def _dth(f):
    """Azimuthal derivative along axis 1 by an rfft round trip."""
    return spectral_derivative(f, 2.0 * np.pi, 1, axis=1)


def full_divergence(full):
    """Pointwise three-dimensional divergence in cylinder coordinates."""
    g = full.grid
    r = g.r[:, None, None]
    ur, uth, uz = full.u
    return g.dr(ur) + ur / r + _dth(uth) / r + g.dz(uz)


class TestTransforms:
    def test_round_trip_identity(self, grid):
        p = _params()
        st = _rand_state(grid, p, seed=1)
        rng = np.random.default_rng(2)
        shape = st.u[0, 0].shape
        st.p[0, P] = rng.standard_normal(shape)
        for k in range(1, p.K + 1):
            st.p[k, P] = rng.standard_normal(shape)
            st.p[k, Q] = rng.standard_normal(shape)
        back = project_to_modes(reconstruct_to_full(st, N_THETA), p)
        for k in range(p.K + 1):
            for a, b in zip(back.u[k], st.u[k]):
                assert np.abs(a - b).max() < 1e-13
            assert np.abs(back.p[k, P] - st.p[k, P]).max() < 1e-13
            assert np.abs(back.p[k, Q] - st.p[k, Q]).max() < 1e-13

    def test_unretained_harmonics_are_dropped(self, grid):
        p = _params()
        full = build_full_field(grid, N_THETA)
        rng = np.random.default_rng(3)
        prof = rng.standard_normal(full.P.shape[::2])
        # azimuthal wavenumbers 1 and 4 are not multiples of N = 3
        for m in (1, 4):
            ang = np.cos(m * full.theta)[None, :, None]
            full.u[:2] += prof[:, None, :] * ang
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

    def test_transforms_match_per_harmonic_loops(self, grid):
        # the harmonic-at-a-time transforms, summed in the same order
        p = _params()
        st = _rand_state(grid, p, seed=7)
        st.p[:, P] = np.random.default_rng(8).standard_normal(st.p[:, P].shape)
        st.p[1:, Q] = np.random.default_rng(9).standard_normal(st.p[1:, Q].shape)
        full = reconstruct_to_full(st, N_THETA)
        # each physical field, whether it is the pressure, and its slots
        rows = ((full.u[0], False, UR, VR), (full.u[1], False, UTH, VTH),
                (full.u[2], False, UZ, VZ), (full.P, True, P, Q))
        for got, pressure, cs, sn in rows:
            arr = st.p if pressure else st.u
            want = np.zeros_like(full.P)
            want += arr[0, cs][:, None, :]
            for k in range(1, p.K + 1):
                ang = k * p.N * full.theta
                want += (arr[k, cs][:, None, :] * np.cos(ang)[None, :, None]
                         + arr[k, sn][:, None, :] * np.sin(ang)[None, :, None])
            np.testing.assert_array_equal(got, want)
        back = project_to_modes(full, p)
        for field, pressure, cs, sn in rows:
            arr = back.p if pressure else back.u
            spec = np.fft.rfft(field, axis=1)
            np.testing.assert_array_equal(arr[0, cs],
                                          spec[:, 0, :].real / N_THETA)
            for k in range(1, p.K + 1):
                m = k * p.N
                np.testing.assert_array_equal(
                    arr[k, cs], 2.0 / N_THETA * spec[:, m, :].real)
                np.testing.assert_array_equal(
                    arr[k, sn], -2.0 / N_THETA * spec[:, m, :].imag)

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
        scale = np.abs(assembled).max() or 1.0
        for k in range(p.K + 1):
            audit = nonlinear_term_projection(full, p, k)
            assert len(audit) == len(assembled[k])
            for a, b in zip(audit, assembled[k]):
                assert np.abs(a - b).max() <= 1e-10 * max(scale, 1.0)


class TestOracleStep:
    def test_zero_stays_zero(self, grid, cache):
        full = build_full_field(grid, N_THETA)
        out = oracle_step(full, 1e-3, cache=cache)
        assert full_l2(out) == 0.0
        assert out.t == pytest.approx(1e-3)

    def test_axisymmetry_is_preserved(self, grid, cache):
        p = _params()
        st = ModeState.zeros(grid, p)
        src = _rand_state(grid, p, seed=6)
        st.u[0] = src.u[0]
        full = reconstruct_to_full(st, N_THETA)
        out = oracle_step(full, 1e-3, cache=cache)
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
            full = oracle_step(full, dt, cache=cache)
        ref = reconstruct_to_full(mode_final, N_THETA)
        assert relative_l2(full, ref) < 1e-2

    def _abs_gap(self, grid, cache, eps, dt, n_steps):
        p = _params()
        st = _rand_state(grid, p, seed=21, amplitude=eps, roughness=None)
        mode_final = run(st, StepConfig(dt=dt, t_end=n_steps * dt)).state
        full = reconstruct_to_full(st, N_THETA)
        for _ in range(n_steps):
            full = oracle_step(full, dt, cache=cache)
        ref = reconstruct_to_full(mode_final, N_THETA)
        return math.sqrt(sum(quad3(full, (a - b) ** 2)
                             for a, b in zip(full.u, ref.u)))

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
    # n_z = 4 has a single mirrored pair (zeta = +-1), so an off-by-one in
    # the mirror index cannot hide behind the other bins
    # three azimuthal sizes (5, 6 and 7 rfft bins), so the theta matrices'
    # (m, re/im) row order is checked beyond one shape
    @pytest.mark.parametrize("n_z", [4, 8, 10])
    @pytest.mark.parametrize("diffusion", [True, False])
    @pytest.mark.parametrize("n_theta", [8, 10, 12])
    def test_matches_dense_complex_solve(self, n_theta, diffusion, n_z):
        # every bin of the real stacked route, mirrored -zeta bins and the
        # decoupled bins included, against a dense complex solve
        grid = build_grid(n_r=10, n_z=n_z, L_z=2.0 * np.pi)
        nu = 0.7
        dt = 1e-3 if diffusion else 1.0
        cache = OracleOpCache(grid, n_theta, nu)
        rhs = np.random.default_rng(7).standard_normal(
            (3, grid.n_r, n_theta, grid.n_z))
        got = _solve_all_bins(cache.factors(dt, diffusion), rhs, cache)
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

    def test_solve_returns_arrays_no_later_solve_touches(self, grid, cache):
        # both tables share the cache's buffers; a result must not live there
        rhs = np.random.default_rng(3).standard_normal(
            (3, grid.n_r, N_THETA, grid.n_z))
        step = _solve_all_bins(cache.factors(1e-3), rhs, cache)
        kept = step.copy()
        proj = _solve_all_bins(cache.factors(1.0, diffusion=False), 2.0 * rhs,
                               cache)
        assert np.array_equal(step, kept)
        assert not np.shares_memory(step, proj)
        assert np.array_equal(
            _solve_all_bins(cache.factors(1e-3), rhs, cache), kept)

    def test_table_is_one_real_stack(self, grid, cache):
        ops = cache.factors(1e-3)
        n = grid.n_r
        assert ops.dtype == np.float64
        # the zeta >= 0 bins only: the -zeta bins are solved from these
        bins = (N_THETA // 2 + 1) * (grid.n_z // 2 + 1)
        assert ops.shape == (bins, 4 * n, 3 * n)
        assert ops.nbytes == bins * 4 * n * 3 * n * 8
        assert cache.factors(1e-3) is ops
        # the projection keeps only its pressure map
        proj = cache.factors(1.0, diffusion=False)
        assert proj.dtype == np.float64
        assert proj.shape == (bins, n, 3 * n)
        assert proj.nbytes == bins * n * 3 * n * 8

    def test_projection_is_built_at_unit_step_only(self, grid, cache):
        # its velocity is W f - G p, the solve with M = I
        with pytest.raises(ValueError):
            cache.factors(1e-3, diffusion=False)

    def test_singular_bin_rejected(self, grid, cache):
        # the coupled form of the (m, zeta) = (0, 0) bin leaves the pressure
        # constant free, so its Schur complement is singular; the build
        # uses the decoupled form there instead
        n = grid.n_r
        for s, idt in ((1.0, 1e3), (0.0, 1.0)):
            with pytest.raises(SingularBinError,
                               match=re.escape("bin operator (m=0, zbin=0)")):
                cache._eliminate(0, np.array([0]), s, idt,
                                 np.random.default_rng(0), 4 * n)
        A = cache._decoupled_block(0.0, 0.0, 1.0, 1e3)
        op = _bin_operator(A, _velocity_columns(n), np.random.default_rng(0),
                           "probe")
        assert np.abs(op[:n]).max() == 0.0  # radial velocity pinned to zero

    def test_map_probe_checks_the_formed_map(self, grid, monkeypatch):
        # a pressure map off by one part in 1e5 still solves the full-row
        # probe, whose pressure comes out of the same solve unskewed, and
        # must fail the map probe
        solve = cylmode.oracle.lu_solve

        def skewed(a, b):
            x = solve(a, b)
            x[..., :-1] *= 1.0 + 1e-5
            return x

        OracleOpCache(grid, N_THETA, 1.0).factors(1.0, diffusion=False)
        monkeypatch.setattr(cylmode.oracle, "lu_solve", skewed)
        with pytest.raises(SingularBinError) as info:
            OracleOpCache(grid, N_THETA, 1.0).factors(1.0, diffusion=False)
        row, map_ = re.search(r"full-row probe (\S+), map probe (\S+)$",
                              str(info.value)).groups()
        assert float(row) <= 1e-6 < float(map_)

    def test_zero_pivot_is_a_labelled_singular_bin(self, grid, cache):
        # an exactly zero column stops the LU itself before any probe runs
        n = grid.n_r
        A = coupled_block(cache, 1.0, 1.0, 1.0, 1.0, 1.0, 1e3)
        A[:, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A, np.ones(A.shape[0]))
        with pytest.raises(SingularBinError,
                           match="zero pivot in oracle bin zeroed"):
            _bin_operator(A, _velocity_columns(n), np.random.default_rng(0),
                          "zeroed")

    def test_zero_pivot_in_the_elimination_names_its_bin(self, grid, cache,
                                                         monkeypatch):
        # an exactly singular Helmholtz block of one bin in a stack
        def singular_blocks(*args):
            H = OracleOpCache._momentum_blocks(cache, *args)
            H[2, 0, :, 0] = 0.0
            return H

        monkeypatch.setattr(cache, "_momentum_blocks", singular_blocks)
        with pytest.raises(SingularBinError,
                           match=re.escape("zero pivot in oracle bin "
                                           "(m=1, zbin=2)")):
            cache._eliminate(1, np.arange(4), 1.0, 1e3,
                             np.random.default_rng(0), 4 * grid.n_r)


class TestDenseReference:
    @pytest.mark.parametrize("n_r,n_theta,n_z",
                             [(10, 8, 4), (10, 12, 10), (24, 40, 16)])
    def test_tables_match_dense_bin_solves(self, n_r, n_theta, n_z):
        # both tables' solves against one dense solve per bin
        grid = build_grid(n_r=n_r, n_z=n_z, L_z=2.0 * np.pi)
        cache = OracleOpCache(grid, n_theta, 0.7)
        rhs = np.random.default_rng(n_theta).standard_normal(
            (3, n_r, n_theta, n_z))
        for dt, diffusion in ((1e-3, True), (1.0, False)):
            got = _solve_all_bins(cache.factors(dt, diffusion), rhs, cache)
            want = _solve_all_bins(dense_table(cache, dt, diffusion), rhs,
                                   cache)
            for a, b in zip(got, want):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_build_peak_memory(self):
        # the tables are built one azimuthal index (n_z/2 + 1 bins) at a
        # time: the traced peak stays under the tables' own bytes plus four
        # (bins, 4n, 4n + 1) stacks of that chunk
        grid = build_grid(n_r=24, n_z=16, L_z=2.0 * np.pi)
        n, chunk = grid.n_r, grid.n_z // 2 + 1
        OracleOpCache(build_grid(n_r=6, n_z=4, L_z=1.0), 8, 1.0).factors(
            1e-3)  # first calls: lazy imports are not the build's memory
        cache = OracleOpCache(grid, 40, 1.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tables = [cache.factors(1e-3), cache.factors(1.0, False)]
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        bound = sum(t.nbytes for t in tables) + 4 * chunk * 4 * n * (
            4 * n + 1) * 8
        assert peak <= bound, (peak, bound)


def _fft_columns(rhs):
    """Paired columns of the bin solve by FFTs: ``rfft`` over theta, ``fft``
    over z, the real form's ``-i`` rows and the mirror's ``u_z'`` sign."""
    _, n, n_theta, n_z = rhs.shape
    n_m, half = n_theta // 2 + 1, n_z // 2 + 1
    c = np.fft.fft(np.fft.rfft(rhs, axis=2), axis=3)
    c[1:] *= -1j
    c[2, ..., half:] *= -1.0
    cols = np.zeros((n_m, half, 3, n, 2), complex)
    for zeta in range(half):
        cols[:, zeta, ..., 0] = np.moveaxis(c[..., zeta], 2, 0)
        if 0 < zeta < half - 1:
            cols[:, zeta, ..., 1] = np.moveaxis(c[..., n_z - zeta], 2, 0)
    return cols.reshape(-1, 3 * n, 2).view(np.float64)


def _fft_fields(x, n_theta, n_z):
    """Physical fields of the solution columns ``x`` by inverse FFTs."""
    n = x.shape[1] // 4
    n_m, half = n_theta // 2 + 1, n_z // 2 + 1
    sol = x.view(complex).reshape(n_m, half, 4, n, 2)
    spec = np.zeros((4, n, n_m, n_z), complex)
    for zeta in range(half):
        spec[..., zeta] = np.moveaxis(sol[:, zeta, ..., 0], 0, 2)
        if 0 < zeta < half - 1:
            spec[..., n_z - zeta] = np.moveaxis(sol[:, zeta, ..., 1], 0, 2)
    spec[2, ..., half:] *= -1.0
    spec[1:3] *= 1j
    return np.fft.irfft(np.fft.ifft(spec, axis=3), n=n_theta, axis=2)


class TestBinTransforms:
    @pytest.mark.parametrize("n_theta,n_z", [(8, 4), (10, 10), (40, 16)])
    def test_matrices_match_fft(self, n_theta, n_z):
        n = 5
        tf = BinTransforms(n_theta, n_z)
        rng = np.random.default_rng(n_theta + n_z)
        rhs = rng.standard_normal((3, n, n_theta, n_z))
        want = _fft_columns(rhs)
        got = tf.columns(rhs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # random columns: the inverse must drop the imaginary parts of the
        # azimuthal DC and Nyquist bins, as irfft does, and the unused
        # mirror columns of zeta = 0 and Nyquist
        x = rng.standard_normal((want.shape[0], 4 * n, 4))
        want = _fft_fields(x, n_theta, n_z)
        got = tf.fields(x)
        assert got.shape == (4, n, n_theta, n_z)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestGuards:
    def test_azimuthal_cap(self, grid):
        with pytest.raises(ValueError):
            OracleOpCache(grid, ORACLE_MAX_NTHETA + 2, nu=1.0)

    def test_cfl_check_raises(self, grid):
        full = build_full_field(grid, N_THETA)
        full.u[0] += 1.0
        with pytest.raises(CFLViolationError):
            check_cfl(full, dt=1.0)

    def test_cfl_number_returned(self, grid):
        full = build_full_field(grid, N_THETA)
        full.u[0] += 1e-3
        cfl = check_cfl(full, dt=1e-3)
        assert 0.0 < cfl < 0.9

    def test_step_checks_cfl(self, grid, cache):
        full = build_full_field(grid, N_THETA)
        full.u[0] += 1.0
        with pytest.raises(CFLViolationError):
            oracle_step(full, 1.0, cache=cache)
