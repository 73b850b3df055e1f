"""Implicit coupled mode Stokes solver: exactness, energy, structure.

The quantitative anchors are Bessel eigenmode decays of the axisymmetric
solver (independent special-function values), and residual checks that
apply the explicit discrete operators to the solver output, closing the
loop between the assembled blocks and the grid's derivative convention.
"""

import numpy as np
import pytest
import scipy.linalg
from scipy.special import j0, j1, jn_zeros

import cylmode.stokes

from cylmode import build_grid
from cylmode.state import ModeVelocity, Params
from cylmode.stokes import (
    SingularOperatorError,
    StokesOpCache,
    assemble_block,
    _factor_checked,
    _mean_dc_block,
    _solve_family,
    _zeta_tables,
    stokes_step,
    stokes_evolve,
    project_divfree,
    mode_energy,
    mode_dissipation,
    mode_invariance_check,
    linear_flow_uL,
)


def _rand_mode(g, k, rng):
    m = ModeVelocity.zeros(k, (g.n_r, g.n_z))
    r = g.r[:, None]
    z = g.z[None, :]
    env = r * (1.0 - r**2) ** 2
    nf = 3 if k == 0 else 6
    arrs = [env * (c[0] + c[1] * np.cos(z) + c[2] * np.sin(z) + c[3] * np.cos(2 * z))
            for c in rng.standard_normal((nf, 4))]
    if k == 0:
        m.ur, m.uth, m.uz = arrs
    else:
        m.set_fields(arrs)
    return m


class TestBlockAssembly:
    def test_naive_mean_dc_block_is_singular(self, grid_cheb):
        # with pressure on the full node set the doubly degenerate block
        # carries a spurious pressure mode; the cache must not use it
        A = assemble_block(grid_cheb, 0, 1.0, 0.0, 0.0, 1e-3, True)
        with pytest.raises(SingularOperatorError):
            _factor_checked(A, np.random.default_rng(0), "probe")

    def test_coupled_blocks_well_conditioned(self, grid_cheb):
        cache = StokesOpCache(grid_cheb, 1.0)
        cache.factors(4, 1e-3)   # raises on any singular bin
        cache.factors(0, 1e-3)   # degenerate bins take the decoupled path

    def test_cache_reuse(self, grid_cheb):
        cache = StokesOpCache(grid_cheb, 1.0)
        f1 = cache.factors(4, 1e-3)
        f2 = cache.factors(4, 1e-3)
        assert f1 is f2


class TestStackedOperators:
    @pytest.mark.parametrize("kappa", [0, 4])
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_matches_dense_complex_solve(self, grid_cheb, rng, kappa,
                                         diffusion):
        # every bin of the real stacked route against a dense solve of the
        # physical complex block (the decoupled block on mean-DC bins)
        g = grid_cheb
        n = g.n_r
        nu, dt = 1.0, (1e-3 if diffusion else 1.0)
        cache = StokesOpCache(g, nu)
        rhs = rng.standard_normal((1, 3, n, g.n_z))
        got = _solve_family(cache, kappa, dt, diffusion, rhs)[0]
        rh = np.fft.rfft(rhs[0], axis=-1)
        zeta1, zeta2 = _zeta_tables(g)
        want = np.zeros((4, n, zeta1.size), dtype=complex)
        dc_bins = 0
        for mz, (z1, z2) in enumerate(zip(zeta1, zeta2)):
            if kappa == 0 and z1 == 0.0:
                A = _mean_dc_block(g, nu, z2, dt, diffusion)
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
        f = tuple(rng.standard_normal((g.n_r, g.n_z)) * r * (1.0 - r**2)
                  for _ in range(6))
        new, press = stokes_step(cache, m, f, dt, keff)
        cos = _solve_family(cache, keff, dt, True, np.array(
            [[m.ur / dt + f[0], m.vth / dt + f[1], m.uz / dt + f[2]]]))[0]
        sin = _solve_family(cache, keff, dt, True, np.array(
            [[m.vr / dt + f[3], -(m.uth / dt + f[4]), m.vz / dt + f[5]]]))[0]
        joint = (new.ur, new.vth, new.uz, press.P,
                 new.vr, -new.uth, new.vz, press.Q)
        for a, b in zip(joint, (*cos, *sin)):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    def test_probe_checks_the_formed_operator(self, grid_cheb, monkeypatch):
        # a map that solves the full-row probe but is off by one part in
        # 1e5 on the velocity columns must be rejected
        def skewed(lu, b, **kw):
            x = scipy.linalg.lu_solve(lu, b, **kw)
            x[:, :-1] *= 1.0 + 1e-5
            return x

        A = assemble_block(grid_cheb, 4, 1.0, 1.0, 1.0, 1e-3, True)
        _factor_checked(A, np.random.default_rng(0), "probe")
        monkeypatch.setattr(cylmode.stokes, "lu_solve", skewed)
        with pytest.raises(SingularOperatorError, match="probe residual"):
            _factor_checked(A, np.random.default_rng(0), "probe")

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
        m = ModeVelocity.zeros(0, (g.n_r, g.n_z))
        m.uth = j1(lam * r) * np.ones((1, g.n_z))
        cache = StokesOpCache(g, 1.0)
        dt, nsteps = 1e-2, 5
        cur = m
        for _ in range(nsteps):
            cur, _p = stokes_step(cache, cur, None, dt, 0)
        want = j1(lam * r) / (1.0 + dt * lam**2) ** nsteps
        assert np.abs(cur.uth - want).max() < 1e-8

    def test_axial_bessel_decay(self, grid_cheb):
        g = grid_cheb
        lam = jn_zeros(0, 1)[0]
        r = g.r[:, None]
        m = ModeVelocity.zeros(0, (g.n_r, g.n_z))
        m.uz = j0(lam * r) * np.ones((1, g.n_z))
        cache = StokesOpCache(g, 1.0)
        dt, nsteps = 1e-2, 5
        cur = m
        for _ in range(nsteps):
            cur, _p = stokes_step(cache, cur, None, dt, 0)
        want = j0(lam * r) / (1.0 + dt * lam**2) ** nsteps
        assert np.abs(cur.uz - want).max() < 1e-8


class TestDiscreteEquationResiduals:
    def test_coupled_mode_solve_satisfies_equations(self, grid_cheb, rng):
        g = grid_cheb
        r = g.r[:, None]
        nu, dt, keff = 1.0, 1e-3, 5
        cache = StokesOpCache(g, nu)
        m = _rand_mode(g, 1, rng)
        f = tuple(rng.standard_normal((g.n_r, g.n_z)) * r * (1.0 - r**2)
                  for _ in range(6))
        new, press = stokes_step(cache, m, f, dt, keff)

        def lap(a):
            return g.dr(g.dr(a)) + g.dr(a) / r

        def helm(a, pot):
            return a / dt - lap(a) + pot * a - nu**2 * g.dz_pow(a, 2)

        pot_rth = (1.0 + keff**2) / r**2
        pot_z = keff**2 / r**2
        res = [
            helm(new.ur, pot_rth) + 2 * keff / r**2 * new.vth
            + g.dr(press.P) - (m.ur / dt + f[0]),
            helm(new.vth, pot_rth) + 2 * keff / r**2 * new.ur
            - keff * press.P / r - (m.vth / dt + f[1]),
            helm(new.uz, pot_z) + g.dz(press.P) - (m.uz / dt + f[2]),
            helm(new.vr, pot_rth) - 2 * keff / r**2 * new.uth
            + g.dr(press.Q) - (m.vr / dt + f[3]),
            helm(new.uth, pot_rth) - 2 * keff / r**2 * new.vr
            + keff * press.Q / r - (m.uth / dt + f[4]),
            helm(new.vz, pot_z) + g.dz(press.Q) - (m.vz / dt + f[5]),
        ]
        scale = 1.0 / dt
        for rr in res:
            assert np.abs(rr[:-1, :]).max() / scale < 1e-10
        div_c = g.dr(new.ur) + new.ur / r + keff * new.vth / r + g.dz(new.uz)
        div_s = g.dr(new.vr) + new.vr / r - keff * new.uth / r + g.dz(new.vz)
        assert np.abs(div_c).max() < 1e-10
        assert np.abs(div_s).max() < 1e-10
        for fields in new.fields():
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
        f = (
            -lap(star.ur) + pot_rth * star.ur - nu**2 * g.dz_pow(star.ur, 2)
            + 2 * keff / r**2 * star.vth,
            -lap(star.vth) + pot_rth * star.vth - nu**2 * g.dz_pow(star.vth, 2)
            + 2 * keff / r**2 * star.ur,
            -lap(star.uz) + pot_z * star.uz - nu**2 * g.dz_pow(star.uz, 2),
            -lap(star.vr) + pot_rth * star.vr - nu**2 * g.dz_pow(star.vr, 2)
            - 2 * keff / r**2 * star.uth,
            -lap(star.uth) + pot_rth * star.uth - nu**2 * g.dz_pow(star.uth, 2)
            - 2 * keff / r**2 * star.vr,
            -lap(star.vz) + pot_z * star.vz - nu**2 * g.dz_pow(star.vz, 2),
        )
        new, press = stokes_step(cache, star, f, dt, keff)
        scale = max(np.abs(fl).max() for fl in star.fields())
        drift = max(np.abs(a - b).max() for a, b in zip(new.fields(), star.fields()))
        assert drift / scale < 1e-9
        assert np.abs(press.P).max() / scale < 1e-6
        assert np.abs(press.Q).max() / scale < 1e-6


class TestFamilySymmetry:
    def test_mirrored_families_stay_mirrored(self, grid_cheb, rng):
        g = grid_cheb
        m = _rand_mode(g, 2, rng)
        m.vr = m.ur.copy()
        m.uth = -m.vth.copy()
        m.vz = m.uz.copy()
        cache = StokesOpCache(g, 1.0)
        new, press = stokes_step(cache, m, None, 1e-3, 4)
        assert np.abs(new.vr - new.ur).max() < 1e-12
        assert np.abs(new.uth + new.vth).max() < 1e-12
        assert np.abs(new.vz - new.uz).max() < 1e-12
        assert np.abs(press.Q - press.P).max() < 1e-12


class TestEnergyInequality:
    @pytest.mark.parametrize("nu", [0.0, 1.0])
    @pytest.mark.parametrize("keff", [0, 1, 2, 5])
    def test_energy_plus_weighted_dissipation_monotone(self, grid_cheb, nu, keff):
        g = grid_cheb
        rng = np.random.default_rng(100 + keff)
        m0 = _rand_mode(g, 0 if keff == 0 else 1, rng)
        cache = StokesOpCache(g, nu)
        _, hist = stokes_evolve(cache, m0, 2e-3, 30, keff)
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
        _, hist = stokes_evolve(cache, m0, dt, 20, 3, with_identity=True)
        scale = hist.energy[0] / dt
        assert np.abs(np.array(hist.identity_residual)).max() / scale < 1e-7


class TestDissipationWeights:
    def test_unit_wavenumber_drops_radial_weight(self, grid_cheb, rng):
        g = grid_cheb
        m = _rand_mode(g, 1, rng)
        d1 = mode_dissipation(g, m, 0.0, 1)
        grad_only = np.pi * sum(g.quad(g.dr(f) ** 2) for f in m.fields())
        assert d1 == pytest.approx(grad_only, rel=1e-13)
        d2 = mode_dissipation(g, m, 0.0, 2)
        assert d2 > d1


class TestProjection:
    def test_idempotent_and_divergence_free(self, grid_cheb, rng):
        g = grid_cheb
        r = g.r[:, None]
        m = _rand_mode(g, 2, rng)
        cache = StokesOpCache(g, 1.0)
        p1, _ = project_divfree(cache, m, 6)
        p2, _ = project_divfree(cache, p1, 6)
        assert max(np.abs(a - b).max() for a, b in zip(p1.fields(), p2.fields())) < 1e-12
        div_c = g.dr(p1.ur) + p1.ur / r + 6 * p1.vth / r + g.dz(p1.uz)
        assert np.abs(div_c).max() < 1e-12

    def test_mean_projection_kills_radial_dc_only(self, grid_cheb, rng):
        g = grid_cheb
        r = g.r[:, None]
        m = _rand_mode(g, 0, rng)
        cache = StokesOpCache(g, 1.0)
        pm, _ = project_divfree(cache, m, 0)
        assert np.abs(pm.uth - m.uth).max() < 1e-12
        assert np.abs(np.fft.rfft(pm.ur, axis=1)[:, 0]).max() < 1e-13
        assert np.abs(g.dr(pm.ur) + pm.ur / r + g.dz(pm.uz)).max() < 1e-12


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
        rep = linear_flow_uL(prof, p, dt=2e-3, n_steps=30, j_max=2)
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
        with pytest.raises(ValueError):
            linear_flow_uL(prof, p, dt=1e-3, n_steps=2)
