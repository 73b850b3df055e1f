"""Quadratic interaction terms: hand-checked coefficients, structural laws,
and the global energy-flux identity on divergence-free states."""

import numpy as np

from cylmode.diagnostics import UR, UTH, UZ, VTH, VZ
from cylmode.grid import build_grid
from cylmode.state import (
    ModeState,
    Params,
    divergence_residual,
    make_random_divfree_state,
)
from cylmode.nonlinear import assemble_quadratic_rhs, flux_identity_residual
from modeview import force_array, state_view
from quadratic_reference import reference_quadratic_rhs


def _params(K=4, N=3):
    return Params(N=N, nu=1.0, delta=0.1, eta=0.2, K=K)


def _ztile(g, prof):
    return np.tile(prof[:, None], (1, g.n_z))


def _swirl_state(g, params, swirls, mean_swirl=None):
    """State carrying only z-independent azimuthal components uth_k."""
    st = ModeState.zeros(g, params)
    for k, prof in swirls.items():
        st.u[k, UTH] = _ztile(g, prof)
    if mean_swirl is not None:
        st.u[0, UTH] = _ztile(g, mean_swirl)
    return st


def _combine(a, b, ca, cb):
    """New state with fields ca * a + cb * b, harmonic by harmonic."""
    out = ModeState.zeros(a.grid, a.params)
    for k in range(a.params.K + 1):
        out.u[k] = [ca * fa + cb * fb for fa, fb in zip(a.u[k], b.u[k])]
    return out


def _exact_divfree_state(g, params):
    """Divergence-free by pointwise cancellation, for any radial profiles.

    In each family the azimuthal and axial pieces are matched so the
    curvature term and the axial derivative cancel identically at the
    nodes; the radial component stays zero.
    """
    r = g.r[:, None]
    z = g.z[None, :]
    st = ModeState.zeros(g, params)
    mean = st.u[0]
    mean[UTH] = _ztile(g, g.r * (1 - g.r**2) ** 2)
    mean[UZ] = _ztile(g, (1 - g.r**2) ** 2)
    for k in range(1, params.K + 1):
        kN = k * params.N
        q = (1 - r**2) ** 2 * (1 + 0.3 * r) * (1 + 0.1 * k)
        p = (1 - r**2) ** 2 * (0.5 - 0.2 * r**2) * (1 - 0.05 * k)
        m = st.u[k]
        m[VTH] = r * q * np.sin(z)
        m[UZ] = kN * q * np.cos(z)
        m[UTH] = r * p * np.cos(2 * z)
        m[VZ] = (kN / 2.0) * p * np.sin(2 * z)
    return st


class TestTriadHandValues:
    """Coefficient-level checks against terms multiplied out by hand."""

    def test_single_swirl_drives_double_harmonic(self, grid_cheb):
        g = grid_cheb
        p = _params()
        r = g.r
        phi = r * (1 - r**2) ** 2
        st = _swirl_state(g, p, {1: phi})
        ur, vth, uz, vr, uth, vz = assemble_quadratic_rhs(st)[2]
        np.testing.assert_allclose(ur, _ztile(g, phi**2 / (2 * r)),
                                   rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(vth, _ztile(g, p.N * phi**2 / (2 * r)),
                                   rtol=1e-13, atol=1e-16)
        for f in (uz, vr, uth, vz):
            assert np.all(f == 0.0)

    def test_only_fundamental_is_silent_elsewhere(self, grid_cheb):
        # a lone fundamental can only feed its own double
        g = grid_cheb
        p = _params()
        phi = g.r * (1 - g.r**2) ** 2
        st = _swirl_state(g, p, {1: phi})
        rhs = assemble_quadratic_rhs(st)
        for k in (1, 3, 4):
            for f in rhs[k]:
                assert np.all(f == 0.0)

    def test_two_swirls_feed_sum_and_difference(self, grid_cheb):
        g = grid_cheb
        p = _params()
        r = g.r
        phi1 = r * (1 - r**2) ** 2
        phi2 = r**2 * (1 - r**2) ** 2
        st = _swirl_state(g, p, {1: phi1, 2: phi2})
        N = p.N
        cases = {
            1: (phi1 * phi2 / r, N * phi1 * phi2 / (2 * r)),
            2: (phi1**2 / (2 * r), N * phi1**2 / (2 * r)),
            3: (phi1 * phi2 / r, 3 * N * phi1 * phi2 / (2 * r)),
            4: (phi2**2 / (2 * r), N * phi2**2 / r),
        }
        rhs = assemble_quadratic_rhs(st)
        for k, (want_ur, want_vth) in cases.items():
            ur, vth, uz, vr, uth, vz = rhs[k]
            np.testing.assert_allclose(ur, _ztile(g, want_ur),
                                       rtol=1e-13, atol=1e-16)
            np.testing.assert_allclose(vth, _ztile(g, want_vth),
                                       rtol=1e-13, atol=1e-16)
            for f in (uz, vr, uth, vz):
                assert np.all(f == 0.0)

    def test_mean_source_from_single_swirl(self, grid_cheb):
        g = grid_cheb
        p = _params()
        r = g.r
        phi = r * (1 - r**2) ** 2
        st = _swirl_state(g, p, {1: phi})
        s_r, s_th, s_z = assemble_quadratic_rhs(st)[0, [UR, UTH, UZ]]
        np.testing.assert_allclose(s_r, _ztile(g, phi**2 / (2 * r)),
                                   rtol=1e-13, atol=1e-16)
        assert np.all(s_th == 0.0)
        assert np.all(s_z == 0.0)

    def test_mean_swirl_couples_to_harmonic(self, grid_cheb):
        g = grid_cheb
        p = _params()
        r = g.r
        phi = r * (1 - r**2) ** 2
        swirl0 = (1 - r**2) ** 2
        st = _swirl_state(g, p, {1: phi}, mean_swirl=swirl0)
        rhs = assemble_quadratic_rhs(st)
        # no meridional mean flow and no harmonic 2 partner, so harmonic 1
        # receives only the coupling against the mean swirl
        ur, vth, uz, vr, uth, vz = rhs[1]
        np.testing.assert_allclose(ur, _ztile(g, 2 * swirl0 * phi / r),
                                   rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(vth, _ztile(g, p.N * swirl0 * phi / r),
                                   rtol=1e-13, atol=1e-16)
        for f in (uz, vr, uth, vz):
            assert np.all(f == 0.0)
        # mean swirl adds its own centripetal source on top of the harmonic's
        s_r = rhs[0, UR]
        np.testing.assert_allclose(
            s_r, _ztile(g, swirl0**2 / r + phi**2 / (2 * r)),
            rtol=1e-13, atol=1e-16)


class TestStructure:
    """Algebraic laws any correctly assembled quadratic form satisfies."""

    def test_parallelogram_identity(self, grid_cheb):
        g = grid_cheb
        p = _params()
        u = make_random_divfree_state(g, p, seed=11)
        v = make_random_divfree_state(g, p, seed=12)
        upv = _combine(u, v, 1.0, 1.0)
        umv = _combine(u, v, 1.0, -1.0)
        q_upv, q_umv, q_u, q_v = (assemble_quadratic_rhs(s)
                                  for s in (upv, umv, u, v))
        for k in range(p.K + 1):
            lhs = [a + b for a, b in zip(q_upv[k], q_umv[k])]
            rhs = [2 * a + 2 * b for a, b in zip(q_u[k], q_v[k])]
            for a, b in zip(lhs, rhs):
                scale = max(np.abs(b).max(), 1e-30)
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * scale)

    def test_quadratic_scaling(self, grid_cheb):
        g = grid_cheb
        p = _params()
        u = make_random_divfree_state(g, p, seed=21)
        u3 = _combine(u, u, 3.0, 0.0)
        q3, q1 = assemble_quadratic_rhs(u3), assemble_quadratic_rhs(u)
        for k in range(p.K + 1):
            for a, b in zip(q3[k], q1[k]):
                scale = max(np.abs(b).max(), 1e-30)
                np.testing.assert_allclose(a, 9.0 * b, rtol=0,
                                           atol=1e-12 * scale)

    def test_truncation_zero_padding(self, grid_cheb):
        # embedding a K=4 state into K=8 with zero padding must not change
        # any retained interaction
        g = grid_cheb
        p4 = _params(K=4)
        p8 = _params(K=8)
        u4 = make_random_divfree_state(g, p4, seed=31)
        u8 = ModeState.zeros(g, p8)
        for k in range(5):
            u8.u[k] = u4.u[k].copy()
        q8, q4 = assemble_quadratic_rhs(u8), assemble_quadratic_rhs(u4)
        for k in range(5):
            for a, b in zip(q8[k], q4[k]):
                np.testing.assert_array_equal(a, b)

    def test_rhs_assembly_composition(self, grid_cheb):
        # the kernel against the hand-expanded mean source, mean couplings,
        # mean transport and triads, harmonic by harmonic: cascading states
        # span 1e-4**K, so a global tolerance would hide a wrong harmonic;
        # K = 2 is the shortest pair loop Params allows, K = 24 a long one
        for K in (2, 4, 12, 24):
            p = _params(K=K)
            for cascade in (1.0, 1e-4):
                u = make_random_divfree_state(grid_cheb, p, seed=41)
                for k in range(K + 1):
                    u.u[k] = [cascade**k * f for f in u.u[k]]
                got = assemble_quadratic_rhs(u)
                want = force_array(reference_quadratic_rhs(state_view(u)),
                                   u.u.shape)
                for k in range(K + 1):
                    scale = max(np.abs(f).max() for f in want[k])
                    assert scale > 0.0
                    for a, b in zip(got[k], want[k]):
                        np.testing.assert_allclose(a, b, rtol=0,
                                                   atol=1e-13 * scale)
            # a lone fundamental feeds the mean and its double, nothing else
            lone = ModeState.zeros(grid_cheb, p)
            lone.u[1] = make_random_divfree_state(grid_cheb, p,
                                                  seed=51).u[1]
            rhs = assemble_quadratic_rhs(lone)
            for k in range(K + 1):
                live = any(np.any(f) for f in rhs[k])
                assert live == (k in (0, 2)), (K, k)


class TestFluxIdentity:
    """The assembled quadratic terms must do no net work on any
    divergence-free state."""

    def test_exact_state_machine_zero(self, grid_cheb):
        st = _exact_divfree_state(grid_cheb, _params())
        assert divergence_residual(st).max() < 1e-13
        assert flux_identity_residual(st) < 1e-13

    def test_random_states_within_threshold(self):
        g = build_grid(n_r=32, n_z=32, L_z=2 * np.pi)
        p = _params()
        residuals = []
        for seed in range(20):
            st = make_random_divfree_state(g, p, seed=seed)
            assert divergence_residual(st).max() < 1e-13
            residuals.append(flux_identity_residual(st))
        assert max(residuals) <= 1e-8
        assert min(residuals) > 0.0  # not vacuously zero

    def test_residual_decreases_under_refinement(self):
        p = _params()
        worst = {}
        for n_r in (32, 64):
            g = build_grid(n_r=n_r, n_z=32, L_z=2 * np.pi)
            worst[n_r] = max(
                flux_identity_residual(make_random_divfree_state(g, p, seed=s))
                for s in range(10))
        assert worst[64] < worst[32] / 4

    def test_generator_is_deterministic(self, grid_cheb):
        p = _params()
        a = make_random_divfree_state(grid_cheb, p, seed=7)
        b = make_random_divfree_state(grid_cheb, p, seed=7)
        for k in range(p.K + 1):
            for fa, fb in zip(a.u[k], b.u[k]):
                np.testing.assert_array_equal(fa, fb)
