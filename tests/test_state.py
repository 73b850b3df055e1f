"""Mode state containers, initial data, divergence checks, checkpoints."""

import math
import os

import numpy as np
import pytest

import cylmode.state
from cylmode import build_grid
from cylmode.state import (
    Params,
    ModeVelocity,
    ModeState,
    make_profile_divfree,
    make_initial_state,
    make_random_divfree_state,
    divergence_residual,
    reconstruct_point,
    save_checkpoint,
    load_checkpoint,
)


def _profile(g):
    r = g.r[:, None]
    z = g.z[None, :]
    a_r = r * (1.0 - r**2) ** 2 * np.sin(z)
    a_z = (1.0 - r**2) ** 2 * np.cos(z)
    b_r = r * (1.0 - r**2) ** 2 * np.cos(2.0 * z)
    b_z = np.zeros_like(a_r)
    return make_profile_divfree(g, a_r, a_z, b_r, b_z)


class TestParams:
    def test_valid(self):
        p = Params(nu=1.0, N=8, delta=0.1, eta=0.25, K=4)
        assert p.N == 8 and p.m == 3

    def test_invalid_collects_errors(self):
        with pytest.raises(ValueError) as e:
            Params(nu=0.5, N=1, delta=0.3, eta=0.5, K=1)
        msg = str(e.value)
        assert "N" in msg and "delta" in msg and "K" in msg

    def test_sigma_window(self):
        with pytest.raises(ValueError):
            Params(nu=0.0, N=4, delta=0.0, eta=0.2, K=3, m=3, sigma=0.6)


class TestProfile:
    def test_theta_components_close_continuity(self, grid_cheb):
        g = grid_cheb
        r = g.r[:, None]
        z = g.z[None, :]
        prof = _profile(g)
        # hand-derived counterparts of the two input pairs
        b_th = -r * ((1.0 - r**2) * (1.0 - 5.0 * r**2)) * np.sin(z)
        drbr = (1.0 - r**2) * (1.0 - 5.0 * r**2) * np.cos(2.0 * z)
        a_th = r * (drbr + (1.0 - r**2) ** 2 * np.cos(2.0 * z))
        assert np.abs(prof.b_th - b_th).max() < 1e-12
        assert np.abs(prof.a_th - a_th).max() < 1e-12

    def test_rejects_nonvanishing_inputs(self, grid_cheb):
        g = grid_cheb
        r = g.r[:, None]
        z = g.z[None, :]
        bad = np.cos(z) * np.ones_like(r)  # does not vanish at the wall
        with pytest.raises(ValueError):
            make_profile_divfree(g, bad, np.zeros_like(bad),
                                 np.zeros_like(bad), np.zeros_like(bad))

    def test_vertical_norms_monotone_in_derivatives(self, grid_cheb):
        prof = _profile(grid_cheb)
        # single vertical harmonics: each d/dz multiplies norms by <= 2 here
        n0, n1 = prof.norm_dz(0), prof.norm_dz(1)
        assert 0.0 < n1 <= 2.0 * n0 + 1e-12


class TestInitialState:
    def test_scalings_exact(self, grid_cheb):
        prof = _profile(grid_cheb)
        p = Params(nu=1.0, N=8, delta=0.0, eta=0.25, K=4)
        st = make_initial_state(prof, p)
        m1 = st.modes[1]
        assert np.array_equal(m1.ur, prof.a_r)
        assert np.array_equal(m1.vr, prof.b_r)
        assert np.array_equal(m1.uz, prof.a_z)
        assert np.array_equal(m1.vth * p.N, prof.b_th)
        assert np.array_equal(m1.uth * p.N, prof.a_th)
        for k in (0, 2, 3, 4):
            assert st.mode_l2_sq(k) == 0.0

    def test_amplitude_prefactor(self, grid_cheb):
        prof = _profile(grid_cheb)
        p = Params(nu=1.0, N=8, delta=0.1, eta=0.25, K=2)
        st = make_initial_state(prof, p)
        assert np.allclose(st.modes[1].ur, 8.0**0.1 * prof.a_r, rtol=1e-15)

    def test_single_zero_wall_profile_rejected(self, grid_cheb):
        g = grid_cheb
        r = g.r[:, None]
        z = g.z[None, :]
        # derived theta component of this input has only a single wall zero
        a_r = r * (1.0 - r**2) * np.sin(z)
        prof = make_profile_divfree(g, a_r, np.zeros_like(a_r),
                                    np.zeros_like(a_r), np.zeros_like(a_r))
        p = Params(nu=1.0, N=4, delta=0.0, eta=0.25, K=2)
        with pytest.raises(ValueError):
            make_initial_state(prof, p)

    def test_divergence_residual_zero_then_perturbed(self, grid_cheb):
        g = grid_cheb
        prof = _profile(g)
        p = Params(nu=1.0, N=8, delta=0.0, eta=0.25, K=4)
        st = make_initial_state(prof, p)
        res = divergence_residual(st)
        assert res.max() < 1e-12
        st2 = st.copy()
        r = g.r[:, None]
        st2.modes[1].ur = st2.modes[1].ur + r * (1.0 - r)
        assert divergence_residual(st2)[1] > 1e-3


class TestReconstruction:
    def test_matches_mode_sum_convention(self, grid_cheb):
        g = grid_cheb
        prof = _profile(g)
        p = Params(nu=1.0, N=8, delta=0.0, eta=0.25, K=4)
        st = make_initial_state(prof, p)
        m1 = st.modes[1]
        rp, th, zp = 0.5, 0.3, 1.1
        c, s = math.cos(p.N * th), math.sin(p.N * th)
        want = np.array([
            g.interp(m1.ur, rp, zp) * c + g.interp(m1.vr, rp, zp) * s,
            g.interp(m1.uth, rp, zp) * c + g.interp(m1.vth, rp, zp) * s,
            g.interp(m1.uz, rp, zp) * c + g.interp(m1.vz, rp, zp) * s,
        ])
        got = reconstruct_point(st, rp, th, zp)
        assert np.abs(got - want).max() < 1e-13

    def test_pointwise_divergence_of_reconstruction(self, grid_cheb):
        # central differences of the reconstructed velocity satisfy the full
        # cylindrical divergence, tying mode divergences to the physical field
        g = grid_cheb
        prof = _profile(g)
        p = Params(nu=1.0, N=8, delta=0.0, eta=0.25, K=4)
        st = make_initial_state(prof, p)
        rp, th, zp = 0.5, 0.3, 1.1
        h = 1e-5

        def u(rr, tt, zz):
            return reconstruct_point(st, rr, tt, zz)

        u0 = u(rp, th, zp)
        div = ((u(rp + h, th, zp)[0] - u(rp - h, th, zp)[0]) / (2 * h)
               + u0[0] / rp
               + (u(rp, th + h, zp)[1] - u(rp, th - h, zp)[1]) / (2 * h) / rp
               + (u(rp, th, zp + h)[2] - u(rp, th, zp - h)[2]) / (2 * h))
        assert abs(div) < 1e-8


class TestNormConventions:
    def test_mode_l2_theta_factors(self, grid_cheb):
        g = grid_cheb
        p = Params(nu=1.0, N=4, delta=0.0, eta=0.25, K=2)
        st = ModeState.zeros(g, p)
        r = g.r[:, None]
        f = r * (1.0 - r**2) * np.ones((1, g.n_z))
        st.modes[0].uth = f.copy()
        st.modes[1].ur = f.copy()
        base = g.quad(f * f)
        assert st.mode_l2_sq(0) == pytest.approx(2.0 * np.pi * base, rel=1e-14)
        assert st.mode_l2_sq(1) == pytest.approx(np.pi * base, rel=1e-14)
        assert st.total_l2_sq() == pytest.approx(3.0 * np.pi * base, rel=1e-14)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, grid_cheb, tmp_path, rng):
        g = grid_cheb
        p = Params(nu=0.0, N=5, delta=0.05, eta=0.2, K=3)
        st = ModeState.zeros(g, p, t=0.625)
        for k in range(p.K + 1):
            m = st.modes[k]
            nf = 3 if k == 0 else 6
            arrs = [rng.standard_normal((g.n_r, g.n_z)) for _ in range(nf)]
            if k == 0:
                m.ur, m.uth, m.uz = arrs
            else:
                m.set_fields(arrs)
            st.pressures[k].P = rng.standard_normal((g.n_r, g.n_z))
            if k > 0:
                st.pressures[k].Q = rng.standard_normal((g.n_r, g.n_z))
        path = os.path.join(tmp_path, "state.ckpt")
        save_checkpoint(st, path)
        back = load_checkpoint(path)
        assert back.t == st.t
        assert back.params.N == p.N and back.params.nu == p.nu
        for k in range(p.K + 1):
            for f0, f1 in zip(st.modes[k].fields(), back.modes[k].fields()):
                assert f0.tobytes() == f1.tobytes()
            assert st.pressures[k].P.tobytes() == back.pressures[k].P.tobytes()
            assert st.pressures[k].Q.tobytes() == back.pressures[k].Q.tobytes()

    def test_corrupt_magic_rejected(self, grid_cheb, tmp_path):
        g = grid_cheb
        p = Params(nu=1.0, N=4, delta=0.0, eta=0.25, K=2)
        st = ModeState.zeros(g, p)
        path = os.path.join(tmp_path, "state.ckpt")
        save_checkpoint(st, path)
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, grid_cheb, tmp_path):
        g = grid_cheb
        p = Params(nu=1.0, N=4, delta=0.0, eta=0.25, K=2)
        st = ModeState.zeros(g, p)
        path = os.path.join(tmp_path, "state.ckpt")
        save_checkpoint(st, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, grid_cheb, tmp_path,
                                                   monkeypatch):
        g = grid_cheb
        p = Params(nu=1.0, N=4, delta=0.0, eta=0.25, K=2)
        old = make_random_divfree_state(g, p, seed=1, amplitude=1e-2)
        path = os.path.join(tmp_path, "state.ckpt")
        save_checkpoint(old, path)
        before = open(path, "rb").read()

        fields = cylmode.state._state_field_sequence

        def failing(state):
            it = fields(state)
            yield next(it)
            raise OSError("disk full")

        monkeypatch.setattr(cylmode.state, "_state_field_sequence", failing)
        new = make_random_divfree_state(g, p, seed=2, amplitude=1e-2)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(new, path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["state.ckpt"]
        back = load_checkpoint(path)
        for k in range(p.K + 1):
            for f0, f1 in zip(old.modes[k].fields(), back.modes[k].fields()):
                assert f0.tobytes() == f1.tobytes()
