"""Mode state containers, initial data, divergence checks, checkpoints."""

import math
import os
import struct

import numpy as np
import pytest

import cylmode.state
from cylmode.diagnostics import P, Q, UR, UTH, UZ, VR, VTH, VZ
from cylmode.grid import THETA_FULL, build_grid
from cylmode.state import (
    Params,
    ModeState,
    make_profile_divfree,
    make_initial_state,
    make_random_divfree_state,
    divergence_residual,
    poloidal_profile,
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

    def test_poloidal_profile(self, grid_cheb):
        g = grid_cheb
        r = g.r[:, None]
        z = g.z[None, :]
        prof = poloidal_profile(g, 0.3, z_waves=2)
        env = 0.3 * r * (1.0 - r**2) ** 2
        assert np.abs(prof.a_r - env * np.sin(2.0 * z)).max() < 1e-15
        assert np.abs(prof.a_z - env * np.cos(2.0 * z)).max() < 1e-15
        assert not prof.b_r.any() and not prof.b_z.any()
        # the double zero at the wall makes it a valid start
        st = make_initial_state(prof, Params(nu=1.0, N=4, delta=0.0,
                                             eta=0.25, K=2))
        assert divergence_residual(st)[1] < 1e-12

    def test_vertical_norms_monotone_in_derivatives(self, grid_cheb):
        prof = _profile(grid_cheb)
        # single vertical harmonics: each d/dz multiplies norms by <= 2 here
        n0, n1 = prof.norms_dz(1)
        assert 0.0 < n1 <= 2.0 * n0 + 1e-12

    @pytest.mark.parametrize("n", [16, 32])
    def test_norms_dz_match_fft_quadrature(self, n):
        g = build_grid(n, n, 2.0 * np.pi)
        prof = _profile(g)
        got = prof.norms_dz(4)
        for j in range(5):
            # the FFT-and-quadrature form, one field at a time
            s = sum(g.quad(g.dz_pow(f, j) ** 2) for f in prof.fields())
            assert got[j] == pytest.approx(math.sqrt(THETA_FULL * s),
                                           rel=1e-11, abs=0.0)


class TestInitialState:
    def test_scalings_exact(self, grid_cheb):
        prof = _profile(grid_cheb)
        p = Params(nu=1.0, N=8, delta=0.0, eta=0.25, K=4)
        st = make_initial_state(prof, p)
        m1 = st.u[1]
        assert np.array_equal(m1[UR], prof.a_r)
        assert np.array_equal(m1[VR], prof.b_r)
        assert np.array_equal(m1[UZ], prof.a_z)
        assert np.array_equal(m1[VTH] * p.N, prof.b_th)
        assert np.array_equal(m1[UTH] * p.N, prof.a_th)
        for k in (0, 2, 3, 4):
            assert st.mode_l2_sq(k) == 0.0

    def test_amplitude_prefactor(self, grid_cheb):
        prof = _profile(grid_cheb)
        p = Params(nu=1.0, N=8, delta=0.1, eta=0.25, K=2)
        st = make_initial_state(prof, p)
        assert np.allclose(st.u[1, UR], 8.0**0.1 * prof.a_r, rtol=1e-15)

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
        st2.u[1, UR] = st2.u[1, UR] + r * (1.0 - r)
        assert divergence_residual(st2)[1] > 1e-3


class TestNormConventions:
    def test_mode_l2_theta_factors(self, grid_cheb):
        g = grid_cheb
        p = Params(nu=1.0, N=4, delta=0.0, eta=0.25, K=2)
        st = ModeState.zeros(g, p)
        r = g.r[:, None]
        f = r * (1.0 - r**2) * np.ones((1, g.n_z))
        st.u[0, UTH] = f.copy()
        st.u[1, UR] = f.copy()
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
            nf = 3 if k == 0 else 6
            arrs = [rng.standard_normal((g.n_r, g.n_z)) for _ in range(nf)]
            if k == 0:
                st.u[0, [UR, UTH, UZ]] = arrs
            else:
                st.u[k] = arrs
            st.p[k, P] = rng.standard_normal((g.n_r, g.n_z))
            if k > 0:
                st.p[k, Q] = rng.standard_normal((g.n_r, g.n_z))
        path = os.path.join(tmp_path, "state.ckpt")
        save_checkpoint(st, path)
        back = load_checkpoint(path)
        assert back.t == st.t
        assert back.params.N == p.N and back.params.nu == p.nu
        for k in range(p.K + 1):
            for f0, f1 in zip(st.u[k], back.u[k]):
                assert f0.tobytes() == f1.tobytes()
            assert st.p[k, P].tobytes() == back.p[k, P].tobytes()
            assert st.p[k, Q].tobytes() == back.p[k, Q].tobytes()

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

        body = cylmode.state._checkpoint_body

        def failing(state):
            yield body(state)[0]
            raise OSError("disk full")

        monkeypatch.setattr(cylmode.state, "_checkpoint_body", failing)
        new = make_random_divfree_state(g, p, seed=2, amplitude=1e-2)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(new, path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["state.ckpt"]
        back = load_checkpoint(path)
        for k in range(p.K + 1):
            for f0, f1 in zip(old.u[k], back.u[k]):
                assert f0.tobytes() == f1.tobytes()

    def test_bytes_follow_documented_layout(self, grid_cheb, tmp_path, rng):
        # expected CYLMODE1 bytes built field by field from the module
        # docstring: header, mean (u_r, u_th, u_z), each harmonic's six
        # fields in (u_r, v_th, u_z, v_r, u_th, v_z) order, then P_0 and
        # each harmonic's (P_k, Q_k)
        g = grid_cheb
        p = Params(nu=1.0, N=5, delta=0.05, eta=0.2, K=2)
        st = ModeState.zeros(g, p, t=0.375)
        shape = (g.n_r, g.n_z)
        mean = {name: rng.standard_normal(shape) for name in ("ur", "uth", "uz")}
        st.u[0, UR], st.u[0, UTH], st.u[0, UZ] = (mean["ur"], mean["uth"],
                                                  mean["uz"])
        names = ("ur", "vth", "uz", "vr", "uth", "vz")
        slots = dict(zip(names, (UR, VTH, UZ, VR, UTH, VZ)))
        harm = {k: {name: rng.standard_normal(shape) for name in names}
                for k in (1, 2)}
        press = {k: (rng.standard_normal(shape), rng.standard_normal(shape))
                 for k in (0, 1, 2)}
        for k, fields in harm.items():
            for name, f in fields.items():
                st.u[k, slots[name]] = f
        for k, (pk, qk) in press.items():
            st.p[k, P] = pk
            if k > 0:
                st.p[k, Q] = qk
        want = [b"CYLMODE1", struct.pack("<4I", g.n_r, g.n_z, 2, 5),
                struct.pack("<5d", g.L_z, 0.375, 1.0, 0.05, 0.2)]
        want += [mean[name].astype("<f8").tobytes()
                 for name in ("ur", "uth", "uz")]
        for k in (1, 2):
            want += [harm[k][name].astype("<f8").tobytes() for name in names]
        want.append(press[0][0].astype("<f8").tobytes())
        for k in (1, 2):
            want += [press[k][0].astype("<f8").tobytes(),
                     press[k][1].astype("<f8").tobytes()]
        path = os.path.join(tmp_path, "layout.ckpt")
        save_checkpoint(st, path)
        assert open(path, "rb").read() == b"".join(want)
