"""Time integration: scheme orders, budgets, restart, the shared step
workspace, and guard rails."""

import dataclasses

import numpy as np
import pytest

import cylmode.stepper
import cylmode.stokes
from cylmode.diagnostics import Q, UR, UTH, UZ, VR, VTH, VZ, ModeMeasures
from cylmode.grid import build_grid, THETA_FULL, THETA_HALF
from cylmode.state import (
    ModeState,
    Params,
    divergence_residual,
    load_checkpoint,
    make_random_divfree_state,
    save_checkpoint,
)
from cylmode.stokes import apply_viscous_operator
from cylmode.nonlinear import assemble_quadratic_rhs
from cylmode.stepper import (
    BUDGET_COLUMNS,
    CFLViolationError,
    DivergenceCleanupError,
    STEP_SCHEMES,
    RunSinks,
    StepConfig,
    cfl_limit,
    energy_budget,
    make_session,
    run,
    step,
)


def _params(nu=1.0, K=3, N=3):
    return Params(N=N, nu=nu, delta=0.1, eta=0.2, K=K)


@pytest.fixture(scope="module")
def grid():
    return build_grid(n_r=24, n_z=32, L_z=2.0 * np.pi)


def _rand_state(grid, p, seed, amplitude=1e-2, **kw):
    return make_random_divfree_state(grid, p, seed=seed, amplitude=amplitude,
                                     **kw)


def _max_diff(st_a, st_b):
    return max(float(np.abs(a - b).max())
               for ma, mb in zip(st_a.u, st_b.u)
               for a, b in zip(ma, mb))


def _budget_fields(m, k):
    return m[[UR, UTH, UZ]] if k == 0 else m


class TestBasics:
    def test_zero_state_stays_zero(self, grid):
        p = _params()
        st = ModeState.zeros(grid, p)
        cfg = StepConfig(dt=0.1, t_end=0.3)
        res = run(st, cfg)
        assert res.n_steps == 3
        assert res.state.t == pytest.approx(0.3)
        assert res.state.total_l2_sq() == 0.0

    def test_zero_duration_is_identity(self, grid):
        p = _params()
        st = _rand_state(grid, p, seed=1)
        res = run(st, StepConfig(dt=0.1, t_end=0.0))
        assert res.n_steps == 0
        assert _max_diff(res.state, st) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StepConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            StepConfig(dt=0.1, t_end=-1.0)
        with pytest.raises(ValueError):
            StepConfig(dt=0.1, t_end=1.0, scheme="rk4")

    def test_viscous_solve_stable_at_huge_dt(self, grid):
        # no CFL constraint without explicit advection; energy must fall
        p = _params()
        st = _rand_state(grid, p, seed=2)
        cfg = StepConfig(dt=5.0, t_end=15.0, nonlinear=False)
        energies = [st.total_l2_sq()]
        ses = make_session(st)
        cur = st
        for _ in range(3):
            cur = step(cur, cfg, ses)
            energies.append(cur.total_l2_sq())
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_divergence_stays_clean(self, grid):
        p = _params()
        st = _rand_state(grid, p, seed=3)
        res = run(st, StepConfig(dt=1e-3, t_end=5e-3))
        assert float(divergence_residual(res.state).max()) < 1e-12

    @pytest.mark.parametrize("scheme", STEP_SCHEMES)
    def test_mean_sine_slots_stay_exactly_zero(self, grid, scheme):
        # the mean is stepped by the two-family solve at kappa = 0; its
        # b rows decouple exactly, so nothing may leak into its sine slots
        p = _params()
        st = _rand_state(grid, p, seed=4)
        assert all(np.abs(st.u[0, s]).max() > 0.0 for s in (UR, UTH, UZ))
        snaps = []
        run(st, StepConfig(dt=1e-3, t_end=4e-3, scheme=scheme),
            RunSinks(on_snapshot=lambda state, _: snaps.append(state)))
        assert len(snaps) == 5
        for state in snaps:
            assert np.all(state.u[0, [VR, VTH, VZ]] == 0.0)
            assert np.all(state.p[0, Q] == 0.0)


class TestVerticalViscosity:
    def test_inert_on_z_independent_data(self, grid):
        # the vertical-only viscous term cannot see z-independent fields,
        # so the two dissipation regimes must advance them identically
        cfg = StepConfig(dt=2e-3, t_end=2e-2)
        results = []
        for nu in (1.0, 0.0):
            p = _params(nu=nu)
            st = _rand_state(grid, p, seed=5, n_z_harmonics=0)
            results.append(run(st, cfg).state)
        assert _max_diff(results[0], results[1]) == 0.0

    def test_acts_on_z_dependent_data(self, grid):
        cfg = StepConfig(dt=2e-3, t_end=1e-2)
        results = []
        for nu in (1.0, 0.0):
            p = _params(nu=nu)
            st = _rand_state(grid, p, seed=5, n_z_harmonics=2)
            results.append(run(st, cfg).state)
        assert _max_diff(results[0], results[1]) > 1e-8


class TestBudgets:
    def test_viscous_transfer_exactly_zero(self, grid):
        p = _params()
        st = _rand_state(grid, p, seed=3)
        ses = make_session(st)
        cfg = StepConfig(dt=1e-3, t_end=1.0, nonlinear=False)
        new = step(st, cfg, ses)
        rows = energy_budget(st, new, ses.prev_rhs, cfg.dt)
        assert all(r.transfer == 0.0 for r in rows)
        scale = max(r.energy for r in rows)
        assert all(abs(r.pressure_work) < 1e-10 * scale for r in rows)

    def test_total_transfer_cancels(self, grid):
        # summed over harmonics the quadratic terms only move energy around
        p = _params()
        st = _rand_state(grid, p, seed=7)
        ses = make_session(st)
        cfg = StepConfig(dt=1e-3, t_end=1.0)
        new = step(st, cfg, ses)
        rows = energy_budget(st, new, ses.prev_rhs, cfg.dt)
        total = sum(r.transfer for r in rows)
        scale = sum(abs(r.transfer) for r in rows)
        assert abs(total) <= 1e-10 * scale + 1e-15

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_imbalance_is_scheme_damping(self, grid, nonlinear):
        # the backward-Euler energy identity is exact up to quadrature:
        # imbalance = -||u_new - u_old||^2 + 2 dt <S(u_old), u_new - u_old>
        p = _params()
        g = grid
        dt = 1e-3
        st = _rand_state(grid, p, seed=3, roughness=None)
        ses = make_session(st)
        cfg = StepConfig(dt=dt, t_end=1.0, nonlinear=nonlinear)
        new = step(st, cfg, ses)
        rows = energy_budget(st, new, ses.prev_rhs, dt)
        for k, r in enumerate(rows):
            theta = THETA_FULL if k == 0 else THETA_HALF
            olds = _budget_fields(st.u[k], k)
            news = _budget_fields(new.u[k], k)
            du2 = theta * sum(g.quad((a - b) ** 2)
                              for a, b in zip(news, olds))
            src = 0.0
            if ses.prev_rhs is not None:
                src = 2.0 * dt * theta * sum(
                    g.quad(f * (a - b)) for f, a, b in
                    zip(_budget_fields(ses.prev_rhs[k], k), news, olds))
            scale = (abs(r.imbalance) + du2 + abs(src)
                     + 2.0 * dt * (r.dissipation_r + r.dissipation_z
                                   + abs(r.weighted_r)))
            assert abs(r.imbalance + du2 - src) <= 1e-7 * scale

    def test_budget_csv_roundtrip(self, grid, tmp_path):
        import csv

        p = _params()
        st = _rand_state(grid, p, seed=3)
        path = str(tmp_path / "budget.csv")
        cfg = StepConfig(dt=1e-3, t_end=3e-3)
        run(st, cfg, sinks=RunSinks(budget_csv=path))
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader))
            rows = list(reader)
        assert header == BUDGET_COLUMNS
        assert len(rows) == 3 * (p.K + 1)
        for row in rows:
            assert len(row) == len(BUDGET_COLUMNS)
            float(row[0])
            assert int(row[1]) in range(p.K + 1)

    def test_budget_every_thins_output(self, grid, tmp_path):
        p = _params()
        st = _rand_state(grid, p, seed=3)
        path = tmp_path / "budget.csv"
        cfg = StepConfig(dt=1e-3, t_end=6e-3, budget_every=3)
        run(st, cfg, sinks=RunSinks(budget_csv=str(path)))
        # one batch of K + 1 rows per budget step
        times = [row.split(",")[0] for row in path.read_text().splitlines()[1:]]
        assert len(times) == 2 * (p.K + 1)
        assert len(set(times)) == 2


class TestConvergence:
    def _mms_error(self, grid, p, base, scheme, dt, t_end=0.2):
        # manufactured solution a(t) * U with the discrete operators
        # supplying the forcing, so only the time discretization can err
        lin = np.array([apply_viscous_operator(grid, base.u[k], p.nu, k * p.N)
                        for k in range(p.K + 1)])
        quad = assemble_quadratic_rhs(base)

        def amp(t):
            return 1.0 + 0.5 * np.sin(3.0 * t)

        def damp(t):
            return 1.5 * np.cos(3.0 * t)

        def forcing(t):
            a, da = amp(t), damp(t)
            return da * base.u + a * lin - a * a * quad

        res = run(base, StepConfig(dt=dt, t_end=t_end, scheme=scheme),
                  forcing=forcing)
        a_end = amp(t_end)
        num = den = 0.0
        for m_n, m_e in zip(res.state.u, base.u):
            for f_n, f_e in zip(m_n, m_e):
                num = max(num, float(np.abs(f_n - a_end * f_e).max()))
                den = max(den, float(np.abs(a_end * f_e).max()))
        return num / den

    @pytest.mark.parametrize("scheme,lo,hi", [
        ("imex_euler", 1.7, 2.4),
        ("imex_bdf2", 3.3, 4.8),
    ])
    def test_mms_order(self, grid, scheme, lo, hi):
        p = _params()
        base = _rand_state(grid, p, seed=7, roughness=None)
        errs = [self._mms_error(grid, p, base, scheme, dt)
                for dt in (4e-3, 2e-3, 1e-3)]
        for a, b in zip(errs, errs[1:]):
            assert lo <= a / b <= hi, errs

    def test_bdf2_beats_euler(self, grid):
        p = _params()
        base = _rand_state(grid, p, seed=7, roughness=None)
        e1 = self._mms_error(grid, p, base, "imex_euler", 1e-3)
        e2 = self._mms_error(grid, p, base, "imex_bdf2", 1e-3)
        assert e2 < 0.1 * e1

    def test_small_amplitude_linearization(self, grid):
        # the trajectory gap between nonlinear and linear runs is O(eps^2)
        p = _params()
        cfg = StepConfig(dt=1e-3, t_end=2e-2)
        cfg_lin = StepConfig(dt=1e-3, t_end=2e-2, nonlinear=False)
        gaps = []
        for eps in (1e-2, 5e-3):
            st = _rand_state(grid, p, seed=9, amplitude=eps, roughness=None)
            full = run(st, cfg).state
            lin = run(st, cfg_lin).state
            gaps.append(_max_diff(full, lin))
        ratio = gaps[0] / gaps[1]
        assert 3.0 <= ratio <= 5.0, gaps


class TestRestartAndParallel:
    def test_restart_bit_exact(self, grid, tmp_path):
        p = _params()
        st = _rand_state(grid, p, seed=11)
        dt = 1e-3
        straight = run(st, StepConfig(dt=dt, t_end=8 * dt)).state
        half = run(st, StepConfig(dt=dt, t_end=4 * dt)).state
        path = str(tmp_path / "mid.ck")
        save_checkpoint(half, path)
        resumed = load_checkpoint(path, params=p)
        final = run(resumed, StepConfig(dt=dt, t_end=4 * dt)).state
        assert final.t == pytest.approx(straight.t)
        assert _max_diff(final, straight) == 0.0


class TestStepWorkspace:
    """Each step's quadratic term reads the radial derivatives of the
    diagnostics pass before it, and the step's scratch arrays live in one
    workspace; nothing a step hands out may change under a later step."""

    @pytest.mark.parametrize("scheme", STEP_SCHEMES)
    def test_shared_radial_derivatives_leave_checkpoint_unchanged(
            self, grid, tmp_path, monkeypatch, scheme):
        st = _rand_state(grid, _params(), seed=12)
        cfg = StepConfig(dt=1e-3, t_end=5e-3, scheme=scheme)
        shared, own = tmp_path / "shared.bin", tmp_path / "own.bin"
        run(st, cfg, RunSinks(checkpoint_path=str(shared)))
        handed = []

        def own_product(state, dr_u=None, ws=None):
            handed.append(dr_u is not None)
            return assemble_quadratic_rhs(state, None, ws)

        monkeypatch.setattr(cylmode.stepper, "assemble_quadratic_rhs",
                            own_product)
        run(st, cfg, RunSinks(checkpoint_path=str(own)))
        assert handed == [True] * 5
        assert shared.read_bytes() == own.read_bytes()

    @pytest.mark.parametrize("scheme", STEP_SCHEMES)
    def test_step_results_outlive_later_steps(self, grid, scheme):
        st = _rand_state(grid, _params(), seed=13)
        cfg = StepConfig(dt=1e-3, t_end=1.0, scheme=scheme)
        ses = make_session(st)
        first = step(st, cfg, ses)
        rhs, meas = ses.prev_rhs, ses.measures
        kept = [a.copy() for a in (first.u, first.p, rhs)]
        kept_meas = {f.name: np.copy(getattr(meas, f.name))
                     for f in dataclasses.fields(ModeMeasures)}
        block = ses.workspace._block
        cur = first
        for _ in range(2):  # the second reads prev_rhs on BDF2
            cur = step(cur, cfg, ses)
        assert ses.workspace._block is block  # sized by the first step
        for a, b in zip((first.u, first.p, rhs), kept):
            np.testing.assert_array_equal(a, b)
        for name, value in kept_meas.items():
            np.testing.assert_array_equal(getattr(meas, name), value)


class TestGuards:
    def test_cfl_violation_raises(self, grid):
        p = _params()
        st = _rand_state(grid, p, seed=3, amplitude=50.0)
        dt_max, limiting = cfl_limit(st)
        assert dt_max < 1e-2
        with pytest.raises(CFLViolationError, match="limiting harmonic"):
            step(st, StepConfig(dt=1e-2, t_end=1.0))

    def test_cfl_limit_matches_per_harmonic_loop(self, grid):
        # the harmonic-at-a-time bound: amplitudes summed over harmonics
        p = _params(K=12)
        st = _rand_state(grid, p, seed=4, amplitude=3.0)
        g = grid
        r = g.r[:, None]
        sums = np.zeros(3)
        contrib = []
        scales = np.array([min(float(g.r[0]), float(np.diff(g.r).min())),
                           g.L_z / g.n_z, 2.0 * np.pi / (p.K * p.N)])
        for m in st.u:
            amp = np.array([np.abs(m[UR]).max() + np.abs(m[VR]).max(),
                            np.abs(m[UZ]).max() + np.abs(m[VZ]).max(),
                            (np.abs(m[UTH]) / r).max()
                            + (np.abs(m[VTH]) / r).max()])
            contrib.append((amp / scales).max())
            sums += amp
        dt_max, limiting = cfl_limit(st)
        assert dt_max == pytest.approx(1.0 / (sums / scales).max(), rel=1e-14)
        assert limiting == int(np.argmax(contrib))

    def test_cfl_limit_zero_state(self, grid):
        p = _params()
        st = ModeState.zeros(grid, p)
        dt_max, _ = cfl_limit(st)
        assert dt_max == np.inf

    def test_cfl_ignored_for_viscous_runs(self, grid):
        p = _params()
        st = _rand_state(grid, p, seed=3, amplitude=50.0)
        cfg = StepConfig(dt=1e-2, t_end=1.0, nonlinear=False)
        step(st, cfg)

    def test_blowup_aborts_with_checkpoint(self, grid, tmp_path):
        p = _params()
        st = _rand_state(grid, p, seed=3)
        pump = np.zeros_like(st.u)
        pump[1] = 0.5
        path = str(tmp_path / "fail.ck")
        cfg = StepConfig(dt=1e-3, t_end=0.5, nonlinear=False)
        res = run(st, cfg, sinks=RunSinks(checkpoint_path=path),
                  forcing=lambda t: pump)
        assert res.aborted
        assert res.failure_time is not None
        assert res.n_steps < 500
        assert "energy" in res.reason
        saved = load_checkpoint(path, params=p)
        assert saved.t == pytest.approx(res.failure_time)

    def test_impossible_div_tol_raises(self, grid, monkeypatch):
        # the first step over div_tol stops the run: its output is never
        # re-projected
        p = _params()
        st = _rand_state(grid, p, seed=3)
        monkeypatch.setattr(cylmode.stepper, "DIV_TOL", 1e-18)
        cfg = StepConfig(dt=1e-3, t_end=1.0)
        projections = []
        project = cylmode.stokes.project_divfree

        def counted(*args, **kwargs):
            projections.append(1)
            return project(*args, **kwargs)

        # the stepper's own name too, should it import one again
        monkeypatch.setattr(cylmode.stokes, "project_divfree", counted)
        monkeypatch.setattr(cylmode.stepper, "project_divfree", counted,
                            raising=False)
        text = r"divergence residual \d\.\d{3}e[-+]\d+ above div_tol 1e-18"
        with pytest.raises(DivergenceCleanupError, match=text):
            step(st, cfg)
        with pytest.raises(DivergenceCleanupError, match=text) as info:
            run(st, cfg)
        assert info.value.step == 1
        assert info.value.t == 0.0
        assert projections == []

    def test_checkpoint_schedule(self, grid, tmp_path):
        p = _params()
        st = _rand_state(grid, p, seed=3)
        path = str(tmp_path / "sched.ck")
        cfg = StepConfig(dt=1e-3, t_end=5e-3)
        run(st, cfg, sinks=RunSinks(checkpoint_path=path))
        final = load_checkpoint(path, params=p)
        assert final.t == pytest.approx(5e-3)

    def test_failed_step_leaves_last_good_checkpoint(self, grid, tmp_path,
                                                     monkeypatch):
        p = _params()
        st = _rand_state(grid, p, seed=3)
        path = str(tmp_path / "fail.ck")
        cfg = StepConfig(dt=1e-3, t_end=5e-3)
        good = run(st, StepConfig(dt=1e-3, t_end=2e-3)).state
        original = cylmode.stepper.step
        calls = []

        def third_step_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise CFLViolationError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(cylmode.stepper, "step", third_step_fails)
        with pytest.raises(CFLViolationError, match="injected") as info:
            run(st, cfg, sinks=RunSinks(checkpoint_path=path))
        # the error names the step that failed and the time it started from
        assert (info.value.step, info.value.t) == (3, good.t)
        saved = load_checkpoint(path, params=p)
        assert saved.t == good.t
        assert saved.u.tobytes() == good.u.tobytes()
        assert saved.p.tobytes() == good.p.tobytes()
