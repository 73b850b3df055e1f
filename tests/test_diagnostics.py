"""The batched diagnostics pass against the per-field reference formulas.

Every history channel, the divergence residual and every budget column is
checked per harmonic against ``diagnostics_reference``, on random states
(not divergence-free, Nyquist content included, random pressures) and on
cascading ones whose harmonic k is scaled by 1e-4^k, so that a harmonic
far below the leading one must keep its own relative accuracy.
"""

import dataclasses

import numpy as np
import pytest

from cylmode import diagnostics
from cylmode import functionals as F
from cylmode import stepper
from cylmode.diagnostics import (P, Q, UR, UTH, UZ, VR, VTH, VZ,
                                 ModeMeasures, StepWorkspace, measure_modes,
                                 measure_state)
from cylmode.grid import CylGrid, build_grid
from cylmode.nonlinear import flux_identity_residual
from cylmode.state import (
    ModeState,
    Params,
    divergence_residual,
    make_random_divfree_state,
)
from cylmode.stepper import RunSinks, StepConfig, energy_budget, run
from cylmode.stokes import mode_energy

import diagnostics_reference as ref
from modeview import ModeView, force_dict, state_view

TOL = 1e-13
CASES = [(4, False), (4, True), (12, False), (12, True)]
CASE_IDS = ["K4-random", "K4-cascade", "K12-random", "K12-cascade"]


@pytest.fixture(scope="module")
def grid():
    return build_grid(n_r=14, n_z=16, L_z=2.0 * np.pi)


def _random_state(grid, K, cascade, seed, t=0.0):
    p = Params(nu=1.0, N=3, delta=0.1, eta=0.2, K=K)
    rng = np.random.default_rng(seed)
    st = ModeState.zeros(grid, p, t=t)
    shape = (grid.n_r, grid.n_z)
    for k, m in enumerate(st.u):
        s = 1e-4**k if cascade else 1.0
        f = [s * rng.standard_normal(shape) for _ in range(6)]
        if k == 0:
            m[UR], m[UTH], m[UZ] = f[0], f[4], f[2]
        else:
            m[:] = f
        st.p[k, P] = s * rng.standard_normal(shape)
        if k > 0:
            st.p[k, Q] = s * rng.standard_normal(shape)
    return st


def _random_forces(st, seed):
    rng = np.random.default_rng(seed)
    shape = st.u[0, UR].shape
    out = np.zeros_like(st.u)
    for k in range(st.params.K + 1):
        s = float(np.abs(st.u[k, UR]).max())
        slots = [UR, UTH, UZ] if k == 0 else [UR, VTH, UZ, VR, UTH, VZ]
        out[k, slots] = [s * rng.standard_normal(shape) for _ in slots]
    return out


def _scalar_series(hist):
    """(harmonic, name, values, integrals) of every scalar history channel."""
    vals = {name: hist.values(name) for name in F.CHANNELS}
    ints = {name: hist.integrals(name) for name in F.CHANNELS}
    for k in range(hist.K + 1):
        for j in range(hist.j_max + 1):
            for name in F.CHANNELS[:4]:
                yield (k, f"{name}_{j}_{k}", vals[name][:, j, k],
                       ints[name][:, j, k])
            if k == 0:
                yield (0, f"axis_pair_{j}", vals["axis_pair"][:, j],
                       ints["axis_pair"][:, j])


@pytest.mark.parametrize("K,cascade", CASES, ids=CASE_IDS)
def test_history_channels_match_reference(grid, K, cascade):
    states = [_random_state(grid, K, cascade, seed=s, t=0.1 * s)
              for s in range(3)]
    got = F.EnergyHistory()
    want = F.EnergyHistory()
    for st in states:
        F.accumulate(got, st)
        ref.reference_accumulate(want, state_view(st))
    for name in F.CHANNELS:
        assert got.values(name).shape == want.values(name).shape
    scale = {}
    for key, _, values, integrals in _scalar_series(want):
        top = max(np.abs(values).max(), np.abs(integrals).max())
        scale[key] = max(scale.get(key, 0.0), top)
    for (key, name, want_v, want_i), (_, _, got_v, got_i) in zip(
            _scalar_series(want), _scalar_series(got)):
        s = scale[key]
        assert s > 0.0
        np.testing.assert_allclose(got_v, want_v,
                                   rtol=0, atol=TOL * s, err_msg=name)
        np.testing.assert_allclose(got_i, want_i,
                                   rtol=0, atol=TOL * s, err_msg=name)


@pytest.mark.parametrize("K,cascade", CASES, ids=CASE_IDS)
def test_divergence_residual_matches_reference(grid, K, cascade):
    st = _random_state(grid, K, cascade, seed=4)
    want = ref.reference_divergence_residual(state_view(st))
    # normalized by each harmonic's own H1 scale, so order one here
    assert want.min() > 1e-3
    np.testing.assert_allclose(divergence_residual(st), want,
                               rtol=0, atol=TOL)


def test_divergence_residual_of_zero_and_divfree_harmonics(grid):
    p = Params(nu=1.0, N=3, delta=0.1, eta=0.2, K=4)
    st = make_random_divfree_state(grid, p, seed=2)
    st.u[3] = 0.0
    got = divergence_residual(st)
    assert got[3] == 0.0
    np.testing.assert_allclose(got,
                               ref.reference_divergence_residual(state_view(st)),
                               rtol=0, atol=TOL)


@pytest.mark.parametrize("K,cascade", CASES, ids=CASE_IDS)
def test_flux_residual_matches_reference(grid, K, cascade):
    # a random state is far from divergence-free, so the flux is order one
    st = _random_state(grid, K, cascade, seed=9)
    want = ref.reference_flux_identity_residual(state_view(st))
    assert want > 1e-6
    assert flux_identity_residual(st) == pytest.approx(want, rel=TOL)


@pytest.mark.parametrize("K,cascade", CASES, ids=CASE_IDS)
def test_budget_columns_match_reference(grid, K, cascade):
    before = _random_state(grid, K, cascade, seed=5)
    after = _random_state(grid, K, cascade, seed=6, t=0.01)
    forces = _random_forces(before, seed=7)
    dt = 1e-2
    got = energy_budget(before, after, forces, dt)
    want = ref.reference_energy_budget(state_view(before), state_view(after),
                                       force_dict(forces), dt)
    assert len(got) == len(want) == K + 1
    for k, (g_row, w_row) in enumerate(zip(got, want)):
        e_old = ref.reference_mode_energy(grid, ModeView(k, before.u[k]))
        cols = w_row[2:]
        scale = max(abs(e_old), *(abs(c) for c in cols))
        assert g_row[:2] == w_row[:2]
        np.testing.assert_allclose(g_row[2:], cols,
                                   rtol=0, atol=TOL * scale,
                                   err_msg=f"harmonic {k}")


@pytest.mark.parametrize("K,cascade", CASES, ids=CASE_IDS)
def test_mode_readers_match_reference(grid, K, cascade):
    st = _random_state(grid, K, cascade, seed=8)
    N, nu = st.params.N, 0.7
    sv = state_view(st)
    total = ref.reference_total_l2_sq(sv)
    assert st.total_l2_sq() == pytest.approx(total, rel=TOL)
    for k, (u, m) in enumerate(zip(st.u, sv.modes)):
        e = ref.reference_mode_energy(grid, m)
        assert mode_energy(grid, u, k * N) == pytest.approx(e, rel=TOL)
        for j in range(3):
            assert st.mode_l2_sq(k, j) == pytest.approx(
                ref.reference_mode_l2_sq(sv, k, j), rel=TOL)
        want = ref.reference_mode_quadform_terms(grid, m, nu, k * N)
        want["dissipation"] = ref.reference_mode_dissipation(grid, m, nu, k * N)
        got = measure_modes(grid, u[None], [k * N], j_max=0).quadform_terms(nu)
        s = max(abs(v) for v in want.values())
        for name, v in want.items():
            assert abs(got[name][0] - v) <= TOL * s, (k, name)
        pw = ref.reference_pressure_work(grid, m, sv.pressures[k], k * N)
        assert abs(measure_state(st).pressure_work()[k] - pw) <= TOL * s


def _every_vertical_operator(n, L_z, j_max):
    """The pass's vertical operators with no product shared: one matrix
    for each ``dz^j``, j = 0..j_max, and each ``dz dz^j``, j <= min(j_max,
    1), the identity included, laid out like
    ``diagnostics._vertical_operators``."""
    ik = 1j * (2.0 * np.pi / L_z) * np.arange(n // 2 + 1)
    n_dz = min(j_max, 1) + 1
    orders = list(range(j_max + 1)) + list(range(1, n_dz + 1))
    mult = np.array([ik**o for o in orders])
    drop = [o % 2 == 1 for o in orders[:j_max + 1]] + [True] * n_dz
    mult[np.array(drop), -1] = 0.0
    ops = np.fft.irfft(np.fft.rfft(np.eye(n)) * mult[:, None], n=n)
    ops[0] = np.eye(n)
    return ops, slice(1, j_max + 2), slice(j_max + 2, j_max + 2 + n_dz)


@pytest.mark.parametrize("j_max", [0, 1, 2, 3])
@pytest.mark.parametrize("pressure", [False, True])
def test_distinct_vertical_products_match_every_product(grid, monkeypatch,
                                                        j_max, pressure):
    # the pass applies each distinct vertical matrix once and reads order 0
    # from the field itself; it must equal the pass that applies all
    # j_max + 2 + min(j_max, 1) matrices, identity included
    st = _random_state(grid, 4, False, seed=9)
    k_eff = st.params.N * np.arange(len(st.u))
    p = st.p if pressure else None
    ops = diagnostics._vertical_operators(grid.n_z, grid.L_z, j_max)[0]
    assert len(ops) == {0: 1, 1: 2, 2: 3, 3: 4}[j_max]
    got = measure_modes(grid, st.u, k_eff, p, j_max, StepWorkspace())
    monkeypatch.setattr(diagnostics, "_vertical_operators",
                        _every_vertical_operator)
    want = measure_modes(grid, st.u, k_eff, p, j_max)
    for field in dataclasses.fields(ModeMeasures):
        assert np.array_equal(getattr(got, field.name),
                              getattr(want, field.name)), field.name


def test_pass_keeps_the_radial_derivatives_of_the_velocity(grid):
    st = _random_state(grid, 4, True, seed=10)
    dr_u = measure_state(st, 0).dr_u
    assert dr_u.shape == st.u.shape
    np.testing.assert_array_equal(dr_u, grid.D_r @ st.u)


def _count_grid_calls(monkeypatch):
    counts = {}
    for name in ("dr", "dz", "dz_pow", "quad"):
        original = getattr(CylGrid, name)

        def wrapper(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(CylGrid, name, wrapper)
    return counts


@pytest.mark.parametrize("K", [4, 12])
def test_one_step_grid_calls_do_not_grow_with_K(grid, monkeypatch, tmp_path,
                                                K):
    # per-field diagnostics made one call per field, harmonic and
    # derivative order: hundreds per step at these K
    p = Params(nu=1.0, N=3, delta=0.1, eta=0.2, K=K)
    st = make_random_divfree_state(grid, p, seed=1, amplitude=1e-3)
    history = F.EnergyHistory()
    budgets = tmp_path / "budgets.csv"
    counts = _count_grid_calls(monkeypatch)
    res = run(st, StepConfig(dt=1e-3, t_end=1e-3),
              sinks=RunSinks(on_snapshot=lambda s, ms:
                             F.accumulate(history, s, ms),
                             budget_csv=str(budgets)))
    # a header, then one row per harmonic of the single step
    rows = budgets.read_text().splitlines()[1:]
    assert res.n_steps == 1 and history.n_snapshots == 2
    assert {row.split(",")[0] for row in rows} == {"0.001"}
    assert len(rows) == K + 1
    assert sum(counts.values()) <= 4, counts


def test_sinkless_run_computes_no_budgets(grid, monkeypatch, tmp_path):
    p = Params(nu=1.0, N=3, delta=0.1, eta=0.2, K=3)
    st = make_random_divfree_state(grid, p, seed=3, amplitude=1e-2)
    cfg = StepConfig(dt=1e-3, t_end=4e-3, budget_every=2)
    with_sink = run(st, cfg, sinks=RunSinks(
        budget_csv=str(tmp_path / "budgets.csv")))
    calls = []
    original = stepper.energy_budget

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(stepper, "energy_budget", counted)
    times = []
    bare = run(st, cfg)
    snapped = run(st, cfg, sinks=RunSinks(
        on_snapshot=lambda s, ms: times.append(s.t)))
    assert calls == []
    # snapshots keep their cadence: the start, then every budget_every steps
    assert times == pytest.approx([0.0, 2e-3, 4e-3], abs=1e-15)
    for res in (bare, snapped):
        for m_a, m_b in zip(res.state.u, with_sink.state.u):
            for a, b in zip(m_a, m_b):
                np.testing.assert_array_equal(a, b)
