"""Weighted functionals, harmonic weights, reports, and smallness gates."""

import json
import math

import numpy as np
import pytest

from cylmode.grid import build_grid
from cylmode.state import (
    ModeState,
    Params,
    make_initial_state,
    make_profile_divfree,
    make_random_divfree_state,
)
from cylmode.stepper import StepConfig, run
from cylmode import functionals as F


def _params(nu=1.0, K=3, N=3, eta=0.2, delta=0.1, m=3, sigma=0.4):
    return Params(N=N, nu=nu, delta=delta, eta=eta, K=K, m=m, sigma=sigma)


@pytest.fixture(scope="module")
def grid():
    return build_grid(n_r=24, n_z=32, L_z=2.0 * np.pi)


def _smooth_profile(grid, amplitude=1.0):
    r = grid.r
    env = (1.0 - r**2) ** 2
    a_r = amplitude * (env * r)[:, None] * np.sin(grid.z)[None, :]
    a_z = amplitude * env[:, None] * np.cos(grid.z)[None, :]
    zero = np.zeros_like(a_r)
    return make_profile_divfree(grid, a_r, a_z, zero, zero)


def _accumulate_run(grid, p, seed=3, n_steps=5, dt=1e-3, nonlinear=True,
                    state=None):
    st = state if state is not None else make_random_divfree_state(
        grid, p, seed=seed, amplitude=1e-2)
    hist = F.EnergyHistory()
    F.accumulate(hist, st)
    sink_hist = hist

    def snap(s, measures):
        if s.t > 0.0:
            F.accumulate(sink_hist, s, measures)

    from cylmode.stepper import RunSinks
    run(st, StepConfig(dt=dt, t_end=n_steps * dt, nonlinear=nonlinear),
        sinks=RunSinks(on_snapshot=snap))
    return hist


class TestAccumulate:
    def test_zero_stream_all_zero(self, grid):
        p = _params()
        hist = F.EnergyHistory()
        for i in range(3):
            st = ModeState.zeros(grid, p, t=0.1 * i)
            F.accumulate(hist, st)
        assert F.compute_E(hist, 0, p) == 0.0
        assert F.compute_D(hist, 1, p) == 0.0

    def test_constant_state_linear_integrals(self, grid):
        p = _params()
        base = make_random_divfree_state(grid, p, seed=1)
        hist = F.EnergyHistory()
        for i in range(6):
            st = base.copy()
            st.t = 0.1 * i
            F.accumulate(hist, st)
        t_final = 0.5
        for name, at in (("inst", (0, 1)), ("grad", (1, 2)),
                         ("over_r", (0, 3)), ("axis_pair", (0,))):
            v = hist.values(name)[(-1, *at)]
            assert hist.integrals(name)[(-1, *at)] == pytest.approx(
                t_final * v, rel=1e-12)

    def test_decaying_mode_integral_oracle(self, grid):
        # ||u(t)||^2 = e^(-2 lambda t) ||u(0)||^2 integrates in closed form
        p = _params()
        lam, t_end, dt = 1.0, 0.5, 0.025
        base = make_random_divfree_state(grid, p, seed=2)
        hist = F.EnergyHistory()
        n = int(round(t_end / dt))
        for i in range(n + 1):
            t = dt * i
            st = base.copy()
            st.t = t
            for m in st.u:
                m[:] = [math.exp(-lam * t) * f for f in m]
            F.accumulate(hist, st)
        exact_factor = (1.0 - math.exp(-2.0 * lam * t_end)) / (2.0 * lam)
        got = hist.integrals("inst")[-1, 0, 1]
        want = exact_factor * hist.values("inst")[0, 0, 1]
        # trapezoid error is second order in the snapshot spacing
        assert got == pytest.approx(want, rel=3.0 * dt**2)

    def test_non_monotone_time_rejected(self, grid):
        p = _params()
        hist = F.EnergyHistory()
        st = ModeState.zeros(grid, p, t=1.0)
        F.accumulate(hist, st)
        with pytest.raises(ValueError, match="advance"):
            F.accumulate(hist, st)

    def test_running_integrals_non_decreasing(self, grid):
        p = _params()
        hist = _accumulate_run(grid, p)
        for name, j, k in (("grad", 0, 1), ("dr", 1, 0), ("over_r", 0, 2)):
            series = hist.integrals(name)[:, j, k]
            assert np.all(np.diff(series) >= 0.0)

    def test_history_roundtrip(self, grid, tmp_path):
        p = _params()
        hist = _accumulate_run(grid, p)
        path = str(tmp_path / "hist.npz")
        F.save_history(hist, path)
        loaded = F.load_history(path)
        assert loaded.times == hist.times
        for name in F.CHANNELS:
            for read in ("values", "integrals", "sups"):
                assert np.array_equal(getattr(loaded, read)(name),
                                      getattr(hist, read)(name)), (name, read)
        for j in (0, 1):
            assert F.compute_E(loaded, j, p) == F.compute_E(hist, j, p)
            assert F.compute_D(loaded, j, p) == F.compute_D(hist, j, p)

    def test_saved_history_layout(self, grid, tmp_path):
        # the file holds meta, times and one array per channel, each the
        # channel's stacked rows; no integral or estimate is stored
        p = _params()
        hist = _accumulate_run(grid, p, n_steps=6)
        path = str(tmp_path / "hist.npz")
        F.save_history(hist, path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        assert sorted(arrays) == sorted(("meta", "times") + F.CHANNELS)
        assert arrays["times"].tolist() == hist.times
        for name in F.CHANNELS:
            assert np.array_equal(arrays[name], hist.values(name)), name
        assert arrays["inst"].shape == (7, 2, p.K + 1)
        assert arrays["axis_pair"].shape == (7, 2)
        meta = json.loads(str(arrays["meta"]))
        assert sorted(meta) == sorted(("j_max", "K", "N", "grid")
                                      + F.REGIME_KEYS)

    @pytest.mark.parametrize("name,cut,shape", [
        ("grad", np.s_[:-1], r"\(3, 2, 4\)"),
        ("over_r", np.s_[..., :-1], r"\(4, 2, 3\)"),
    ], ids=["shorter_than_times", "another_K"])
    def test_refuses_channel_of_wrong_shape(self, grid, tmp_path, name, cut,
                                            shape):
        path = str(tmp_path / "hist.npz")
        F.save_history(_accumulate_run(grid, _params(), n_steps=3), path)
        with np.load(path) as data:
            arrays = {member: data[member] for member in data.files}
        arrays[name] = arrays[name][cut]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=rf"channel {name} has shape "
                           rf"{shape}; times and K = 3 give \(4, 2, 4\)"):
            F.load_history(path)

    def test_refuses_history_of_another_order(self, grid, tmp_path):
        path = str(tmp_path / "hist.npz")
        F.save_history(_accumulate_run(grid, _params(), n_steps=2), path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        assert meta["j_max"] == F.EnergyHistory.j_max == 1
        np.savez(path, meta=json.dumps({**meta, "j_max": 2}), **arrays)
        with pytest.raises(ValueError, match="j_max = 2"):
            F.load_history(path)

    def test_loads_history_with_mixed_and_powers_meta(self, grid, tmp_path):
        # histories written with the mixed-norm switch in place carry
        # "mixed" and "powers" meta keys; the channels are the stored arrays
        p = _params()
        hist = _accumulate_run(grid, p)
        path = str(tmp_path / "hist.npz")
        F.save_history(hist, path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        meta["mixed"] = False
        meta["powers"] = {name: 1.0 for name in F.CHANNELS}
        np.savez(path, meta=json.dumps(meta), **arrays)
        loaded = F.load_history(path)
        for name in F.CHANNELS:
            assert loaded.values(name).tolist() == hist.values(name).tolist()
            assert (loaded.integrals(name).tolist()
                    == hist.integrals(name).tolist())
        assert (json.dumps(F.decay_report(loaded, p).to_json_dict())
                == json.dumps(F.decay_report(hist, p).to_json_dict()))


class TestWeightedFunctionals:
    def test_initial_single_mode_value(self, grid):
        # with data riding harmonic 1 only and no elapsed time, both
        # functionals reduce to N^(-2 eta) times the squared norm
        p = _params()
        prof = _smooth_profile(grid)
        st = make_initial_state(prof, p)
        hist = F.EnergyHistory()
        F.accumulate(hist, st)
        for j in (0, 1):
            inst = sum(grid.quad(grid.dz_pow(f, j) ** 2)
                       for f in st.u[1])
            want = p.N ** (-2.0 * p.eta) * inst
            assert F.compute_E(hist, j, p) == pytest.approx(want, rel=1e-12)
            assert F.compute_D(hist, j, p) == pytest.approx(want, rel=1e-12)

    def test_two_mode_hand_oracle(self, grid):
        # hand-set channel values recomputed against the printed formula
        p = _params(K=2, N=4, eta=0.2, delta=0.1, m=3, sigma=0.4)
        hist = F.EnergyHistory()
        hist.K, hist.N = 2, 4
        j1 = [0.0, 0.0, 0.0]  # order j = 1 is not read
        rows = {"inst": [[0.3, 2.0, 0.8], j1],
                "grad": [[0.2, 1.0, 0.4], j1],
                "dr": [[0.15, 0.7, 0.3], j1],
                "over_r": [[0.0, 0.5, 0.25], j1],
                "axis_pair": [0.1, 0.0]}
        # constant over unit time: every integral equals its value
        for t in (0.0, 1.0):
            hist.append(t, **rows)
        N, eta = 4.0, 0.2
        mean = N ** (2 * (0.25 - eta)) * (0.3 + 0.2 + 0.1)
        k1 = 1 * N ** (2 * eta * -1) * (2.0 + 1.0 + 0.5 * N**2 * 0.5)
        k2 = 4 * N ** 0.0 * (0.8 + 0.4 + 0.5 * (2 * N) ** 2 * 0.25)
        assert F.compute_E(hist, 0, p) == pytest.approx(
            mean + max(k1, k2), rel=1e-14)
        m, sig, delta = 3, 0.4, 0.1
        mean_d = N ** (2 * (0.25 - eta)) * (0.3 + 0.15 + 0.1)
        d1 = (1 ** (2 * sig * m) * N ** (2 * min(-eta, (0.5 - eta - delta) * m))
              * (2.0 + 0.7 + 0.5 * N**2 * 0.5))
        d2 = (2 ** (2 * sig * m) * N ** 0.0
              * (0.8 + 0.3 + 0.5 * (2 * N) ** 2 * 0.25))
        assert F.compute_D(hist, 0, p) == pytest.approx(
            mean_d + max(d1, d2), rel=1e-14)

    def test_quadratic_homogeneity(self, grid):
        p = _params()
        base = make_random_divfree_state(grid, p, seed=4)
        hists = []
        for lam in (1.0, 2.0):
            hist = F.EnergyHistory()
            for i in range(3):
                st = base.copy()
                st.t = 0.05 * i
                for m in st.u:
                    m[:] = [lam * f for f in m]
                F.accumulate(hist, st)
            hists.append(hist)
        for j in (0, 1):
            assert F.compute_E(hists[1], j, p) == 4.0 * F.compute_E(
                hists[0], j, p)

    def test_prefix_monotone(self, grid):
        p = _params()
        hist = _accumulate_run(grid, p, n_steps=6)
        every = range(hist.n_snapshots)
        for j in (0, 1):
            vals = [F.compute_E(hist, j, p, idx=i) for i in every]
            assert all(b >= a * (1.0 - 1e-12)
                       for a, b in zip(vals, vals[1:]))
            # the sequence form evaluates every index at once, bit for bit
            for functional in (F.compute_E, F.compute_D):
                scalar = [functional(hist, j, p, idx=i) for i in every]
                assert functional(hist, j, p, idx=every).tolist() == scalar
                assert functional(hist, j, p, idx=[0, -1]).tolist() == \
                    [scalar[0], scalar[-1]]

    def test_bad_inputs(self, grid):
        p = _params()
        hist = F.EnergyHistory()
        with pytest.raises(ValueError, match="empty"):
            F.compute_E(hist, 0, p)
        F.accumulate(hist, ModeState.zeros(grid, p))
        with pytest.raises(ValueError, match="out of range"):
            F.compute_E(hist, 2, p)
        with pytest.raises(ValueError, match="out of range"):
            F.compute_D(hist, -1, p)

    def test_stokes_run_functional_bounded(self, grid):
        # without nonlinearity the weighted functional cannot grow past
        # its initial value by more than discretization slack
        p = _params()
        prof = _smooth_profile(grid, amplitude=1e-2)
        st = make_initial_state(prof, p)
        hist = F.EnergyHistory()
        F.accumulate(hist, st)
        e00 = F.compute_E(hist, 0, p)
        hist2 = _accumulate_run(grid, p, n_steps=10, nonlinear=False,
                                state=st)
        assert F.compute_E(hist2, 0, p) <= 2.0 * e00


class TestHarmonicWeight:
    @staticmethod
    def _n_exponents(p, j, ks):
        # the N-power of the anisotropic weight, its k-power divided out
        return np.array([
            math.log(F.harmonic_weight(p, k, j, anisotropic=True)
                     / k ** (2.0 * p.sigma * (p.m - j))) / math.log(p.N)
            for k in ks])

    def test_spot_values(self):
        # the N-exponent grows by 2 eta per harmonic through A_j =
        # floor((1/2 - eta - delta)(m - j) / eta) + 2, then stays flat
        p = _params(N=4, eta=0.25, delta=0.0, m=3, sigma=0.4)
        ks = range(1, 11)
        for j, A in ((0, 5), (1, 4)):
            steps = np.diff(self._n_exponents(p, j, ks))
            assert steps[:A - 1] == pytest.approx(2.0 * p.eta, abs=1e-12)
            assert steps[A - 1:] == pytest.approx(0.0, abs=1e-12)

    def test_no_azimuthal_gain_never_saturates(self):
        p = _params(eta=0.0)
        for j in (0, 1):
            assert np.all(self._n_exponents(p, j, range(1, 200)) == 0.0)


def _parent_envelope_bound(params, j, k, sup_1, first_1):
    """The closed-form decay bound with its saturation index A_j, as the
    decay report wrote it before predicting from the harmonic weight."""
    N, eta, delta = params.N, params.eta, params.delta
    m, sigma = params.m, params.sigma
    A = (math.inf if eta == 0.0
         else math.floor((0.5 - eta - delta) * (m - j) / eta) + 2)
    alpha_norm = math.sqrt(first_1) / N**delta
    calib = sup_1 / (N**delta * alpha_norm)
    if params.nu != 0.0:
        envelope = k ** (-1.0) * N ** (-eta * (k - 1) + delta)
    elif k <= A:
        envelope = k ** (-sigma * (m - j)) * N ** (-eta * (k - 1) + delta)
    else:
        envelope = (k ** (-sigma * (m - j))
                    * N ** (-(0.5 - eta - delta) * (m - j) - eta + delta))
    return calib * envelope * alpha_norm


def _two_snapshot_history(p, first, last):
    hist = F.EnergyHistory()
    hist.K, hist.N = p.K, p.N
    zero = np.zeros_like(first)
    for t, inst in ((0.0, first), (1.0, last)):
        hist.append(t, inst, zero, zero, zero, [0.0, 0.0])
    return hist


class TestDecayBound:
    CASES = [dict(nu=0.0, N=4, eta=0.25, delta=0.0, m=3, sigma=0.4),
             dict(nu=0.0, N=3, eta=0.2, delta=0.1, m=4, sigma=0.3),
             dict(nu=0.0, N=8, eta=0.0, delta=0.1, m=6, sigma=0.2),
             dict(nu=1.0, N=4, eta=0.2, delta=0.1, m=3, sigma=0.4),
             dict(nu=1.0, N=16, eta=0.0, delta=0.0, m=3, sigma=0.4)]

    @staticmethod
    def _report(case):
        p = _params(K=10, **case)
        k = np.arange(p.K + 1)
        first = np.array([np.exp(-1.3 * k), 2.0 * np.exp(-1.1 * k)])
        last = np.array([0.5 + np.exp(-1.7 * k), 3.0 * np.exp(-0.9 * k)])
        hist = _two_snapshot_history(p, first, last)
        return p, first, np.maximum(first, last), F.decay_report(hist, p)

    @pytest.mark.parametrize("case", CASES)
    def test_bound_matches_closed_form_envelope(self, case):
        p, first, sup, rep = self._report(case)
        for row in rep.per_mode:
            j, k = row["j"], row["k"]
            want = _parent_envelope_bound(p, j, k, math.sqrt(sup[j, 1]),
                                          first[j, 1])
            assert row["bound"] == pytest.approx(want, rel=1e-13, abs=0.0)
            if k == 1:
                assert row["ratio"] == 1.0

    @pytest.mark.parametrize("case", CASES)
    def test_mean_mode_reference(self, case):
        p, first, sup, rep = self._report(case)
        for j in (0, 1):
            want = (math.sqrt(sup[j, 0])
                    / (p.N ** -0.25 * math.sqrt(first[j, 1])))
            assert rep.ratios[f"mean_mode_j{j}"] == pytest.approx(
                want, rel=1e-13, abs=0.0)

    def test_monotone_envelope_sees_a_rise_far_below_harmonic_one(self):
        # sup_3 = 1e-20 rising to sup_4 = 1e-18 is a rise, however small
        # both are next to sup_1
        p = _params(K=4)
        inst = np.array([[0.0, 1.0, 1e-10, 1e-40, 1e-36]] * 2)
        hist = _two_snapshot_history(p, inst, inst)
        assert not F.decay_report(hist, p).pass_flags["monotone_envelope"]
        inst[:, 4] = 1e-41
        hist = _two_snapshot_history(p, inst, inst)
        assert F.decay_report(hist, p).pass_flags["monotone_envelope"]


class TestDecayReport:
    def test_zero_run_trivially_passes(self, grid):
        p = _params()
        hist = F.EnergyHistory()
        for i in range(3):
            F.accumulate(hist, ModeState.zeros(grid, p, t=0.1 * i))
        rep = F.decay_report(hist, p)
        assert all(row["ratio"] == 0.0 for row in rep.per_mode)
        assert rep.pass_flags["ratios_finite"]
        assert rep.pass_flags["monotone_envelope"]
        assert not rep.metadata["cascade"]

    def test_stokes_run_has_no_cascade(self, grid):
        p = _params()
        prof = _smooth_profile(grid, amplitude=1e-2)
        st = make_initial_state(prof, p)
        hist = _accumulate_run(grid, p, n_steps=5, nonlinear=False, state=st)
        rep = F.decay_report(hist, p)
        assert not rep.metadata["cascade"]
        assert rep.metadata["truncation_leakage"] < 1e-12
        k1_rows = [r for r in rep.per_mode if r["k"] == 1]
        assert all(r["ratio"] == pytest.approx(1.0) for r in k1_rows)

    def test_fitted_rate_recovers_exponential(self):
        rho = 0.7
        p = _params(K=5)
        hist = F.EnergyHistory()
        hist.K, hist.N = 5, p.N
        inst = [[math.exp(-2.0 * rho * k) for k in range(6)]] * 2
        zero = np.zeros((2, 6))
        for t in (0.0, 1.0):
            hist.append(t, inst, zero, zero, zero, [0.0, 0.0])
        rep = F.decay_report(hist, p)
        assert rep.fitted["rate_j0"] == pytest.approx(rho, rel=1e-10)
        assert rep.fitted["rate_j1"] == pytest.approx(rho, rel=1e-10)

    def test_json_and_csv_outputs(self, grid):
        p = _params()
        hist = _accumulate_run(grid, p)
        d = F.decay_report(hist, p).to_json_dict()
        assert d["schema"] == "cylmode-report-v1"
        assert set(d) == {"schema", "params", "per_mode", "ratios",
                          "pass_flags", "fitted", "metadata"}

    def test_report_deterministic(self, grid):
        p = _params()
        hist = _accumulate_run(grid, p)
        a = json.dumps(F.decay_report(hist, p).to_json_dict(), sort_keys=True)
        b = json.dumps(F.decay_report(hist, p).to_json_dict(), sort_keys=True)
        assert a == b

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            F.decay_report(F.EnergyHistory(), _params())

    @pytest.mark.parametrize("over", [{"N": 4}, {"K": 2}])
    def test_history_of_other_parameters_rejected(self, grid, over):
        hist = _accumulate_run(grid, _params(), n_steps=2)
        with pytest.raises(ValueError, match="N = 3, K = 3"):
            F.decay_report(hist, _params(**over))


class TestSmallness:
    def test_zero_profile_passes(self, grid):
        p = _params()
        zero = np.zeros((grid.n_r, grid.n_z))
        prof = make_profile_divfree(grid, zero, zero, zero, zero)
        vals, ok = F.smallness_check(prof, p)
        assert ok
        assert all(v == 0.0 for v in vals.values())

    def test_doubling_n_power_law(self, grid):
        prof = _smooth_profile(grid)
        p1 = _params(N=4, delta=0.1, eta=0.2)
        p2 = _params(N=8, delta=0.1, eta=0.2)
        lhs1 = F.smallness_check(prof, p1)[0]["ns"]
        lhs2 = F.smallness_check(prof, p2)[0]["ns"]
        hi = 2.0 ** -(0.25 - 0.1)
        lo = 2.0 ** -(0.5 - 0.1 - 0.2)
        assert min(hi, lo) * lhs1 <= lhs2 <= max(hi, lo) * lhs1

    def test_amplitude_gates_the_result(self, grid):
        p = _params(nu=0.0)
        small = _smooth_profile(grid, amplitude=1e-4)
        big = _smooth_profile(grid, amplitude=10.0)
        assert F.smallness_check(small, p)[1]
        assert not F.smallness_check(big, p)[1]

    def test_ans_regime_checks_both_conditions(self, grid):
        prof = _smooth_profile(grid)
        vals, _ = F.smallness_check(prof, _params(nu=0.0))
        assert vals["ans_sum"] > 0.0 and vals["ans_geo"] > 0.0
        assert vals["ns"] > 0.0

