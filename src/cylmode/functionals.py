"""Weighted energy functionals, decay weights, and diagnostic reports.

All coefficient-tuple norms here use the meridian measure ``r dr dz`` (no
azimuthal factor): the mean triple and the six-tuples of the harmonics are
treated as plain vector functions on the (r, z) strip.  Time-dependent
quantities are tracked on snapshot times only; running integrals use the
trapezoid rule and carry a recorded step-size error estimate.
``DecayReport.to_json_dict`` is the decay report's JSON body; the command
line adds the config echo and writes it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .diagnostics import UR, UTH, ModeMeasures, measure_state
from .grid import CylGrid
from .state import InitProfile, ModeState, Params

REPORT_SCHEMA = "cylmode-report-v1"


# -- history accumulation ------------------------------------------------------

@dataclass
class _Channel:
    """One scalar time series plus its running trapezoid integral."""

    values: list = field(default_factory=list)
    integral: list = field(default_factory=list)

    def append(self, value: float, times: list) -> float:
        v = float(value)
        if not self.integral:
            self.integral.append(0.0)
        else:
            dt = times[-1] - times[-2]
            self.integral.append(self.integral[-1]
                                 + 0.5 * dt * (v + self.values[-1]))
        self.values.append(v)
        err = 0.0
        if len(self.values) >= 3:
            dt = times[-1] - times[-2]
            err = abs(v - 2.0 * self.values[-2] + self.values[-3]) * dt / 12.0
        return err


class EnergyHistory:
    """Running norms of a mode trajectory feeding the weighted functionals.

    Tracks, per harmonic k and vertical-derivative order j <= j_max:
    the instantaneous squared norm, its running sup, and running time
    integrals of the (r, z)-gradient, the radial derivative alone, the
    1/r-weighted norm, and (for the mean) the axis-sensitive component
    pair.
    """

    def __init__(self, j_max: int = 1):
        if j_max < 1:
            raise ValueError("j_max must be at least 1")
        self.j_max = int(j_max)
        self.times: list[float] = []
        self.grid: CylGrid | None = None
        self.K: int | None = None
        self.N: int | None = None
        self.error_estimate = 0.0
        self._ch: dict = {}

    # channel naming: inst/(grad|dr|over_r)_int keyed by (j, k)
    def _channel(self, name: str) -> _Channel:
        if name not in self._ch:
            self._ch[name] = _Channel()
        return self._ch[name]

    def series(self, name: str) -> np.ndarray:
        return np.asarray(self._ch[name].values)

    def integral_series(self, name: str) -> np.ndarray:
        return np.asarray(self._ch[name].integral)

    def value_at(self, name: str, idx: int = -1) -> float:
        return self._ch[name].values[idx]

    def integral_at(self, name: str, idx: int = -1) -> float:
        return self._ch[name].integral[idx]

    def sup_at(self, name: str, idx: int = -1) -> float:
        vals = self._ch[name].values
        if idx == -1:
            idx = len(vals) - 1
        return max(vals[:idx + 1])

    @property
    def n_snapshots(self) -> int:
        return len(self.times)


def accumulate(history: EnergyHistory, state: ModeState,
               measures: ModeMeasures | None = None) -> EnergyHistory:
    """Append one snapshot; advances every running integral.

    ``measures`` is the state's diagnostics pass when the caller has one
    covering ``history.j_max``; otherwise it is taken here.
    """
    if history.times and state.t <= history.times[-1]:
        raise ValueError(
            f"snapshot time {state.t} does not advance past {history.times[-1]}")
    g = state.grid
    p = state.params
    if history.grid is None:
        history.grid, history.K, history.N = g, p.K, p.N
    elif history.grid is not g or history.K != p.K:
        raise ValueError("history bound to a different grid or truncation")
    ms = measures
    if ms is None or ms.j_max < history.j_max:
        ms = measure_state(state, history.j_max)
    history.times.append(float(state.t))
    times = history.times
    err = 0.0
    for k in range(p.K + 1):
        for j in range(history.j_max + 1):
            over = ms.over_r[j, k]
            err += history._channel(f"inst_{j}_{k}").append(ms.inst[j, k], times)
            err += history._channel(f"grad_{j}_{k}").append(
                ms.dr_sq[j, k] + ms.dz_sq[j, k], times)
            err += history._channel(f"dr_{j}_{k}").append(ms.dr_sq[j, k], times)
            err += history._channel(f"over_r_{j}_{k}").append(over.sum(), times)
            if k == 0:
                err += history._channel(f"axis_pair_{j}").append(
                    over[UR] + over[UTH], times)
    history.error_estimate += err
    return history


# -- persistence ----------------------------------------------------------------

def save_history(history: EnergyHistory, path: str) -> None:
    g = history.grid
    meta = {
        "j_max": history.j_max,
        "K": history.K,
        "N": history.N,
        "grid": ({"n_r": g.n_r, "n_z": g.n_z, "L_z": g.L_z}
                 if g is not None else None),
        "error_estimate": history.error_estimate,
    }
    arrays = {"times": np.asarray(history.times)}
    for name, ch in history._ch.items():
        arrays[f"v_{name}"] = np.asarray(ch.values)
        arrays[f"i_{name}"] = np.asarray(ch.integral)
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_history(path: str) -> EnergyHistory:
    """Read a history written by :func:`save_history`.

    The channels are the stored ``v_<name>``/``i_<name>`` array pairs;
    any other meta keys (older files carry ``mixed`` and ``powers``) are
    ignored.
    """
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        hist = EnergyHistory(j_max=meta["j_max"])
        hist.K = meta["K"]
        hist.N = meta["N"]
        gmeta = meta.get("grid")
        if gmeta is not None:
            # dimensions only; a loaded history reports, it does not resume
            hist.grid = SimpleNamespace(**gmeta)
        hist.error_estimate = meta["error_estimate"]
        hist.times = [float(t) for t in data["times"]]
        for name in [f[2:] for f in data.files if f.startswith("v_")]:
            ch = _Channel()
            ch.values = [float(v) for v in data[f"v_{name}"]]
            ch.integral = [float(v) for v in data[f"i_{name}"]]
            hist._ch[name] = ch
    return hist


# -- weighted functionals --------------------------------------------------------

def _require(history: EnergyHistory, j: int) -> None:
    if history.n_snapshots == 0:
        raise ValueError("history is empty")
    if not 0 <= j <= min(history.j_max, 1):
        raise ValueError(f"derivative order j = {j} out of range")


def compute_E(history: EnergyHistory, j: int, params: Params,
              idx: int = -1) -> float:
    """Isotropic-regime weighted functional at snapshot ``idx``.

    Mean block: sup of the squared norm plus time integrals of the (r, z)
    gradient and the axis-pair weight, prefactor N^(2(1/4 - eta)).  Harmonic
    block: sup over k of k^2 N^(2 eta (k-2)) times (sup + gradient integral
    + (k^2 N^2 / 2) times the 1/r integral).
    """
    _require(history, j)
    N, eta, K = params.N, params.eta, params.K
    mean = (history.sup_at(f"inst_{j}_0", idx)
            + history.integral_at(f"grad_{j}_0", idx)
            + history.integral_at(f"axis_pair_{j}", idx))
    total = N ** (2.0 * (0.25 - eta)) * mean
    best = 0.0
    for k in range(1, K + 1):
        block = (history.sup_at(f"inst_{j}_{k}", idx)
                 + history.integral_at(f"grad_{j}_{k}", idx)
                 + 0.5 * (k * N) ** 2
                 * history.integral_at(f"over_r_{j}_{k}", idx))
        best = max(best, k**2 * N ** (2.0 * eta * (k - 2)) * block)
    return total + best


def compute_D(history: EnergyHistory, j: int, params: Params,
              idx: int = -1) -> float:
    """Anisotropic-regime weighted functional at snapshot ``idx``.

    Differs from the isotropic one in the harmonic weight
    k^(2 sigma (m-j)) N^(2 min{eta (k-2), (1/2 - eta - delta)(m-j)}) and in
    using only the radial derivative integral (no vertical smoothing).
    """
    _require(history, j)
    N, eta, delta = params.N, params.eta, params.delta
    m, sigma, K = params.m, params.sigma, params.K
    mean = (history.sup_at(f"inst_{j}_0", idx)
            + history.integral_at(f"dr_{j}_0", idx)
            + history.integral_at(f"axis_pair_{j}", idx))
    total = N ** (2.0 * (0.25 - eta)) * mean
    best = 0.0
    for k in range(1, K + 1):
        block = (history.sup_at(f"inst_{j}_{k}", idx)
                 + history.integral_at(f"dr_{j}_{k}", idx)
                 + 0.5 * (k * N) ** 2
                 * history.integral_at(f"over_r_{j}_{k}", idx))
        expo = min(eta * (k - 2), (0.5 - eta - delta) * (m - j))
        best = max(best, k ** (2.0 * sigma * (m - j)) * N ** (2.0 * expo)
                   * block)
    return total + best


# -- decay weights ---------------------------------------------------------------

@dataclass
class DecayWeights:
    """Per-harmonic decay prefactors and the rate-cap thresholds."""

    theta: dict[int, float]
    theta_tilde: dict[int, float]
    A: dict[int, float]


def decay_weights(params: Params) -> DecayWeights:
    """Predicted per-harmonic decay weights for k = 1..K.

    theta_k = k^(-sigma m) N^(-min{eta (k-2), (1/2 - eta - delta) m}) and
    its (m-1)-order variant; A_j is the harmonic index beyond which the
    exponential-in-k decay saturates (infinite when eta = 0, since the
    rate never saturates without azimuthal gain).
    """
    N, eta, delta = params.N, params.eta, params.delta
    m, sigma, K = params.m, params.sigma, params.K
    theta = {}
    tilde = {}
    for k in range(1, K + 1):
        theta[k] = (k ** (-sigma * m)
                    * N ** (-min(eta * (k - 2), (0.5 - eta - delta) * m)))
        tilde[k] = (k ** (-sigma * (m - 1))
                    * N ** (-min(eta * (k - 2),
                                 (0.5 - eta - delta) * (m - 1))))
    A = {}
    for j in (0, 1):
        if eta == 0.0:
            A[j] = math.inf
        else:
            A[j] = math.floor((0.5 - eta - delta) * (m - j) / eta) + 2
    return DecayWeights(theta, tilde, A)


# -- decay report ----------------------------------------------------------------

@dataclass
class DecayReport:
    params: dict
    per_mode: list
    ratios: dict
    pass_flags: dict
    fitted: dict
    metadata: dict

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "params": self.params,
            "per_mode": self.per_mode,
            "ratios": self.ratios,
            "pass_flags": self.pass_flags,
            "fitted": self.fitted,
            "metadata": self.metadata,
        }


def _fit_decay_rate(sups: dict[int, float], rel_floor: float = 1e-13):
    """Log-linear decay rate in k from harmonics k >= 2.

    Each harmonic is carried in its own arrays, so a steep cascade stays
    meaningful far below the leading mode's absolute scale; the floor is
    therefore relative to the largest fitted harmonic, cutting only the
    tail where per-mode relative precision is gone.
    """
    tail = {k: v for k, v in sups.items() if k >= 2 and v > 0.0}
    if not tail:
        return None
    floor = rel_floor * max(tail.values())
    ks = [k for k in sorted(tail) if tail[k] > floor]
    if len(ks) < 3:
        return None
    slope = np.polyfit(ks, [math.log(sups[k]) for k in ks], 1)[0]
    return float(-slope)


def decay_report(history: EnergyHistory, params: Params) -> DecayReport:
    """Measured per-harmonic sups against the predicted decay envelopes.

    The reference amplitude is inferred from the first snapshot of
    harmonic 1 (initial data scaled by N^delta rides that harmonic), so
    bounds and ratios are only reported when that mode starts nonzero.
    The prediction constant is calibrated on k = 1, making ratio_1 = 1 by
    construction; ratios are recorded, not asserted.
    """
    if history.n_snapshots == 0:
        raise ValueError("history is empty")
    N, eta, delta = params.N, params.eta, params.delta
    m, sigma = params.m, params.sigma
    K = history.K
    weights = decay_weights(params)
    anisotropic = params.nu == 0.0

    per_mode = []
    fitted = {}
    ratios = {}
    sup0 = {}
    for j in range(min(history.j_max, 1) + 1):
        # reference amplitude per derivative order
        alpha_norm = (math.sqrt(history.value_at(f"inst_{j}_1", 0))
                      / N**delta)
        sups = {k: math.sqrt(history.sup_at(f"inst_{j}_{k}"))
                for k in range(1, K + 1)}
        if j == 0:
            sup0 = sups
        calib = None
        if alpha_norm > 0.0:
            # both envelope families evaluate to N^delta at k = 1
            calib = sups[1] / (N**delta * alpha_norm)
        for k in range(1, K + 1):
            if anisotropic:
                if k <= weights.A[j]:
                    envelope = (k ** (-sigma * (m - j))
                                * N ** (-eta * (k - 1) + delta))
                else:
                    envelope = (k ** (-sigma * (m - j))
                                * N ** (-(0.5 - eta - delta) * (m - j)
                                        - eta + delta))
            else:
                envelope = k ** (-1.0) * N ** (-eta * (k - 1) + delta)
            bound = (calib * envelope * alpha_norm
                     if calib is not None else None)
            ratio = (sups[k] / bound if bound else 0.0)
            per_mode.append({"k": k, "j": j, "sup_norm": sups[k],
                             "bound": bound, "ratio": ratio})
        mean_sup = math.sqrt(history.sup_at(f"inst_{j}_0"))
        mean_ref = N ** (-0.25 + delta) * alpha_norm
        ratios[f"mean_mode_j{j}"] = (mean_sup / mean_ref
                                     if mean_ref > 0.0 else 0.0)
        fitted[f"rate_j{j}"] = _fit_decay_rate(sups)
    envelope_ok = all(
        sup0[k + 1] <= 1.1 * sup0[k] + 1e-14 for k in range(1, K))
    finite = all(math.isfinite(row["ratio"]) for row in per_mode)
    cascade = any(sup0[k] > 1e-14 * max(sup0[1], 1e-300)
                  for k in range(2, K + 1))
    dts = np.diff(history.times) if history.n_snapshots > 1 else [0.0]
    metadata = {
        "K": K,
        "N": N,
        "grid": {"n_r": history.grid.n_r, "n_z": history.grid.n_z,
                 "L_z": history.grid.L_z} if history.grid else None,
        "horizon": history.times[-1],
        "snapshots": history.n_snapshots,
        "snapshot_dt_median": float(np.median(dts)),
        "truncation_leakage": (sup0[K] / sup0[1] if sup0[1] > 0.0 else 0.0),
        "cascade": bool(cascade),
        "vertical_domain": "periodic surrogate",
        "integration_error_estimate": history.error_estimate,
    }
    return DecayReport(
        params={"N": N, "K": params.K, "nu": params.nu, "delta": delta,
                "eta": eta, "m": m, "sigma": sigma},
        per_mode=per_mode,
        ratios=ratios,
        pass_flags={"ratios_finite": finite,
                    "monotone_envelope": bool(envelope_ok)},
        fitted=fitted,
        metadata=metadata,
    )


# -- smallness of the initial profile ---------------------------------------------

def smallness_check(profile: InitProfile, params: Params) -> tuple[dict, bool]:
    """Initial-amplitude gates for the two dissipation regimes.

    Returns the evaluated left-hand sides and whether the regime selected
    by ``params.nu`` passes against ``params.small_eps``.  The isotropic
    gate uses the geometric-mean norm; the anisotropic regime adds a
    high-order vertical sum with its own N-power.
    """
    N, delta, eta, m = params.N, params.delta, params.eta, params.m
    n0 = profile.norm_dz(0)
    n1 = profile.norm_dz(1)
    geo = math.sqrt(n0) * math.sqrt(n1)
    lhs_ns = (N ** -(0.25 - delta) + N ** -(0.5 - delta - eta)) * geo
    high = sum(profile.norm_dz(j) for j in range(m + 2))
    lhs_ans_sum = (N ** -(0.25 - delta) + N ** (-(1.0 - eta) / m)) * high
    lhs_ans_geo = N ** -(0.5 - delta - eta) * geo
    values = {"ns": lhs_ns, "ans_sum": lhs_ans_sum, "ans_geo": lhs_ans_geo}
    if params.nu == 0.0:
        ok = (lhs_ans_sum <= params.small_eps
              and lhs_ans_geo <= params.small_eps)
    else:
        ok = lhs_ns <= params.small_eps
    return values, ok


# -- vertical Sobolev tracking ----------------------------------------------------

def vertical_sobolev_sq(history: EnergyHistory, ell: int,
                        idx: int = -1) -> float:
    """Squared vertical Sobolev norm of order ell summed over harmonics."""
    if ell > history.j_max:
        raise ValueError(f"history only tracks derivatives up to "
                         f"{history.j_max}")
    total = 0.0
    for k in range(history.K + 1):
        for j in range(ell + 1):
            total += history.value_at(f"inst_{j}_{k}", idx)
    return total
