"""Weighted energy functionals, decay envelopes, and diagnostic reports.

All coefficient-tuple norms here use the meridian measure ``r dr dz`` (no
azimuthal factor): the mean triple and the six-tuples of the harmonics are
treated as plain vector functions on the (r, z) strip.  Time-dependent
quantities are tracked on snapshot times only: ``EnergyHistory`` keeps one
per-harmonic row of each diagnostics form per snapshot (``history.npz``
holds them, one array per channel), and running sups and trapezoid time
integrals are computed from those rows when read.  ``compute_E`` and
``compute_D`` are one weighted formula with two choices of gradient
channel and harmonic weight; ``harmonic_weight`` is the one home of those
weights, and the decay report predicts each harmonic's envelope from them.
``DecayReport.to_json_dict`` is the decay report's JSON body; the command
line adds the config echo and writes it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .diagnostics import UR, UTH, ModeMeasures, measure_state
from .grid import REPORT_SCHEMA, CylGrid, median
from .state import InitProfile, ModeState, Params


# -- history accumulation ------------------------------------------------------

#: the stored rows of a snapshot: ``(2, K+1)`` per-harmonic forms and the
#: mean's ``(2,)`` axis pair, one row per vertical order j <= 1
CHANNELS = ("inst", "grad", "dr", "over_r", "axis_pair")

#: the parameters beside N and K that a history records and the decay
#: report must be given again
REGIME_KEYS = ("nu", "eta", "delta", "m", "sigma")


class EnergyHistory:
    """Running norms of a mode trajectory feeding the weighted functionals.

    Each snapshot stores, per vertical-derivative order j <= ``j_max`` and
    harmonic k, the instantaneous squared norm (``inst``), the (r, z)
    gradient (``grad``), the radial derivative alone (``dr``) and the
    1/r-weighted norm (``over_r``), plus the mean's axis-sensitive
    component pair (``axis_pair``, one value per j).  ``j_max`` is 1, the
    highest order the functionals and the decay report read.  Running
    trapezoid integrals and running sups are taken from the stored rows
    when read; nothing else is kept.  ``regime`` holds the
    run's ``REGIME_KEYS`` values, or None for a file written without them.
    """

    j_max = 1

    def __init__(self):
        self.times: list[float] = []
        self.grid: CylGrid | None = None
        self.K: int | None = None
        self.N: int | None = None
        self.regime: dict | None = None
        self._rows: dict[str, list] = {name: [] for name in CHANNELS}

    @property
    def n_snapshots(self) -> int:
        return len(self.times)

    def append(self, t: float, inst, grad, dr, over_r, axis_pair) -> None:
        """Store one snapshot's rows at time ``t``."""
        if self.times and t <= self.times[-1]:
            raise ValueError(
                f"snapshot time {t} does not advance past {self.times[-1]}")
        self.times.append(float(t))
        for name, row in zip(CHANNELS, (inst, grad, dr, over_r, axis_pair)):
            self._rows[name].append(np.array(row, dtype=float))

    def values(self, name: str) -> np.ndarray:
        """A channel's rows stacked over snapshots: ``(snapshots, 2, K+1)``,
        or ``(snapshots, 2)`` for ``axis_pair``."""
        return np.array(self._rows[name])

    def integrals(self, name: str) -> np.ndarray:
        """Running trapezoid time integrals of a channel, 0 at the start."""
        v = self.values(name)
        out = np.zeros_like(v)
        dt = np.diff(self.times).reshape((-1,) + (1,) * (v.ndim - 1))
        np.cumsum(0.5 * dt * (v[1:] + v[:-1]), axis=0, out=out[1:])
        return out

    def sups(self, name: str) -> np.ndarray:
        """Running sups of a channel over snapshots."""
        return np.maximum.accumulate(self.values(name), axis=0)


def _regime(params: Params) -> dict:
    return {key: getattr(params, key) for key in REGIME_KEYS}


def accumulate(history: EnergyHistory, state: ModeState,
               measures: ModeMeasures | None = None) -> EnergyHistory:
    """Append one snapshot of ``state`` to ``history``.

    ``measures`` is the state's diagnostics pass when the caller has one
    covering ``history.j_max``; otherwise it is taken here.
    """
    g = state.grid
    p = state.params
    if history.grid is None:
        history.grid, history.K, history.N = g, p.K, p.N
        history.regime = _regime(p)
    elif history.grid is not g or history.K != p.K:
        raise ValueError("history bound to a different grid or truncation")
    ms = measures
    if ms is None or ms.j_max < history.j_max:
        ms = measure_state(state, history.j_max)
    orders = slice(history.j_max + 1)
    dr, over = ms.dr_sq[orders], ms.over_r[orders]
    history.append(state.t, ms.inst[orders], dr + ms.dz_sq[orders], dr,
                   over.sum(axis=-1), over[:, 0, UR] + over[:, 0, UTH])
    return history


# -- persistence ----------------------------------------------------------------

def save_history(history: EnergyHistory, path: str) -> None:
    """Write ``meta`` (``j_max``, ``K``, ``N``, ``grid`` and the
    ``REGIME_KEYS``), ``times``, and each of ``CHANNELS`` as its
    :meth:`EnergyHistory.values` array under its own name.  Integrals and
    sups are not stored; a loaded history recomputes them."""
    g = history.grid
    meta = {"j_max": history.j_max, "K": history.K, "N": history.N,
            "grid": ({"n_r": g.n_r, "n_z": g.n_z, "L_z": g.L_z}
                     if g is not None else None),
            **(history.regime or {})}
    np.savez(path, meta=json.dumps(meta), times=np.asarray(history.times),
             **{name: history.values(name) for name in CHANNELS})


def load_history(path: str) -> EnergyHistory:
    """Read a history written by :func:`save_history`.

    The rows are the stored channel arrays, so ``values``, ``integrals``
    and ``sups`` equal the saved history's bit for bit.  A file without
    the ``REGIME_KEYS`` in its meta loads with ``regime`` None; other meta
    keys and members are ignored.  A file that is not an npz archive, that
    lacks a channel (as every file in the older one-member-per-scalar
    layout does), or whose channel shapes disagree with ``times`` and
    ``meta.K`` raises ``ValueError``.
    """
    data = np.load(path, allow_pickle=False)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError("not an npz archive")
    with data:
        meta = json.loads(str(data["meta"]))
        if meta["j_max"] != EnergyHistory.j_max:
            raise ValueError(f"history has vertical order j_max = "
                             f"{meta['j_max']}, not {EnergyHistory.j_max}")
        missing = [name for name in CHANNELS if name not in data.files]
        if missing:
            raise ValueError(f"history lacks channels {', '.join(missing)}")
        hist = EnergyHistory()
        hist.K = meta["K"]
        hist.N = meta["N"]
        if all(key in meta for key in REGIME_KEYS):
            hist.regime = {key: meta[key] for key in REGIME_KEYS}
        gmeta = meta.get("grid")
        if gmeta is not None:
            # dimensions only; a loaded history reports, it does not resume
            hist.grid = SimpleNamespace(**gmeta)
        times = data["times"].tolist()
        if not times:
            return hist
        rows = {name: data[name] for name in CHANNELS}
    shape = (len(times), hist.j_max + 1, hist.K + 1)
    for name, v in rows.items():
        want = shape[:2] if name == "axis_pair" else shape
        if v.shape != want:
            raise ValueError(f"channel {name} has shape {v.shape}; times "
                             f"and K = {hist.K} give {want}")
    for i, t in enumerate(times):
        hist.append(t, *(rows[name][i] for name in CHANNELS))
    return hist


# -- weighted functionals --------------------------------------------------------

def _require(history: EnergyHistory, j: int) -> None:
    if history.n_snapshots == 0:
        raise ValueError("history is empty")
    if not 0 <= j <= history.j_max:
        raise ValueError(f"derivative order j = {j} out of range")


def harmonic_weight(params: Params, k: int, j: int,
                    anisotropic: bool) -> float:
    """The weight w_k of harmonic k in the order-j functional.

    The mean block (k = 0) is N^(2(1/4 - eta)) in both regimes.  A
    harmonic k >= 1 weighs k^2 N^(2 eta (k-2)) in the isotropic functional
    E and k^(2 sigma (m-j)) N^(2 min{eta (k-2), (1/2 - eta - delta)(m-j)})
    in the anisotropic functional D, whose N-power stops growing past the
    k at which the ``min`` switches.  The decay report's envelope is
    w_k^(-1/2), up to a constant.
    """
    N, eta = params.N, params.eta
    if k == 0:
        return N ** (2.0 * (0.25 - eta))
    if not anisotropic:
        return k**2 * N ** (2.0 * eta * (k - 2))
    m, sigma, delta = params.m, params.sigma, params.delta
    return (k ** (2.0 * sigma * (m - j))
            * N ** (2.0 * min(eta * (k - 2), (0.5 - eta - delta) * (m - j))))


def _weighted(history: EnergyHistory, j: int, params: Params, idx,
              anisotropic: bool):
    """The mean block's weight times (sup + gradient integral + axis-pair
    integral) plus the sup over k >= 1 of w_k times (sup + gradient
    integral + (k^2 N^2 / 2) times the 1/r integral), with the weights of
    :func:`harmonic_weight`, at one snapshot index ``idx`` (a float) or at
    each of a sequence (an array).  The gradient is the radial derivative
    alone in the anisotropic regime and the full (r, z) gradient
    otherwise."""
    _require(history, j)
    N = params.N
    at = np.asarray(idx)
    # harmonic first, so that row k holds harmonic k at every index asked
    sup = history.sups("inst")[at, j].T
    grad = history.integrals("dr" if anisotropic else "grad")[at, j].T
    over_r = history.integrals("over_r")[at, j].T
    mean = sup[0] + grad[0] + history.integrals("axis_pair")[at, j]
    total = harmonic_weight(params, 0, j, anisotropic) * mean
    best = 0.0
    for k in range(1, params.K + 1):
        block = sup[k] + grad[k] + 0.5 * (k * N) ** 2 * over_r[k]
        best = np.maximum(best, harmonic_weight(params, k, j, anisotropic)
                          * block)
    value = total + best
    return float(value) if at.ndim == 0 else value


def compute_E(history: EnergyHistory, j: int, params: Params, idx=-1):
    """Isotropic-regime weighted functional at snapshot(s) ``idx``: the
    full (r, z) gradient and the isotropic :func:`harmonic_weight`."""
    return _weighted(history, j, params, idx, anisotropic=False)


def compute_D(history: EnergyHistory, j: int, params: Params, idx=-1):
    """Anisotropic-regime weighted functional at snapshot(s) ``idx``: the
    radial derivative only (no vertical smoothing) and the anisotropic
    :func:`harmonic_weight`."""
    return _weighted(history, j, params, idx, anisotropic=True)


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


#: harmonics below this fraction of the largest fitted one are left out of
#: the decay-rate fit
FIT_REL_FLOOR = 1e-13


def _fit_decay_rate(sups: dict[int, float]):
    """Log-linear decay rate in k from harmonics k >= 2.

    Each harmonic is carried in its own arrays, so a steep cascade stays
    meaningful far below the leading mode's absolute scale; the floor is
    therefore relative to the largest fitted harmonic, cutting only the
    tail where per-mode relative precision is gone.
    """
    tail = {k: v for k, v in sups.items() if k >= 2 and v > 0.0}
    if not tail:
        return None
    floor = FIT_REL_FLOOR * max(tail.values())
    ks = [k for k in sorted(tail) if tail[k] > floor]
    if len(ks) < 3:
        return None
    slope = np.polyfit(ks, [math.log(sups[k]) for k in ks], 1)[0]
    return float(-slope)


def decay_report(history: EnergyHistory, params: Params) -> DecayReport:
    """Measured per-harmonic sups against the predicted decay envelopes.

    Harmonic k is predicted to decay like w_k^(-1/2), the weight of
    :func:`harmonic_weight` in the functional of the run's regime (D when
    ``nu = 0``, E otherwise), calibrated on k = 1:
    ``bound_k = sup_1 sqrt(w_1 / w_k)``, so ratio_1 = 1 by construction.
    Initial data rides harmonic 1, so bounds are only reported when that
    mode starts nonzero; the mean's reference is the first snapshot of
    harmonic 1 times ``sqrt(w_1 / w_0)``.  Ratios are recorded, not
    asserted.  An empty history, or one written at another ``N`` or ``K``
    than ``params`` or at other recorded ``REGIME_KEYS`` values, raises
    ``ValueError``.
    """
    if history.n_snapshots == 0:
        raise ValueError("history is empty")
    if (history.N, history.K) != (params.N, params.K):
        raise ValueError(
            f"history was written at N = {history.N}, K = {history.K}; "
            f"the parameters give N = {params.N}, K = {params.K}")
    given = _regime(params)
    keys = [key for key in REGIME_KEYS
            if history.regime and history.regime[key] != given[key]]
    if keys:
        raise ValueError(
            "history was written at "
            + ", ".join(f"{key} = {history.regime[key]}" for key in keys)
            + "; the parameters give "
            + ", ".join(f"{key} = {given[key]}" for key in keys))
    N, eta, delta = params.N, params.eta, params.delta
    m, sigma = params.m, params.sigma
    K = history.K
    anisotropic = params.nu == 0.0

    first = history.values("inst")[0]
    sup = history.sups("inst")[-1]
    per_mode = []
    fitted = {}
    ratios = {}
    sup0 = {}
    for j in range(history.j_max + 1):
        w = [harmonic_weight(params, k, j, anisotropic) for k in range(K + 1)]
        sups = {k: math.sqrt(sup[j, k]) for k in range(1, K + 1)}
        if j == 0:
            sup0 = sups
        started = first[j, 1] > 0.0
        for k in range(1, K + 1):
            bound = sups[1] * math.sqrt(w[1] / w[k]) if started else None
            ratio = (sups[k] / bound if bound else 0.0)
            per_mode.append({"k": k, "j": j, "sup_norm": sups[k],
                             "bound": bound, "ratio": ratio})
        mean_ref = math.sqrt(first[j, 1] * w[1] / w[0])
        ratios[f"mean_mode_j{j}"] = (math.sqrt(sup[j, 0]) / mean_ref
                                     if mean_ref > 0.0 else 0.0)
        fitted[f"rate_j{j}"] = _fit_decay_rate(sups)
    # relative per harmonic, as each harmonic keeps its own accuracy
    envelope_ok = all(sup0[k + 1] <= 1.1 * sup0[k] for k in range(1, K))
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
        "snapshot_dt_median": median(dts),
        "truncation_leakage": (sup0[K] / sup0[1] if sup0[1] > 0.0 else 0.0),
        "cascade": bool(cascade),
        "vertical_domain": "periodic surrogate",
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
    norms = profile.norms_dz(m + 1).tolist()
    geo = math.sqrt(norms[0]) * math.sqrt(norms[1])
    lhs_ns = (N ** -(0.25 - delta) + N ** -(0.5 - delta - eta)) * geo
    high = sum(norms)
    lhs_ans_sum = (N ** -(0.25 - delta) + N ** (-(1.0 - eta) / m)) * high
    lhs_ans_geo = N ** -(0.5 - delta - eta) * geo
    values = {"ns": lhs_ns, "ans_sum": lhs_ans_sum, "ans_geo": lhs_ans_geo}
    if params.nu == 0.0:
        ok = (lhs_ans_sum <= params.small_eps
              and lhs_ans_geo <= params.small_eps)
    else:
        ok = lhs_ns <= params.small_eps
    return values, ok

