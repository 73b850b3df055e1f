"""Per-field diagnostic formulas: the reference for the batched pass tests.

The package reduces every run diagnostic from one derivative-and-quadrature
pass per state (``cylmode.diagnostics``).  This module keeps the earlier,
independent evaluation: every field of every harmonic is differentiated
and integrated on its own with ``CylGrid.dr``, ``dz``, ``dz_pow`` and
``quad``, one call per field, harmonic and derivative order.

The formulas are those of ``functionals.accumulate``,
``state.divergence_residual``, ``ModeState.mode_l2_sq``/``total_l2_sq``,
``stokes.mode_energy``/``mode_dissipation``/``mode_quadform_terms``/
``pressure_work``, ``nonlinear.flux_identity_residual`` and
``stepper.energy_budget`` as they stood before the pass replaced them,
with one correction: the budget's weighted column is ``pot - cross``, the
sign of the discrete energy identity that ``stokes_evolve`` checks (it
read ``pot + cross``).  The dissipation is now
``ModeMeasures.quadform_terms``' ``dissipation`` entry.
States, modes and pressures come in as the named views of ``modeview``;
forces as ``{k: fields}`` dicts (``modeview.force_dict``).
"""

from __future__ import annotations

import math

import numpy as np

from cylmode.functionals import EnergyHistory
from cylmode.grid import CylGrid, THETA_FULL, THETA_HALF
from cylmode.nonlinear import assemble_quadratic_rhs
from cylmode.stepper import BudgetRow
from modeview import ModeView, PressureView, StateView, force_dict


def _mode_fields(state: StateView, k: int):
    m = state.modes[k]
    return (m.ur, m.uth, m.uz) if k == 0 else m.fields()


# -- functionals.accumulate --------------------------------------------------

def reference_accumulate(history: EnergyHistory,
                         state: StateView) -> EnergyHistory:
    """Append one snapshot; advances every running integral."""
    if history.times and state.t <= history.times[-1]:
        raise ValueError(
            f"snapshot time {state.t} does not advance past {history.times[-1]}")
    g = state.grid
    p = state.params
    if history.grid is None:
        history.grid, history.K, history.N = g, p.K, p.N
    elif history.grid is not g or history.K != p.K:
        raise ValueError("history bound to a different grid or truncation")
    shape = (history.j_max + 1, p.K + 1)
    inst, grad, dr_only, over_r = (np.zeros(shape) for _ in range(4))
    pair = np.zeros(history.j_max + 1)
    r = g.r[:, None]
    for k in range(p.K + 1):
        base = _mode_fields(state, k)
        for j in range(history.j_max + 1):
            flds = [g.dz_pow(f, j) for f in base] if j else list(base)
            inst[j, k] = sum(g.quad(f * f) for f in flds)
            grad[j, k] = sum(g.quad(g.dr(f) ** 2) + g.quad(g.dz(f) ** 2)
                             for f in flds)
            dr_only[j, k] = sum(g.quad(g.dr(f) ** 2) for f in flds)
            over_r[j, k] = sum(g.quad((f / r) ** 2) for f in flds)
            if k == 0:
                pair[j] = (g.quad((flds[0] / r) ** 2)
                           + g.quad((flds[1] / r) ** 2))
    history.append(state.t, inst, grad, dr_only, over_r, pair)
    return history


# -- state ---------------------------------------------------------------------

def reference_mode_l2_sq(state: StateView, k: int, j: int = 0) -> float:
    g = state.grid
    m = state.modes[k]
    fields = m.fields() if k > 0 else (m.ur, m.uth, m.uz)
    s = sum(g.quad(g.dz_pow(f, j) ** 2) for f in fields)
    return (THETA_HALF if k > 0 else THETA_FULL) * s


def reference_total_l2_sq(state: StateView) -> float:
    return sum(reference_mode_l2_sq(state, k)
               for k in range(state.params.K + 1))


def mode_divergence(grid: CylGrid, mode: ModeView,
                    N: int) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise divergence residuals of the two families of a harmonic."""
    r = grid.r[:, None]
    k = mode.k
    if k == 0:
        div_a = grid.dr(mode.ur) + mode.ur / r + grid.dz(mode.uz)
        return div_a, np.zeros_like(div_a)
    kN = k * N
    div_a = grid.dr(mode.ur) + mode.ur / r + grid.dz(mode.uz) + kN * mode.vth / r
    div_b = grid.dr(mode.vr) + mode.vr / r + grid.dz(mode.vz) - kN * mode.uth / r
    return div_a, div_b


def reference_divergence_residual(state: StateView) -> np.ndarray:
    g = state.grid
    r = g.r[:, None]
    out = np.zeros(state.params.K + 1)
    for k in range(state.params.K + 1):
        m = state.modes[k]
        div_a, div_b = mode_divergence(g, m, state.params.N)
        res = math.sqrt(max(g.quad(div_a**2) + g.quad(div_b**2), 0.0))
        fields = m.fields() if k > 0 else (m.ur, m.uth, m.uz)
        l2 = math.sqrt(sum(g.quad(f**2) for f in fields))
        if l2 == 0.0:
            out[k] = 0.0
            continue
        h1 = math.sqrt(sum(g.quad(g.dr(f) ** 2) + g.quad(g.dz(f) ** 2) for f in fields))
        over_r = math.sqrt(sum(g.quad((f / r) ** 2) for f in fields))
        k_eff = max(k * state.params.N, 1)
        out[k] = res / (l2 + h1 + k_eff * over_r)
    return out


# -- stokes ------------------------------------------------------------------------

def reference_mode_energy(grid: CylGrid, mode: ModeView) -> float:
    if mode.k == 0:
        return THETA_FULL * sum(grid.quad(f * f) for f in (mode.ur, mode.uth, mode.uz))
    return THETA_HALF * sum(grid.quad(f * f) for f in mode.fields())


def reference_mode_dissipation(grid: CylGrid, mode: ModeView, nu: float,
                               k_eff: int) -> float:
    r = grid.r[:, None]
    if mode.k == 0:
        fields = (mode.ur, mode.uth, mode.uz)
        theta = THETA_FULL
    else:
        fields = mode.fields()
        theta = THETA_HALF
    s = sum(grid.quad(grid.dr(f) ** 2) + nu**2 * grid.quad(grid.dz(f) ** 2)
            for f in fields)
    if mode.k == 0:
        s += grid.quad((mode.ur / r) ** 2) + grid.quad((mode.uth / r) ** 2)
    else:
        s += (k_eff - 1) ** 2 * sum(grid.quad((f / r) ** 2) for f in fields)
    return theta * s


def reference_mode_quadform_terms(grid: CylGrid, mode: ModeView, nu: float,
                                  k_eff: int) -> dict[str, float]:
    r = grid.r[:, None]
    k = mode.k
    theta = THETA_FULL if k == 0 else THETA_HALF
    fields = (mode.ur, mode.uth, mode.uz) if k == 0 else mode.fields()
    grad = sum(grid.quad(grid.dr(f) ** 2) + nu**2 * grid.quad(grid.dz(f) ** 2)
               for f in fields)
    if k == 0:
        pot = grid.quad((mode.ur / r) ** 2) + grid.quad((mode.uth / r) ** 2)
        cross = 0.0
    else:
        pot = k_eff**2 * sum(grid.quad((f / r) ** 2) for f in fields)
        pot += sum(grid.quad((f / r) ** 2)
                   for f in (mode.ur, mode.vth, mode.vr, mode.uth))
        cross = 4.0 * k_eff * (grid.quad((mode.vr / r) * (mode.uth / r))
                               - grid.quad((mode.ur / r) * (mode.vth / r)))
    return {"grad": theta * grad, "pot": theta * pot, "cross": theta * cross}


def reference_pressure_work(grid: CylGrid, mode: ModeView,
                            press: PressureView, k_eff: int) -> float:
    theta = THETA_FULL if mode.k == 0 else THETA_HALF
    r = grid.r[:, None]
    w = grid.quad(grid.dr(press.P) * mode.ur) + grid.quad(grid.dz(press.P) * mode.uz)
    if mode.k == 0:
        return theta * w
    w += -k_eff * grid.quad(press.P * mode.vth / r)
    w += (grid.quad(grid.dr(press.Q) * mode.vr) + grid.quad(grid.dz(press.Q) * mode.vz)
          + k_eff * grid.quad(press.Q * mode.uth / r))
    return theta * w


# -- nonlinear.flux_identity_residual ----------------------------------------

def reference_flux_identity_residual(state: StateView) -> float:
    g = state.grid
    rhs = force_dict(assemble_quadratic_rhs(state))
    r = g.r[:, None]
    total = 0.0
    l2_sq = 0.0
    grad_sq = 0.0
    for k in range(state.params.K + 1):
        m = state.modes[k]
        fields = (m.ur, m.uth, m.uz) if k == 0 else m.fields()
        theta = THETA_FULL if k == 0 else THETA_HALF
        kN = k * state.params.N
        total += theta * sum(g.quad(f * w) for f, w in zip(rhs[k], fields))
        l2_sq += theta * sum(g.quad(f * f) for f in fields)
        grad_sq += theta * sum(
            g.quad(g.dr(f) ** 2) + g.quad(g.dz(f) ** 2)
            + kN**2 * g.quad((f / r) ** 2) for f in fields)
    scale = l2_sq * math.sqrt(grad_sq)
    if scale == 0.0:
        return 0.0
    return abs(total) / scale


# -- stepper.energy_budget ------------------------------------------------------

def _budget_fields(m: ModeView, k: int):
    return (m.ur, m.uth, m.uz) if k == 0 else m.fields()


def reference_energy_budget(state_before: StateView, state_after: StateView,
                            forces: dict | None, dt: float) -> list[BudgetRow]:
    g = state_before.grid
    p = state_before.params
    rows = []
    for k in range(p.K + 1):
        m_old = state_before.modes[k]
        m_new = state_after.modes[k]
        press = state_after.pressures[k]
        k_eff = k * p.N
        theta = THETA_FULL if k == 0 else THETA_HALF
        terms = reference_mode_quadform_terms(g, m_new, p.nu, k_eff)
        diss_r = theta * sum(g.quad(g.dr(f) ** 2) for f in
                             _budget_fields(m_new, k))
        diss_z = terms["grad"] - diss_r
        weighted = terms["pot"] - terms["cross"]
        transfer = 0.0
        if forces is not None and k in forces:
            transfer = theta * sum(
                g.quad(f * u) for f, u in
                zip(forces[k], _budget_fields(m_old, k)))
        pw = reference_pressure_work(g, m_new, press, k_eff)
        e_old = reference_mode_energy(g, m_old)
        e_new = reference_mode_energy(g, m_new)
        imbalance = (e_new - e_old
                     + 2.0 * dt * (diss_r + diss_z + weighted + pw - transfer))
        rows.append(BudgetRow(state_after.t, k, e_new, diss_r, diss_z,
                              weighted, transfer, pw, imbalance))
    return rows
