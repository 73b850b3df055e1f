"""IMEX time integration of the coupled azimuthal-harmonic system.

Quadratic terms are evaluated explicitly (first order, or extrapolated to
second order), the coupled viscous/pressure part is solved implicitly per
harmonic, and every step lands exactly on the no-slip boundary and the
discrete divergence constraint up to a configured tolerance.  Per-step
energy budgets decompose the discrete energy identity into dissipation
channels, nonlinear transfer, and pressure work, with the scheme-induced
remainder reported as an imbalance instead of silently dropped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import CFLViolationError, CylGrid, THETA_FULL, THETA_HALF
from .state import ModeState, ModeVelocity, divergence_residual, save_checkpoint
from .stokes import (
    StokesOpCache,
    mode_energy,
    mode_quadform_terms,
    pressure_work,
    project_divfree,
    stokes_step,
)
from .nonlinear import assemble_quadratic_rhs

SCHEME_EULER = "imex_euler"
SCHEME_BDF2 = "imex_bdf2"

BUDGET_COLUMNS = ("t", "k", "energy", "dissipation_r", "dissipation_z",
                  "weighted_r", "transfer", "pressure_work", "imbalance")


class DivergenceCleanupError(RuntimeError):
    """Projection cleanup was needed too many steps in a row."""


@dataclass
class StepConfig:
    """Time integration settings."""

    dt: float
    t_end: float
    scheme: str = SCHEME_EULER
    cfl_safety: float = 0.9
    div_tol: float = 1e-9
    budget_every: int = 1
    nonlinear: bool = True

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.scheme not in (SCHEME_EULER, SCHEME_BDF2):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.div_tol <= 0.0:
            raise ValueError("div_tol must be positive")
        if self.budget_every < 1:
            raise ValueError("budget_every must be >= 1")


@dataclass
class StepSession:
    """Mutable bookkeeping shared by consecutive steps of one trajectory."""

    cache: StokesOpCache
    prev_state: ModeState | None = None
    prev_rhs: dict | None = None
    step_count: int = 0
    cleanup_streak: int = 0
    cleanups_total: int = 0
    last_pressures: dict = field(default_factory=dict)


def make_session(state: ModeState) -> StepSession:
    return StepSession(StokesOpCache(state.grid, state.params.nu))


# -- CFL ----------------------------------------------------------------------

def cfl_limit(state: ModeState) -> tuple[float, int]:
    """Largest advectively stable dt and the harmonic that limits it.

    Velocity maxima are bounded by summing harmonic amplitudes; the
    azimuthal spacing is ``r * 2 pi / (K N)`` (the finest retained angular
    scale) evaluated node-wise, so the azimuthal limit uses the maximum of
    ``|u_th| / r`` instead of a global minimum radius.
    """
    g = state.grid
    p = state.params
    dr_min = min(float(g.r[0]), float(np.diff(g.r).min()))
    dz = g.L_z / g.n_z
    dtheta_eff = 2.0 * math.pi / (p.K * p.N)
    r = g.r[:, None]
    worst = (math.inf, 0)
    vr_sum = vz_sum = vth_sum = 0.0
    contrib = []
    for k in range(p.K + 1):
        m = state.modes[k]
        vr_k = float(np.abs(m.ur).max() + np.abs(m.vr).max())
        vz_k = float(np.abs(m.uz).max() + np.abs(m.vz).max())
        vth_k = float((np.abs(m.uth) / r).max() + (np.abs(m.vth) / r).max())
        contrib.append(max(vr_k / dr_min, vz_k / dz, vth_k / dtheta_eff))
        vr_sum += vr_k
        vz_sum += vz_k
        vth_sum += vth_k
    rate = max(vr_sum / dr_min, vz_sum / dz, vth_sum / dtheta_eff)
    if rate == 0.0:
        return math.inf, 0
    limiting = int(np.argmax(contrib))
    return 1.0 / rate, limiting


def _check_cfl(state: ModeState, cfg: StepConfig) -> None:
    dt_max, limiting = cfl_limit(state)
    if cfg.dt > cfg.cfl_safety * dt_max:
        raise CFLViolationError(
            f"dt = {cfg.dt:g} exceeds cfl_safety * dt_max = "
            f"{cfg.cfl_safety * dt_max:g} (limiting harmonic k = {limiting})")


# -- single step ---------------------------------------------------------------

def _solve_modes(state: ModeState, rhs_modes, dt_eff: float,
                 session: StepSession, work_states):
    """Implicit per-harmonic solves; ``work_states`` carries the w of the
    scheme (u^n for Euler, the BDF2 combination otherwise)."""
    p = state.params
    new = ModeState.zeros(state.grid, p, t=state.t)
    for k in range(p.K + 1):
        new.modes[k], new.pressures[k] = stokes_step(
            session.cache, work_states[k],
            rhs_modes.get(k) if rhs_modes else None, dt_eff, k * p.N)
    return new


def _add_forcing(rhs: dict | None, extra: dict | None) -> dict | None:
    if extra is None:
        return rhs
    if rhs is None:
        return dict(extra)
    out = {}
    keys = set(rhs) | set(extra)
    for k in keys:
        a = rhs.get(k)
        b = extra.get(k)
        if a is None:
            out[k] = b
        elif b is None:
            out[k] = a
        else:
            out[k] = tuple(x + y for x, y in zip(a, b))
    return out


def step(state: ModeState, cfg: StepConfig, session: StepSession | None = None,
         forcing: Callable[[float], dict] | None = None) -> ModeState:
    """Advance one time step.

    ``forcing``, if given, is called with the time the step lands on and
    must return ``{k: field tuple}`` of explicit external forces.  The
    CFL estimate is refreshed every 10 steps.  If the post-step divergence
    residual exceeds ``cfg.div_tol`` the state is re-projected once; more
    than 3 consecutive steps needing cleanup raise.
    """
    if session is None:
        session = make_session(state)
    # the CFL constraint belongs to the explicit advective terms; a purely
    # viscous solve is unconditionally stable at any dt
    if cfg.nonlinear and session.step_count % 10 == 0:
        _check_cfl(state, cfg)
    p = state.params
    t_new = state.t + cfg.dt

    quad = assemble_quadratic_rhs(state) if cfg.nonlinear else None
    ext = forcing(t_new) if forcing is not None else None

    use_bdf2 = cfg.scheme == SCHEME_BDF2 and session.prev_state is not None
    if use_bdf2:
        prev_quad = session.prev_rhs

    if not use_bdf2:
        rhs = _add_forcing(quad, ext)
        new = _solve_modes(state, rhs, cfg.dt, session, state.modes)
    else:
        # second-order: w = (4 u^n - u^{n-1}) / 3 stepped with 2 dt / 3,
        # quadratic terms extrapolated as 2 S^n - S^{n-1}
        work = []
        for k in range(p.K + 1):
            w = ModeVelocity.zeros(k, state.modes[k].ur.shape)
            w.set_fields(tuple(
                (4.0 * a - b) / 3.0 for a, b in
                zip(state.modes[k].fields(),
                    session.prev_state.modes[k].fields())))
            work.append(w)
        extrap = None
        if cfg.nonlinear:
            extrap = {}
            for k in quad:
                prev = prev_quad.get(k) if prev_quad else None
                if prev is None:
                    extrap[k] = tuple(2.0 * a for a in quad[k])
                else:
                    extrap[k] = tuple(2.0 * a - b
                                      for a, b in zip(quad[k], prev))
        rhs = _add_forcing(extrap, ext)
        new = _solve_modes(state, rhs, 2.0 * cfg.dt / 3.0, session, work)
    new.t = t_new

    res = divergence_residual(new)
    if float(res.max()) > cfg.div_tol:
        for k in range(p.K + 1):
            vel, _ = project_divfree(session.cache, new.modes[k], k * p.N)
            new.modes[k] = vel
        session.cleanup_streak += 1
        session.cleanups_total += 1
        if session.cleanup_streak > 3:
            raise DivergenceCleanupError(
                "divergence cleanup required more than 3 consecutive steps; "
                f"residual reached {float(res.max()):.3e}")
        res = divergence_residual(new)
        if float(res.max()) > cfg.div_tol:
            raise DivergenceCleanupError(
                f"projection cleanup left residual {float(res.max()):.3e} "
                f"above div_tol {cfg.div_tol:g}")
    else:
        session.cleanup_streak = 0

    session.prev_state = state
    session.prev_rhs = quad
    session.step_count += 1
    return new


# -- energy budgets -----------------------------------------------------------

@dataclass
class BudgetRow:
    t: float
    k: int
    energy: float
    dissipation_r: float
    dissipation_z: float
    weighted_r: float
    transfer: float
    pressure_work: float
    imbalance: float

    def as_tuple(self):
        return (self.t, self.k, self.energy, self.dissipation_r,
                self.dissipation_z, self.weighted_r, self.transfer,
                self.pressure_work, self.imbalance)


def energy_budget(state_before: ModeState, state_after: ModeState,
                  forces: dict | None, dt: float) -> list[BudgetRow]:
    """Per-harmonic ledger of the discrete energy identity over one step.

    ``forces`` is the explicit quadratic right-hand side evaluated at the
    pre-step state (None for a purely viscous run, making the transfer
    exactly zero).  The imbalance column is the identity remainder
    ``E_new - E_old + 2 dt (dissipation + pressure work - transfer)``; for
    backward Euler it collects the scheme's ``||u_new - u_old||^2`` damping
    and the transfer offset, both second order per step.
    """
    g = state_before.grid
    p = state_before.params
    rows = []
    for k in range(p.K + 1):
        m_old = state_before.modes[k]
        m_new = state_after.modes[k]
        press = state_after.pressures[k]
        k_eff = k * p.N
        theta = THETA_FULL if k == 0 else THETA_HALF
        terms = mode_quadform_terms(g, m_new, p.nu, k_eff)
        diss_r = theta * sum(g.quad(g.dr(f) ** 2) for f in
                             _budget_fields(m_new, k))
        diss_z = terms["grad"] - diss_r
        weighted = terms["pot"] + terms["cross"]
        transfer = 0.0
        if forces is not None and k in forces:
            transfer = theta * sum(
                g.quad(f * u) for f, u in
                zip(forces[k], _budget_fields(m_old, k)))
        pw = pressure_work(g, m_new, press, k_eff)
        e_old = mode_energy(g, m_old)
        e_new = mode_energy(g, m_new)
        imbalance = (e_new - e_old
                     + 2.0 * dt * (diss_r + diss_z + weighted + pw - transfer))
        rows.append(BudgetRow(state_after.t, k, e_new, diss_r, diss_z,
                              weighted, transfer, pw, imbalance))
    return rows


def _budget_fields(m: ModeVelocity, k: int):
    return (m.ur, m.uth, m.uz) if k == 0 else m.fields()


def write_budget_header(path: str) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(BUDGET_COLUMNS)


def append_budget_rows(path: str, rows: list[BudgetRow]) -> None:
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        for row in rows:
            w.writerow(row.as_tuple())


# -- trajectory driver ----------------------------------------------------------

@dataclass
class RunSinks:
    """Where run() sends its diagnostics; all fields optional."""

    on_snapshot: Callable[[ModeState], None] | None = None
    on_budget: Callable[[list[BudgetRow]], None] | None = None
    budget_csv: str | None = None
    checkpoint_path: str | None = None
    checkpoint_every: int = 0


@dataclass
class RunResult:
    state: ModeState
    n_steps: int
    aborted: bool = False
    reason: str = ""
    failure_time: float | None = None
    cleanups: int = 0


def run(state0: ModeState, cfg: StepConfig, sinks: RunSinks | None = None,
        forcing: Callable[[float], dict] | None = None) -> RunResult:
    """Integrate to ``cfg.t_end``, feeding diagnostics to the sinks.

    Checkpoints are written on schedule (and never deleted on failure, so
    the newest surviving checkpoint marks the last good state).  Runs abort
    with a flagged result when kinetic energy exceeds 10x its initial
    value; integration errors propagate to the caller after bookkeeping.
    """
    sinks = sinks or RunSinks()
    n_steps = int(round(cfg.t_end / cfg.dt))
    state = state0.copy()
    session = make_session(state)
    if sinks.budget_csv:
        write_budget_header(sinks.budget_csv)
    if sinks.on_snapshot:
        sinks.on_snapshot(state)
    e0 = state.total_l2_sq()
    for n in range(1, n_steps + 1):
        new = step(state, cfg, session, forcing=forcing)
        if n % cfg.budget_every == 0:
            # step() stashes the quadratic rhs it evaluated at the pre-step
            # state, which is exactly the transfer integrand
            rows = energy_budget(state, new, session.prev_rhs, cfg.dt)
            if sinks.budget_csv:
                append_budget_rows(sinks.budget_csv, rows)
            if sinks.on_budget:
                sinks.on_budget(rows)
            if sinks.on_snapshot:
                sinks.on_snapshot(new)
        state = new
        if (sinks.checkpoint_path and sinks.checkpoint_every
                and n % sinks.checkpoint_every == 0):
            save_checkpoint(state, sinks.checkpoint_path)
        energy = state.total_l2_sq()
        if e0 > 0.0 and energy > 10.0 * e0:
            if sinks.checkpoint_path:
                save_checkpoint(state, sinks.checkpoint_path)
            return RunResult(state, n, aborted=True,
                             reason="kinetic energy grew past 10x its "
                                    "initial value",
                             failure_time=state.t,
                             cleanups=session.cleanups_total)
    if sinks.checkpoint_path:
        save_checkpoint(state, sinks.checkpoint_path)
    return RunResult(state, n_steps, cleanups=session.cleanups_total)
