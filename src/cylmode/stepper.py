"""IMEX time integration of the coupled azimuthal-harmonic system.

Quadratic terms are evaluated explicitly (first order, or extrapolated to
second order), the coupled viscous/pressure part is solved implicitly per
harmonic, and every step lands exactly on the no-slip boundary and the
discrete divergence constraint up to ``DIV_TOL``; a step that misses it
raises, and nothing re-projects its output.  Per-step energy budgets
decompose the discrete energy identity into dissipation channels,
nonlinear transfer, and pressure work, with the scheme-induced remainder
reported as an imbalance instead of silently dropped.
``simulate_point`` runs one trajectory and measures it: invariants,
smallness gate, weighted functionals and decay report.
``mode_invariance_check`` runs the linear flow through the same ``step``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .diagnostics import (UR, UTH, UZ, VR, VTH, VZ, ModeMeasures,
                          StepWorkspace, energy_ledger, inner_quad,
                          measure_state)
from .functionals import (DecayReport, EnergyHistory, accumulate, compute_D,
                          compute_E, decay_report, smallness_check)
from .grid import (CFL_SAFETY, CFLViolationError, CylGrid, SolverError,
                   raise_problems)
from .state import (InitProfile, ModeState, Params, divergence_residual,
                    save_checkpoint)
from .stokes import StokesOpCache, stokes_step
from .nonlinear import assemble_quadratic_rhs, flux_identity_residual

SCHEME_EULER = "imex_euler"
SCHEME_BDF2 = "imex_bdf2"
STEP_SCHEMES = (SCHEME_EULER, SCHEME_BDF2)

#: largest divergence residual a step may leave
DIV_TOL = 1e-9


class DivergenceCleanupError(SolverError):
    """A step's divergence residual exceeded ``DIV_TOL``; the step's output
    is not repaired."""


@dataclass
class StepConfig:
    """Time integration settings; the ranges are those of
    :func:`step_problems`.  The CFL guard's factor and the divergence limit
    are constants, ``grid.CFL_SAFETY`` and ``DIV_TOL``."""

    dt: float
    t_end: float
    scheme: str = SCHEME_EULER
    budget_every: int = 1
    nonlinear: bool = True

    def __post_init__(self):
        raise_problems(step_problems(self.dt, self.t_end, self.scheme,
                                     self.budget_every))


def step_problems(dt: float, t_end: float, scheme: str,
                  budget_every: int) -> list[str]:
    """Every violated range of the time-integration settings."""
    return [text for ok, text in (
        (dt > 0.0, "dt must be positive"),
        (0.0 <= t_end < math.inf, "t_end must be finite and >= 0"),
        # the step count round(t_end / dt) must exist
        (not (dt > 0.0 and 0.0 <= t_end < math.inf) or t_end / dt < math.inf,
         "t_end / dt must be finite"),
        (scheme in STEP_SCHEMES, f"scheme must be one of {STEP_SCHEMES}"),
        (budget_every >= 1, "budget_every must be >= 1")) if not ok]


@dataclass
class StepSession:
    """Mutable bookkeeping shared by consecutive steps of one trajectory.

    Each step must be handed the state the step before returned.
    ``measures`` is the diagnostics pass over that state, whose radial
    derivatives the next step's quadratic term reads; ``workspace`` holds
    the scratch arrays of the quadratic term and the passes.
    """

    cache: StokesOpCache
    prev_state: ModeState | None = None
    prev_rhs: np.ndarray | None = None
    measures: ModeMeasures | None = None
    step_count: int = 0
    workspace: StepWorkspace = field(default_factory=StepWorkspace)


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
    peak = np.abs(state.u).max(axis=(2, 3))
    swirl = (np.abs(state.u[:, [UTH, VTH]]) / g.r[:, None]).max(axis=(2, 3))
    # per harmonic: cosine plus sine amplitude of each component
    v_r = peak[:, UR] + peak[:, VR]
    v_z = peak[:, UZ] + peak[:, VZ]
    v_th = swirl[:, 0] + swirl[:, 1]
    rate = max(v_r.sum() / dr_min, v_z.sum() / dz, v_th.sum() / dtheta_eff)
    if rate == 0.0:
        return math.inf, 0
    limiting = int(np.argmax(np.maximum.reduce([v_r / dr_min, v_z / dz,
                                                v_th / dtheta_eff])))
    return 1.0 / rate, limiting


def _check_cfl(state: ModeState, cfg: StepConfig) -> None:
    dt_max, limiting = cfl_limit(state)
    if cfg.dt > CFL_SAFETY * dt_max:
        raise CFLViolationError(
            f"dt = {cfg.dt:g} exceeds CFL_SAFETY * dt_max = "
            f"{CFL_SAFETY * dt_max:g} (limiting harmonic k = {limiting})")


# -- single step ---------------------------------------------------------------

def step(state: ModeState, cfg: StepConfig, session: StepSession | None = None,
         forcing: Callable[[float], np.ndarray] | None = None) -> ModeState:
    """Advance one time step.

    ``forcing``, if given, is called with the time the step lands on and
    must return a ``(K+1, 6, n_r, n_z)`` array of explicit external forces
    in the slot layout of ``ModeState.u``.  The CFL estimate is refreshed
    every 10 steps.  A post-step divergence residual above ``DIV_TOL``
    raises ``DivergenceCleanupError`` at once; the output is never
    re-projected.  The quadratic term reads the radial derivatives of
    ``session.measures``, the pass over ``state`` that the step before (or
    ``run``) left there.
    """
    if session is None:
        session = make_session(state)
    # the CFL constraint belongs to the explicit advective terms; a purely
    # viscous solve is unconditionally stable at any dt
    if cfg.nonlinear and session.step_count % 10 == 0:
        _check_cfl(state, cfg)
    p = state.params
    t_new = state.t + cfg.dt

    ws = session.workspace
    quad = None
    if cfg.nonlinear:
        dr_u = None if session.measures is None else session.measures.dr_u
        quad = assemble_quadratic_rhs(state, dr_u, ws)
    rhs, work, dt_eff = quad, state.u, cfg.dt
    if cfg.scheme == SCHEME_BDF2 and session.prev_state is not None:
        # second-order: w = (4 u^n - u^{n-1}) / 3 stepped with 2 dt / 3,
        # quadratic terms extrapolated as 2 S^n - S^{n-1}; both live in the
        # workspace until the pass after the solves
        work, extrap = ws.arrays((state.u.shape, float),
                                 (state.u.shape, float))
        np.multiply(4.0, state.u, out=work)
        work -= session.prev_state.u
        work /= 3.0
        dt_eff = 2.0 * cfg.dt / 3.0
        if quad is not None:
            rhs = np.multiply(2.0, quad, out=extrap)
            if session.prev_rhs is not None:
                rhs -= session.prev_rhs
    if forcing is not None:
        ext = forcing(t_new)
        rhs = ext if rhs is None else rhs + ext

    new = ModeState.zeros(state.grid, p, t=t_new)
    for k in range(p.K + 1):
        new.u[k], new.p[k] = stokes_step(
            session.cache, work[k], None if rhs is None else rhs[k], dt_eff,
            k * p.N)

    meas = measure_state(new, ws=ws)
    res = float(meas.divergence_residual().max())
    if res > DIV_TOL:
        raise DivergenceCleanupError(
            f"divergence residual {res:.3e} above DIV_TOL {DIV_TOL:g}")

    session.prev_state = state
    session.prev_rhs = quad
    session.measures = meas
    session.step_count += 1
    return new


# -- energy budgets -----------------------------------------------------------

class BudgetRow(NamedTuple):
    t: float
    k: int
    energy: float
    dissipation_r: float
    dissipation_z: float
    weighted_r: float
    transfer: float
    pressure_work: float
    imbalance: float


BUDGET_COLUMNS = BudgetRow._fields


def energy_budget(state_before: ModeState, state_after: ModeState,
                  forces: np.ndarray | None, dt: float,
                  before: ModeMeasures | None = None,
                  after: ModeMeasures | None = None) -> list[BudgetRow]:
    """Per-harmonic ledger of the discrete energy identity over one step.

    ``forces`` is the explicit quadratic right-hand side evaluated at the
    pre-step state, a ``(K+1, 6, n_r, n_z)`` array (None for a purely
    viscous run, making the transfer exactly zero); ``before``/``after``
    are the states' diagnostics passes, taken here when not given.  The
    columns are ``diagnostics.energy_ledger``'s; for backward Euler the
    imbalance collects the scheme's ``||u_new - u_old||^2`` damping and
    the transfer offset, both second order per step.
    """
    p = state_before.params
    before = before or measure_state(state_before, 0)
    after = after or measure_state(state_after, 0)
    transfer = np.zeros(p.K + 1)
    if forces is not None:
        transfer = after.theta * inner_quad(state_before.grid, forces,
                                            state_before.u)
    cols = energy_ledger(before.energy(), after, p.nu, dt, transfer)
    return [BudgetRow(state_after.t, k, *(float(c[k]) for c in cols))
            for k in range(p.K + 1)]


def write_budget_header(path: str) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(BUDGET_COLUMNS)


def append_budget_rows(path: str, rows: list[BudgetRow]) -> None:
    with open(path, "a", newline="") as fh:
        csv.writer(fh).writerows(rows)


# -- trajectory driver ----------------------------------------------------------

@dataclass
class RunSinks:
    """Where run() sends its diagnostics; all fields optional.

    ``on_snapshot`` receives a state and its diagnostics pass; budget rows
    are computed only when ``budget_csv`` takes them.
    """

    on_snapshot: Callable[[ModeState, ModeMeasures], None] | None = None
    budget_csv: str | None = None
    checkpoint_path: str | None = None


@dataclass
class RunResult:
    state: ModeState
    n_steps: int
    aborted: bool = False
    reason: str = ""
    failure_time: float | None = None


def mark_failure(exc: Exception, step: int, t: float) -> None:
    """Attach to ``exc`` the 1-based ``step`` of a time loop that raised it
    and the time ``t`` that step started from, the last good state's."""
    exc.step, exc.t = step, float(t)


def run(state0: ModeState, cfg: StepConfig, sinks: RunSinks | None = None,
        forcing: Callable[[float], np.ndarray] | None = None) -> RunResult:
    """Integrate to ``cfg.t_end``, feeding diagnostics to the sinks.

    The checkpoint, if a path is given, is written once: from the final
    state, from the state an abort stopped at, or, when a step raises,
    from the last good state before the error propagates.  A
    ``SolverError`` raised in the step loop carries where it stopped
    (:func:`mark_failure`).  Runs abort with a flagged result when kinetic
    energy exceeds 10x its initial value.
    """
    sinks = sinks or RunSinks()
    n_steps = int(round(cfg.t_end / cfg.dt))
    state = state0.copy()
    session = make_session(state)
    if sinks.budget_csv:
        write_budget_header(sinks.budget_csv)
    # a run, a restart included, starts from a fresh pass
    meas = session.measures = measure_state(state)
    if sinks.on_snapshot:
        sinks.on_snapshot(state, meas)
    e0 = meas.total_l2_sq()
    aborted_at = None
    try:
        for n in range(1, n_steps + 1):
            new = step(state, cfg, session, forcing=forcing)
            new_meas = session.measures
            if n % cfg.budget_every == 0:
                if sinks.budget_csv:
                    # step() stashes the quadratic rhs it evaluated at the
                    # pre-step state, which is exactly the transfer integrand
                    append_budget_rows(sinks.budget_csv, energy_budget(
                        state, new, session.prev_rhs, cfg.dt, meas, new_meas))
                if sinks.on_snapshot:
                    sinks.on_snapshot(new, new_meas)
            state, meas = new, new_meas
            if e0 > 0.0 and meas.total_l2_sq() > 10.0 * e0:
                aborted_at = n
                break
    except SolverError as exc:
        mark_failure(exc, n, state.t)
        raise
    finally:
        if sinks.checkpoint_path:
            save_checkpoint(state, sinks.checkpoint_path)
    if aborted_at is not None:
        return RunResult(state, aborted_at, aborted=True,
                         reason="kinetic energy grew past 10x its initial value",
                         failure_time=state.t)
    return RunResult(state, n_steps)


# -- linear-flow checks --------------------------------------------------------

def energy_growth(energies) -> float:
    """Worst relative one-step growth ``(E_{n+1} - E_n) / E_n`` of an
    energy sequence, over the steps from a positive energy (0 when none
    grows); ``inf`` when an energy is not finite."""
    e = np.asarray(energies, dtype=float)
    a, b = e[:-1], e[1:]
    growth = np.divide(b - a, a, out=np.zeros_like(a), where=a > 0.0)
    return float(growth.max(initial=0.0)) if np.isfinite(e).all() else math.inf


def mode_invariance_check(grid: CylGrid, params: Params, k0: int, dt: float,
                          n_steps: int, seed: int = 0) -> float:
    """Leakage of a state populated only at harmonic k0 under the linear
    flow, stepped by ``run`` with ``nonlinear=False``.

    Returns the worst ratio ``||mode k|| / ||mode k0||`` over the
    snapshots for k != k0; ``inf`` when an energy is not finite or when
    harmonic k0 vanishes while another does not.
    """
    rng = np.random.default_rng(seed)
    state = ModeState.zeros(grid, params)
    env = grid.r[:, None] * (1.0 - grid.r[:, None] ** 2) ** 2
    q = 2 * np.pi * grid.z / grid.L_z
    for s in [UR, UTH, UZ] if k0 == 0 else range(6):
        coef = rng.standard_normal(3)
        state.u[k0, s] = env * (coef[0] + coef[1] * np.cos(q)
                                + coef[2] * np.sin(q))[None, :]
    energies = []
    run(state, StepConfig(dt=dt, t_end=n_steps * dt, nonlinear=False),
        RunSinks(on_snapshot=lambda _, measures:
                 energies.append(measures.energy())))
    e = np.array(energies)
    own, other = e[:, k0], np.delete(e, k0, axis=1).max(axis=1)
    ratio = np.divide(other, own, out=np.where(other > 0.0, math.inf, 0.0),
                      where=own > 0.0)
    return math.sqrt(ratio.max()) if np.isfinite(e).all() else math.inf


# -- one simulation point -----------------------------------------------------

# hard-invariant tolerances of a simulation point
FLUX_TOL = 1e-8
MONOTONE_SLACK = 1e-12


@dataclass
class PointResult:
    """What one simulation point measured; ``energy`` holds E0, E1, D0 and
    D1 at the first (``initial``) and last (``final``) snapshot."""

    run: RunResult
    history: EnergyHistory
    invariants: dict
    smallness: dict
    energy: dict
    decay: DecayReport

    @property
    def invariants_held(self) -> bool:
        """The run completed and every ``*_ok`` invariant holds."""
        return self.invariants["completed"] and all(
            v for k, v in self.invariants.items() if k.endswith("_ok"))


def simulate_point(profile: InitProfile, state0: ModeState, cfg: StepConfig,
                   sinks: RunSinks | None = None) -> PointResult:
    """Run ``state0``, started from ``profile``, to ``cfg.t_end`` and
    measure the trajectory.

    Does no I/O of its own: the budget CSV and checkpoint paths of
    ``sinks`` go to ``run``; its snapshot sink is replaced by the history.
    """
    params = state0.params
    smallness_values, smallness_ok = smallness_check(profile, params)
    history = EnergyHistory()
    energies = []

    def on_snapshot(st: ModeState, measures: ModeMeasures) -> None:
        accumulate(history, st, measures)
        energies.append(measures.total_l2_sq())

    result = run(state0, cfg, replace(sinks or RunSinks(),
                                      on_snapshot=on_snapshot))

    div = float(np.max(divergence_residual(result.state)))
    invariants = {
        "completed": not result.aborted,
        "divergence_residual": div,
        "divergence_ok": div <= DIV_TOL,
    }
    if cfg.nonlinear:
        flux = flux_identity_residual(result.state)
        invariants["flux_residual"] = flux
        invariants["flux_ok"] = flux <= FLUX_TOL
    elif cfg.scheme == SCHEME_EULER:
        # the implicit viscous step is dissipative for any dt
        invariants["energy_growth"] = worst = energy_growth(energies)
        invariants["dissipative_ok"] = worst <= MONOTONE_SLACK

    # each functional evaluated once, at the first and the last snapshot
    ends = {f"{name}{j}": functional(history, j, params, idx=[0, -1])
            for name, functional in (("E", compute_E), ("D", compute_D))
            for j in (0, 1)}
    energy = {when: {name: float(v[i]) for name, v in ends.items()}
              for i, when in enumerate(("initial", "final"))}
    return PointResult(
        run=result, history=history, invariants=invariants,
        smallness={"values": smallness_values, "satisfied": smallness_ok},
        energy=energy, decay=decay_report(history, params))
