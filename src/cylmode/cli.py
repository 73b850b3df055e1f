"""Command-line interface: configuration, orchestration, report emission.

Experiments are described by a flat INI file (``key = value`` under
sections) so that a run is reproducible from its config alone; the resolved
configuration and a content hash of the package sources are embedded in
every JSON report.  One process runs one experiment.

Exit status: 0 when the command completed and its hard invariants held,
1 when a hard invariant failed, 2 for configuration or input-file errors.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .functionals import (
    REPORT_SCHEMA,
    DecayReport,
    EnergyHistory,
    accumulate,
    compute_D,
    compute_E,
    decay_report,
    load_history,
    save_history,
    smallness_check,
)
from .grid import SCHEME_CHEBYSHEV, SCHEME_FD2, build_grid
from .inequalities import POINCARE_BOUND, SCAN_CHECKS, constant_scan
from .nonlinear import flux_identity_residual
from .oracle import ORACLE_MAX_NTHETA, OracleOpCache, oracle_step, \
    reconstruct_to_full, relative_l2
from .state import Params, divergence_residual, make_initial_state, \
    make_profile_divfree, make_random_divfree_state
from .stepper import SCHEME_BDF2, SCHEME_EULER, RunSinks, StepConfig, run
from .stokes import StokesOpCache, apply_viscous_operator, linear_flow_uL, \
    mode_energy, mode_invariance_check, stokes_evolve, stokes_step

RUN_MODES = ("ns", "ans", "stokes_only", "linear_flow")
PROFILE_FAMILIES = ("poloidal", "file")
RADIAL_SCHEMES = (SCHEME_CHEBYSHEV, SCHEME_FD2)
STEP_SCHEMES = (SCHEME_EULER, SCHEME_BDF2)
OUT_DIR_ENV = "CYLMODE_OUT"

# hard-invariant tolerances shared by the commands
FLUX_TOL = 1e-8
STEADY_TOL = 1e-8
LEAKAGE_TOL = 1e-12
IDENTITY_TOL = 1e-2
MONOTONE_SLACK = 1e-12


class ConfigError(ValueError):
    """Carries every configuration problem found, not just the first."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


# -- configuration -------------------------------------------------------------

# (attribute, section, key, kind, default); nu's None default is resolved
# from the run mode during parsing and never survives into the dataclass
_CONFIG_FIELDS = (
    ("nu", "params", "nu", "float", None),
    ("N", "params", "N", "int", 8),
    ("delta", "params", "delta", "float", 0.0),
    ("eta", "params", "eta", "float", 0.25),
    ("K", "params", "K", "int", 3),
    ("m", "params", "m", "int", 3),
    ("sigma", "params", "sigma", "float", 0.4),
    ("small_eps", "params", "small_eps", "float", 0.1),
    ("n_r", "grid", "n_r", "int", 48),
    ("n_z", "grid", "n_z", "int", 32),
    ("L_z", "grid", "L_z", "float", 2.0 * math.pi),
    ("radial_scheme", "grid", "scheme", "str", SCHEME_CHEBYSHEV),
    ("dt", "step", "dt", "float", 1e-3),
    ("t_end", "step", "t_end", "float", 0.1),
    ("step_scheme", "step", "scheme", "str", SCHEME_EULER),
    ("cfl_safety", "step", "cfl_safety", "float", 0.9),
    ("div_tol", "step", "div_tol", "float", 1e-9),
    ("budget_every", "step", "budget_every", "int", 1),
    ("profile_family", "profile", "family", "str", "poloidal"),
    ("profile_path", "profile", "path", "str", ""),
    ("amplitude", "profile", "amplitude", "float", 1.0),
    ("z_waves", "profile", "z_waves", "int", 1),
    ("mode", "run", "mode", "str", "ns"),
    ("out_dir", "run", "out_dir", "str", "out"),
    ("snapshot_every", "run", "snapshot_every", "int", 1),
    ("compare_N", "run", "compare_N", "int", 0),
    ("seed", "run", "seed", "int", 0),
    ("write_budgets", "reports", "budgets", "bool", True),
    ("write_history", "reports", "history", "bool", True),
    ("write_decay", "reports", "decay", "bool", True),
    ("mixed_norms", "reports", "mixed", "bool", False),
    ("scan_check", "scan", "check", "str", "anisotropic"),
    ("scan_family", "scan", "family", "str", ""),
    ("scan_trials", "scan", "trials", "int", 100),
    ("scan_seed", "scan", "seed", "int", -1),
    ("scan_p", "scan", "p", "float", 4.0),
    ("scan_n_r", "scan", "n_r", "int", 48),
    ("scan_n_theta", "scan", "n_theta", "int", 64),
    ("scan_n_z", "scan", "n_z", "int", 128),
    ("scan_period", "scan", "period", "float", 2.0 * math.pi),
    ("oracle_n_theta", "oracle", "n_theta", "int", 36),
    ("oracle_steps", "oracle", "n_steps", "int", 10),
    ("oracle_dt", "oracle", "dt", "float", 1e-3),
    ("oracle_tol", "oracle", "tol", "float", 1e-2),
    ("history_path", "history", "path", "str", ""),
)

_SECTIONS = tuple(dict.fromkeys(f[1] for f in _CONFIG_FIELDS))


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description; one INI file round-trips."""

    nu: float
    N: int
    delta: float
    eta: float
    K: int
    m: int
    sigma: float
    small_eps: float
    n_r: int
    n_z: int
    L_z: float
    radial_scheme: str
    dt: float
    t_end: float
    step_scheme: str
    cfl_safety: float
    div_tol: float
    budget_every: int
    profile_family: str
    profile_path: str
    amplitude: float
    z_waves: int
    mode: str
    out_dir: str
    snapshot_every: int
    compare_N: int
    seed: int
    write_budgets: bool
    write_history: bool
    write_decay: bool
    mixed_norms: bool
    scan_check: str
    scan_family: str
    scan_trials: int
    scan_seed: int
    scan_p: float
    scan_n_r: int
    scan_n_theta: int
    scan_n_z: int
    scan_period: float
    oracle_n_theta: int
    oracle_steps: int
    oracle_dt: float
    oracle_tol: float
    history_path: str

    def as_dict(self) -> dict:
        """Nested {section: {key: value}} mirror of the INI layout."""
        out: dict[str, dict] = {s: {} for s in _SECTIONS}
        for attr, section, key, _, _ in _CONFIG_FIELDS:
            out[section][key] = getattr(self, attr)
        return out

    def params(self) -> Params:
        return Params(nu=self.nu, N=self.N, delta=self.delta, eta=self.eta,
                      K=self.K, m=self.m, sigma=self.sigma,
                      small_eps=self.small_eps)


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    return str(value)


def _parse_value(kind: str, text: str):
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "bool":
        low = text.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return text.strip()


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for attr, sec, key, kind, _ in _CONFIG_FIELDS:
            if sec == section:
                lines.append(f"{key} = {_format_value(kind, getattr(cfg, attr))}")
        lines.append("")
    return "\n".join(lines)


def parse_config(text: str, command: str | None = None) -> ExperimentConfig:
    """Parse, resolve, and validate; raises ConfigError listing every problem."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive
    problems: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc

    known = {(f[1], f[2]): f for f in _CONFIG_FIELDS}
    for section in parser.sections():
        if section not in _SECTIONS:
            problems.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if (section, key) not in known:
                problems.append(f"unknown key {key!r} in section [{section}]")

    values: dict[str, object] = {}
    for attr, section, key, kind, default in _CONFIG_FIELDS:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                values[attr] = _parse_value(kind, raw)
            except ValueError:
                problems.append(
                    f"[{section}] {key}: cannot parse {raw!r} as {kind}")
                values[attr] = default
        else:
            values[attr] = default

    # the run mode pins the vertical-viscosity coefficient
    mode = values.get("mode")
    if values["nu"] is None:
        values["nu"] = 0.0 if mode == "ans" else 1.0
    elif mode == "ns" and values["nu"] != 1.0:
        problems.append("[params] nu must be 1 in mode 'ns' (or omit it)")
    elif mode == "ans" and values["nu"] != 0.0:
        problems.append("[params] nu must be 0 in mode 'ans' (or omit it)")

    cfg = ExperimentConfig(**values)  # type: ignore[arg-type]
    problems.extend(validate_config(cfg, command))
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path: str, command: str | None = None) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError([f"config file not found: {path}"])
    return parse_config(p.read_text(encoding="utf-8"), command)


def validate_config(cfg: ExperimentConfig,
                    command: str | None = None) -> list[str]:
    """Every violated constraint, cross-field ones included."""
    bad: list[str] = []
    if cfg.N < 2:
        bad.append("[params] N must be an integer >= 2")
    if cfg.K < 2:
        bad.append("[params] K must be an integer >= 2")
    if cfg.m < 3:
        bad.append("[params] m must be an integer >= 3")
    if not 0.0 <= cfg.delta < 0.25:
        bad.append("[params] delta must lie in [0, 1/4)")
    if not 0.0 <= cfg.eta < 0.5 - cfg.delta:
        bad.append("[params] eta must lie in [0, 1/2 - delta)")
    if cfg.m >= 3 and not 1.0 / (2 * cfg.m - 3) < cfg.sigma < 0.5:
        bad.append("[params] sigma must lie in (1/(2m-3), 1/2)")
    if not cfg.small_eps > 0.0:
        bad.append("[params] small_eps must be positive")
    if cfg.nu < 0.0:
        bad.append("[params] nu must be >= 0")
    if cfg.n_r < 4:
        bad.append("[grid] n_r must be >= 4")
    if cfg.n_z < 4 or cfg.n_z % 2:
        bad.append("[grid] n_z must be even and >= 4")
    if not cfg.L_z > 0.0:
        bad.append("[grid] L_z must be positive")
    if cfg.radial_scheme not in RADIAL_SCHEMES:
        bad.append(f"[grid] scheme must be one of {RADIAL_SCHEMES}")
    if not cfg.dt > 0.0:
        bad.append("[step] dt must be positive")
    if cfg.t_end < 0.0:
        bad.append("[step] t_end must be >= 0")
    if cfg.step_scheme not in STEP_SCHEMES:
        bad.append(f"[step] scheme must be one of {STEP_SCHEMES}")
    if not 0.0 < cfg.cfl_safety <= 1.0:
        bad.append("[step] cfl_safety must lie in (0, 1]")
    if not cfg.div_tol > 0.0:
        bad.append("[step] div_tol must be positive")
    if cfg.budget_every < 1:
        bad.append("[step] budget_every must be >= 1")
    if cfg.profile_family not in PROFILE_FAMILIES:
        bad.append(f"[profile] family must be one of {PROFILE_FAMILIES}")
    if cfg.profile_family == "file" and not cfg.profile_path:
        bad.append("[profile] path is required when family = file")
    if not cfg.amplitude > 0.0:
        bad.append("[profile] amplitude must be positive")
    if cfg.z_waves < 1:
        bad.append("[profile] z_waves must be >= 1")
    if cfg.mode not in RUN_MODES:
        bad.append(f"[run] mode must be one of {RUN_MODES}")
    if cfg.snapshot_every < 1:
        bad.append("[run] snapshot_every must be >= 1")
    if cfg.compare_N != 0 and cfg.compare_N < 2:
        bad.append("[run] compare_N must be 0 (off) or an integer >= 2")
    if cfg.mode == "linear_flow" and cfg.N < 3:
        bad.append("[run] linear_flow mode requires N >= 3")
    if command == "linear-flow" and cfg.N < 3:
        bad.append("linear-flow requires [params] N >= 3")
    if command == "inequality-scan":
        if cfg.scan_trials < 1:
            bad.append("[scan] trials must be >= 1")
        if cfg.scan_check not in SCAN_CHECKS:
            bad.append(f"[scan] check must be one of {SCAN_CHECKS}")
        if cfg.scan_seed < 0:
            bad.append("[scan] seed is mandatory (a non-negative integer)")
        if not cfg.scan_p >= 2.0:
            bad.append("[scan] p must be >= 2")
        if cfg.scan_n_r < 4:
            bad.append("[scan] n_r must be >= 4")
        if cfg.scan_n_theta < 8 or cfg.scan_n_theta % 2:
            bad.append("[scan] n_theta must be even and >= 8")
        if cfg.scan_n_z < 4 or cfg.scan_n_z % 2:
            bad.append("[scan] n_z must be even and >= 4")
        if not cfg.scan_period > 0.0:
            bad.append("[scan] period must be positive")
    if command == "oracle-compare":
        need = 3 * cfg.K * cfg.N
        if cfg.oracle_n_theta <= need:
            bad.append(
                f"[oracle] n_theta must exceed 3*K*N = {need} to resolve "
                "every retained harmonic without aliasing")
        if cfg.oracle_n_theta % 2:
            bad.append("[oracle] n_theta must be even")
        if cfg.oracle_n_theta > ORACLE_MAX_NTHETA:
            bad.append(f"[oracle] n_theta must be <= {ORACLE_MAX_NTHETA}")
        if cfg.oracle_steps < 1:
            bad.append("[oracle] n_steps must be >= 1")
        if not cfg.oracle_dt > 0.0:
            bad.append("[oracle] dt must be positive")
        if not cfg.oracle_tol > 0.0:
            bad.append("[oracle] tol must be positive")
    if command == "decay-report" and not cfg.history_path:
        bad.append("[history] path is required for decay-report")
    return bad


# -- shared plumbing -----------------------------------------------------------

_CODE_VERSION: str | None = None


def _code_version() -> str:
    """Content hash of the package sources, standing in for a VCS revision."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        h = hashlib.sha256()
        pkg = Path(__file__).parent
        for src in sorted(pkg.glob("*.py")):
            h.update(src.name.encode())
            h.update(src.read_bytes())
        _CODE_VERSION = h.hexdigest()[:16]
    return _CODE_VERSION


def _report_base(command: str, cfg: ExperimentConfig) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "config": cfg.as_dict(),
        "code_version": _code_version(),
    }


def _write_json(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _say(quiet: bool, text: str) -> None:
    if not quiet:
        print(text)


def _check_line(name: str, ok: bool, value: float, tol: float) -> str:
    flag = "PASS" if ok else "FAIL"
    return f"[{flag}] {name}: {value:.3e} (tol {tol:.1e})"


def _build_profile(cfg: ExperimentConfig, grid):
    """Named family or an npz file with the four free profile components."""
    if cfg.profile_family == "poloidal":
        r = grid.r
        # every component carries an r factor: the profile rides a nonzero
        # azimuthal harmonic, so fields must vanish on the axis
        env = cfg.amplitude * r * (1.0 - r**2) ** 2
        q = 2.0 * math.pi * cfg.z_waves / grid.L_z
        a_r = env[:, None] * np.sin(q * grid.z)[None, :]
        a_z = env[:, None] * np.cos(q * grid.z)[None, :]
        zero = np.zeros_like(a_r)
        return make_profile_divfree(grid, a_r, a_z, zero, zero)
    path = Path(cfg.profile_path)
    if not path.is_file():
        raise ConfigError([f"profile file not found: {cfg.profile_path}"])
    with np.load(path) as data:
        missing = [k for k in ("a_r", "a_z", "b_r", "b_z") if k not in data]
        if missing:
            raise ConfigError(
                [f"profile file lacks arrays {missing}; expected a_r, a_z, "
                 "b_r, b_z of shape (n_r, n_z)"])
        arrs = [np.asarray(data[k], dtype=float)
                for k in ("a_r", "a_z", "b_r", "b_z")]
    want = (grid.n_r, grid.n_z)
    if any(a.shape != want for a in arrs):
        raise ConfigError(
            [f"profile arrays must have shape {want} to match the grid"])
    return make_profile_divfree(grid, *[cfg.amplitude * a for a in arrs])


def _decay_json_dict(rep: DecayReport, cfg: ExperimentConfig) -> dict:
    """The one decay-report JSON shape, shared by simulate and decay-report."""
    d = rep.to_json_dict()
    d["config"] = cfg.as_dict()
    d["code_version"] = _code_version()
    return d


# -- simulate ------------------------------------------------------------------

def _simulate_core(cfg: ExperimentConfig, params: Params,
                   out_dir: Path | None) -> dict:
    """One full run; artifacts are written only when out_dir is given."""
    grid = build_grid(cfg.n_r, cfg.n_z, cfg.L_z, cfg.radial_scheme)
    profile = _build_profile(cfg, grid)
    state = make_initial_state(profile, params)
    smallness_values, smallness_ok = smallness_check(profile, params)

    history = EnergyHistory(j_max=1, mixed=cfg.mixed_norms)
    energies: list[float] = []
    count = 0

    def on_snapshot(st):
        nonlocal count
        if count % cfg.snapshot_every == 0:
            accumulate(history, st)
            energies.append(st.total_l2_sq())
        count += 1

    nonlinear = cfg.mode in ("ns", "ans")
    step_cfg = StepConfig(dt=cfg.dt, t_end=cfg.t_end, scheme=cfg.step_scheme,
                          cfl_safety=cfg.cfl_safety, div_tol=cfg.div_tol,
                          budget_every=cfg.budget_every, nonlinear=nonlinear)
    sinks = RunSinks(
        on_snapshot=on_snapshot,
        budget_csv=str(out_dir / "budgets.csv")
        if out_dir and cfg.write_budgets else None,
        checkpoint_path=str(out_dir / "checkpoint.bin") if out_dir else None,
        checkpoint_every=max(1, cfg.budget_every * cfg.snapshot_every),
    )
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    result = run(state, step_cfg, sinks)

    div = float(np.max(divergence_residual(result.state)))
    invariants = {
        "completed": not result.aborted,
        "divergence_residual": div,
        "divergence_ok": div <= cfg.div_tol,
    }
    if nonlinear:
        flux = flux_identity_residual(result.state)
        invariants["flux_residual"] = flux
        invariants["flux_ok"] = flux <= FLUX_TOL
    if not nonlinear and cfg.step_scheme == SCHEME_EULER:
        # the implicit viscous step is dissipative for any dt
        worst = 0.0
        for a, b in zip(energies, energies[1:]):
            if a > 0.0:
                worst = max(worst, (b - a) / a)
        invariants["energy_growth"] = worst
        invariants["dissipative_ok"] = worst <= MONOTONE_SLACK

    energy = {
        "initial": {"E0": compute_E(history, 0, params, idx=0),
                    "E1": compute_E(history, 1, params, idx=0),
                    "D0": compute_D(history, 0, params, idx=0),
                    "D1": compute_D(history, 1, params, idx=0)},
        "final": {"E0": compute_E(history, 0, params),
                  "E1": compute_E(history, 1, params),
                  "D0": compute_D(history, 0, params),
                  "D1": compute_D(history, 1, params)},
    }
    rep = decay_report(history, params)
    if out_dir:
        if cfg.write_history:
            save_history(history, str(out_dir / "history.npz"))
        if cfg.write_decay:
            _write_json(_decay_json_dict(rep, cfg),
                        out_dir / "decay_report.json")
    return {
        "invariants": invariants,
        "energy": energy,
        "smallness": {"values": smallness_values, "satisfied": smallness_ok},
        "decay": rep.to_json_dict(),
        "run": {"n_steps": result.n_steps, "aborted": result.aborted,
                "reason": result.reason, "cleanups": result.cleanups,
                "final_time": result.state.t, "snapshots": len(energies)},
    }


def _invariants_held(invariants: dict) -> bool:
    flags = [v for k, v in invariants.items() if k.endswith(("_ok",))]
    flags.append(invariants["completed"])
    return all(flags)


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    if cfg.mode == "linear_flow":
        return cmd_linear_flow(cfg, out_dir, quiet)
    params = cfg.params()
    core = _simulate_core(cfg, params, out_dir)
    report = {**_report_base("simulate", cfg), **core}

    if cfg.compare_N:
        alt = dataclasses.replace(cfg, N=cfg.compare_N, compare_N=0)
        alt_core = _simulate_core(alt, alt.params(), None)
        rows = []
        base_rows = {(r["k"], r["j"]): r for r in core["decay"]["per_mode"]}
        for r in alt_core["decay"]["per_mode"]:
            b = base_rows.get((r["k"], r["j"]))
            if b is None:
                continue
            measured = r["sup_norm"] / b["sup_norm"] if b["sup_norm"] else 0.0
            predicted = 0.0
            if b.get("bound") and r.get("bound"):
                predicted = r["bound"] / b["bound"]
            rows.append({"k": r["k"], "j": r["j"],
                         "sup_base": b["sup_norm"], "sup_alt": r["sup_norm"],
                         "measured_ratio": measured,
                         "predicted_ratio": predicted})
        summary = {**_report_base("simulate", cfg),
                   "comparison": {"N_base": cfg.N, "N_alt": cfg.compare_N,
                                  "per_mode": rows}}
        _write_json(summary, out_dir / "n_scaling_summary.json")
        report["n_scaling_summary"] = str(out_dir / "n_scaling_summary.json")

    _write_json(report, out_dir / "simulate_report.json")
    inv = core["invariants"]
    ok = _invariants_held(inv)
    _say(quiet, _check_line("divergence", inv["divergence_ok"],
                            inv["divergence_residual"], cfg.div_tol))
    if "flux_ok" in inv:
        _say(quiet, _check_line("quadratic flux", inv["flux_ok"],
                                inv["flux_residual"], FLUX_TOL))
    if "dissipative_ok" in inv:
        _say(quiet, _check_line("energy decay", inv["dissipative_ok"],
                                inv["energy_growth"], MONOTONE_SLACK))
    _say(quiet, f"{'completed' if inv['completed'] else 'ABORTED'}; "
                f"report: {out_dir / 'simulate_report.json'}")
    return 0 if ok else 1


# -- stokes-test ---------------------------------------------------------------

def cmd_stokes_test(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    grid = build_grid(cfg.n_r, cfg.n_z, cfg.L_z, cfg.radial_scheme)
    checks: dict[str, dict] = {}

    def record(name: str, value: float, tol: float) -> None:
        checks[name] = {"value": float(value), "tol": float(tol),
                        "pass": bool(value <= tol)}

    for nu in (1.0, 0.0):
        params = dataclasses.replace(cfg.params(), nu=nu)
        tag = f"nu{int(nu)}"

        # single-harmonic data stays single-harmonic
        leak = max(mode_invariance_check(grid, params, 1, 1e-2, 5,
                                         seed=cfg.seed),
                   mode_invariance_check(grid, params, 0, 1e-2, 5,
                                         seed=cfg.seed + 1))
        record(f"harmonic_invariance_{tag}", leak, LEAKAGE_TOL)

        cache = StokesOpCache(grid, nu)
        state = make_random_divfree_state(grid, params, seed=cfg.seed,
                                          amplitude=1.0)

        # energy decays for any dt, every harmonic
        growth = 0.0
        for k in range(params.K + 1):
            k_eff = k * params.N if k > 0 else 0
            _, hist = stokes_evolve(cache, state.modes[k], 5.0, 5, k_eff)
            for a, b in zip(hist.energy, hist.energy[1:]):
                if a > 0.0:
                    growth = max(growth, (b - a) / a)
        record(f"unconditional_decay_{tag}", growth, MONOTONE_SLACK)

        # forcing assembled from the discrete operator holds states steady;
        # smooth data keeps the solve's roundoff amplification near eps
        smooth = make_random_divfree_state(grid, params, seed=cfg.seed,
                                           amplitude=1.0, roughness=None)
        drift = 0.0
        for k in range(params.K + 1):
            k_eff = k * params.N if k > 0 else 0
            m = smooth.modes[k]
            f = apply_viscous_operator(grid, m, nu, k_eff)
            new, _ = stokes_step(cache, m, f, 1e-2, k_eff)
            scale = max(np.max(np.abs(fld)) for fld in m.fields()) or 1.0
            drift = max(drift, max(np.max(np.abs(a - b)) for a, b in
                                   zip(new.fields(), m.fields())) / scale)
        record(f"steady_forcing_{tag}", drift, STEADY_TOL)

        # discrete energy identity residual, normalized per step
        m1 = state.modes[1]
        e0 = mode_energy(grid, m1)
        _, hist = stokes_evolve(cache, m1, 1e-3, 10, params.N,
                                with_identity=True)
        worst = max(abs(r) for r in hist.identity_residual)
        record(f"energy_identity_{tag}", worst / max(e0 / 1e-3, 1e-300),
               IDENTITY_TOL)

        # the implicit solve lands on the divergence-free constraint
        final = state.copy()
        for k in range(params.K + 1):
            k_eff = k * params.N if k > 0 else 0
            final.modes[k], final.pressures[k] = stokes_step(
                cache, final.modes[k], None, 1e-2, k_eff)
        record(f"divergence_{tag}", float(np.max(divergence_residual(final))),
               1e-10)

    ok = all(c["pass"] for c in checks.values())
    report = {**_report_base("stokes-test", cfg), "checks": checks,
              "all_pass": ok}
    _write_json(report, out_dir / "stokes_test_report.json")
    for name, c in checks.items():
        _say(quiet, _check_line(name, c["pass"], c["value"], c["tol"]))
    _say(quiet, f"report: {out_dir / 'stokes_test_report.json'}")
    return 0 if ok else 1


# -- linear-flow ---------------------------------------------------------------

def cmd_linear_flow(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    grid = build_grid(cfg.n_r, cfg.n_z, cfg.L_z, cfg.radial_scheme)
    profile = _build_profile(cfg, grid)
    params = cfg.params()
    n_steps = int(round(cfg.t_end / cfg.dt))
    flow = linear_flow_uL(profile, params, cfg.dt, n_steps)
    report = {**_report_base("linear-flow", cfg), "linear_flow": flow}

    if cfg.compare_N:
        alt_params = dataclasses.replace(params, N=cfg.compare_N)
        alt = linear_flow_uL(profile, alt_params, cfg.dt, n_steps)
        drift = 0.0
        for a, b in zip(flow["ratio_sup"], alt["ratio_sup"]):
            if a > 0.0:
                drift = max(drift, abs(b / a - 1.0))
        report["comparison"] = {"N_base": cfg.N, "N_alt": cfg.compare_N,
                                "ratio_sup_alt": alt["ratio_sup"],
                                "ratio_sup_drift": drift}

    finite = all(math.isfinite(v) for v in flow["ratio_sup"] + flow["ratio_dr"]
                 + flow["ratio_over_r"])
    ident_ok = flow["identity_residual_max"] <= IDENTITY_TOL
    report["invariants"] = {"ratios_finite": finite,
                            "identity_ok": ident_ok,
                            "identity_residual": flow["identity_residual_max"]}
    _write_json(report, out_dir / "linear_flow_report.json")
    _say(quiet, _check_line("energy identity", ident_ok,
                            flow["identity_residual_max"], IDENTITY_TOL))
    _say(quiet, f"sup ratio j=0: {flow['ratio_sup'][0]:.4f}; "
                f"report: {out_dir / 'linear_flow_report.json'}")
    return 0 if (finite and ident_ok) else 1


# -- inequality-scan -----------------------------------------------------------

def cmd_inequality_scan(cfg: ExperimentConfig, out_dir: Path,
                        quiet: bool) -> int:
    scan = constant_scan(cfg.scan_family or None, cfg.scan_check,
                         cfg.scan_trials, cfg.scan_seed, p=cfg.scan_p,
                         n_r=cfg.scan_n_r, n_theta=cfg.scan_n_theta,
                         n_z=cfg.scan_n_z, period=cfg.scan_period)
    ok = scan["refinement_delta"] <= 0.10
    if "pointwise_weight_ok" in scan:
        ok = ok and scan["pointwise_weight_ok"]
    if cfg.scan_check == "angular_poincare":
        ok = ok and scan["max_ratio"] <= POINCARE_BOUND
    report = {**scan, **_report_base("inequality-scan", cfg),
              "scan_schema": scan["schema"], "invariants_held": ok}
    _write_json(report, out_dir / "inequality_scan.json")
    _say(quiet, _check_line("refinement stability", ok,
                            scan["refinement_delta"], 0.10))
    _say(quiet, f"max ratio {scan['max_ratio']:.4f}, median "
                f"{scan['median_ratio']:.4f}; "
                f"report: {out_dir / 'inequality_scan.json'}")
    return 0 if ok else 1


# -- oracle-compare ------------------------------------------------------------

def cmd_oracle_compare(cfg: ExperimentConfig, out_dir: Path,
                       quiet: bool) -> int:
    grid = build_grid(cfg.n_r, cfg.n_z, cfg.L_z, cfg.radial_scheme)
    params = cfg.params()
    profile = _build_profile(cfg, grid)
    state = make_initial_state(profile, params)

    full = reconstruct_to_full(state, cfg.oracle_n_theta)
    cache = OracleOpCache(grid, cfg.oracle_n_theta, params.nu)
    for _ in range(cfg.oracle_steps):
        full = oracle_step(full, params, cfg.oracle_dt, cache,
                           cfl_safety=cfg.cfl_safety)

    step_cfg = StepConfig(dt=cfg.oracle_dt,
                          t_end=cfg.oracle_steps * cfg.oracle_dt,
                          scheme=SCHEME_EULER, cfl_safety=cfg.cfl_safety,
                          div_tol=cfg.div_tol, nonlinear=True)
    result = run(state, step_cfg)
    ref = reconstruct_to_full(result.state, cfg.oracle_n_theta)
    disc = relative_l2(full, ref)
    ok = disc <= cfg.oracle_tol

    report = {**_report_base("oracle-compare", cfg),
              "discrepancy": disc, "tol": cfg.oracle_tol,
              "n_steps": cfg.oracle_steps, "dt": cfg.oracle_dt,
              "n_theta": cfg.oracle_n_theta, "within_tol": ok}
    _write_json(report, out_dir / "oracle_compare.json")
    _say(quiet, _check_line("solver vs oracle", ok, disc, cfg.oracle_tol))
    _say(quiet, f"report: {out_dir / 'oracle_compare.json'}")
    return 0 if ok else 1


# -- decay-report --------------------------------------------------------------

def cmd_decay_report(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    try:
        history = load_history(cfg.history_path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load history {cfg.history_path!r}: {exc}",
              file=sys.stderr)
        return 2
    rep = decay_report(history, cfg.params())
    _write_json(_decay_json_dict(rep, cfg), out_dir / "decay_report.json")
    _say(quiet, f"modes: {len(rep.per_mode)}, flags: {rep.pass_flags}; "
                f"report: {out_dir / 'decay_report.json'}")
    return 0 if rep.pass_flags.get("ratios_finite", False) else 1


# -- entry point ---------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "stokes-test": cmd_stokes_test,
    "linear-flow": cmd_linear_flow,
    "inequality-scan": cmd_inequality_scan,
    "oracle-compare": cmd_oracle_compare,
    "decay-report": cmd_decay_report,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="INI experiment description")
    common.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (overrides config and "
                             f"${OUT_DIR_ENV})")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress lines (reports still written)")
    parser = argparse.ArgumentParser(
        prog="cylmode",
        description="cylinder-confined mode-truncated flow experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "full mode-system run with energy tracking and reports",
        "stokes-test": "verification battery for the implicit mode solver",
        "linear-flow": "single-harmonic horizontal flow with decay ratios",
        "inequality-scan": "randomized disk inequality constant scan",
        "oracle-compare": "mode stepper against the full 3-D reference",
        "decay-report": "re-derive decay report from a stored history",
    }
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common], help=helps[name])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, command=args.command)
    except ConfigError as exc:
        for line in exc.problems:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV) or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](cfg, out_dir, args.quiet)
    except ConfigError as exc:
        for line in exc.problems:
            print(f"input error: {line}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
