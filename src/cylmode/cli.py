"""Command-line interface: configuration, orchestration, report emission.

Experiments are described by a flat INI file (``key = value`` under
sections) so that a run is reproducible from its config alone; the resolved
configuration and a content hash of the package sources are embedded in
every JSON report.  One process runs one experiment.

Exit status: 0 when the command completed and its hard invariants held,
1 when a hard invariant failed or a solver error stopped the command, 2 for
configuration or input errors, which write no report.  Each section's
ranges have one home, a rule function of the module that uses them:
``state.param_problems``, ``grid.grid_problems``, ``stepper.step_problems``,
``inequalities.scan_problems``, ``oracle.n_theta_problems`` and
``stokes.linear_flow_problems``.  The library constructors raise from the
same functions, so a config that validates is not refused by the
library.  Every report but ``decay-report``'s carries ``invariants_held``.
A ``grid.SolverError`` (CFL violation past ``grid.CFL_SAFETY``, a step's
divergence residual above ``stepper.DIV_TOL``, singular operator or bin)
still leaves the command's report, with a ``failure`` entry and
``invariants_held`` false; an error raised in a time loop adds the
1-based ``step`` it stopped at and the time ``t`` that step started from.

At module level this file imports only what parsing, validation and
dispatch need (the standard library, numpy and ``grid``); each command
imports the modules it runs in its own body.  So ``inequality-scan`` loads
``cli``, ``grid`` and ``inequalities`` only, ``simulate`` loads neither
``oracle`` nor ``inequalities``, and ``oracle-compare`` does not load
``inequalities``.  A process compiles every module it imports when no
bytecode is cached.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .grid import REPORT_SCHEMA, SolverError, build_grid, grid_problems

if TYPE_CHECKING:
    from .functionals import DecayReport
    from .oracle import FullField
    from .state import Params

RUN_MODES = ("ns", "ans", "stokes_only")
PROFILE_FAMILIES = ("poloidal", "file")
OUT_DIR_ENV = "CYLMODE_OUT"

# hard-invariant tolerances of the linear commands
STEADY_TOL = 1e-8
LEAKAGE_TOL = 1e-12
IDENTITY_TOL = 1e-4

# the report each command writes to its output directory
REPORT_FILES = {
    "simulate": "simulate_report.json",
    "stokes-test": "stokes_test_report.json",
    "linear-flow": "linear_flow_report.json",
    "inequality-scan": "inequality_scan.json",
    "oracle-compare": "oracle_compare.json",
    "decay-report": "decay_report.json",
}


class ConfigError(ValueError):
    """Carries every configuration problem found, not just the first."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


# -- configuration -------------------------------------------------------------

def _key(section: str, key: str, default):
    """A config field: its INI section and key and the value an absent key
    takes; the annotation (``float``, ``int`` or ``str``) is how it
    parses."""
    return dataclasses.field(
        metadata={"section": section, "key": key, "default": default})


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description; one INI file round-trips.

    Each field declares its own section, key and default.  nu's None
    default is resolved from the run mode during parsing and never survives
    into the dataclass.
    """

    nu: float = _key("params", "nu", None)
    N: int = _key("params", "N", 8)
    delta: float = _key("params", "delta", 0.0)
    eta: float = _key("params", "eta", 0.25)
    K: int = _key("params", "K", 3)
    m: int = _key("params", "m", 3)
    sigma: float = _key("params", "sigma", 0.4)
    small_eps: float = _key("params", "small_eps", 0.1)

    n_r: int = _key("grid", "n_r", 48)
    n_z: int = _key("grid", "n_z", 32)
    L_z: float = _key("grid", "L_z", 2.0 * math.pi)

    dt: float = _key("step", "dt", 1e-3)
    t_end: float = _key("step", "t_end", 0.1)
    step_scheme: str = _key("step", "scheme", "imex_euler")
    budget_every: int = _key("step", "budget_every", 1)

    profile_family: str = _key("profile", "family", "poloidal")
    profile_path: str = _key("profile", "path", "")
    amplitude: float = _key("profile", "amplitude", 1.0)
    z_waves: int = _key("profile", "z_waves", 1)

    mode: str = _key("run", "mode", "ns")
    out_dir: str = _key("run", "out_dir", "out")
    seed: int = _key("run", "seed", 0)

    scan_check: str = _key("scan", "check", "anisotropic")
    scan_family: str = _key("scan", "family", "")
    scan_trials: int = _key("scan", "trials", 100)
    scan_seed: int = _key("scan", "seed", -1)
    scan_p: float = _key("scan", "p", 4.0)
    scan_n_r: int = _key("scan", "n_r", 48)
    scan_n_theta: int = _key("scan", "n_theta", 64)
    scan_n_z: int = _key("scan", "n_z", 128)
    scan_period: float = _key("scan", "period", 2.0 * math.pi)

    oracle_n_theta: int = _key("oracle", "n_theta", 36)
    oracle_steps: int = _key("oracle", "n_steps", 10)
    oracle_dt: float = _key("oracle", "dt", 1e-3)
    oracle_tol: float = _key("oracle", "tol", 1e-2)

    history_path: str = _key("history", "path", "")

    def as_dict(self) -> dict:
        """Nested {section: {key: value}} mirror of the INI layout."""
        out: dict[str, dict] = {s: {} for s in _SECTIONS}
        for f in dataclasses.fields(self):
            out[f.metadata["section"]][f.metadata["key"]] = getattr(self, f.name)
        return out

    def params(self) -> Params:
        from .state import Params
        return Params(nu=self.nu, N=self.N, delta=self.delta, eta=self.eta,
                      K=self.K, m=self.m, sigma=self.sigma,
                      small_eps=self.small_eps)


_SECTIONS = tuple(dict.fromkeys(f.metadata["section"]
                                for f in dataclasses.fields(ExperimentConfig)))


def _parse_value(kind: str, text: str):
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text.strip()


def parse_config(text: str, command: str | None = None) -> ExperimentConfig:
    """Parse, resolve, and validate; raises ConfigError listing every problem."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive
    problems: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc

    fields = dataclasses.fields(ExperimentConfig)
    known = {(f.metadata["section"], f.metadata["key"]) for f in fields}
    for section in parser.sections():
        if section not in _SECTIONS:
            problems.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if (section, key) not in known:
                problems.append(f"unknown key {key!r} in section [{section}]")

    values: dict[str, object] = {}
    for f in fields:
        section, key = f.metadata["section"], f.metadata["key"]
        values[f.name] = f.metadata["default"]
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                values[f.name] = _parse_value(f.type, raw)
            except ValueError:
                problems.append(
                    f"[{section}] {key}: cannot parse {raw!r} as {f.type}")

    # the run mode pins the vertical-viscosity coefficient
    mode = values.get("mode")
    if values["nu"] is None:
        values["nu"] = 0.0 if mode == "ans" else 1.0
    elif mode == "ns" and values["nu"] != 1.0:
        problems.append("[params] nu must be 1 in mode 'ns' (or omit it)")
    elif mode == "ans" and values["nu"] != 0.0:
        problems.append("[params] nu must be 0 in mode 'ans' (or omit it)")

    cfg = ExperimentConfig(**values)  # type: ignore[arg-type]
    problems.extend(validate_config(cfg, command, set(parser.sections())))
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path: str, command: str | None = None) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError([f"config file not found: {path}"])
    return parse_config(p.read_text(encoding="utf-8"), command)


# the commands that read [params] and [step]
_READERS = {
    "params": ("simulate", "stokes-test", "linear-flow", "oracle-compare",
               "decay-report"),
    "step": ("simulate", "linear-flow"),
}


def _in_section(section: str, problems: list[str]) -> list[str]:
    return [f"[{section}] {problem}" for problem in problems]


def validate_config(cfg: ExperimentConfig, command: str | None = None,
                    sections: set[str] | None = None) -> list[str]:
    """Every violated constraint, cross-field ones included; only rules no
    library rule function owns are written here.

    ``sections`` names the sections the INI sets (None: all of them).  The
    ``[params]`` and ``[step]`` rules run when the command reads that
    section or the INI sets it.  Every default is valid, so a section the
    INI does not set cannot fail them; skipping them there spares
    ``inequality-scan`` loading ``state`` and ``stepper``.
    """
    def checked(section: str) -> bool:
        return (command is None or sections is None or section in sections
                or command in _READERS[section])

    bad = []
    if checked("params"):
        from .state import param_problems
        bad += _in_section("params", param_problems(
            cfg.nu, cfg.N, cfg.delta, cfg.eta, cfg.K, cfg.m, cfg.sigma,
            cfg.small_eps))
    bad += _in_section("grid", grid_problems(cfg.n_r, cfg.n_z, cfg.L_z))
    if checked("step"):
        from .stepper import step_problems
        bad += _in_section("step", step_problems(
            cfg.dt, cfg.t_end, cfg.step_scheme, cfg.budget_every))
    if cfg.profile_family not in PROFILE_FAMILIES:
        bad.append(f"[profile] family must be one of {PROFILE_FAMILIES}")
    if cfg.profile_family == "file" and not cfg.profile_path:
        bad.append("[profile] path is required when family = file")
    if not 0.0 < cfg.amplitude < math.inf:
        bad.append("[profile] amplitude must be positive and finite")
    if cfg.z_waves < 1:
        bad.append("[profile] z_waves must be >= 1")
    if cfg.mode not in RUN_MODES:
        bad.append(f"[run] mode must be one of {RUN_MODES}")
    if cfg.seed < 0:
        bad.append("[run] seed must be >= 0")
    if command == "linear-flow":
        from .stokes import linear_flow_problems
        bad += _in_section("params", linear_flow_problems(cfg.N))
    if command == "inequality-scan":
        from .inequalities import scan_problems
        bad += _in_section("scan", scan_problems(
            cfg.scan_check, cfg.scan_family or None, cfg.scan_trials,
            cfg.scan_p, cfg.scan_n_r, cfg.scan_n_theta, cfg.scan_n_z,
            cfg.scan_period))
        if cfg.scan_seed < 0:
            bad.append("[scan] seed is mandatory (a non-negative integer)")
    if command == "oracle-compare":
        from .oracle import n_theta_problems
        from .stepper import SCHEME_EULER, step_problems
        need = 3 * cfg.K * cfg.N
        if cfg.oracle_n_theta <= need:
            bad.append(
                f"[oracle] n_theta must exceed 3*K*N = {need} to resolve "
                "every retained harmonic without aliasing")
        bad += _in_section("oracle", n_theta_problems(cfg.oracle_n_theta))
        if cfg.oracle_steps < 1:
            bad.append("[oracle] n_steps must be >= 1")
        # the rule of the mode loop's StepConfig, whose t_end is n_steps * dt
        bad += _in_section("oracle", [
            problem + (" (t_end = n_steps * dt)"
                       if problem.startswith("t_end") else "")
            for problem in step_problems(
                cfg.oracle_dt, cfg.oracle_steps * cfg.oracle_dt,
                SCHEME_EULER, 1)])
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


def _initial_data(cfg: ExperimentConfig, grid, params: Params):
    """The configured profile and the mode-1 state it starts.

    A profile the solver cannot start from (a component that does not
    vanish at the wall) is an input error, not a solver failure.
    """
    from .state import make_initial_state, make_profile_divfree, \
        poloidal_profile
    components = (_file_components(cfg, grid)
                  if cfg.profile_family == "file" else None)
    try:
        if components is None:
            profile = poloidal_profile(grid, cfg.amplitude, cfg.z_waves)
        else:
            profile = make_profile_divfree(grid, *components)
        return profile, make_initial_state(profile, params)
    except ValueError as exc:
        raise ConfigError([f"[profile] {exc}"]) from exc


def _file_components(cfg: ExperimentConfig, grid) -> list[np.ndarray]:
    """The four free components ``a_r, a_z, b_r, b_z`` of the npz profile
    file, amplitude applied.  A file that is not an npz archive of finite
    arrays is an input error."""
    path = Path(cfg.profile_path)
    if not path.is_file():
        raise ConfigError([f"profile file not found: {cfg.profile_path}"])
    keys = ("a_r", "a_z", "b_r", "b_z")
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        with data:
            arrs = {k: np.asarray(data[k], dtype=float)
                    for k in keys if k in data}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError([f"[profile] cannot load {cfg.profile_path!r}: "
                           f"{exc}"]) from exc
    missing = [k for k in keys if k not in arrs]
    if missing:
        raise ConfigError(
            [f"profile file lacks arrays {missing}; expected a_r, a_z, "
             "b_r, b_z of shape (n_r, n_z)"])
    want = (grid.n_r, grid.n_z)
    if any(a.shape != want for a in arrs.values()):
        raise ConfigError(
            [f"profile arrays must have shape {want} to match the grid"])
    if not all(np.isfinite(a).all() for a in arrs.values()):
        raise ConfigError([f"[profile] {cfg.profile_path!r} holds non-finite "
                           "values"])
    return [cfg.amplitude * arrs[k] for k in keys]


def _decay_json_dict(rep: DecayReport, cfg: ExperimentConfig) -> dict:
    """The one decay-report JSON shape, shared by simulate and decay-report."""
    d = rep.to_json_dict()
    d["config"] = cfg.as_dict()
    d["code_version"] = _code_version()
    return d


# -- simulate ------------------------------------------------------------------

def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    from .functionals import save_history
    from .stepper import DIV_TOL, FLUX_TOL, MONOTONE_SLACK, RunSinks, \
        StepConfig, simulate_point
    grid = build_grid(cfg.n_r, cfg.n_z, cfg.L_z)
    profile, state = _initial_data(cfg, grid, cfg.params())
    step_cfg = StepConfig(dt=cfg.dt, t_end=cfg.t_end, scheme=cfg.step_scheme,
                          budget_every=cfg.budget_every,
                          nonlinear=cfg.mode in ("ns", "ans"))
    out_dir.mkdir(parents=True, exist_ok=True)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    point = simulate_point(profile, state, step_cfg, RunSinks(
        budget_csv=str(out_dir / "budgets.csv"),
        checkpoint_path=str(out_dir / "checkpoint.bin")))
    step_wall_s = time.perf_counter() - start
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
              - before.ru_minflt)
    save_history(point.history, str(out_dir / "history.npz"))
    _write_json(_decay_json_dict(point.decay, cfg),
                out_dir / REPORT_FILES["decay-report"])
    result, inv = point.run, point.invariants
    report = {**_report_base("simulate", cfg), "invariants": inv,
              "invariants_held": point.invariants_held,
              "energy": point.energy, "smallness": point.smallness,
              "decay": point.decay.to_json_dict(),
              "run": {"n_steps": result.n_steps, "aborted": result.aborted,
                      "reason": result.reason,
                      "final_time": result.state.t,
                      "snapshots": point.history.n_snapshots,
                      # informational: where the point's time and memory
                      # traffic went, not an invariant
                      "step_wall_s": step_wall_s,
                      "minor_page_faults": faults}}
    _write_json(report, out_dir / REPORT_FILES["simulate"])
    _say(quiet, _check_line("divergence", inv["divergence_ok"],
                            inv["divergence_residual"], DIV_TOL))
    if "flux_ok" in inv:
        _say(quiet, _check_line("quadratic flux", inv["flux_ok"],
                                inv["flux_residual"], FLUX_TOL))
    if "dissipative_ok" in inv:
        _say(quiet, _check_line("energy decay", inv["dissipative_ok"],
                                inv["energy_growth"], MONOTONE_SLACK))
    # the theorems assume small data; a run outside the gate is still run
    gates = ("ans_sum", "ans_geo") if cfg.nu == 0.0 else ("ns",)
    values = point.smallness["values"]
    _say(quiet, "smallness (informational): "
                + ", ".join(f"{g} {values[g]:.3e}" for g in gates)
                + f" against small_eps {cfg.small_eps:.1e}; "
                + ("inside" if point.smallness["satisfied"] else "outside")
                + " the theorem's gate")
    _say(quiet, f"{'completed' if inv['completed'] else 'ABORTED'}; "
                f"report: {out_dir / REPORT_FILES['simulate']}")
    return 0 if point.invariants_held else 1


# -- stokes-test ---------------------------------------------------------------

def cmd_stokes_test(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    from .state import divergence_residual, make_random_divfree_state
    from .stepper import MONOTONE_SLACK, energy_growth, mode_invariance_check
    from .stokes import StokesOpCache, apply_viscous_operator, \
        stokes_evolve, stokes_step
    grid = build_grid(cfg.n_r, cfg.n_z, cfg.L_z)
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
        growth = max(energy_growth(stokes_evolve(
            cache, state.u[k], 5.0, 5, k * params.N).energy)
            for k in range(params.K + 1))
        record(f"unconditional_decay_{tag}", growth, MONOTONE_SLACK)

        # forcing assembled from the discrete operator holds states steady;
        # smooth data keeps the solve's roundoff amplification near eps
        smooth = make_random_divfree_state(grid, params, seed=cfg.seed,
                                           amplitude=1.0, roughness=None)
        drifts = []
        for k in range(params.K + 1):
            k_eff = k * params.N
            m = smooth.u[k]
            f = apply_viscous_operator(grid, m, nu, k_eff)
            new, _ = stokes_step(cache, m, f, 1e-2, k_eff)
            drifts.append(np.max(np.abs(new - m)) / (np.max(np.abs(m)) or 1.0))
        record(f"steady_forcing_{tag}", np.max(drifts), STEADY_TOL)

        # discrete energy identity residual, normalized per step
        hist = stokes_evolve(cache, state.u[1], 1e-3, 10, params.N)
        record(f"energy_identity_{tag}",
               np.max(np.abs(hist.identity_residual))
               / max(hist.energy[0] / 1e-3, 1e-300), IDENTITY_TOL)

        # the implicit solve lands on the divergence-free constraint
        final = state.copy()
        for k in range(params.K + 1):
            final.u[k], final.p[k] = stokes_step(
                cache, final.u[k], None, 1e-2, k * params.N)
        record(f"divergence_{tag}", float(np.max(divergence_residual(final))),
               1e-10)

    ok = all(c["pass"] for c in checks.values())
    report = {**_report_base("stokes-test", cfg), "checks": checks,
              "invariants_held": ok}
    _write_json(report, out_dir / REPORT_FILES["stokes-test"])
    for name, c in checks.items():
        _say(quiet, _check_line(name, c["pass"], c["value"], c["tol"]))
    _say(quiet, f"report: {out_dir / REPORT_FILES['stokes-test']}")
    return 0 if ok else 1


# -- linear-flow ---------------------------------------------------------------

def cmd_linear_flow(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    from .stokes import linear_flow_uL
    grid = build_grid(cfg.n_r, cfg.n_z, cfg.L_z)
    params = cfg.params()
    profile, _ = _initial_data(cfg, grid, params)
    n_steps = int(round(cfg.t_end / cfg.dt))
    flow = linear_flow_uL(profile, params, cfg.dt, n_steps)
    finite = all(math.isfinite(v) for v in flow["ratio_sup"] + flow["ratio_dr"]
                 + flow["ratio_over_r"])
    ident_ok = flow["identity_residual_max"] <= IDENTITY_TOL
    ok = finite and ident_ok
    report = {**_report_base("linear-flow", cfg), "linear_flow": flow,
              "invariants": {"ratios_finite": finite, "identity_ok": ident_ok,
                             "identity_residual":
                                 flow["identity_residual_max"]},
              "invariants_held": ok}
    _write_json(report, out_dir / REPORT_FILES["linear-flow"])
    _say(quiet, _check_line("energy identity", ident_ok,
                            flow["identity_residual_max"], IDENTITY_TOL))
    _say(quiet, f"sup ratio j=0: {flow['ratio_sup'][0]:.4f}; "
                f"report: {out_dir / REPORT_FILES['linear-flow']}")
    return 0 if ok else 1


# -- inequality-scan -----------------------------------------------------------

def cmd_inequality_scan(cfg: ExperimentConfig, out_dir: Path,
                        quiet: bool) -> int:
    from .inequalities import POINCARE_BOUND, constant_scan
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
    _write_json(report, out_dir / REPORT_FILES["inequality-scan"])
    _say(quiet, _check_line("refinement stability", ok,
                            scan["refinement_delta"], 0.10))
    _say(quiet, f"max ratio {scan['max_ratio']:.4f}, median "
                f"{scan['median_ratio']:.4f}; "
                f"report: {out_dir / REPORT_FILES['inequality-scan']}")
    return 0 if ok else 1


# -- oracle-compare ------------------------------------------------------------

def _oracle_trajectory(cfg: ExperimentConfig, grid, params: Params,
                       state) -> FullField:
    """The oracle's steps from ``state``; its operator tables are freed on
    return, before the mode loop runs."""
    from .oracle import OracleOpCache, oracle_step, reconstruct_to_full
    from .stepper import mark_failure
    full = reconstruct_to_full(state, cfg.oracle_n_theta)
    cache = OracleOpCache(grid, cfg.oracle_n_theta, params.nu)
    for n in range(1, cfg.oracle_steps + 1):
        try:
            full = oracle_step(full, cfg.oracle_dt, cache)
        except SolverError as exc:
            mark_failure(exc, n, full.t)
            raise
    return full


def cmd_oracle_compare(cfg: ExperimentConfig, out_dir: Path,
                       quiet: bool) -> int:
    from .oracle import reconstruct_to_full, relative_l2
    from .stepper import SCHEME_EULER, StepConfig, run
    grid = build_grid(cfg.n_r, cfg.n_z, cfg.L_z)
    params = cfg.params()
    _, state = _initial_data(cfg, grid, params)

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    full = _oracle_trajectory(cfg, grid, params, state)
    oracle_wall_s = time.perf_counter() - start

    step_cfg = StepConfig(dt=cfg.oracle_dt,
                          t_end=cfg.oracle_steps * cfg.oracle_dt,
                          scheme=SCHEME_EULER, nonlinear=True)
    start = time.perf_counter()
    result = run(state, step_cfg)
    mode_wall_s = time.perf_counter() - start
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
              - before.ru_minflt)
    ref = reconstruct_to_full(result.state, cfg.oracle_n_theta)
    disc = relative_l2(full, ref)
    ok = disc <= cfg.oracle_tol

    report = {**_report_base("oracle-compare", cfg),
              "discrepancy": disc, "tol": cfg.oracle_tol,
              "n_steps": cfg.oracle_steps, "dt": cfg.oracle_dt,
              "n_theta": cfg.oracle_n_theta, "invariants_held": ok,
              # informational: where the two loops' time and memory
              # traffic went, not an invariant
              "run": {"oracle_wall_s": oracle_wall_s,
                      "mode_wall_s": mode_wall_s,
                      "minor_page_faults": faults}}
    _write_json(report, out_dir / REPORT_FILES["oracle-compare"])
    _say(quiet, _check_line("solver vs oracle", ok, disc, cfg.oracle_tol))
    _say(quiet, f"report: {out_dir / REPORT_FILES['oracle-compare']}")
    return 0 if ok else 1


# -- decay-report --------------------------------------------------------------

def cmd_decay_report(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    from .functionals import decay_report, load_history
    try:
        history = load_history(cfg.history_path)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ConfigError([f"[history] cannot load {cfg.history_path!r}: "
                           f"{exc}"]) from exc
    try:
        rep = decay_report(history, cfg.params())
    except ValueError as exc:  # an empty history, or another N or K
        raise ConfigError([f"[history] {cfg.history_path!r}: {exc}"]) from exc
    _write_json(_decay_json_dict(rep, cfg),
                out_dir / REPORT_FILES["decay-report"])
    _say(quiet, f"modes: {len(rep.per_mode)}, flags: {rep.pass_flags}; "
                f"report: {out_dir / REPORT_FILES['decay-report']}")
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
    try:
        return _COMMANDS[args.command](cfg, out_dir, args.quiet)
    except ConfigError as exc:
        for line in exc.problems:
            print(f"input error: {line}", file=sys.stderr)
        return 2
    except SolverError as exc:
        failure = {"type": type(exc).__name__, "message": str(exc)}
        where = ""
        if hasattr(exc, "step"):
            failure.update(step=exc.step, t=exc.t)
            where = f" (step {exc.step}, t = {exc.t:.6g})"
        print(f"run error: {failure['type']}: {failure['message']}{where}",
              file=sys.stderr)
        report = {**_report_base(args.command, cfg), "failure": failure,
                  "invariants_held": False}
        _write_json(report, out_dir / REPORT_FILES[args.command])
        return 1


if __name__ == "__main__":
    sys.exit(main())
