"""End-to-end checks of the command-line interface.

Commands are invoked in-process through ``cli.main`` with tiny grids so the
whole file runs in seconds.  Checks cover the config grammar (round-trip,
exhaustive validation), each subcommand's exit status and report artifacts,
and the cross-command determinism of the decay report.
"""

import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cylmode
from cylmode import cli, functionals, oracle, stepper, stokes
from cylmode.grid import CFLViolationError, SolverError
from cylmode.oracle import SingularBinError
from cylmode.stepper import DivergenceCleanupError, StepConfig, simulate_point
from cylmode.stokes import SingularOperatorError
from cylmode.cli import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    validate_config,
)
from cylmode.grid import build_grid
from cylmode.inequalities import constant_scan
from cylmode.oracle import OracleOpCache
from cylmode.state import poloidal_profile

ROOT = Path(__file__).resolve().parent.parent


def _ini(sections: dict) -> str:
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        for key, value in kv.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _small(**over) -> dict:
    base = {
        "params": {"N": 4, "eta": 0.2, "K": 2},
        "grid": {"n_r": 16, "n_z": 16},
        "step": {"dt": 0.002, "t_end": 0.01},
        "run": {"mode": "ns"},
    }
    for section, kv in over.items():
        base.setdefault(section, {}).update(kv)
    return base


def _save_npy(path: Path, arr: np.ndarray) -> None:
    """``arr`` in the ``.npy`` format under ``path``, whatever its suffix."""
    with path.open("wb") as fh:
        np.save(fh, arr)


def _write(tmp_path: Path, sections: dict, name: str = "exp.ini") -> str:
    path = tmp_path / name
    path.write_text(_ini(sections))
    return str(path)


class TestConfigGrammar:
    def test_round_trip_identity(self, tmp_path):
        # parse -> render the resolved sections -> parse is the identity
        path = _write(tmp_path, _small(
            step={"dt": 0.00125, "t_end": 0.01},
            profile={"amplitude": 0.37},
            history={"path": str(tmp_path / "h.npz")}))
        cfg = load_config(path)
        assert parse_config(_ini(cfg.as_dict())) == cfg

    def test_defaults_parse_clean(self):
        cfg = parse_config("")
        assert cfg.N == 8 and cfg.mode == "ns" and cfg.nu == 1.0
        # written out in cli, which does not load stepper to parse
        assert cfg.step_scheme == stepper.SCHEME_EULER

    def test_each_field_declares_its_key_once(self):
        fields = dataclasses.fields(ExperimentConfig)
        keys = [(f.metadata["section"], f.metadata["key"]) for f in fields]
        assert len(set(keys)) == len(keys)
        cfg = parse_config("")
        for f in fields:
            assert f.type in ("float", "int", "str")
            if f.name != "nu":  # resolved from the run mode
                assert getattr(cfg, f.name) == f.metadata["default"]
        assert validate_config(cfg) == []

    def test_readme_grammar_lists_every_key(self):
        # the keys of the README's grammar block, each section's comment
        # joined over its lines, are exactly those the parser declares
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"### Config grammar\n.*?```ini\n(.*?)```", text,
                          re.S).group(1)
        comments: dict[str, str] = {}
        for line in block.splitlines():
            head = re.match(r"\[(\w+)\]", line)
            if head:
                section = head.group(1)
            comments[section] = (comments.get(section, "") + " "
                                 + line.split("#", 1)[1])
        documented = {(section, key.strip())
                      for section, comment in comments.items()
                      for key in re.sub(r"\([^)]*\)", "", comment).split(",")}
        declared = {(f.metadata["section"], f.metadata["key"])
                    for f in dataclasses.fields(ExperimentConfig)}
        assert documented == declared

    def test_unknown_section_and_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[nosuch]\nx = 1\n\n[params]\nbogus = 2\n")
        text = str(err.value)
        assert "unknown section" in text
        assert "bogus" in text

    def test_all_problems_listed(self):
        # validation must be exhaustive, not first-error-wins
        with pytest.raises(ConfigError) as err:
            parse_config("[params]\nN = 1\ndelta = 0.9\nK = 0\n")
        assert len(err.value.problems) >= 3

    def test_nu_resolved_from_mode(self):
        assert parse_config("[run]\nmode = ans\n").nu == 0.0
        assert parse_config("[run]\nmode = ns\n").nu == 1.0
        with pytest.raises(ConfigError, match="nu"):
            parse_config("[params]\nnu = 0.0\n\n[run]\nmode = ns\n")

    def test_bad_literal_reported_with_location(self):
        with pytest.raises(ConfigError, match=r"\[step\] dt"):
            parse_config("[step]\ndt = fast\n")

    def test_scan_seed_mandatory(self):
        cfg = parse_config("[scan]\ntrials = 5\n")
        bad = validate_config(cfg, command="inequality-scan")
        assert any("seed" in b for b in bad)

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--config", str(tmp_path / "nope.ini")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("grid", "scheme", "chebyshev_gauss_lobatto_mapped"),
        ("grid", "scheme", "uniform_fd2"),
        ("reports", "budgets", "true"),
        ("reports", "history", "true"),
        ("reports", "decay", "true"),
        ("reports", "mixed", "false"),
        ("run", "snapshot_every", "2"),
        ("run", "compare_N", "8"),
        ("step", "cfl_safety", "0.9"),
        ("step", "div_tol", "1e-9"),
    ])
    def test_removed_keys_exit_2(self, tmp_path, capsys, section, key, value):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(**{section: {key: value}}))
        rc = cli.main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines and all(line.startswith("config error: ")
                             for line in lines)
        assert any(f"[{section}]" in line for line in lines)
        assert not out.exists()

    # configs that validation once let through to a traceback from the
    # library, for an infinite period to a passing scan of zeros, for an
    # infinite amplitude to a run of an all-NaN state, and for an infinite
    # oracle dt to the mode loop's StepConfig after the oracle's steps
    @pytest.mark.parametrize("command,section,over", [
        ("inequality-scan", "scan",
         {"scan": {"check": "anisotropic", "p": 8, "seed": 1}}),
        ("inequality-scan", "scan",
         {"scan": {"check": "isotropic", "p": "inf", "seed": 1}}),
        ("inequality-scan", "scan",
         {"scan": {"check": "vertical", "family": "poly_trig", "seed": 1}}),
        ("simulate", "step", {"step": {"t_end": "nan"}}),
        ("simulate", "step", {"step": {"t_end": "inf"}}),
        ("stokes-test", "run", {"run": {"seed": -1}}),
        ("simulate", "step", {"step": {"dt": "1e-310", "t_end": 1}}),
        ("inequality-scan", "scan",
         {"scan": {"check": "vertical", "period": "inf", "seed": 1}}),
        ("simulate", "profile", {"profile": {"amplitude": "inf"}}),
        ("oracle-compare", "oracle",
         {"oracle": {"n_theta": 28, "n_steps": 2, "dt": "inf"}}),
    ], ids=["anisotropic-p8", "isotropic-pinf", "vertical-poly_trig",
            "t_end-nan", "t_end-inf", "run-seed-negative",
            "step-count-overflow", "period-inf", "amplitude-inf",
            "oracle-dt-inf"])
    def test_library_rule_is_a_config_error(self, tmp_path, capsys, command,
                                            section, over):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(**over))
        rc = cli.main([command, "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert lines and all(line.startswith(f"config error: [{section}] ")
                             for line in lines)
        assert not out.exists()

    # one bad value per rule group: (config sections, constructor call)
    CONSTRUCTOR_CASES = [
        ({"grid": {"n_z": 7}}, "simulate",
         lambda: build_grid(16, 7, 2.0 * math.pi)),
        ({"step": {"t_end": "nan"}}, "simulate",
         lambda: StepConfig(dt=0.002, t_end=math.nan)),
        ({"scan": {"check": "anisotropic", "p": 8, "seed": 1}},
         "inequality-scan",
         lambda: constant_scan(None, "anisotropic", 100, 1, p=8.0)),
        ({"oracle": {"n_theta": 29}}, "oracle-compare",
         lambda: OracleOpCache(build_grid(16, 16, 2.0 * math.pi), 29, 1.0)),
    ]

    @pytest.mark.parametrize("over,command,construct", CONSTRUCTOR_CASES,
                             ids=["grid", "step", "scan", "oracle"])
    def test_constructor_and_cli_share_rule_text(self, over, command,
                                                 construct):
        section = next(iter(over))
        with pytest.raises(ConfigError) as cli_err:
            parse_config(_ini(_small(**over)), command)
        with pytest.raises(ValueError) as lib_err:
            construct()
        assert cli_err.value.problems == [f"[{section}] {lib_err.value}"]

    def test_linear_flow_is_not_a_run_mode(self, tmp_path, capsys):
        path = _write(tmp_path, _small(run={"mode": "linear_flow"}))
        rc = cli.main(["simulate", "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: [run] mode must be one of" in \
            capsys.readouterr().err


def _demo_configs():
    """(path, command) of every demo config, from its ``Usage:`` line."""
    out = []
    for path in sorted((ROOT / "demos" / "configs").glob("*.ini")):
        usage = re.search(r"Usage: cylmode (\S+) --config", path.read_text())
        out.append((path, usage.group(1) if usage else None))
    return out


def _bench_configs():
    """(path, command) of every benchmark config, from the workload table
    of ``perfbench/run.py``."""
    commands = {config: command for command, config in
                re.findall(r'Workload\("([\w-]+)", "([\w.]+)"',
                           (ROOT / "perfbench" / "run.py").read_text())}
    return [(path, commands.get(path.name)) for path in
            sorted((ROOT / "perfbench" / "configs").glob("*.ini"))]


@pytest.mark.parametrize("path,command", _demo_configs() + _bench_configs(),
                         ids=lambda v: str(v.relative_to(ROOT))
                         if isinstance(v, Path) else v)
def test_shipped_config_parses(path, command):
    assert command in cli.REPORT_FILES, f"no command found for {path}"
    load_config(str(path), command=command)


class TestSimulate:
    def test_ns_run_invariants_and_artifacts(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, _small())
        rc = cli.main(["simulate", "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 0
        rep = json.loads((out / "simulate_report.json").read_text())
        inv = rep["invariants"]
        assert inv["completed"] and inv["divergence_ok"] and inv["flux_ok"]
        assert rep["invariants_held"] is True
        assert rep["config"]["params"]["N"] == 4
        assert len(rep["code_version"]) == 16
        # informational cost of the point, not an invariant
        assert rep["run"]["step_wall_s"] > 0.0
        assert isinstance(rep["run"]["minor_page_faults"], int)
        assert rep["run"]["minor_page_faults"] >= 0
        for artifact in ("budgets.csv", "checkpoint.bin", "history.npz",
                         "decay_report.json"):
            assert (out / artifact).is_file()

    def test_t_end_zero_reports_initial_functionals(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(step={"dt": 0.002, "t_end": 0.0},
                                       run={"mode": "stokes_only"}))
        rc = cli.main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "simulate_report.json").read_text())
        assert rep["run"]["n_steps"] == 0
        assert rep["run"]["snapshots"] == 1
        # with no steps the report carries the t = 0 functionals only
        assert rep["energy"]["initial"] == rep["energy"]["final"]
        assert rep["energy"]["initial"]["E0"] > 0.0

    def test_stokes_only_no_cascade(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(run={"mode": "stokes_only"},
                                       step={"dt": 0.002, "t_end": 0.02}))
        rc = cli.main(["simulate", "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 0
        rep = json.loads((out / "simulate_report.json").read_text())
        meta = rep["decay"]["metadata"]
        # the linear solve must not populate harmonics beyond the initial one
        assert meta["cascade"] is False
        assert meta["truncation_leakage"] <= 1e-12
        assert rep["invariants"]["dissipative_ok"]

    def test_nu_out_of_range_is_a_config_error(self, tmp_path, capsys):
        # the parameter ranges are those of Params: nu lies in [0, 1]
        out = tmp_path / "out"
        path = _write(tmp_path, _small(params={"nu": 2.0},
                                       run={"mode": "stokes_only"}))
        rc = cli.main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: [params] nu must lie in [0, 1]" in err
        assert "Traceback" not in err
        assert not (out / "simulate_report.json").exists()

    def test_simulate_point_matches_report(self, tmp_path):
        # the command writes what simulate_point measures, nothing else
        out = tmp_path / "out"
        path = _write(tmp_path, _small())
        assert cli.main(["simulate", "--config", path, "--out", str(out),
                         "--quiet"]) == 0
        rep = json.loads((out / "simulate_report.json").read_text())
        cfg = load_config(path)
        grid = cli.build_grid(cfg.n_r, cfg.n_z, cfg.L_z)
        profile, state = cli._initial_data(cfg, grid, cfg.params())
        point = simulate_point(profile, state, StepConfig(
            dt=cfg.dt, t_end=cfg.t_end, scheme=cfg.step_scheme,
            budget_every=cfg.budget_every, nonlinear=True))
        assert point.energy == rep["energy"]
        assert point.invariants == rep["invariants"]
        assert point.invariants_held is rep["invariants_held"] is True
        assert point.decay.per_mode == rep["decay"]["per_mode"]

    def test_ans_outside_gate_is_informational(self, tmp_path, capsys):
        # a run outside the theorem's smallness gate still exits 0 and
        # says so on one line that is not a PASS/FAIL check
        out = tmp_path / "out"
        path = _write(tmp_path, _small(run={"mode": "ans"},
                                       step={"dt": 0.002, "t_end": 0.004}))
        assert cli.main(["simulate", "--config", path, "--out",
                         str(out)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("smallness")]
        assert len(lines) == 1
        assert "ans_sum" in lines[0] and "ans_geo" in lines[0]
        assert lines[0].endswith("outside the theorem's gate")
        rep = json.loads((out / "simulate_report.json").read_text())
        assert rep["smallness"]["satisfied"] is False
        assert rep["invariants_held"] is True

    def test_ns_populates_higher_harmonics(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(step={"dt": 0.002, "t_end": 0.02}))
        assert cli.main(["simulate", "--config", path, "--out", str(out),
                         "--quiet"]) == 0
        rep = json.loads((out / "simulate_report.json").read_text())
        assert rep["decay"]["metadata"]["cascade"] is True

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_out))
        path = _write(tmp_path, _small(step={"dt": 0.002, "t_end": 0.0}))
        assert cli.main(["simulate", "--config", path, "--quiet"]) == 0
        assert (env_out / "simulate_report.json").is_file()

    def test_flag_beats_env_and_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env_out"))
        flag_out = tmp_path / "flag_out"
        path = _write(tmp_path, _small(step={"dt": 0.002, "t_end": 0.0}))
        assert cli.main(["simulate", "--config", path, "--out",
                         str(flag_out), "--quiet"]) == 0
        assert (flag_out / "simulate_report.json").is_file()
        assert not (tmp_path / "env_out").exists()

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(step={"dt": 0.002, "t_end": 0.0}))
        cli.main(["simulate", "--config", path, "--out", str(out), "--quiet"])
        assert capsys.readouterr().out == ""


def test_poloidal_family_is_the_state_profile(tmp_path):
    path = _write(tmp_path, _small(profile={"amplitude": 0.3,
                                            "z_waves": 2}))
    cfg = load_config(path)
    grid = cli.build_grid(cfg.n_r, cfg.n_z, cfg.L_z)
    profile, _ = cli._initial_data(cfg, grid, cfg.params())
    want = poloidal_profile(grid, 0.3, 2)
    for got, ref in zip(profile.fields(), want.fields()):
        assert got.tobytes() == ref.tobytes()


class TestProfileInputErrors:
    """A profile the solver cannot start from exits 2 with no report."""

    # (wall factor of a_r, what fails): a_r itself not vanishing at the
    # wall, then a single zero that leaves the derived swirl nonzero there
    PROFILES = [(lambda r: r, "a_r does not vanish"),
                (lambda r: r * (1.0 - r**2), "vth does not vanish")]

    @pytest.mark.parametrize("command",
                             ["simulate", "linear-flow", "oracle-compare"])
    @pytest.mark.parametrize("radial,message", PROFILES,
                             ids=["a_r-at-wall", "single-zero"])
    def test_exit_2_without_report(self, tmp_path, capsys, command, radial,
                                   message):
        grid = cli.build_grid(16, 16, 2.0 * math.pi)
        a_r = radial(grid.r)[:, None] * np.sin(grid.z)[None, :]
        zero = np.zeros_like(a_r)
        npz = tmp_path / "profile.npz"
        np.savez(npz, a_r=a_r, a_z=zero, b_r=zero, b_z=zero)
        out = tmp_path / "out"
        path = _write(tmp_path, _small(profile={"family": "file",
                                                "path": str(npz)}))
        rc = cli.main([command, "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: [profile] ")
        assert message in err
        assert "Traceback" not in err
        assert not (out / cli.REPORT_FILES[command]).exists()
        assert not out.exists()

    @pytest.mark.parametrize("write", [
        lambda p: p.write_bytes(b"not an npz file"),
        lambda p: _save_npy(p, np.zeros((16, 16))),
        lambda p: np.savez(p, a_r=np.full((16, 16), np.nan),
                           **{k: np.zeros((16, 16))
                              for k in ("a_z", "b_r", "b_z")}),
    ], ids=["text", "npy", "nan"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, write):
        # a file that is not an npz archive of finite arrays is refused
        # before any step, not a traceback or a report of nan residuals
        bad = tmp_path / "profile.npz"
        write(bad)
        out = tmp_path / "out"
        path = _write(tmp_path, _small(profile={"family": "file",
                                                "path": str(bad)}))
        rc = cli.main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: [profile] ")
        assert "Traceback" not in err
        assert not (out / cli.REPORT_FILES["simulate"]).exists()


class TestStokesTestCommand:
    def test_battery_all_pass(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, _small())
        rc = cli.main(["stokes-test", "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 0
        rep = json.loads((out / "stokes_test_report.json").read_text())
        assert rep["invariants_held"] is True
        names = set(rep["checks"])
        for tag in ("nu1", "nu0"):
            for stem in ("harmonic_invariance", "unconditional_decay",
                         "steady_forcing", "energy_identity", "divergence"):
                assert f"{stem}_{tag}" in names
        for c in rep["checks"].values():
            assert c["pass"] and c["value"] <= c["tol"]


    def test_nan_solver_fails_every_check(self, tmp_path, monkeypatch):
        # a solver returning NaN must not read as a passing check: running
        # maxima and leakage ratios have to carry the NaN to a FAIL
        def nan_step(cache, u, forcing, dt, k_eff, diffusion=True):
            return (np.full_like(u, np.nan),
                    np.full((2,) + u.shape[1:], np.nan))

        # the commands import stokes_step from stokes when they run
        for module in (stokes, stepper):
            monkeypatch.setattr(module, "stokes_step", nan_step)
        path = _write(tmp_path, _small())
        out = tmp_path / "out"
        rc = cli.main(["stokes-test", "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 1
        rep = json.loads((out / "stokes_test_report.json").read_text())
        assert len(rep["checks"]) == 10
        assert [n for n, c in rep["checks"].items() if c["pass"]] == []
        rc = cli.main(["linear-flow", "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 1
        rep = json.loads((out / "linear_flow_report.json").read_text())
        assert rep["invariants"]["identity_ok"] is False


class TestLinearFlowCommand:
    def test_ratios_and_identity(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(
            params={"N": 4, "eta": 0.2, "K": 2, "delta": 0.1}))
        rc = cli.main(["linear-flow", "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 0
        rep = json.loads((out / "linear_flow_report.json").read_text())
        flow = rep["linear_flow"]
        assert len(flow["ratio_sup"]) == 4  # orders j = 0 .. m
        assert all(math.isfinite(v) and v >= 0.0 for v in flow["ratio_sup"])
        assert rep["invariants"]["identity_ok"]
        assert rep["invariants_held"] is True

    def test_requires_three_fold_symmetry(self, tmp_path, capsys):
        path = _write(tmp_path, _small(params={"N": 2, "eta": 0.2, "K": 2}))
        rc = cli.main(["linear-flow", "--config", path])
        assert rc == 2
        assert "N >= 3" in capsys.readouterr().err

    def test_base_wavenumber_rule_prints_under_params(self, tmp_path,
                                                       capsys):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(params={"N": 2, "eta": 0.2, "K": 2}))
        rc = cli.main(["linear-flow", "--config", path, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: [params] {text}"
            for text in stokes.linear_flow_problems(2)]
        assert not out.exists()


class TestInequalityScanCommand:
    def test_scan_report_written(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, {
            "scan": {"check": "radial_quartic", "trials": 8, "seed": 3,
                     "n_r": 24, "n_theta": 16}})
        rc = cli.main(["inequality-scan", "--config", path, "--out",
                       str(out), "--quiet"])
        assert rc == 0
        rep = json.loads((out / "inequality_scan.json").read_text())
        assert rep["check"] == "radial_quartic"
        assert rep["trials"] == 8 and rep["seed"] == 3
        assert rep["refinement_delta"] <= 0.10
        assert rep["scan_schema"] == "cylmode-ineq-scan-v1"
        assert rep["schema"] == "cylmode-report-v1"
        assert rep["invariants_held"] is True

    def test_zero_trials_is_a_config_error(self, tmp_path, capsys):
        path = _write(tmp_path, {"scan": {"trials": 0, "seed": 1}})
        rc = cli.main(["inequality-scan", "--config", path])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    def test_missing_seed_is_a_config_error(self, tmp_path, capsys):
        path = _write(tmp_path, {"scan": {"trials": 5}})
        rc = cli.main(["inequality-scan", "--config", path])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    # a scan reads neither [params] nor [step]; an INI that sets them is
    # still checked against their rules
    @pytest.mark.parametrize("over,line", [
        ({"params": {"N": 1}}, "[params] N must be an integer >= 2, got 1"),
        ({"step": {"dt": -1}}, "[step] dt must be positive"),
    ], ids=["params", "step"])
    def test_unread_section_is_still_validated(self, tmp_path, capsys, over,
                                               line):
        out = tmp_path / "out"
        path = _write(tmp_path, {"scan": {"check": "anisotropic", "trials": 4,
                                          "seed": 3}, **over})
        rc = cli.main(["inequality-scan", "--config", path, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not out.exists()


class TestOracleCompareCommand:
    def test_mode_solver_tracks_reference(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(
            profile={"amplitude": 0.3},
            oracle={"n_theta": 28, "n_steps": 3, "dt": 0.001, "tol": 0.01}))
        rc = cli.main(["oracle-compare", "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 0
        rep = json.loads((out / "oracle_compare.json").read_text())
        assert rep["invariants_held"] is True
        assert 0.0 <= rep["discrepancy"] <= rep["tol"]
        # informational timings and faults of the two loops, no *_ok name
        run = rep["run"]
        assert set(run) == {"oracle_wall_s", "mode_wall_s",
                            "minor_page_faults"}
        assert run["oracle_wall_s"] > 0.0 and run["mode_wall_s"] > 0.0
        assert isinstance(run["minor_page_faults"], int)
        assert run["minor_page_faults"] >= 0

    def test_unresolvable_truncation_rejected(self, tmp_path, capsys):
        # n_theta = 20 cannot resolve 3*K*N = 24 azimuthal content
        path = _write(tmp_path, _small(oracle={"n_theta": 20}))
        rc = cli.main(["oracle-compare", "--config", path])
        assert rc == 2
        assert "n_theta" in capsys.readouterr().err


class TestDecayReportCommand:
    def test_identical_to_in_run_report(self, tmp_path):
        out = tmp_path / "sim_out"
        sections = _small(history={"path": str(out / "history.npz")})
        path = _write(tmp_path, sections)
        assert cli.main(["simulate", "--config", path, "--out", str(out),
                         "--quiet"]) == 0
        re_out = tmp_path / "re_out"
        assert cli.main(["decay-report", "--config", path, "--out",
                         str(re_out), "--quiet"]) == 0
        first = (out / "decay_report.json").read_bytes()
        second = (re_out / "decay_report.json").read_bytes()
        assert first == second

    def test_missing_history_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(
            history={"path": str(tmp_path / "ghost.npz")}))
        rc = cli.main(["decay-report", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: [history] ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("write", [
        lambda p: p.write_bytes(b"not an npz file"),
        lambda p: p.write_bytes(b"PK\x03\x04 truncated"),
        lambda p: np.savez(p, times=np.zeros(2)),
        lambda p: _save_npy(p, np.zeros(2)),
    ], ids=["text", "truncated_zip", "no_meta", "npy"])
    def test_unreadable_history_exits_2(self, tmp_path, capsys, write):
        bad = tmp_path / "bad.npz"
        write(bad)
        out = tmp_path / "out"
        path = _write(tmp_path, _small(history={"path": str(bad)}))
        rc = cli.main(["decay-report", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: [history] ")
        assert "Traceback" not in err
        assert not out.exists()

    def _refused(self, tmp_path, capsys, history: str, **over) -> str:
        """The stderr of a decay-report of ``history``, with the config
        sections ``over`` changed, that exits 2 and writes no report."""
        out = tmp_path / "out"
        path = _write(tmp_path, _small(history={"path": history}, **over),
                      name="report.ini")
        rc = cli.main(["decay-report", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: [history] ")
        assert "Traceback" not in err
        assert not out.exists()
        return err

    def test_history_of_another_run_exits_2(self, tmp_path, capsys):
        # a history written at N = 8, K = 3 is not reported at N = 4, K = 2
        out = tmp_path / "sim_out"
        path = _write(tmp_path, _small(params={"N": 8, "K": 3}))
        assert cli.main(["simulate", "--config", path, "--out", str(out),
                         "--quiet"]) == 0
        err = self._refused(tmp_path, capsys, str(out / "history.npz"),
                            params={"N": 4, "K": 2})
        assert "N = 8, K = 3" in err and "N = 4, K = 2" in err

    def test_empty_history_exits_2(self, tmp_path, capsys):
        empty = str(tmp_path / "empty.npz")
        functionals.save_history(functionals.EnergyHistory(), empty)
        assert "history is empty" in self._refused(tmp_path, capsys, empty)

    def test_history_of_another_order_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sim_out"
        assert cli.main(["simulate", "--config", _write(tmp_path, _small()),
                         "--out", str(out), "--quiet"]) == 0
        with np.load(out / "history.npz") as data:
            arrays = dict(data)
        meta = json.loads(str(arrays.pop("meta")))
        other = str(tmp_path / "j2.npz")
        np.savez(other, meta=json.dumps({**meta, "j_max": 2}), **arrays)
        assert "j_max = 2" in self._refused(tmp_path, capsys, other)

    def test_per_scalar_history_exits_2(self, tmp_path, capsys):
        # a file in the older layout, one member per scalar series with its
        # running integral beside it, holds none of the channel arrays
        out = tmp_path / "sim_out"
        assert cli.main(["simulate", "--config", _write(tmp_path, _small()),
                         "--out", str(out), "--quiet"]) == 0
        with np.load(out / "history.npz") as data:
            meta = json.loads(str(data["meta"]))
        hist = functionals.load_history(str(out / "history.npz"))
        old = {"meta": json.dumps({**meta, "error_estimate": 1e-6}),
               "times": np.asarray(hist.times)}
        for k in range(hist.K + 1):
            for j in range(hist.j_max + 1):
                series = [(f"{name}_{j}_{k}", name, (..., j, k))
                          for name in functionals.CHANNELS[:4]]
                if k == 0:
                    series.append((f"axis_pair_{j}", "axis_pair", (..., j)))
                for member, name, at in series:
                    old[f"v_{member}"] = hist.values(name)[at]
                    old[f"i_{member}"] = hist.integrals(name)[at]
        path = str(tmp_path / "per_scalar.npz")
        np.savez(path, **old)
        err = self._refused(tmp_path, capsys, path)
        assert err.count("\n") == 1
        assert err.endswith("history lacks channels inst, grad, dr, over_r, "
                            "axis_pair\n")

    def test_history_of_another_regime_exits_2(self, tmp_path, capsys):
        # an ns history is not reported with the D-regime bounds of ans
        out = tmp_path / "sim_out"
        assert cli.main(["simulate", "--config", _write(tmp_path, _small()),
                         "--out", str(out), "--quiet"]) == 0
        history = out / "history.npz"
        with np.load(history) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays.pop("meta")))
        assert {key: meta[key] for key in functionals.REGIME_KEYS} == {
            "nu": 1.0, "eta": 0.2, "delta": 0.0, "m": 3, "sigma": 0.4}
        err = self._refused(tmp_path, capsys, str(history),
                            run={"mode": "ans"})
        assert err.endswith("history was written at nu = 1.0; the "
                            "parameters give nu = 0.0\n")
        # a file written without the keys is reported as asked, as before
        old = str(tmp_path / "old.npz")
        np.savez(old, meta=json.dumps(
            {k: v for k, v in meta.items()
             if k not in functionals.REGIME_KEYS}), **arrays)
        path = _write(tmp_path, _small(run={"mode": "ans"},
                                       history={"path": old}), name="old.ini")
        rc = cli.main(["decay-report", "--config", path,
                       "--out", str(tmp_path / "old_out"), "--quiet"])
        assert rc == 0


class TestSolverFailures:
    """A solver error leaves the command's report and exits 1."""

    def test_solver_error_family(self):
        # the failures that leave a report are exactly these four, so a new
        # solver error cannot skip the report and no other error joins it
        for module in pkgutil.iter_modules(cylmode.__path__):
            importlib.import_module(f"cylmode.{module.name}")
        family, todo = set(), [SolverError]
        while todo:
            for sub in todo.pop().__subclasses__():
                if sub.__module__.startswith("cylmode."):
                    family.add(sub)
                    todo.append(sub)
        assert family == {CFLViolationError, DivergenceCleanupError,
                          SingularOperatorError, SingularBinError}

    # simulate runs through stepper.simulate_point, which calls stepper.run;
    # an error from inside a time loop also carries its step and time.  The
    # commands import their solver functions when they run, so a patch of
    # the defining module reaches them
    CASES = [
        ("simulate", stepper, "run", CFLViolationError, {}),
        ("simulate", stepper, "run", DivergenceCleanupError, {}),
        ("stokes-test", stepper, "mode_invariance_check",
         SingularOperatorError, {}),
        ("oracle-compare", oracle, "oracle_step", SingularBinError,
         {"step": 1, "t": 0.0}),
    ]

    @pytest.mark.parametrize("command,module,target,error,where", CASES,
                             ids=[c[3].__name__ for c in CASES])
    def test_failure_report_and_exit_1(self, tmp_path, monkeypatch, capsys,
                                       command, module, target, error,
                                       where):
        def fail(*args, **kwargs):
            raise error("injected at step 3")

        monkeypatch.setattr(module, target, fail)
        out = tmp_path / "out"
        path = _write(tmp_path, _small(
            oracle={"n_theta": 28, "n_steps": 3, "dt": 0.001}))
        rc = cli.main([command, "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 1
        name = error.__name__
        suffix = " (step 1, t = 0)" if where else ""
        assert capsys.readouterr().err == \
            f"run error: {name}: injected at step 3{suffix}\n"
        rep = json.loads((out / cli.REPORT_FILES[command]).read_text())
        assert rep["failure"] == {"type": name,
                                  "message": "injected at step 3", **where}
        assert rep["invariants_held"] is False
        assert rep["command"] == command
        assert rep["schema"] == "cylmode-report-v1"
        assert rep["code_version"] == cli._code_version()

    # the real step, failing on its third call with each error a step can
    # raise
    IN_LOOP = [
        ("simulate", stepper, "step", CFLViolationError, 0.002),
        ("simulate", stepper, "step", DivergenceCleanupError, 0.002),
        ("simulate", stepper, "step", SingularOperatorError, 0.002),
        ("oracle-compare", oracle, "oracle_step", SingularBinError, 0.001),
    ]

    @pytest.mark.parametrize("command,module,target,error,dt", IN_LOOP,
                             ids=[c[3].__name__ for c in IN_LOOP])
    def test_failure_carries_step_and_time(self, tmp_path, monkeypatch,
                                           capsys, command, module, target,
                                           error, dt):
        real = getattr(module, target)
        calls = []

        def third_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise error("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, target, third_fails)
        out = tmp_path / "out"
        path = _write(tmp_path, _small(
            step={"dt": dt, "t_end": 5 * dt},
            oracle={"n_theta": 28, "n_steps": 5, "dt": dt}))
        rc = cli.main([command, "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 1
        assert len(calls) == 3
        rep = json.loads((out / cli.REPORT_FILES[command]).read_text())
        # the third step failed from the state the second one left
        assert rep["failure"] == {"type": error.__name__,
                                  "message": "injected", "step": 3,
                                  "t": pytest.approx(2 * dt, rel=1e-14)}
        assert rep["invariants_held"] is False
        assert capsys.readouterr().err == (
            f"run error: {error.__name__}: injected "
            f"(step 3, t = {2 * dt:.6g})\n")


class TestEntryPoint:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_config_flag_required(self):
        with pytest.raises(SystemExit):
            cli.main(["simulate"])

    def test_code_version_is_stable(self):
        assert cli._code_version() == cli._code_version()
        int(cli._code_version(), 16)

    def test_import_loads_no_scipy(self):
        # scipy.linalg alone costs more start-up than the rest of the
        # package; the package solves with numpy and must not import it
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import importlib, pkgutil, sys, cylmode\n"
             "for m in pkgutil.iter_modules(cylmode.__path__):\n"
             "    importlib.import_module(f'cylmode.{m.name}')\n"
             "print(sorted(m for m in sys.modules if m == 'scipy' or "
             "m.startswith('scipy.')))"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # A process compiles every module it imports when no bytecode is
    # cached, so each command loads only the package modules it runs: the
    # modules it loads exactly (or None), and those it must not load.  No
    # command loads numpy.ma, which np.median imports on its first call
    # (about 15 ms); the reports take their medians from grid.median.
    # simulate draws no random numbers, and the Stokes probes come from
    # their own stream, so it does not load numpy.random (about 13 ms).
    STARTUP = [
        ("inequality-scan", {"cylmode", "cylmode.cli", "cylmode.grid",
                             "cylmode.inequalities"}, set()),
        ("simulate", None, {"cylmode.oracle", "cylmode.inequalities",
                            "numpy.random"}),
        ("oracle-compare", None, {"cylmode.inequalities"}),
        ("stokes-test", None, set()),
        ("linear-flow", None, set()),
        ("decay-report", None, set()),
    ]

    @pytest.mark.parametrize("command,exact,absent", STARTUP,
                             ids=[c[0] for c in STARTUP])
    def test_command_loads_only_what_it_runs(self, tmp_path, command, exact,
                                             absent):
        sections = _small(oracle={"n_theta": 28, "n_steps": 2, "dt": 0.001})
        if command == "inequality-scan":
            sections = {"scan": {"check": "anisotropic", "trials": 8,
                                 "seed": 3}}
        elif command == "decay-report":
            history = tmp_path / "sim"
            assert cli.main(["simulate", "--config", _write(tmp_path, _small()),
                             "--out", str(history), "--quiet"]) == 0
            sections["history"] = {"path": str(history / "history.npz")}
        path = _write(tmp_path, sections, "startup.ini")
        args = [command, "--config", path, "--out", str(tmp_path / "out"),
                "--quiet"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys\n"
             "from cylmode.cli import main\n"
             f"code = main({args!r})\n"
             "print(json.dumps([code, sorted(m for m in sys.modules if m == "
             "'cylmode' or m.startswith('cylmode.')), [m for m in "
             "('numpy.ma', 'numpy.random') if m in sys.modules]]))"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        code, modules, numpy_modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        if exact is not None:
            assert set(modules) == exact
        assert absent.isdisjoint(modules + numpy_modules)
        assert "numpy.ma" not in numpy_modules
