"""End-to-end checks of the command-line interface.

Commands are invoked in-process through ``cli.main`` with tiny grids so the
whole file runs in seconds.  Checks cover the config grammar (round-trip,
exhaustive validation), each subcommand's exit status and report artifacts,
and the cross-command determinism of the decay report.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cylmode import cli
from cylmode.cli import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
    validate_config,
)


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


def _write(tmp_path: Path, sections: dict, name: str = "exp.ini") -> str:
    path = tmp_path / name
    path.write_text(_ini(sections))
    return str(path)


class TestConfigGrammar:
    def test_round_trip_identity(self, tmp_path):
        # parse -> serialize -> parse must be the identity
        path = _write(tmp_path, _small(
            step={"dt": 0.00125, "t_end": 0.01},
            profile={"amplitude": 0.37},
            history={"path": str(tmp_path / "h.npz")}))
        cfg = load_config(path)
        text = serialize_config(cfg)
        cfg2 = parse_config(text)
        assert cfg2 == cfg
        assert serialize_config(cfg2) == text

    def test_defaults_parse_clean(self):
        cfg = parse_config("")
        assert cfg.N == 8 and cfg.mode == "ns" and cfg.nu == 1.0
        assert validate_config(cfg) == []

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
        assert rep["config"]["params"]["N"] == 4
        assert len(rep["code_version"]) == 16
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

    def test_ns_populates_higher_harmonics(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(step={"dt": 0.002, "t_end": 0.02}))
        assert cli.main(["simulate", "--config", path, "--out", str(out),
                         "--quiet"]) == 0
        rep = json.loads((out / "simulate_report.json").read_text())
        assert rep["decay"]["metadata"]["cascade"] is True

    def test_paired_n_scaling_summary(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(run={"mode": "ns", "compare_N": 8}))
        rc = cli.main(["simulate", "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 0
        summ = json.loads((out / "n_scaling_summary.json").read_text())
        comp = summ["comparison"]
        assert comp["N_base"] == 4 and comp["N_alt"] == 8
        rows = comp["per_mode"]
        assert {(r["k"], r["j"]) for r in rows} >= {(1, 0), (2, 0)}
        for r in rows:
            assert r["measured_ratio"] >= 0.0
        # calibration pins the k = 1 prediction to the measurement
        k1 = next(r for r in rows if r["k"] == 1 and r["j"] == 0)
        assert k1["measured_ratio"] == pytest.approx(k1["predicted_ratio"],
                                                     rel=1e-12)

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


class TestStokesTestCommand:
    def test_battery_all_pass(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, _small())
        rc = cli.main(["stokes-test", "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 0
        rep = json.loads((out / "stokes_test_report.json").read_text())
        assert rep["all_pass"] is True
        names = set(rep["checks"])
        for tag in ("nu1", "nu0"):
            for stem in ("harmonic_invariance", "unconditional_decay",
                         "steady_forcing", "energy_identity", "divergence"):
                assert f"{stem}_{tag}" in names
        for c in rep["checks"].values():
            assert c["pass"] and c["value"] <= c["tol"]


class TestLinearFlowCommand:
    def test_ratios_and_identity(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, _small(
            params={"N": 4, "eta": 0.2, "K": 2, "delta": 0.1},
            run={"mode": "linear_flow", "compare_N": 8}))
        rc = cli.main(["linear-flow", "--config", path, "--out", str(out),
                       "--quiet"])
        assert rc == 0
        rep = json.loads((out / "linear_flow_report.json").read_text())
        flow = rep["linear_flow"]
        assert len(flow["ratio_sup"]) == 4  # orders j = 0 .. m
        assert all(math.isfinite(v) and v >= 0.0 for v in flow["ratio_sup"])
        assert rep["invariants"]["identity_ok"]
        assert rep["comparison"]["N_alt"] == 8
        assert math.isfinite(rep["comparison"]["ratio_sup_drift"])

    def test_requires_three_fold_symmetry(self, tmp_path, capsys):
        path = _write(tmp_path, _small(params={"N": 2, "eta": 0.2, "K": 2},
                                       run={"mode": "linear_flow"}))
        rc = cli.main(["linear-flow", "--config", path])
        assert rc == 2
        assert "N >= 3" in capsys.readouterr().err


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
        assert rep["within_tol"] is True
        assert 0.0 <= rep["discrepancy"] <= rep["tol"]

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
        path = _write(tmp_path, _small(
            history={"path": str(tmp_path / "ghost.npz")}))
        rc = cli.main(["decay-report", "--config", path])
        assert rc == 2
        assert "history" in capsys.readouterr().err


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
