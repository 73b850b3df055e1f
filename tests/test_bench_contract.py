"""The traced benchmark run still finds every entry point it wraps.

``perfbench/layers.py`` wraps package functions by name; a renamed or
removed one is listed under ``missing`` and its per-layer metrics silently
drop out of the benchmark result.  This runs the tracer on a small
``simulate`` and checks that every per-layer metric ``BENCHMARK.json``
declares is measured, that the quadratic term is traced on every call and
that a step makes one Stokes solve per harmonic and no re-projection;
and on a small ``oracle-compare``, that every oracle step, the table build,
its dense LUs and the bin solves are traced.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per-layer metrics that perfbench/run.py derives from the traced and
# untraced wall times rather than reads from layers.py
DERIVED = {"cli.untraced_s", "trace.coverage", "trace.overhead_s"}

CONFIG = """
[params]
N = 4
K = 2

[grid]
n_r = 12
n_z = 8

[step]
dt = 0.0025
t_end = 0.005

[profile]
amplitude = 0.05
"""


ORACLE_CONFIG = CONFIG + """
[oracle]
n_theta = 28
n_steps = 2
"""


def _traced(tmp_path, command: str, config_text: str) -> dict:
    """The ``layers.py`` result of one traced ``command`` on the config."""
    config = tmp_path / "small.ini"
    config.write_text(config_text, encoding="utf-8")
    layers = tmp_path / "layers.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "layers.py"), str(layers),
         str(tmp_path / "spans.npz"), "--", command, "--config",
         str(config), "--out", str(tmp_path / "out"), "--quiet"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(layers.read_text(encoding="utf-8"))
    assert result["exit_code"] == 0
    assert result["missing"] == []
    return result


def test_traced_simulate_reports_every_layer_metric(tmp_path):
    result = _traced(tmp_path, "simulate", CONFIG)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in bench["per_layer"]} - DERIVED
    assert sorted(declared - set(result["metrics"])) == []
    # one quadratic term per step and one for the flux check: a kernel
    # reached through a helper the tracer does not wrap would read less
    metrics = result["metrics"]
    assert metrics["stepper.steps"] == 2
    assert metrics["nonlinear.quadratic_calls"] == metrics["stepper.steps"] + 1
    # one Stokes solve per harmonic per step, the mean's included, and no
    # re-projection: a second solve path or a cleanup inside a step would
    # read more
    K = 2  # CONFIG's [params] K
    assert metrics["stokes.solve_calls"] == (K + 1) * metrics["stepper.steps"]
    assert metrics["stokes.cleanup_calls"] == 0
    # only the mean's decoupled bins, zeta = 0 and Nyquist, take a dense
    # LU; the others are built by block elimination.  The build is traced:
    # a table built in a helper the tracer does not wrap would read 0 s
    assert metrics["stokes.lu_factors"] == 2
    assert metrics["stokes.factor_s"] > 0.0


def test_traced_oracle_compare_reports_the_bin_layers(tmp_path):
    # only the decoupled bins, (m, zeta) with m and zeta each 0 or Nyquist,
    # take a dense LU; the others are built by block elimination.  That is
    # four per table, for the step and the projection.  The build and the
    # bin solves are traced: a solve moved into a helper the tracer does
    # not wrap would read 0 s
    metrics = _traced(tmp_path, "oracle-compare", ORACLE_CONFIG)["metrics"]
    assert metrics["oracle.step_calls"] == 2
    assert metrics["oracle.lu_factors"] == 2 * 4
    assert metrics["oracle.factor_s"] > 0.0
    assert metrics["oracle.bin_solve_s"] > 0.0
