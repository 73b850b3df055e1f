"""Every script under ``demos/`` runs to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    ("stokes_decay.py", ["--n-r", "16", "--n-z", "8", "--steps", "2"]),
    ("cascade_and_decay.py", ["--t-end", "0.01"]),
    ("inequality_constants.py", ["--trials", "5"]),
    ("linear_flow_ratios.py", ["--steps", "5"]),
    ("oracle_check.py", ["--steps", "2"]),
]


@pytest.mark.parametrize("script,args", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
