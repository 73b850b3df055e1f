"""The package's public names resolve on first use to their defining
modules, so ``import cylmode`` loads no module it is not asked for."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cylmode

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", cylmode.__all__)
def test_export_is_the_defining_modules_object(name):
    namespace = {}
    exec(f"from cylmode import {name}", namespace)
    home = f"cylmode.{cylmode._HOME[name]}"
    assert namespace[name] is getattr(importlib.import_module(home), name)
    # the table names the module that defines it, not one that imports it
    assert getattr(namespace[name], "__module__", home) == home


def test_all_and_lookup_table_list_the_same_names():
    assert len(set(cylmode.__all__)) == len(cylmode.__all__)
    assert sorted(cylmode.__all__) == sorted(cylmode._HOME)


def test_dir_lists_every_export():
    assert set(cylmode.__all__) <= set(dir(cylmode))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cylmode, "no_such_name")
    with pytest.raises(ImportError):
        exec("from cylmode import no_such_name", {})


def test_import_loads_only_what_is_used():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "def loaded():\n"
         "    return sorted(m for m in sys.modules if m.startswith('cylmode'))\n"
         "import cylmode\n"
         "print(loaded())\n"
         "from cylmode import build_grid\n"
         "print(loaded())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['cylmode']",
                                        "['cylmode', 'cylmode.grid']"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_exported_names(demo):
    # the demos import from the package; each name they take from it is
    # exported (tests/test_demos.py runs them)
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "cylmode"
             for alias in node.names]
    assert sorted(set(names) - set(cylmode.__all__)) == []
