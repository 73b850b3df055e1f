"""Every name a package module imports is used in it.

No linter ships with the package's dependencies, so this is a small
``ast`` check: a module's imported names (``from __future__`` aside) must
each appear as a name in its code.  ``__init__.py`` re-exports and is
skipped.
"""

import ast
import pathlib

import pytest

import cylmode

PACKAGE = pathlib.Path(cylmode.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_check_sees_an_unused_import():
    src = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(src) == ["os (line 1)", "tau (line 2)"]
