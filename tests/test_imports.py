"""Every name a package module imports is used in it, and every parameter
of its functions is read.

No linter ships with the package's dependencies, so these are small
``ast`` checks: a module's imported names (``from __future__`` aside) must
each appear as a name in its code, and each parameter of a function or
lambda must be loaded somewhere in its body, nested functions included.
A method's receiver (``self``, ``cls``) and names starting with ``_`` are
exempt: no caller passes a value for them.  ``__init__.py`` re-exports and is
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


RECEIVERS = ("self", "cls")


def unread_parameters(source: str) -> list[str]:
    tree = ast.parse(source)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}({p}) (line {node.lineno})" for p in params
                   if not p.startswith("_") and p not in RECEIVERS
                   and p not in read]
    return unread


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_check_sees_an_unused_import():
    src = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(src) == ["os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module):
    assert unread_parameters((PACKAGE / module).read_text()) == []


def test_check_sees_an_unread_parameter():
    src = ("def f(a, b, _c, *, d=1):\n"
           "    b = 2\n"
           "    def g(self):\n"
           "        return a\n"
           "    return g\n"
           "h = lambda x, y: x\n")
    assert unread_parameters(src) == ["f(b) (line 1)", "f(d) (line 1)",
                                      "<lambda>(y) (line 6)"]
