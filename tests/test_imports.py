"""Every name a package module imports is used in it, every parameter of
its functions is read, and every module-level function and class is used
by the package.

No linter ships with the package's dependencies, so these are small
``ast`` checks: a module's imported names (``from __future__`` aside) must
each appear as a name in its code, and each parameter of a function or
lambda must be loaded somewhere in its body, nested functions included.
A method's receiver (``self``, ``cls``) and names starting with ``_`` are
exempt: no caller passes a value for them.  ``__init__.py`` re-exports and is
skipped.  A module-level function or class must be named somewhere in the
package outside its own definition, or be exported, so that code only the
tests call lives with the tests.
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


# kept for the benchmark's wrap of the projection and its
# ``stokes.cleanup_calls`` metric, until those are dropped (ROADMAP item 12)
UNUSED_ALLOWED = {"stokes.project_divfree"}


def named_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names ``tree`` refers to, by name, attribute or import, outside
    the subtree ``skip``."""
    names, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        todo.extend(ast.iter_child_nodes(node))
    return names


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every module-level function and class of
    ``sources`` (module to source) that no module names outside its own
    definition."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    named = {module: named_names(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        others = set().union(*(n for m, n in named.items() if m != module))
        unused += [f"{module.removesuffix('.py')}.{node.name}"
                   for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
                   and node.name not in others
                   and node.name not in named_names(tree, node)]
    return sorted(unused)


def test_every_definition_is_used_or_exported():
    unused = unused_definitions(
        {module: (PACKAGE / module).read_text() for module in MODULES})
    assert [name for name in unused if name.split(".")[1] not in cylmode._HOME
            and name not in UNUSED_ALLOWED] == []
    # an allowance whose name gets a caller, or leaves, goes too
    assert UNUSED_ALLOWED <= set(unused)


def test_check_sees_an_unused_definition():
    sources = {"a.py": ("def f():\n"
                        "    return f()\n"
                        "def g():\n"
                        "    return h\n"
                        "class C:\n"
                        "    pass\n"),
               "b.py": ("from .a import C\n"
                        "def h():\n"
                        "    return C\n")}
    assert unused_definitions(sources) == ["a.f", "a.g"]
