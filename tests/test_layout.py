"""Layout guards: every top-level library name has a user, and every name
the benchmark's tracer wraps exists.

A name defined at the top level of a `glhs` module other than `__init__`
must have a user.  In its own module any load outside its definition counts.
Elsewhere (a library module other than `__init__`, or the acceptance tests)
the name counts only when it is imported or reached as an attribute, so a
local variable that happens to share the name does not.  A helper that only
unit tests call belongs in those tests.

`perfbench/tracer.py` wraps glhs functions and methods by name, so renaming
or deleting one of them breaks the benchmark; the second guard fails first.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "glhs").glob("*.py") if p.name != "__init__.py")
USERS = MODULES + [ROOT / "tests" / "test_acceptance.py"]


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: functions, classes, assignments."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _references(node: ast.AST, loads: bool) -> set[str]:
    """Names imported and attribute names accessed anywhere under node, plus
    the names read there when `loads` is set."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif loads and isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
    return found


def test_every_library_name_has_a_user():
    bodies = {path: ast.parse(path.read_text(encoding="utf-8")).body for path in USERS}
    imported = {path: _references(ast.Module(body, []), loads=False)
                for path, body in bodies.items()}
    unused = []
    for path in MODULES:
        elsewhere = set().union(*(names for user, names in imported.items() if user != path))
        refs = [_references(stmt, loads=True) for stmt in bodies[path]]
        for i, stmt in enumerate(bodies[path]):
            own = set().union(*(r for j, r in enumerate(refs) if j != i))
            unused += [
                f"{path.stem}.{name}"
                for name in _defined_names(stmt)
                if name not in elsewhere and name not in own
            ]
    assert not unused, f"library names with no user outside unit tests: {unused}"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = []
    for target in tracer.TARGETS:
        obj = importlib.import_module(target.module)
        for part in target.attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{target.module}.{target.attr}")
    assert not missing, f"traced names that no longer exist: {missing}"
    # the tracer reads the learner config as the second positional argument
    from glhs.harness import perceptron_train

    assert list(inspect.signature(perceptron_train).parameters)[1] == "cfg"
