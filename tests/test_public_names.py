"""Every public name the package promises, and every package name the demos
and the README's Python quick start use, resolves; ``condvar`` itself
publishes exactly the ``__all__`` of the modules it re-exports.

The demos run in ``test_demos.py``; here their source is parsed, so
deleting or renaming a name they import or reference fails this fast test
with the name, not a demo's traceback.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import condvar

ROOT = Path(__file__).resolve().parents[1]
# the modules whose __all__ the package re-exports, in import order
REEXPORTED = ["data", "models", "penalties", "robustness", "scm", "training"]
MODULES = ["condvar"] + [f"condvar.{m.name}" for m in pkgutil.iter_modules(condvar.__path__)]


def _resolve(dotted: str):
    """The object named ``condvar.a.b...``; AttributeError if some part is missing."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):  # a submodule that is not imported yet
            try:
                obj = importlib.import_module(".".join(parts[:i + 1]))
                continue
            except ModuleNotFoundError:
                raise AttributeError(f"{dotted}: no {part!r}") from None
        obj = getattr(obj, part)
    return obj


def _attribute_path(node):
    """``a.b.c`` as ["a", "b", "c"] for a chain of attributes on a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def _used_names(source: str) -> set:
    """Dotted ``condvar`` names that ``source`` imports from the package or
    reads as attributes of a name bound to it (``import condvar as cv``)."""
    tree = ast.parse(source)
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "condvar":
            used.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "condvar":
                    bound[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else "condvar")
    for node in ast.walk(tree):
        path = _attribute_path(node) if isinstance(node, ast.Attribute) else None
        if path and path[0] in bound:
            used.add(".".join([bound[path[0]]] + path[1:]))
    return used


def _sources() -> list:
    demos = [(p.name, p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    return demos + [(f"README.md python block {i}", b) for i, b in enumerate(blocks)]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("module", REEXPORTED)
def test_package_reexports_every_name_in_all(module):
    mod, missing = importlib.import_module(f"condvar.{module}"), object()
    wrong = [name for name in mod.__all__
             if getattr(condvar, name, missing) is not getattr(mod, name)]
    assert not wrong, f"condvar lacks or rebinds these condvar.{module} names: {wrong}"


def test_package_names_are_exactly_the_reexported_all():
    declared = {name for module in REEXPORTED
                for name in importlib.import_module(f"condvar.{module}").__all__}
    public = {name for name, obj in vars(condvar).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == declared


def test_demos_and_readme_use_only_names_that_exist():
    sources = _sources()
    assert len(sources) >= 5  # four demos and the README quick start
    broken = []
    for where, source in sources:
        names = _used_names(source)
        assert names, f"{where} uses no condvar name"
        for dotted in sorted(names):
            try:
                _resolve(dotted)
            except AttributeError as exc:
                broken.append(f"{where}: {exc}")
    assert not broken, "\n".join(broken)
