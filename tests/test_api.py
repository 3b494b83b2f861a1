"""No dead public API: every exported name resolves, and every top-level
function and class of the package is used by the package itself.

A use is a load of the name, or of ``module.name`` through a module imported
with ``from . import module``, in any module of ``src/torifan`` other than
``__init__.py``, outside the definition of the name itself. Tests, scripts
and the benchmark do not count, so code that only they need lives with them
(see ``tests/_oracles.py``).
"""

import ast
from pathlib import Path

import torifan

SRC = Path(torifan.__file__).resolve().parent

# entry points, called from outside the package
ENTRY_POINTS = {("cli", "main"), ("cli", "run")}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _definitions(modules) -> dict[tuple[str, str], ast.AST]:
    defs = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[(module, node.name)] = node
    return defs


def _bindings(module: str, tree: ast.Module, defs) -> tuple[dict, dict]:
    """Local name -> (module, name) of a definition, and local name -> module."""
    names = {name: (mod, name) for mod, name in defs if mod == module}
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return names, modules


def _used(modules, defs) -> set[tuple[str, str]]:
    used = set()
    for module, tree in modules.items():
        names, module_aliases = _bindings(module, tree, defs)
        for top in tree.body:
            own = (module, getattr(top, "name", None))
            for node in ast.walk(top):
                target = None
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    target = names.get(node.id)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in module_aliases
                ):
                    target = (module_aliases[node.value.id], node.attr)
                if target is not None and target != own:
                    used.add(target)
    return used


def test_every_exported_name_resolves():
    missing = [name for name in torifan.__all__ if not hasattr(torifan, name)]
    assert missing == []


def test_every_function_and_class_is_used_inside_the_package():
    modules = _modules()
    defs = _definitions(modules)
    unused = sorted(set(defs) - _used(modules, defs) - ENTRY_POINTS)
    assert unused == [], "unused: " + ", ".join(f"{module}.{name}" for module, name in unused)
