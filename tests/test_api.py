"""No dead public API: every exported name resolves, and every top-level
function and class of the package, and every method and property of such a
class, is used by the package itself.

A use of a function or class is a load of the name, or of ``module.name``
through a module imported with ``from . import module``, in any module of
``src/torifan`` other than ``__init__.py``, outside the definition of the
name itself. A use of a method or property other than a dunder is a load of
an attribute of that name (``x.name``) anywhere in those modules outside the
member's own definition. Tests, scripts and the benchmark do not count, so
code that only they need lives with them (see ``tests/_oracles.py``).
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


def _members(modules) -> dict[tuple[str, str, str], ast.AST]:
    """(module, class, name) -> definition of each method and property of a
    top-level class, dunders left out."""
    members = {}
    for module, tree in modules.items():
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        node.name.startswith("__") and node.name.endswith("__")
                    ):
                        members[(module, top.name, node.name)] = node
    return members


def _attribute_loads(tree: ast.AST) -> list[ast.Attribute]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]


def test_every_method_and_property_is_used_inside_the_package():
    modules = _modules()
    loads = [node for tree in modules.values() for node in _attribute_loads(tree)]
    unused = []
    for (module, cls, name), definition in sorted(_members(modules).items()):
        own = {id(node) for node in _attribute_loads(definition)}
        if not any(node.attr == name and id(node) not in own for node in loads):
            unused.append(f"{module}.{cls}.{name}")
    assert unused == [], "unused: " + ", ".join(unused)
