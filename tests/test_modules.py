"""Module boundaries: no module of the package uses another's private names."""

import ast
from pathlib import Path

import lexpalo

PACKAGE = Path(lexpalo.__file__).resolve().parent


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def cross_module_private_names(package):
    """``file:line: reference`` for each ``module._name`` and each
    ``from .module import _name`` in the package's modules that names
    another module of the package."""
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        bound = {}  # local name -> the package module imported under it
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        bound[alias.asname or alias.name] = alias.name
                    elif node.module not in (None, path.stem) and _private(alias.name):
                        found.append((path.name, node.lineno,
                                      f"from .{node.module} import {alias.name}"))
        for node in nodes:
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name)
                    and bound.get(node.value.id, path.stem) != path.stem):
                found.append((path.name, node.lineno,
                              f"{bound[node.value.id]}.{node.attr}"))
    return [f"{name}:{line}: {ref}" for name, line, ref in sorted(found)]


def test_no_module_uses_another_modules_private_names():
    assert cross_module_private_names(PACKAGE) == []
