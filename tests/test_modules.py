"""Module boundaries: no module of the package uses another's private
names, and the README's library usage block runs."""

import ast
import contextlib
import io
import random
from pathlib import Path

import lexpalo

from helpers import random_labeled_corpus, save_corpus

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


def test_readme_library_usage_block_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library usage", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert '"lyrics.jsonl"' in block
    # 3 palos of 100 lyrics, so that min_lyrics=100 keeps them all
    path = tmp_path / "lyrics.jsonl"
    save_corpus(random_labeled_corpus(
        random.Random(3), docs_per_palo=(100, 100), doc_len=(10, 10)), path)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(block.replace('"lyrics.jsonl"', repr(str(path))), namespace)
    assert len(out.getvalue().splitlines()) == 1
    assert namespace["report"].classes == ("palo0", "palo1", "palo2")
    assert set(namespace["essentials"].per_palo) == {"palo0", "palo1", "palo2"}
    assert len(namespace["tree"].edges) == 2
