"""Module boundaries: no module of the package uses another's private
names, every package name the benchmark reads exists, every identity check
runs every command, tools/loc.py counts code lines alone, and the README's
library usage block runs."""

import argparse
import ast
import contextlib
import importlib
import importlib.util
import io
import os
import random
from pathlib import Path

import lexpalo
import lexpalo.cli  # noqa: F401  (every module of the package loaded)
import lexpalo.experiments  # noqa: F401  (cli imports it only where a command fits)

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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# layer metrics that still name functions the package no longer has
STALE = {
    "lexpalo.corpus_io.stratified_split", "lexpalo.mnb.class_masses",
    "lexpalo.lexstats.sttr",
}


def _assigned(tree):
    return {
        target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }


def _compared_and_counted(function):
    """The string constants a function compares or passes to ``.count``."""
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "count"):
            operands = node.args
        else:
            continue
        yield from (
            op.value for op in operands
            if isinstance(op, ast.Constant) and isinstance(op.value, str)
        )


def perfbench_package_names(perfbench):
    """``lexpalo.module.name`` for each package name the benchmark reads,
    parsed without importing it: the names its ``from lexpalo... import``
    lines bring in, the functions that layers.HOOKS, SELF_TIME, CALL_MS and
    layer_metrics name, and tracer.PRIVATE."""
    names = set()
    traced = []  # "layer.function"
    for path in sorted(perfbench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "lexpalo"):
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
        assigned = _assigned(tree)
        if path.name == "layers.py":
            traced += [key.value for key in assigned["HOOKS"].keys]
            for funcs in ast.literal_eval(assigned["SELF_TIME"]).values():
                traced += funcs
            traced += ast.literal_eval(assigned["CALL_MS"]).values()
            (metrics,) = [
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
            ]
            traced += _compared_and_counted(metrics)
        elif path.name == "tracer.py":
            for layer, attrs in ast.literal_eval(assigned["PRIVATE"]).items():
                traced += [f"{layer}.{attr}" for attr in attrs]
    return names | {f"lexpalo.{name}" for name in traced}


def test_every_package_name_the_benchmark_reads_resolves():
    names = perfbench_package_names(PERFBENCH)
    for expected in ("lexpalo.preprocess.preprocess_with_decisions",
                     "lexpalo.cli._atomic_write", "lexpalo.mnb.fit",
                     "lexpalo.experiments.aggregate", "lexpalo.vectorize.tfidf_row"):
        assert expected in names
    unresolved = {
        name for name in names
        if not hasattr(importlib.import_module(name.rpartition(".")[0]),
                       name.rpartition(".")[2])
    }
    assert sorted(unresolved - STALE) == []


def _tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_identity_check_runs_every_command():
    parser = lexpalo.cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert "classify" in subparsers.choices
    for check in _tool("identity").CHECKS:
        assert {command[0] for command in check.commands} == set(subparsers.choices), check.name


def test_identity_names_the_first_file_that_differs(tmp_path):
    first_difference = _tool("identity")._first_difference
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "sub" / "y.txt").write_bytes(b"same")
        (root / "x.txt").write_bytes(b"same")
    assert first_difference(a, b) is None
    (b / "z.txt").write_bytes(b"")
    assert first_difference(a, b) == "z.txt"
    assert first_difference(b, a) == "z.txt"
    # same size and modification time, other bytes
    (b / "sub" / "y.txt").write_bytes(b"diff")
    os.utime(b / "sub" / "y.txt", ns=(0, 0))
    os.utime(a / "sub" / "y.txt", ns=(0, 0))
    assert first_difference(a, b) == os.path.join("sub", "y.txt")


LOC_FIXTURE = '''"""A module docstring,
of two lines."""

import math  # a comment after code

# a comment line
TEMPLATE = """not a docstring:
every line counts"""


class Shape:
    """A class docstring."""

    def area(self, r):
        """A function docstring,

        of three lines."""
        return math.pi * r * r
'''


def test_loc_counts_code_lines_alone(capsys):
    loc = _tool("loc")
    # the import, TEMPLATE's two lines, the class, the def and the return
    assert loc.code_lines(LOC_FIXTURE) == 6
    loc.main([])
    lines = capsys.readouterr().out.splitlines()
    assert {line.split()[0] for line in lines} == {p.stem for p in PACKAGE.glob("*.py")} | {"total"}
    assert int(lines[-1].split()[1]) == sum(int(line.split()[1]) for line in lines[:-1])


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
