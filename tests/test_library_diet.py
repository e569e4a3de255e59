"""The library keeps only what the CLI and ``verify`` call.

Every module-level function and class in ``src/plethysm`` must be named
somewhere in the package outside its own definition and the package's
re-export list; code that only the tests call lives in ``tests/helpers.py``.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "plethysm"

# "module.name" -> why it stays without a caller in the package
ALLOWED = {
    "cli.main": "the console script entry point named in pyproject.toml",
    "characters.set_partitions_of_shape": (
        "the benchmark wraps it by name as a layer span; verify files every "
        "growth string by shape instead"
    ),
}


def definitions(tree):
    """Module-level functions and classes, each with its line span."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            yield node.name, first, node.end_lineno


def name_lines(source):
    """Every identifier token of the source, with its line."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            yield token.string, token.start[0]


def uncalled():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    uses = {}
    for module, source in sources.items():
        if module == "__init__":  # its re-export list names every entry point
            continue
        for name, line in name_lines(source):
            uses.setdefault(name, []).append((module, line))
    out = []
    for module, source in sources.items():
        for name, first, last in definitions(ast.parse(source)):
            if name.startswith("__") and name.endswith("__"):
                continue  # module hooks, such as __getattr__, that Python calls itself
            callers = [
                (where, line)
                for where, line in uses.get(name, [])
                if where != module or not first <= line <= last
            ]
            if not callers:
                out.append(f"{module}.{name}")
    return out


def module_imports(tree):
    """(bound name, line) of each import at module level, also under a
    module-level ``if`` such as ``TYPE_CHECKING``; ``from __future__`` binds
    nothing used."""
    body = list(tree.body)
    for node in body:
        if isinstance(node, ast.If):
            body += node.body + node.orelse
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= used_names(ast.parse(annotation.value, mode="eval"))
    return names


def unused_imports():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = used_names(tree)
        out += [
            f"{path.stem}:{line} {name}"
            for name, line in module_imports(tree)
            if name not in used
        ]
    return out


def test_every_definition_has_a_caller_in_the_package():
    assert [name for name in uncalled() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_defined():
    for entry in ALLOWED:
        module, name = entry.split(".")
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in {found for found, _, _ in definitions(tree)}, entry


def test_no_unused_module_level_import():
    assert unused_imports() == []


def test_unused_import_check_sees_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "import re\n"
        "from typing import TYPE_CHECKING, Iterator, Mapping\n"
        "if TYPE_CHECKING:\n"
        "    from .setpartitions import SetPartition\n"
        "def f(x: 'SetPartition') -> Mapping[str, int]:\n"
        "    return {}\n"
    )
    tree = ast.parse(source)
    used = used_names(tree)
    assert [name for name, _ in module_imports(tree) if name not in used] == ["re", "Iterator"]
