"""Every name a module of the package imports is used.

An import nothing reads is dead code that a reader still has to check by
hand.  A name counts as used when the module's code refers to it, when a
quoted annotation does, or when `__all__` lists it; an import on a line
marked `# noqa: F401` is bound on purpose for other importers.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riley"


def _imported(tree: ast.Module, lines: list[str]):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    yield alias.asname or alias.name.split(".")[0], alias.lineno


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
        for ann in filter(None, annotations):
            for const in ast.walk(ann):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    used |= _names(ast.parse(const.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = _used(tree)
    unused = [(name, line) for name, line in _imported(tree, source.splitlines()) if name not in used]
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_guard_sees_quoted_annotations_all_and_noqa():
    source = (
        "from typing import IO, Sequence\n"
        "from os import sep\n"
        "from os import getcwd  # noqa: F401\n"
        "from sys import argv\n"
        "__all__ = ['sep']\n"
        "def f(out: 'IO[str] | None') -> None: ...\n"
    )
    tree = ast.parse(source)
    used = _used(tree)
    unused = [name for name, _ in _imported(tree, source.splitlines()) if name not in used]
    assert unused == ["Sequence", "argv"]
