"""No module of the package uses `assert` or a `while True` loop.

`python -O` strips `assert` statements, so a contract written as one
stops being checked; contracts raise real exceptions instead.  A loop on
a constant true condition has no bound a reader can see; every loop
states how far it may run and raises when it gets there.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riley"


def _violations(tree: ast.Module):
    """(kind, line) of every assert statement and constant-true while loop."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield "assert", node.lineno
        elif isinstance(node, ast.While) and isinstance(node.test, ast.Constant) and node.test.value:
            yield "while True", node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_or_unbounded_while(path):
    found = sorted(_violations(ast.parse(path.read_text(encoding="utf-8"))), key=lambda v: v[1])
    assert not found, f"{path.name}: {found}"


def test_guard_sees_assert_and_constant_while():
    source = (
        "assert x, 'msg'\n"
        "while True:\n    pass\n"
        "while 1:\n    pass\n"
        "while n < 3:\n    n += 1\n"
        "raise AssertionError('unreachable')\n"
    )
    found = sorted(_violations(ast.parse(source)), key=lambda v: v[1])
    assert found == [("assert", 1), ("while True", 2), ("while True", 4)]
