"""The polynomial layer stands below every other module of the package.

`exact` holds the polynomial container and the dense ring kernel; the
Sturm sequences live in `realroots` and the Laurent ring of the word
products in `rileypoly`, each next to its only caller.  An import of a
sibling module from `exact`, even one deferred into a function body,
would tie the kernel back to a layer above it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riley"


def _package_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(module, line) of every import of the package, at any depth:
    relative imports and absolute imports of `riley`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                found.append(("." * node.level + (node.module or ""), node.lineno))
            elif node.module and node.module.split(".")[0] == "riley":
                found.append((node.module, node.lineno))
        elif isinstance(node, ast.Import):
            found += [(a.name, node.lineno) for a in node.names if a.name.split(".")[0] == "riley"]
    return found


def test_exact_imports_no_module_of_the_package():
    tree = ast.parse((PACKAGE / "exact.py").read_text(encoding="utf-8"))
    assert _package_imports(tree) == []


def test_guard_sees_deferred_relative_and_absolute_imports():
    source = (
        "import math\n"
        "from fractions import Fraction\n"
        "def f():\n"
        "    from .chebyshev import trace_poly\n"
        "    import riley.twobridge\n"
        "    from riley import cli\n"
        "    from .. import other\n"
    )
    assert _package_imports(ast.parse(source)) == [
        (".chebyshev", 4),
        ("riley.twobridge", 5),
        ("riley", 6),
        ("..", 7),
    ]
