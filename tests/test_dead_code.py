"""Every function, class and method the package defines has a caller.

Code that nothing calls is still code a reader has to check.  A
definition counts as called when its name is read somewhere in
`src/riley/` outside its own body and outside `__init__.py` (whose
re-exports and `__all__` call nothing), or when `perfbench/`'s Python
files name it: the benchmark wraps library functions by name.  Names are
matched without regard to the object they belong to, so a method shares
credit with any attribute of the same name.  Dunder methods are called
by Python itself and are not checked.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "riley"
PERFBENCH = ROOT / "perfbench"

# Kept without a caller in the package, each for one reason.
EXEMPT: dict[str, str] = {}


def _definitions(tree: ast.Module):
    """(qualified name, node) of every module-level function and class and
    of every method of a module-level class that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _reads(node: ast.AST) -> Counter:
    """How often each name is read in node, as a name or as an attribute."""
    reads = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute):
            reads[n.attr] += 1
    return reads


def uncalled(package: dict[str, str], perfbench: str) -> list[str]:
    """module.qualname of each definition in the package sources (file name
    -> text) that has no caller by the rule of the module docstring."""
    trees = {name: ast.parse(text) for name, text in package.items() if name != "__init__.py"}
    total = Counter()
    for tree in trees.values():
        total.update(_reads(tree))
    found = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if total[name] > _reads(node)[name]:
                continue
            if re.search(rf"\b{re.escape(name)}\b", perfbench):
                continue
            found.append(f"{module[:-3]}.{qualname}")
    return found


def test_every_definition_has_a_caller():
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    perfbench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py")))
    found = uncalled(package, perfbench)
    assert [q for q in found if q not in EXEMPT] == [], "defined but never called"
    assert sorted(q for q in found if q in EXEMPT) == sorted(EXEMPT), "stale exemption"


def test_guard_sees_own_body_methods_init_and_perfbench():
    source = (
        "class K:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self): ...\n"
        "    def unused(self):\n"
        "        return K()\n"
        "def f(n):\n"
        "    return f(n - 1)\n"
        "def g():\n"
        "    return h(K())\n"
        "def h(): ...\n"
        "def wrapped(): ...\n"
    )
    init = "from .m import f, g\n__all__ = ['f', 'g']\ng()\n"
    found = uncalled({"m.py": source, "__init__.py": init}, "(m, 'wrapped', 'm.wrapped')")
    assert found == ["m.K.unused", "m.f", "m.g"]
