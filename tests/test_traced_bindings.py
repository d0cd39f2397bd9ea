"""The benchmark calls library functions by the names their importers
bind: the traced run wraps them (perfbench/traced.py, WRAPPED) and the
untimed oracle rebuilds polynomials with them (perfbench/run.py,
oracle_mismatches).  A rename in the library would otherwise only show
when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name: str, path: Path):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts prepend src/
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_bound(monkeypatch):
    module = _load(monkeypatch, "perfbench_traced", PERFBENCH / "traced.py")
    assert module.WRAPPED
    for importer, attr, span in module.WRAPPED:
        assert callable(getattr(importer, attr)), (importer.__name__, attr, span)


def test_oracle_rebuilds_knot_and_theorem_polynomials(monkeypatch):
    pytest.importorskip("sympy")
    module = _load(monkeypatch, "perfbench_run", PERFBENCH / "run.py")
    counts = [
        (("knot", 7, 3), 1),
        (("theorem", "EE", 1, 1, "2"), 1),
        # at x0 = a/b, eval_x returns b^(deg_x) * Phi(a/b, y): the same roots
        (("theorem", "OE", 2, 3, "5/2"), 6),
        (("theorem", "ON", 2, 3, "-7/3"), 7),
        (("theorem", "EE", 2, 1, "31/16"), 1),
    ]
    assert module.oracle_mismatches(counts, 1) == []
    wrong = [(("theorem", "OE", 2, 3, "5/2"), 5)]
    assert module.oracle_mismatches(wrong, 1) == [
        "('theorem', 'OE', 2, 3, '5/2'): reported 5, sympy counts 6"
    ]
