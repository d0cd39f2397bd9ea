"""The traced benchmark wraps library functions at the names their
importers bind (perfbench/traced.py, WRAPPED).  A rename in the library
would otherwise only show when the benchmark runs with --trace 1."""

import importlib.util
import sys
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def test_every_wrapped_name_is_bound(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # traced.py prepends src/
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.WRAPPED
    for importer, attr, span in module.WRAPPED:
        assert callable(getattr(importer, attr)), (importer.__name__, attr, span)
