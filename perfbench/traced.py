"""Run one riley CLI command in this process with spans around each layer.

Usage: python3 perfbench/traced.py SPANS_JSON -- <riley arguments>

The spans come from this file only: each wrapped function is replaced at
the name its importer binds, because ``from .x import f`` copies the
name into the importing module.  Spans are kept in memory and written to
SPANS_JSON when the command returns, together with the start of the main
span on the system-wide monotonic clock, so the parent can tell set-up
time from the rest of the process's wall time.

Pool workers of ``verify conjecture --jobs K`` (K > 1) inherit the
wrappers, but their spans stay in the workers and are not reported.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from riley import cli, rileypoly, verifier  # noqa: E402

# (importing module, bound name, span name).  The span name is
# <defining module>.<function>; the importing module is where callers
# look the name up at call time.
WRAPPED = [
    (cli, "scan_conjecture", "verifier.scan_conjecture"),
    (cli, "sweep_theorem1", "verifier.sweep_theorem1"),
    (cli, "sweep_theorem2", "verifier.sweep_theorem2"),
    (cli, "cross_validate", "verifier.cross_validate"),
    (cli, "emit_report", "verifier.emit_report"),
    (verifier, "check_conjecture", "verifier.check_conjecture"),
    (verifier, "check_theorem1", "verifier.check_theorem1"),
    (verifier, "check_theorem2", "verifier.check_theorem2"),
    (verifier, "count_real_roots", "realroots.count_real_roots"),
    (verifier, "signature_two_bridge", "signature.signature_two_bridge"),
    (verifier, "riley_parabolic", "rileypoly.riley_parabolic"),
    (verifier, "riley_general", "rileypoly.riley_general"),
    (verifier, "riley_closed_form", "rileypoly.riley_closed_form"),
    (rileypoly, "schubert_word", "twobridge.schubert_word"),
    (rileypoly, "word_matrix", "rileypoly.word_matrix"),
    (rileypoly, "squarefree_part", "exact.squarefree_part"),
    (rileypoly, "symmetrize_to_xy", "exact.symmetrize_to_xy"),
    (rileypoly, "closed_form_params", "rileypoly.closed_form_params"),
    (rileypoly, "compose", "exact.compose"),
    (rileypoly, "cheb_poly", "chebyshev.cheb_poly"),
]


def _coeff_bits(f) -> int:
    """Largest numerator or denominator bit length among f's coefficients."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in f.coeffs),
        default=0,
    )


_ATTRIBUTE_SPANS = {
    "realroots.count_real_roots",
    "rileypoly.riley_closed_form",
    "verifier.emit_report",
}


def _attributes(name: str, args: tuple, result) -> dict:
    """Counts recorded at the span; computed after the command returns so
    they add no time to any span."""
    if name == "realroots.count_real_roots":
        return {"degree": args[0].degree, "bits": _coeff_bits(args[0])}
    if name == "rileypoly.riley_closed_form":
        d = args[0]
        return {"key": f"{d.family},{d.m},{d.n}"}
    if name == "verifier.emit_report":
        return {"bytes": len(result.encode("utf-8"))}
    return {}


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 is the root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pending: list[tuple[int, tuple, object]] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, pending = self.spans, self._stack, self.pending
        keep = name in _ATTRIBUTE_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if keep:
                pending.append((index, args, result))
            return result

        return traced

    def attributes(self) -> dict[int, dict]:
        out = {}
        for index, args, result in self.pending:
            attrs = _attributes(self.spans[index][0], args, result)
            if attrs:
                out[index] = attrs
        return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, riley_args = argv[0], argv[2:]
    tracer = Tracer()
    for module, attr, name in WRAPPED:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    main_start = time.monotonic()
    code = tracer.wrap(cli.main, "cli.main")(riley_args)
    sys.stdout.flush()
    data = {
        "main_start": main_start,
        "spans": tracer.spans,
        "attributes": {str(k): v for k, v in tracer.attributes().items()},
    }
    Path(spans_path).write_text(json.dumps(data), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
