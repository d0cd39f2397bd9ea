"""Command line front end.

Subcommands (see README for examples):

  knot        print a knot's identifiers, sign sequence and relator word
  poly        Riley polynomial of b(p, q), bivariate or specialized
  family      closed-form polynomial and (t, mu) of a double twist knot
  roots       real root count (and isolating intervals) of a specialization
  signature   signature data of b(p, q)
  verify      batch checks: conjecture scan, theorem1/theorem2 sweeps
  crosscheck  closed form vs. matrix product, exact equality

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 internal validation error (a computed object failed its own
consistency contract, or a scan's worker process died).

Rationals on the command line are "a/b" or integer literals; a negative
one may follow its option as "--x -3/2" or "--x=-3/2".  Plain text goes
to stdout; reports go to files via --out.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .exact import BiPoly, UniPoly
from .realroots import count_real_roots, isolate_roots
from .rileypoly import (
    RileyValidationError,
    _closed_form_run,
    normalize_bipoly,
    normalize_parabolic,
    riley_general,
    riley_parabolic,
)
from .signature import SignatureError, signature_two_bridge
from .twobridge import (
    DoubleTwist,
    FAMILIES,
    KnotId,
    family_to_pq,
    odd_representative,
    schubert_word,
)
from .verifier import (
    CrossValidationError,
    cross_validate,
    emit_report,
    scan_conjecture,
    sweep_theorem1,
    sweep_theorem2,
    record_fields,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# Polynomial rendering.
# ---------------------------------------------------------------------------


def _monomials(p: UniPoly, var: str, ypart: str = "", den: int = 1) -> list[tuple[bool, str]]:
    """(positive, body) for each nonzero term of p/den * ypart, descending
    powers of var: "3*x^2*y" or "3/2*x", with a bare power when the
    magnitude is 1."""
    terms: list[tuple[bool, str]] = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        vpart = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        powers = [part for part in (vpart, ypart) if part]
        mag = Fraction(abs(c), den)
        factors = powers if mag == 1 and powers else [str(mag), *powers]
        terms.append((c > 0, "*".join(factors)))
    return terms


def _join_terms(terms: list[tuple[bool, str]]) -> str:
    """Signed terms as "-a + b - c"; "0" when there are none."""
    if not terms:
        return "0"
    text = " ".join(f"{'+' if positive else '-'} {body}" for positive, body in terms)
    return text[2:] if terms[0][0] else f"-{text[2:]}"


def format_unipoly(p: UniPoly, var: str = "y", den: int = 1) -> str:
    """Plain-text p/den, descending powers: "y^2 - 3*y + 3"."""
    return _join_terms(_monomials(p, var, den=den))


def format_bipoly(p: BiPoly, den: int = 1) -> str:
    """Plain-text p/den, descending y-powers; non-constant x-coefficients
    are parenthesized, e.g. "y^2 + (-x^2 + 1)*y + x^2 - 1"."""
    terms: list[tuple[bool, str]] = []
    for j in range(p.degree, -1, -1):
        c = p.coeff(j)
        ypart = "" if j == 0 else ("y" if j == 1 else f"y^{j}")
        if c.degree <= 0 or j == 0:
            # a constant coefficient, or the x-polynomial tail inlined
            terms += _monomials(c, "x", ypart, den)
        else:
            terms.append((True, f"({format_unipoly(c, 'x', den)})*{ypart}"))
    return _join_terms(terms)


def format_epsilons(eps: tuple[int, ...]) -> str:
    return " ".join("+" if e == 1 else "-" for e in eps)


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'a/b' or integer: {text!r}") from exc


def _rational_list(text: str) -> list[Fraction]:
    values = [_rational(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError(f"no rationals in the list: {text!r}")
    return values


_NEGATIVE_VALUE = re.compile(r"-\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argparse reads a value such as -3/2 (or -5/2,3) as an option
    string, so rewrite "--x -3/2" as "--x=-3/2", and likewise for --x0."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--x", "--x0") and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not an integer >= 1: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riley",
        description="Exact Riley polynomials, real root counts and signatures of two-bridge knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pq(sp):
        sp.add_argument("p", type=int, help="odd integer >= 3")
        sp.add_argument("q", type=int, help="coprime to p, 0 < q < p")

    sp = sub.add_parser("knot", help="normalized id, sign sequence and Schubert word")
    add_pq(sp)

    sp = sub.add_parser("poly", help="Riley polynomial of b(p, q)")
    add_pq(sp)
    sp.add_argument("--x", type=_rational, default=Fraction(2), metavar="RAT",
                    help="meridian trace to specialize at (default 2)")
    sp.add_argument("--bivariate", action="store_true", help="print the full two-variable polynomial")

    sp = sub.add_parser("family", help="closed-form polynomial of a double twist knot")
    sp.add_argument("family", choices=FAMILIES,
                    help="EE=J(2m,2n), EN=J(2m,-2n), OE=J(2m+1,2n), ON=J(2m+1,-2n)")
    sp.add_argument("m", type=_positive_int)
    sp.add_argument("n", type=_positive_int)
    sp.add_argument("--x", type=_rational, default=None, metavar="RAT",
                    help="specialize the meridian trace (default: keep bivariate)")

    sp = sub.add_parser("roots", help="real root count of a specialization")
    add_pq(sp)
    sp.add_argument("--x", type=_rational, default=Fraction(2), metavar="RAT")
    sp.add_argument("--isolate", action="store_true", help="also print isolating intervals")

    sp = sub.add_parser("signature", help="signature data of b(p, q)")
    add_pq(sp)

    sp = sub.add_parser("verify", help="batch checks")
    vsub = sp.add_subparsers(dest="check", required=True)

    sp_c = vsub.add_parser("conjecture", help="root-count conjecture scan over all p <= pmax")
    sp_c.add_argument("--pmax", type=int, required=True)
    sp_c.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sp_c.add_argument("--out", default=None, help="report file (default: records to stdout)")
    sp_c.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                      help="worker processes (default: cpu count)")

    sp_t1 = vsub.add_parser("theorem1", help="even double twist exact-count sweep")
    sp_t1.add_argument("--mmax", type=_positive_int, default=5)
    sp_t1.add_argument("--nmax", type=_positive_int, default=5)

    sp_t2 = vsub.add_parser("theorem2", help="odd double twist lower-bound sweep")
    sp_t2.add_argument("--mmax", type=_positive_int, default=4)
    sp_t2.add_argument("--nmax", type=_positive_int, default=4)
    sp_t2.add_argument("--x0", type=_rational_list, default=[Fraction(2), Fraction(5, 2), Fraction(3)],
                       metavar="LIST", help="comma-separated rationals (default 2,5/2,3)")

    sp = sub.add_parser("crosscheck", help="closed form vs. matrix product, exact")
    sp.add_argument("--mmax", type=_positive_int, default=3)
    sp.add_argument("--nmax", type=_positive_int, default=3)

    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _knot_or_usage(parser: argparse.ArgumentParser, p: int, q: int) -> KnotId:
    try:
        return KnotId(p, q)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_knot(k: KnotId) -> int:
    word = schubert_word(k)
    q_odd = odd_representative(k.p, k.q)
    print(str(k))
    print(f"canonical: {k.canonical()}")
    label = "ε" if q_odd == k.q else f"ε (via q = {q_odd})"
    print(f"{label}: {format_epsilons(word.exponents)}")
    print(f"word: {word.pretty()}")
    print(f"compact: {word.compact()}")
    return EXIT_OK


def _specialized_poly(k: KnotId, x0: Fraction) -> UniPoly:
    if x0 == 2:
        return riley_parabolic(k)
    return normalize_parabolic(riley_general(k).phi_xy.eval_x(x0))


def _cmd_poly(k: KnotId, x0: Fraction, bivariate: bool) -> int:
    if bivariate:
        print(format_bipoly(riley_general(k).phi_xy))
    else:
        print(format_unipoly(_specialized_poly(k, x0)))
    return EXIT_OK


def _cmd_family(family: str, m: int, n: int, x0: Fraction | None) -> int:
    d = DoubleTwist(family, m, n)
    # one packed run gives D*t, D*mu and D^n*Phi; print t = T/D, mu = M/D
    unpack, one, packed = _closed_form_run(d, x0)
    t, mu, phi = map(unpack, packed)
    fmt, normalize = (format_bipoly, normalize_bipoly) if x0 is None else (format_unipoly, normalize_parabolic)
    print(f"{d} = {family_to_pq(d)}")
    print(f"t  = {fmt(t, den=one)}")
    print(f"mu = {fmt(mu, den=one)}")
    print(f"Phi = {fmt(normalize(phi))}")
    return EXIT_OK


def _cmd_roots(k: KnotId, x0: Fraction, isolate: bool) -> int:
    phi = _specialized_poly(k, x0)
    print(f"Phi = {format_unipoly(phi)}")
    if isolate:
        intervals = isolate_roots(phi)
        print(f"real roots: {len(intervals)}")
        for lo, hi in intervals:
            print(f"  ({lo}, {hi})")
    else:
        print(f"real roots: {count_real_roots(phi)}")
    return EXIT_OK


def _cmd_signature(k: KnotId) -> int:
    sig = signature_two_bridge(k)
    print(
        f"|σ| = {sig.sigma_abs} (σ = {sig.sigma_signed:+d} under q-even convention), "
        f"CF = [{', '.join(str(e) for e in sig.cf.entries)}], det = {sig.determinant}"
    )
    return EXIT_OK


def _cmd_verify_conjecture(pmax: int, fmt: str, out: str | None, jobs: int) -> int:
    if pmax % 2 == 0:
        print(f"pmax {pmax} is even; scanning odd p <= {pmax - 1}", file=sys.stderr)
        pmax -= 1
    if out is None:
        result = scan_conjecture(pmax, jobs=jobs)
        sys.stdout.write(emit_report(result.records, format=fmt))
    else:
        # opened before the first knot, so an unwritable path fails at once;
        # the scan's own OSErrors are not relabelled as report errors
        try:
            report = open(out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise OSError(f"cannot write report to {out}: {exc}") from exc
        with report:
            result = scan_conjecture(pmax, jobs=jobs)
            try:
                emit_report(result.records, format=fmt, destination=report)
                report.close()  # its flush can fail too
            except OSError as exc:
                raise OSError(f"cannot write report to {out}: {exc}") from exc
    n_viol = len(result.violations)
    print(
        f"scanned {len(result.records)} knots: {len(result.records) - n_viol} hold, "
        f"{n_viol} violations, {len(result.failures)} errors"
        + (f"; wrote {out}" if out else ""),
        file=sys.stderr if out is None else sys.stdout,
    )
    for pq, msg in result.failures:
        print(f"error at b({pq[0]},{pq[1]}): {msg}", file=sys.stderr)
    for rec in result.violations:
        print(f"counterexample candidate: {record_fields(rec)}", file=sys.stderr)
    if result.failures:
        return EXIT_INTERNAL
    return EXIT_CHECK_FAILED if n_viol else EXIT_OK


def _print_theorem_records(records) -> int:
    certified_failures = 0
    for r in records:
        status = "holds" if r.holds else "FAIL"
        in_range = "in-range" if r.in_range else ("out-of-range" if r.in_range is False else "uncertified")
        print(
            f"{r.family} x0={r.x0} {in_range} expected {r.expected} observed {r.observed_roots}: {status}"
        )
        if not r.holds and r.in_range:
            certified_failures += 1
    total = len(records)
    failed = sum(1 for r in records if not r.holds)
    print(f"{total} records, {total - failed} hold, {failed} fail ({certified_failures} certified)")
    return EXIT_CHECK_FAILED if certified_failures else EXIT_OK


def _cmd_crosscheck(mmax: int, nmax: int) -> int:
    status = EXIT_OK
    for family in FAMILIES:
        for m in range(1, mmax + 1):
            for n in range(1, nmax + 1):
                d = DoubleTwist(family, m, n)
                try:
                    cross_validate(d)
                    print(f"OK {d}: closed form == matrix product")
                except CrossValidationError as exc:
                    print(f"FAIL {d}:\n{exc.diff}")
                    status = EXIT_CHECK_FAILED
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "knot":
            return _cmd_knot(_knot_or_usage(parser, args.p, args.q))
        if args.command == "poly":
            return _cmd_poly(_knot_or_usage(parser, args.p, args.q), args.x, args.bivariate)
        if args.command == "family":
            return _cmd_family(args.family, args.m, args.n, args.x)
        if args.command == "roots":
            return _cmd_roots(_knot_or_usage(parser, args.p, args.q), args.x, args.isolate)
        if args.command == "signature":
            return _cmd_signature(_knot_or_usage(parser, args.p, args.q))
        if args.command == "verify":
            if args.check == "conjecture":
                if args.pmax < 3:
                    parser.error("--pmax must be >= 3")
                if args.jobs < 1:
                    parser.error("--jobs must be >= 1")
                return _cmd_verify_conjecture(args.pmax, args.format, args.out, args.jobs)
            if args.check == "theorem1":
                return _print_theorem_records(sweep_theorem1(args.mmax, args.nmax))
            return _print_theorem_records(sweep_theorem2(args.mmax, args.nmax, args.x0))
        if args.command == "crosscheck":
            return _cmd_crosscheck(args.mmax, args.nmax)
        parser.error(f"unknown command {args.command!r}")
    except (RileyValidationError, SignatureError, ArithmeticError) as exc:
        print(f"internal validation error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CrossValidationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # imported here so that serial runs do not load the pool machinery
        from concurrent.futures import BrokenExecutor

        if not isinstance(exc, BrokenExecutor):
            raise
        print(f"worker process failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
