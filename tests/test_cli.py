import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from riley.cli import (
    EXIT_INTERNAL,
    build_parser,
    format_bipoly,
    format_epsilons,
    format_unipoly,
    main,
)
from riley.exact import BiPoly, UniPoly
from riley.twobridge import epsilon_sequence


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_unipoly():
    assert format_unipoly(UniPoly([-3, 1])) == "y - 3"
    assert format_unipoly(UniPoly([3, -3, 1])) == "y^2 - 3*y + 3"
    assert format_unipoly(UniPoly.zero()) == "0"
    # p/den, each coefficient in lowest terms
    assert format_unipoly(UniPoly([3, 0, 0, -2]), den=2) == "-y^3 + 3/2"
    assert format_unipoly(UniPoly([0, 1]), den=2) == "1/2*y"
    assert format_unipoly(UniPoly([6, -4, 2]), den=4) == "1/2*y^2 - y + 3/2"
    assert format_unipoly(UniPoly.zero(), den=9) == "0"


def test_unipoly_text_roundtrip_random():
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    rng = random.Random(101)
    for _ in range(100):
        p = UniPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 8))])
        den = rng.randint(1, 12)
        parsed = sympy.Poly(sympy.sympify(format_unipoly(p, den=den).replace("^", "**")), y)
        back = [Fraction(int(c.p), int(c.q)) for c in reversed(parsed.all_coeffs())]
        assert back == ([Fraction(c, den) for c in p.coeffs] or [0])


def test_format_bipoly():
    trefoil = BiPoly([UniPoly([1, 0, -1]), UniPoly.const(1)])
    assert format_bipoly(trefoil) == "y - x^2 + 1"
    fig8 = BiPoly([UniPoly([-1, 0, 1]), UniPoly([1, 0, -1]), UniPoly.const(1)])
    assert format_bipoly(fig8) == "y^2 + (-x^2 + 1)*y + x^2 - 1"
    assert format_bipoly(BiPoly.zero()) == "0"
    # constant coefficients of magnitude other than 1 at y^j
    assert format_bipoly(BiPoly([10, 0, -6, 1]), den=2) == "1/2*y^3 - 3*y^2 + 5"
    # a rational x-tail, inlined term by term
    tail = BiPoly([UniPoly([3, -4, -2]), 0, UniPoly([0, 8])])
    assert format_bipoly(tail, den=4) == "(2*x)*y^2 - 1/2*x^2 - x + 3/4"


def test_format_epsilons():
    assert format_epsilons(epsilon_sequence(5, 3)) == "+ - - +"


def test_knot_command(capsys):
    code, out, _ = run_cli(capsys, "knot", "7", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b(7,5)"
    assert lines[1] == "canonical: b(7,3)"
    assert "+ - + + - +" in lines[2]
    assert "a b⁻¹ a b a⁻¹ b" in lines[3]
    assert lines[4] == "compact: aBabAb"


def test_knot_output_pinned(capsys):
    # sha256 of the stdout of `knot p q` for every coprime 0 < q < p with
    # odd p <= 61, even q (the "ε (via q = q - p)" label) included, taken
    # when SchubertWord still held (generator, exponent) letters and ε was
    # printed from its own sign sequence
    digest = hashlib.sha256()
    commands = 0
    for p in range(3, 62, 2):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                code, out, err = run_cli(capsys, "knot", str(p), str(q))
                assert (code, err) == (0, ""), (p, q)
                digest.update(out.encode())
                commands += 1
    assert commands == 788
    assert digest.hexdigest() == "cf826ae200f09c63ecd2ab99420edf244f2dd299a86732b3f03e4d166fa82a75"


def test_knot_command_rejects_even_p(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["knot", "8", "3"])
    assert exc.value.code == 2
    assert "odd" in capsys.readouterr().err


def test_knot_command_rejects_non_coprime(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["knot", "9", "3"])
    assert exc.value.code == 2


def test_poly_command(capsys):
    code, out, _ = run_cli(capsys, "poly", "3", "1")
    assert code == 0 and out.strip() == "y - 3"
    code, out, _ = run_cli(capsys, "poly", "3", "1", "--bivariate")
    assert code == 0 and out.strip() == "y - x^2 + 1"
    code, out, _ = run_cli(capsys, "poly", "5", "2", "--x", "3/2")
    assert code == 0 and out.strip() == "4*y^2 - 5*y + 5"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "theorem1", "--mmax", "0"],
        ["verify", "theorem2", "--x0", ","],
        ["crosscheck", "--nmax", "0"],
    ],
    ids=["theorem1-mmax-0", "theorem2-empty-x0", "crosscheck-nmax-0"],
)
def test_empty_sweep_is_usage_error(capsys, argv):
    # a sweep over nothing would print "0 records" and pass vacuously
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument --" in capsys.readouterr().err


def test_poly_rejects_bad_rational(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "5", "2", "--x", "three"])
    assert exc.value.code == 2


def test_family_command(capsys):
    code, out, _ = run_cli(capsys, "family", "ON", "1", "1", "--x", "2")
    assert code == 0
    assert "J(3,-2) = b(7,5)" in out
    assert "Phi = y^3 - 3*y^2 + 2*y - 1" in out


def test_family_command_runs_the_closed_form_once(capsys, monkeypatch):
    # t, mu and Phi come from one packed run of the family formulas
    from riley import cli, rileypoly

    runs = []
    true_run = rileypoly._closed_form_run

    def counted(*args):
        runs.append(args)
        return true_run(*args)

    monkeypatch.setattr(rileypoly, "_closed_form_run", counted)
    monkeypatch.setattr(cli, "_closed_form_run", counted, raising=False)
    code, out, _ = run_cli(capsys, "family", "EE", "3", "2", "--x", "5/2")
    assert code == 0 and out.startswith("J(6,4) = b(23,19)\n")
    assert len(runs) == 1


def test_family_specialized_output_pinned(capsys):
    # family --x builds (t, mu) and Phi at x0 directly; the bytes are those
    # of evaluating the bivariate objects at x0
    expected = {
        ("ON", "2", "2", "--x", "5/2"): (
            "J(5,-4) = b(21,17)\n"
            "t  = -y^5 + 25/4*y^4 - 15/2*y^3 - 25/4*y^2 + 15/2*y + 25/4\n"
            "mu = y^4 - 21/4*y^3 + 13/4*y^2 + 17/4*y + 1\n"
            "Phi = 16*y^10 - 184*y^9 + 681*y^8 - 603*y^7 - 1377*y^6 + 2136*y^5"
            " + 1340*y^4 - 2320*y^3 - 1085*y^2 + 955*y + 509\n"
        ),
        ("EE", "3", "2", "--x=-3/2"): (
            "J(6,4) = b(23,19)\n"
            "t  = y^6 - 9/4*y^5 - 3/2*y^4 + 9/2*y^3 - 9/4*y + 5/2\n"
            "mu = y^6 - 5/4*y^5 - 11/4*y^4 + 11/4*y^3 + 3/2*y^2 - 3/2*y + 5/4\n"
            "Phi = 16*y^11 - 56*y^10 - 7*y^9 + 189*y^8 - 90*y^7 - 245*y^6 + 220*y^5"
            " + 97*y^4 - 214*y^3 + 33*y^2 + 75*y - 34\n"
        ),
        ("OE", "1", "3", "--x", "0"): (
            "J(3,6) = b(17,11)\n"
            "t  = -y^3 + 3*y\n"
            "mu = -y^3 - y^2 + 2*y + 1\n"
            "Phi = y^8 + y^7 - 7*y^6 - 6*y^5 + 15*y^4 + 10*y^3 - 10*y^2 - 4*y + 1\n"
        ),
    }
    for argv, out in expected.items():
        assert run_cli(capsys, "family", *argv) == (0, out, ""), argv


def test_poly_and_roots_at_rational_x_pinned(capsys):
    # sha256 of the stdout of poly and roots at five x0 other than 2, over
    # every scanned knot with p <= 31 (with --isolate for p <= 15), taken
    # when BiPoly.eval_x still returned rational coefficients: scaling
    # by den(x0)^(deg_x) changes no printed byte
    from riley.verifier import enumerate_knots

    digest = hashlib.sha256()
    commands = 0
    for k in enumerate_knots(31):
        for x0 in ("5/2", "-3/2", "7/3", "1/7", "3"):
            argvs = [["poly", str(k.p), str(k.q), f"--x={x0}"], ["roots", str(k.p), str(k.q), f"--x={x0}"]]
            if k.p <= 15:
                argvs.append([*argvs[1], "--isolate"])
            for argv in argvs:
                code, out, err = run_cli(capsys, *argv)
                assert (code, err) == (0, ""), argv
                digest.update(out.encode())
                commands += 1
    assert commands == 1015
    assert digest.hexdigest() == "f167fa5957ae9cb5e000fa24b15c3a798bd27bb39f5621a308d1d51f7be0395b"


def test_roots_isolate_at_two_pinned(capsys):
    # sha256 of the stdout of `roots p q --isolate` at x = 2 for every
    # scanned knot with p <= 41, taken when isolate_roots still returned a
    # RootCount and took the width as a parameter; b(3,1), Phi = y - 3,
    # puts a bisection midpoint exactly on its root
    from riley.verifier import enumerate_knots

    digest = hashlib.sha256()
    commands = 0
    for k in enumerate_knots(41):
        code, out, err = run_cli(capsys, "roots", str(k.p), str(k.q), "--isolate")
        assert (code, err) == (0, ""), k
        digest.update(out.encode())
        commands += 1
    assert commands == 149
    assert digest.hexdigest() == "fe844d73f693a9e4e929d52142248f9215f745e5122e0a4a82f4799f000b11f9"


def _run_or_exit(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "head, option, value",
    [
        (["roots", "61", "23"], "--x", "-3/2"),
        (["roots", "13", "5", "--isolate"], "--x", "-7"),
        (["poly", "9", "2"], "--x", "-1/3"),
        (["family", "EN", "2", "3"], "--x", "-5/2"),
        (["verify", "theorem2", "--mmax", "2", "--nmax", "2"], "--x0", "-5/2,3"),
    ],
    ids=["roots", "roots-isolate", "poly", "family", "theorem2"],
)
def test_negative_rational_option_value(capsys, head, option, value):
    # argparse reads "-3/2" as an option string; "--x -3/2" must behave
    # exactly like "--x=-3/2"
    joined = _run_or_exit(capsys, [*head, f"{option}={value}"])
    separate = _run_or_exit(capsys, [*head, option, value])
    assert joined[0] == 0
    assert separate == joined


def test_roots_command(capsys):
    code, out, _ = run_cli(capsys, "roots", "7", "3", "--isolate")
    assert code == 0
    assert "real roots: 1" in out
    interval_lines = [l for l in out.splitlines() if l.strip().startswith("(")]
    assert len(interval_lines) == 1


def test_roots_isolate_at_huge_x(capsys):
    # the Cauchy bound at x = 10^100 needs hundreds of bisection levels,
    # more than a recursive bisection could nest
    from riley.cli import _specialized_poly
    from riley.realroots import _signs_at, _sturm_chain, _variations
    from riley.twobridge import KnotId

    x0 = 10**100
    code, out, err = run_cli(capsys, "roots", "7", "3", "--x", str(x0), "--isolate")
    assert (code, err) == (0, "")
    assert "real roots: 3" in out
    intervals = [
        tuple(Fraction(v) for v in line.strip()[1:-1].split(", "))
        for line in out.splitlines()
        if line.startswith("  (")
    ]
    assert len(intervals) == 3
    chain = _sturm_chain(_specialized_poly(KnotId(7, 3), Fraction(x0)))
    for lo, hi in intervals:
        assert _variations(_signs_at(chain, lo)) - _variations(_signs_at(chain, hi)) == 1


def test_roots_contract_failure_exits_internal(capsys, monkeypatch):
    # a Sturm sequence missing its last element breaks the chain contract;
    # the ArithmeticError must end in exit 3, not a traceback
    import riley.realroots

    real_sturm = riley.realroots._int_sturm
    monkeypatch.setattr(riley.realroots, "_int_sturm", lambda f: real_sturm(f)[:-1])
    code, _, err = run_cli(capsys, "roots", "7", "3")
    assert code == 3
    assert err.startswith("internal validation error: ")


def _run_script(script: str) -> subprocess.CompletedProcess:
    """script in a fresh interpreter that imports this checkout's riley,
    with a timeout so that a hang fails here instead of stalling the
    suite."""
    import riley

    src = str(Path(riley.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_scan_with_dying_worker_exits_internal():
    # a forked worker that dies must end the scan with exit 3; two CPUs
    # give one child whatever the host has, it always checks the knots of
    # its first piece, and only the child dies
    proc = _run_script(
        """
        import os, sys
        import riley.verifier as verifier
        from riley.cli import main

        parent = os.getpid()
        real = verifier.check_conjecture

        def dying(k):
            if os.getpid() != parent:
                os._exit(1)
            return real(k)

        os.cpu_count = lambda: 2
        verifier.check_conjecture = dying
        sys.exit(main(["verify", "conjecture", "--pmax", "21", "--jobs", "2"]))
        """
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("worker process failed: ")


def test_cli_import_leaves_the_pool_machinery_unloaded():
    # serial scans, sweeps and crosschecks fork nothing, so loading the
    # CLI must not import pickle or any pool machinery; a parallel scan
    # loads pickle only, in the scan itself
    proc = _run_script(
        """
        import os, sys, riley.cli

        pool = ("concurrent.futures", "multiprocessing")
        print(sorted(m for m in pool + ("pickle",) if m in sys.modules))
        os.cpu_count = lambda: 2
        code = riley.cli.main(["verify", "conjecture", "--pmax", "9", "--jobs", "2"])
        print(code, sorted(m for m in pool if m in sys.modules))
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_signature_command(capsys):
    code, out, _ = run_cli(capsys, "signature", "7", "5")
    assert code == 0
    assert out.strip() == (
        "|σ| = 2 (σ = +2 under q-even convention), CF = [4, 2], det = 7"
    )


def test_verify_conjecture_to_file(tmp_path, capsys):
    out_path = tmp_path / "scan.jsonl"
    code, out, err = run_cli(
        capsys, "verify", "conjecture", "--pmax", "15", "--out", str(out_path), "--jobs", "1"
    )
    assert code == 0
    assert "scanned" in out
    lines = out_path.read_text().splitlines()
    rows = [json.loads(l) for l in lines]
    assert all(r["holds"] for r in rows)
    assert rows[0]["knot"] == "b(3,1)"


def test_verify_conjecture_unwritable_out_is_an_io_error(tmp_path, capsys, monkeypatch):
    # the report is opened before the first knot, so no knot is checked
    import riley.verifier

    checked = []
    real_check = riley.verifier.check_conjecture
    monkeypatch.setattr(
        riley.verifier, "check_conjecture", lambda k: checked.append(k) or real_check(k)
    )
    out_path = tmp_path / "missing" / "r.jsonl"
    code, _, err = run_cli(
        capsys, "verify", "conjecture", "--pmax", "5", "--out", str(out_path), "--jobs", "1"
    )
    assert code == EXIT_INTERNAL
    assert err.startswith("i/o error: cannot write report to ")
    assert not out_path.parent.exists()
    assert checked == []


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_verify_conjecture_failed_report_write_names_the_file(tmp_path, capsys, monkeypatch, failing):
    # a full disk hit while writing the records or flushing them at close
    import errno
    import io

    import riley.cli

    class FullDisk(io.StringIO):
        def write(self, s):
            if failing == "write":
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(s)

        def flush(self):
            if failing == "flush" and not self.closed:
                raise OSError(errno.ENOSPC, "No space left on device")

        def close(self):
            # as a file does: flush, then close even when the flush fails
            try:
                self.flush()
            finally:
                super().close()

    monkeypatch.setattr(riley.cli, "open", lambda *a, **kw: FullDisk(), raising=False)
    out_path = tmp_path / "r.jsonl"
    code, out, err = run_cli(
        capsys, "verify", "conjecture", "--pmax", "5", "--out", str(out_path), "--jobs", "1"
    )
    assert code == EXIT_INTERNAL
    assert err.startswith(f"i/o error: cannot write report to {out_path}: [Errno 28] ")
    assert out == ""


def test_verify_conjecture_three_jobs_match_one(tmp_path, capsys, monkeypatch):
    # three processes, so the caller's pieces and two children's pieces
    # interleave in the report
    from riley.verifier import enumerate_knots

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    paths = [tmp_path / f"jobs{j}.jsonl" for j in (1, 3)]
    for j, path in zip((1, 3), paths):
        code, _, _ = run_cli(
            capsys, "verify", "conjecture", "--pmax", "31", "--out", str(path), "--jobs", str(j)
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert len(paths[0].read_bytes().splitlines()) == len(enumerate_knots(31))


def test_verify_conjecture_stdout_and_even_pmax(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "conjecture", "--pmax", "8", "--jobs", "1")
    assert code == 0
    assert "scanning odd p <= 7" in err
    assert len([l for l in out.splitlines() if l.startswith("{")]) == 6


def test_verify_conjecture_csv(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "verify", "conjecture", "--pmax", "7", "--format", "csv",
        "--out", str(out_path), "--jobs", "1",
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "knot,sigma_abs,degree,real_roots,holds,flag"
    assert len(lines) == 7
    # the knot "b(p,q)" holds a comma, so every row must quote it to keep
    # as many fields as the header
    from riley.verifier import enumerate_knots

    header, *rows = csv.reader(lines)
    assert [row[0] for row in rows] == [str(k) for k in enumerate_knots(7)]
    assert all(len(row) == len(header) for row in rows)


def test_verify_theorem1_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem1", "--mmax", "2", "--nmax", "2")
    assert code == 0
    assert "16 records, 16 hold, 0 fail" in out


def test_verify_theorem2_command(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "theorem2", "--mmax", "1", "--nmax", "2", "--x0", "2,5/2"
    )
    assert code == 0
    assert "8 records, 8 hold" in out


def test_crosscheck_command(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--mmax", "1", "--nmax", "1")
    assert code == 0
    assert out.count("OK") == 4


def test_crosscheck_command_reports_a_disagreement(capsys, monkeypatch):
    from riley import verifier
    from riley.rileypoly import RileyPoly

    real = verifier.riley_general
    monkeypatch.setattr(
        verifier, "riley_general", lambda k: RileyPoly(real(k).phi_xy + UniPoly.gen())
    )
    code, out, _ = run_cli(capsys, "crosscheck", "--mmax", "1", "--nmax", "1")
    assert code == 1
    assert out.count("FAIL J(") == 4
    assert "y^0: closed=" in out


def test_unmapped_exception_propagates(monkeypatch):
    # main maps only its own error types to exit codes; anything else
    # (here a KeyError from a command handler) is re-raised, not reported
    # as a failed worker process
    from riley import cli

    def broken(k):
        raise KeyError("not an error main maps")

    monkeypatch.setattr(cli, "_cmd_signature", broken)
    with pytest.raises(KeyError, match="not an error main maps"):
        main(["signature", "7", "3"])


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("knot", "poly", "family", "roots", "signature", "verify", "crosscheck"):
        assert name in out


def test_verify_help_lists_checks(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("conjecture", "theorem1", "theorem2"):
        assert name in out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2
