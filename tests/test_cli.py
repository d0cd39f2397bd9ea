import json
import random
from fractions import Fraction

import pytest

from riley.cli import (
    build_parser,
    format_bipoly,
    format_epsilons,
    format_unipoly,
    main,
    parse_unipoly,
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
    assert format_unipoly(UniPoly([Fraction(3, 2), 0, 0, -1])) == "-y^3 + 3/2"
    assert format_unipoly(UniPoly.zero()) == "0"
    assert format_unipoly(UniPoly([0, Fraction(1, 2)])) == "1/2*y"


def test_parse_unipoly_examples():
    assert parse_unipoly("y - 3") == UniPoly([-3, 1])
    assert parse_unipoly("y^2 - 3*y + 3") == UniPoly([3, -3, 1])
    assert parse_unipoly("-y^3 + 3/2") == UniPoly([Fraction(3, 2), 0, 0, -1])
    assert parse_unipoly("0") == UniPoly.zero()
    with pytest.raises(ValueError):
        parse_unipoly("y + + 3")
    with pytest.raises(ValueError):
        parse_unipoly("2z + 1")


def test_unipoly_text_roundtrip_random():
    rng = random.Random(101)
    for _ in range(100):
        coeffs = [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            for _ in range(rng.randint(1, 8))
        ]
        p = UniPoly(coeffs)
        assert parse_unipoly(format_unipoly(p)) == p


def test_format_bipoly():
    trefoil = BiPoly([UniPoly([1, 0, -1]), UniPoly.const(1)])
    assert format_bipoly(trefoil) == "y - x^2 + 1"
    fig8 = BiPoly([UniPoly([-1, 0, 1]), UniPoly([1, 0, -1]), UniPoly.const(1)])
    assert format_bipoly(fig8) == "y^2 + (-x^2 + 1)*y + x^2 - 1"
    assert format_bipoly(BiPoly.zero()) == "0"


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


def test_poly_rejects_bad_rational(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "5", "2", "--x", "three"])
    assert exc.value.code == 2


def test_family_command(capsys):
    code, out, _ = run_cli(capsys, "family", "ON", "1", "1", "--x", "2")
    assert code == 0
    assert "J(3,-2) = b(7,5)" in out
    assert "Phi = y^3 - 3*y^2 + 2*y - 1" in out


def test_roots_command(capsys):
    code, out, _ = run_cli(capsys, "roots", "7", "3", "--isolate")
    assert code == 0
    assert "real roots: 1" in out
    interval_lines = [l for l in out.splitlines() if l.strip().startswith("(")]
    assert len(interval_lines) == 1


def test_roots_contract_failure_exits_internal(capsys, monkeypatch):
    # a Sturm sequence missing its last element breaks the chain contract;
    # the ArithmeticError must end in exit 3, not a traceback
    import riley.realroots

    real_sturm = riley.realroots._int_sturm
    monkeypatch.setattr(riley.realroots, "_int_sturm", lambda f: real_sturm(f)[:-1])
    code, _, err = run_cli(capsys, "roots", "7", "3")
    assert code == 3
    assert err.startswith("internal validation error: ")


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


def test_rily_jobs_env_fallback(monkeypatch):
    from riley.cli import _default_jobs

    monkeypatch.setenv("RILEY_JOBS", "3")
    assert _default_jobs() == 3
    monkeypatch.setenv("RILEY_JOBS", "bogus")
    assert _default_jobs() >= 1


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2
