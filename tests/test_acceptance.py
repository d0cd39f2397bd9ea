"""Acceptance suite: one test per release criterion, each printing a
PASS line when it holds (run with `pytest tests/test_acceptance.py -v -s`).

Everything here is exact: integer comparisons and exact polynomial
equalities, except the explicitly float-tolerance Chebyshev root checks
(1e-9).
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from riley.chebyshev import cheb_poly
from riley.exact import BiPoly, UniPoly, compose
from riley.rileypoly import closed_form_params, riley_general, riley_parabolic
from riley.signature import signature_two_bridge
from riley.twobridge import FAMILIES, DoubleTwist, KnotId, epsilon, family_to_pq
from riley.verifier import check_theorem1, check_theorem2, cross_validate, enumerate_knots

Y = UniPoly.gen()


def _ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {message}")


@pytest.fixture(scope="module")
def cli_scan(tmp_path_factory):
    """One full CLI conjecture scan to p = 99 with default parallelism."""
    out = tmp_path_factory.mktemp("scan") / "conjecture_p99.jsonl"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "riley", "verify", "conjecture", "--pmax", "99",
         "--format", "jsonl", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    return out, elapsed


def test_criterion_1_even_positive_exact_one_root():
    checked = 0
    for m in range(1, 6):
        for n in range(1, 6):
            for x0 in (Fraction(2), 2 - Fraction(1, 16 * m * n)):
                ee, _ = check_theorem1(m, n, x0)
                assert ee.in_range is True, (m, n, x0)
                assert ee.observed_roots == 1, (m, n, x0)
                checked += 1
    _ok(1, f"J(2m,2n) has exactly one real root at {checked} certified (m,n,x0) points")


def test_criterion_2_even_negative_no_roots():
    checked = 0
    for m in range(1, 6):
        for n in range(1, 6):
            for x0 in (Fraction(2), 2 - Fraction(1, 16 * m * n)):
                _, en = check_theorem1(m, n, x0)
                assert en.in_range is True, (m, n, x0)
                assert en.observed_roots == 0, (m, n, x0)
                checked += 1
    _ok(2, f"J(2m,-2n) has no real roots at {checked} certified (m,n,x0) points")


def test_criterion_3_odd_family_lower_bounds():
    checked = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for x0 in (Fraction(2), Fraction(5, 2), Fraction(3)):
                oe, on = check_theorem2(m, n, x0)
                assert oe.observed_roots >= n - 1, (m, n, x0)
                assert on.observed_roots >= n, (m, n, x0)
                checked += 2
    _ok(3, f"J(2m+1,2n) >= n-1 and J(2m+1,-2n) >= n real roots at {checked} records")


def test_criterion_4_conjecture_scan_p99(cli_scan):
    out, elapsed = cli_scan
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    expected = [str(k) for k in enumerate_knots(99)]
    assert [r["knot"] for r in rows] == expected, "one record per canonical (p, q)"
    assert all(r["holds"] for r in rows), "zero holds:false records"
    for r, k in zip(rows, enumerate_knots(99)):
        assert r["degree"] == (k.p - 1) // 2
    assert elapsed < 60, f"scan took {elapsed:.1f}s"
    _ok(4, f"scan of {len(rows)} knots to p=99 all hold, degrees (p-1)/2, {elapsed:.1f}s < 60s")


def test_criterion_5_closed_form_equals_matrix_product():
    for family in FAMILIES:
        for m in range(1, 4):
            for n in range(1, 4):
                assert cross_validate(DoubleTwist(family, m, n)) is True
    _ok(5, "closed forms equal the matrix construction exactly (4 families, m,n <= 3)")


def _signature_family(d: DoubleTwist) -> int:
    """Known signature of each double twist family."""
    if d.family == "EE":
        return 2
    if d.family == "EN":
        return 0
    if d.family == "OE":
        return 2 - 2 * d.n
    return 2 * d.n


def test_criterion_6_signatures():
    for family in FAMILIES:
        for m in range(1, 7):
            for n in range(1, 7):
                d = DoubleTwist(family, m, n)
                assert signature_two_bridge(family_to_pq(d)).sigma_abs == abs(
                    _signature_family(d)
                ), d
    for p in range(3, 100, 2):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                assert abs(signature_two_bridge(KnotId(p, q)).determinant) == p, (p, q)
    _ok(6, "family signatures match (m,n <= 6) and |det| = p for every knot with p <= 99")


def test_criterion_7_identity_suite():
    z = UniPoly.gen()
    # Chebyshev recurrence identity, exact for k <= 20
    for k in range(1, 21):
        sk, sk1 = cheb_poly(k), cheb_poly(k - 1)
        assert sk * sk + sk1 * sk1 - z * sk * sk1 == UniPoly.const(1)

    # product forms at float tolerance 1e-9
    def feval(p, x):
        acc = 0.0
        for c in reversed(p.coeffs):
            acc = acc * x + float(c)
        return acc

    for k in range(1, 9):
        for j in range(1, k + 1):
            assert abs(feval(cheb_poly(k), 2 * math.cos(j * math.pi / (k + 1)))) < 1e-9
            diff = cheb_poly(k) - cheb_poly(k - 1)
            assert abs(feval(diff, 2 * math.cos((2 * j - 1) * math.pi / (2 * k + 1)))) < 1e-9

    u = BiPoly([UniPoly([2, 0, -1]), UniPoly.const(1)])  # y + 2 - x^2
    two_minus_x2 = BiPoly.const(UniPoly([2, 0, -1]))

    def embed(p):
        return BiPoly([UniPoly.const(c) for c in p.coeffs])

    # even-family factorization, exact, m,n <= 4
    for m in range(1, 5):
        for n in range(1, 5):
            params = closed_form_params(DoubleTwist("EE", m, n))
            s_m1 = embed(cheb_poly(m - 1))
            assert (
                params.mu * params.mu + 1 - params.mu * params.t
                == u * s_m1 * s_m1 * (params.t + two_minus_x2)
            ), (m, n)

    # odd-family identity 2 - t = (y - x^2 + 2)(S_m - S_{m-1})^2, m <= 4
    for m in range(1, 5):
        t = closed_form_params(DoubleTwist("ON", m, 1)).t
        d = embed(cheb_poly(m) - cheb_poly(m - 1))
        assert 2 - t == u * d * d, m

    # raw closed form boundary values, m,n <= 4
    for m in range(1, 5):
        for n in range(1, 5):
            ee = closed_form_params(DoubleTwist("EE", m, n))
            raw_ee = compose(cheb_poly(n), ee.t) - ee.mu * compose(cheb_poly(n - 1), ee.t)
            assert raw_ee(UniPoly.const(2)) == UniPoly([1 - 4 * m * n, 0, m * n])
            on = closed_form_params(DoubleTwist("ON", m, n))
            raw_on = compose(cheb_poly(n), on.t) - on.mu * compose(cheb_poly(n - 1), on.t)
            assert raw_on(UniPoly([-2, 0, 1])) == UniPoly.const(1)
    _ok(7, "Chebyshev identities, even-family factorization, odd-family identity, boundary values")


def _epsilon_fast(d: DoubleTwist, j: int) -> int:
    """Family-specific closed form for e_j, 1 <= j <= p-1.

    Dividing j by the twist-region period (2m, or 2m+1 for the odd
    families) as j = period*q + r gives:

      EE: (-1)^(q+r-1)
      EN: (-1)^(q+r-1) if r >= 1, else (-1)^q
      OE: (-1)^(r-1)
      ON: (-1)^(r-1) if r >= 1, else +1
    """
    if d.family in ("EE", "EN"):
        quo, r = divmod(j, 2 * d.m)
        if d.family == "EN" and r == 0:
            return -1 if quo % 2 else 1
        return -1 if (quo + r - 1) % 2 else 1
    quo, r = divmod(j, 2 * d.m + 1)
    if d.family == "ON" and r == 0:
        return 1
    return -1 if (r - 1) % 2 else 1


def test_criterion_8_sign_lemma_equivalence():
    checked = 0
    for family in FAMILIES:
        for m in range(1, 11):
            for n in range(1, 11):
                d = DoubleTwist(family, m, n)
                k = family_to_pq(d)
                for j in range(1, k.p):
                    assert _epsilon_fast(d, j) == epsilon(k.p, k.q, j), (d, j)
                    checked += 1
    _ok(8, f"family sign formulas match the floor formula at {checked} (family,m,n,j) points")


def test_criterion_9_spot_values():
    assert riley_general(KnotId(3, 1)).phi_xy == BiPoly(
        [UniPoly([1, 0, -1]), UniPoly.const(1)]
    )  # x^2 - 1 - y, normalized
    assert riley_parabolic(KnotId(5, 2)) == UniPoly([3, -3, 1])
    assert riley_parabolic(KnotId(7, 5)) == UniPoly([-1, 2, -3, 1])
    _ok(9, "spot polynomials for b(3,1), b(5,2), b(7,5) match exactly")


def test_criterion_10_deterministic_reports(cli_scan, tmp_path):
    out, _ = cli_scan
    second = tmp_path / "again.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "riley", "verify", "conjecture", "--pmax", "99",
         "--format", "jsonl", "--out", str(second)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == second.read_bytes()
    _ok(10, "repeated p=99 scans produce byte-identical report files")
