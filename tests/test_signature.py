import builtins
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from riley.exact import UniPoly
from riley.realroots import _IntChain, cauchy_bound
from riley import signature
from riley.signature import EvenCF, SignatureError, even_cf, signature_two_bridge
from riley.twobridge import DoubleTwist, KnotId, family_to_pq, schubert_word
from riley.verifier import enumerate_knots


def _charpoly(entries):
    """det(lambda*I - M) for the tridiagonal M with diagonal `entries` and
    off-diagonal 1, by cofactor expansion along the last row."""
    prev, cur = [1], [-entries[0], 1]
    for a in entries[1:]:
        nxt = [0] * (len(cur) + 1)
        for j, c in enumerate(cur):
            nxt[j + 1] += c
            nxt[j] -= a * c
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt
    return UniPoly(cur)


def _oracle_signature(entries):
    """dim - 2 * (#negative eigenvalues), counted by Sturm's method on the
    characteristic polynomial.  An unreduced tridiagonal matrix has simple
    eigenvalues, so distinct roots are all the roots."""
    chi = _charpoly(entries)
    bound = cauchy_bound(chi) + 1
    assert chi(0) != 0
    return len(entries) - 2 * _IntChain(chi).count_open(-bound, Fraction(0))


def test_even_cf_hand_expansions():
    assert even_cf(KnotId(3, 1)).entries == (2, 2)  # 3/2 = 2 - 1/2
    assert even_cf(KnotId(5, 2)).entries == (2, -2)  # 5/2 = 2 - 1/(-2)
    assert even_cf(KnotId(7, 5)).entries == (4, 2)  # 7/2 = 4 - 1/2


def test_even_cf_uses_even_representative():
    # q = 7 is odd, so the expansion runs on q* = 9 - 7 = 2
    assert even_cf(KnotId(9, 7)).entries == (4, -2)
    assert even_cf(KnotId(9, 2)).entries == (4, -2)


def _cf_value(entries):
    """e_1 - 1/(e_2 - 1/(...)), in Fractions."""
    acc = Fraction(entries[-1])
    for e in reversed(entries[:-1]):
        acc = e - 1 / acc
    return acc


def test_even_cf_roundtrip_scan_set():
    for p in range(3, 100, 2):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            k = KnotId(p, q)
            cf = even_cf(k)
            q_star = q if q % 2 == 0 else p - q
            assert _cf_value(cf.entries) == Fraction(p, q_star), (p, q)
            assert len(cf) % 2 == 0
            assert all(e % 2 == 0 and e != 0 for e in cf.entries)


def test_even_cf_validation():
    with pytest.raises(ValueError):
        EvenCF((2, 3))
    with pytest.raises(ValueError):
        EvenCF((2, 0))
    with pytest.raises(ValueError):
        EvenCF(())


def test_even_cf_step_bound_is_enforced(monkeypatch):
    # the expansion of 29/12 takes more than one step; with the loop cut
    # to one step it cannot end, and the step bound must raise rather
    # than hand a truncated expansion to the round trip
    monkeypatch.setattr(signature, "range", lambda n: builtins.range(1), raising=False)
    with pytest.raises(SignatureError, match="did not end within 29 steps"):
        even_cf(KnotId(29, 12))


def test_even_cf_round_trip_catches_a_corrupted_entry(monkeypatch):
    # the round trip reads the entries back to front; corrupt the last one
    # as it is read, and the continuants no longer give p/q*
    true_reversed = builtins.reversed
    monkeypatch.setattr(
        signature,
        "reversed",
        lambda xs: [xs[-1] + 2, *true_reversed(xs[:-1])],
        raising=False,
    )
    with pytest.raises(SignatureError, match="failed its round-trip check"):
        even_cf(KnotId(29, 12))


def test_even_cf_refuses_odd_length():
    # a link is not a KnotId; b(2, 1), the Hopf link, has the one-entry
    # expansion 2/1 = [2], which passes the round trip but has odd length
    with pytest.raises(SignatureError, match="has odd length 1"):
        even_cf(SimpleNamespace(p=2, q=1))


def test_signature_two_bridge_checks_the_determinant(monkeypatch):
    # one corrupted entry changes the continuant, so |det| != p
    true_even_cf = signature.even_cf
    monkeypatch.setattr(
        signature, "even_cf", lambda k: EvenCF((true_even_cf(k).entries[0] + 2, *true_even_cf(k).entries[1:]))
    )
    with pytest.raises(SignatureError, match=r"\|det\| = \d+ != p = 29 for b\(29,12\)"):
        signature_two_bridge(KnotId(29, 12))


def test_even_cf_signature_examples():
    assert EvenCF((2, 2)).signature() == 2  # eigenvalues 1, 3
    assert EvenCF((2, -2)).signature() == 0  # det < 0
    assert EvenCF((4, 2)).signature() == 2
    assert EvenCF((-4,)).signature() == -1
    # continuant abcd - cd - ad - ab + 1 at (a, b, c, d) = (2, 4, -6, 8)
    assert EvenCF((2, 4, -6, 8)).determinant() == -359


def test_signature_matches_charpoly_oracle_p99():
    for p in range(3, 100, 2):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            s = signature_two_bridge(KnotId(p, q))
            assert s.sigma_signed == _oracle_signature(s.cf.entries), (p, q)


def test_signature_matches_charpoly_oracle_random_entries():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    even = st.integers(-20, 20).filter(lambda e: e != 0).map(lambda e: 2 * e)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(even, min_size=1, max_size=12))
    def check(entries):
        cf = EvenCF(tuple(entries))
        assert cf.signature() == _oracle_signature(entries)
        assert cf.determinant() == (-1) ** len(entries) * _charpoly(entries)(0)

    check()


def test_determinant_identity_full_scan():
    for p in range(3, 100, 2):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            assert abs(signature_two_bridge(KnotId(p, q)).determinant) == p, (p, q)


def test_signature_two_bridge_examples():
    assert signature_two_bridge(KnotId(3, 1)).sigma_abs == 2
    assert signature_two_bridge(KnotId(5, 2)).sigma_abs == 0
    s = signature_two_bridge(KnotId(9, 7))
    assert s.sigma_abs == 0
    assert s.determinant == -9
    assert s.cf.entries == (4, -2)


def test_signature_family_values():
    for d, sigma_abs in (
        (DoubleTwist("EE", 3, 4), 2),
        (DoubleTwist("EN", 2, 4), 0),
        (DoubleTwist("OE", 1, 3), 4),
        (DoubleTwist("ON", 1, 1), 2),
    ):
        assert signature_two_bridge(family_to_pq(d)).sigma_abs == sigma_abs, d


def test_family_signature_cross_check():
    # the known family signatures 2, 0, 2 - 2n and 2n, up to sign
    for family in ("EE", "EN", "OE", "ON"):
        for m in range(1, 7):
            for n in range(1, 7):
                d = DoubleTwist(family, m, n)
                known = {"EE": 2, "EN": 0, "OE": 2 - 2 * n, "ON": 2 * n}[family]
                assert signature_two_bridge(family_to_pq(d)).sigma_abs == abs(known), d


def test_sigma_parity_and_bound():
    for p in range(3, 60, 2):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            s = signature_two_bridge(KnotId(p, q))
            assert s.sigma_signed % 2 == 0
            assert abs(s.sigma_signed) <= len(s.cf)


def test_sigma_abs_is_the_exponent_sum_of_the_relator_word():
    # an oracle independent of the even continued fraction: by the
    # classical exponent-sum formula for two-bridge knots (Murasugi),
    # |sigma(b(p, q))| = |sum_j e_j| over the Schubert word.  The signed
    # sum follows another sign convention (equal to sigma_signed on some
    # knots, opposite on others), so only absolute values are compared
    knots = list(enumerate_knots(199))
    assert len(knots) == 3154
    for k in knots:
        exponent_sum = sum(schubert_word(k).exponents)
        assert abs(exponent_sum) == signature_two_bridge(k).sigma_abs, k
