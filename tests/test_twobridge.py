import math

import pytest

from riley.twobridge import (
    FAMILIES,
    DoubleTwist,
    KnotId,
    SchubertWord,
    epsilon_sequence,
    family_to_pq,
    odd_representative,
    schubert_word,
)


def test_normalize_examples():
    # canonical() takes min(q, q^-1 mod p); reduce q mod p before building
    assert KnotId(5, 3).canonical() == KnotId(5, 2)
    assert KnotId(3, 1).canonical() == KnotId(3, 1)
    assert KnotId(7, 5).canonical() == KnotId(7, 3)
    assert KnotId(7, 12 % 7).canonical() == KnotId(7, 3)


def test_normalize_rejects_links_and_non_coprime():
    with pytest.raises(ValueError, match="link"):
        KnotId(8, 3)
    with pytest.raises(ValueError):
        KnotId(9, 3)
    with pytest.raises(ValueError):
        KnotId(9, 6)


def test_knotid_link_note_only_for_even_p():
    with pytest.raises(ValueError, match=r"^p must be an odd integer >= 3, got 1$"):
        KnotId(1, 1)
    with pytest.raises(ValueError, match=r"got 4 \(even p gives a link, not a knot\)$"):
        KnotId(4, 1)


def test_knotid_rejects_q_out_of_range():
    # 9 is coprime to 7, so only the range guard refuses q >= p
    with pytest.raises(ValueError, match="q must satisfy"):
        KnotId(7, 9)
    with pytest.raises(ValueError, match="q must satisfy"):
        KnotId(7, 0)


def test_knotid_mirror_and_canonical():
    k = KnotId(7, 5)
    assert k.canonical() == KnotId(7, 3)
    assert KnotId(k.p, k.p - k.q).canonical() == KnotId(7, 2)  # the mirror
    assert str(k) == "b(7,5)"


def test_epsilon_examples():
    assert epsilon_sequence(3, 1) == (1, 1)
    assert epsilon_sequence(5, 3) == (1, -1, -1, 1)
    assert epsilon_sequence(7, 5)[3 - 1] == 1  # floor(15/7) = 2
    # q may be the negative odd representative: floor(-j/5) is odd at j = 1..4
    assert epsilon_sequence(5, -1) == (-1, -1, -1, -1)


def test_word_palindrome_up_to_200():
    # the word-building sequence (odd representative) is palindromic
    for p in range(3, 201, 2):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            eps = epsilon_sequence(p, odd_representative(p, q))
            assert eps == eps[::-1], (p, q)


def test_epsilon_parity_reversal_law():
    # for the literal formula, reversing j flips signs exactly when q is even
    for p in range(3, 60, 2):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            eps = epsilon_sequence(p, q)
            sign = 1 if q % 2 else -1
            assert all(eps[j] == sign * eps[p - 2 - j] for j in range(p - 1)), (p, q)


def test_schubert_word_examples():
    assert schubert_word(KnotId(3, 1)).compact() == "ab"
    assert schubert_word(KnotId(5, 3)).compact() == "aBAb"
    # derived from the floor formula at q = 5, j = 1..6
    assert schubert_word(KnotId(7, 5)).compact() == "aBabAb"
    assert schubert_word(KnotId(7, 5)).pretty() == "a b⁻¹ a b a⁻¹ b"


def test_word_shape():
    for p in range(3, 40, 2):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            w = schubert_word(KnotId(p, q))
            assert len(w) == p - 1
            # the generator is implied by the position: a, b, a, ..., b
            assert w.compact().lower() == "ab" * ((p - 1) // 2), (p, q)


def test_word_validation():
    with pytest.raises(ValueError, match="exponent"):
        SchubertWord((2,))
    with pytest.raises(ValueError, match="letter 2 has exponent 0"):
        SchubertWord((1, 0))


def test_family_to_pq_known_values():
    assert family_to_pq(DoubleTwist("EE", 1, 1)) == KnotId(3, 1)
    assert family_to_pq(DoubleTwist("EN", 1, 1)) == KnotId(5, 3)
    assert family_to_pq(DoubleTwist("ON", 1, 1)) == KnotId(7, 5)
    assert family_to_pq(DoubleTwist("OE", 1, 1)) == KnotId(5, 3)
    assert family_to_pq(DoubleTwist("EE", 2, 3)) == KnotId(23, 17)
    assert family_to_pq(DoubleTwist("EN", 2, 3)) == KnotId(25, 19)
    assert family_to_pq(DoubleTwist("OE", 2, 3)) == KnotId(29, 23)
    assert family_to_pq(DoubleTwist("ON", 2, 3)) == KnotId(31, 25)


def test_double_twist_str_and_twists():
    assert str(DoubleTwist("EE", 2, 3)) == "J(4,6)"
    assert str(DoubleTwist("ON", 1, 2)) == "J(3,-4)"
    assert DoubleTwist("OE", 2, 1).twists == (5, 2)
    with pytest.raises(ValueError):
        DoubleTwist("XX", 1, 1)
    with pytest.raises(ValueError):
        DoubleTwist("EE", 0, 1)


def test_family_word_small():
    # a family's relator word is the floor-formula word of family_to_pq
    assert schubert_word(family_to_pq(DoubleTwist("EE", 1, 1))).compact() == "ab"
    assert schubert_word(family_to_pq(DoubleTwist("EN", 1, 1))).compact() == "aBAb"
    assert schubert_word(family_to_pq(DoubleTwist("ON", 1, 1))).compact() == "aBabAb"


def test_family_word_matches_schubert_word():
    # every family's q is odd, so schubert_word takes its exponents from
    # the floor formula at that very q: acceptance criterion 8 compares
    # the family sign formulas with exactly these exponents
    for family in FAMILIES:
        for m in range(1, 9):
            for n in range(1, 9):
                k = family_to_pq(DoubleTwist(family, m, n))
                assert odd_representative(k.p, k.q) == k.q, (family, m, n)
                assert schubert_word(k).exponents == epsilon_sequence(k.p, k.q), (family, m, n)


def test_schubert_word_matches_epsilon_sequence_up_to_99():
    # the word holds the signs at the odd representative of q, and both
    # renderings put a at odd j and b at even j
    for p in range(3, 100, 2):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                w = schubert_word(KnotId(p, q))
                eps = epsilon_sequence(p, odd_representative(p, q))
                assert w.exponents == eps, (p, q)
                letters = [("a" if j % 2 else "b", e) for j, e in enumerate(eps, 1)]
                assert w.compact() == "".join(g if e == 1 else g.upper() for g, e in letters)
                assert w.pretty() == " ".join(g if e == 1 else g + "⁻¹" for g, e in letters)
