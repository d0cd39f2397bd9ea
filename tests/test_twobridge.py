import math

import pytest

from riley.twobridge import (
    FAMILIES,
    DoubleTwist,
    KnotId,
    SchubertWord,
    epsilon,
    epsilon_fast,
    epsilon_sequence,
    family_to_pq,
    family_word,
    normalize,
    odd_representative,
    schubert_word,
)


def test_normalize_examples():
    assert normalize(5, 3) == KnotId(5, 2)
    assert normalize(3, 1) == KnotId(3, 1)
    assert normalize(7, 5) == KnotId(7, 3)
    assert normalize(7, 12) == KnotId(7, 3)  # q reduced mod p first


def test_normalize_rejects_links_and_non_coprime():
    with pytest.raises(ValueError, match="link"):
        normalize(8, 3)
    with pytest.raises(ValueError):
        normalize(9, 3)
    with pytest.raises(ValueError):
        KnotId(9, 6)


def test_knotid_mirror_and_canonical():
    k = KnotId(7, 5)
    assert not k.is_canonical
    assert k.canonical() == KnotId(7, 3)
    assert k.mirror() == KnotId(7, 2)
    assert str(k) == "b(7,5)"


def test_epsilon_examples():
    assert epsilon_sequence(3, 1) == (1, 1)
    assert epsilon_sequence(5, 3) == (1, -1, -1, 1)
    assert epsilon(7, 5, 3) == 1  # floor(15/7) = 2
    with pytest.raises(ValueError):
        epsilon(5, 3, 5)
    with pytest.raises(ValueError):
        epsilon(5, 3, 0)


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
            gens = [g for g, _ in w.letters]
            assert gens[0] == "a" and gens[-1] == "b"
            assert all(g == ("a" if i % 2 == 0 else "b") for i, g in enumerate(gens))


def test_word_validation():
    with pytest.raises(ValueError, match="alternate"):
        SchubertWord((("a", 1), ("a", 1)))
    with pytest.raises(ValueError, match="exponent"):
        SchubertWord((("a", 2),))


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
    assert family_word(DoubleTwist("EE", 1, 1)).compact() == "ab"
    assert family_word(DoubleTwist("EN", 1, 1)).compact() == "aBAb"
    assert family_word(DoubleTwist("ON", 1, 1)).compact() == "aBabAb"


def test_family_word_length_contract_raises(monkeypatch):
    # a plain exception, so the check survives python -O
    import riley.twobridge

    monkeypatch.setattr(riley.twobridge, "_word_length", lambda d: 0)
    with pytest.raises(ValueError, match="length"):
        family_word(DoubleTwist("EE", 1, 1))


def test_family_word_matches_schubert_word():
    for family in FAMILIES:
        for m in range(1, 9):
            for n in range(1, 9):
                d = DoubleTwist(family, m, n)
                assert family_word(d).letters == schubert_word(family_to_pq(d)).letters, d


def test_epsilon_fast_examples():
    assert epsilon_fast(DoubleTwist("EE", 1, 1), 1) == 1
    assert epsilon_fast(DoubleTwist("EN", 1, 1), 2) == -1
    assert epsilon_fast(DoubleTwist("ON", 1, 1), 3) == 1


def test_epsilon_fast_matches_floor_formula():
    for family in FAMILIES:
        for m in range(1, 11):
            for n in range(1, 11):
                d = DoubleTwist(family, m, n)
                k = family_to_pq(d)
                for j in range(1, k.p):
                    assert epsilon_fast(d, j) == epsilon(k.p, k.q, j), (d, j)


def test_epsilon_fast_range_errors():
    d = DoubleTwist("EE", 2, 2)
    limit = family_to_pq(d).p - 1
    with pytest.raises(ValueError):
        epsilon_fast(d, 0)
    with pytest.raises(ValueError):
        epsilon_fast(d, limit + 1)
