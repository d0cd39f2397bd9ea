import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from riley import rileypoly
from riley.chebyshev import cheb_pair, cheb_poly
from riley.exact import (
    BiPoly,
    UniPoly,
    _int_primitive,
    _zadd,
    _zmul,
    _zsub,
)
from riley.realroots import count_real_roots
from riley.signature import signature_two_bridge
from riley.rileypoly import (
    ClosedFormParams,
    RileyValidationError,
    _laurent_add,
    _laurent_mul,
    _laurent_shift,
    _laurent_sub,
    closed_form_params,
    normalize_bipoly,
    normalize_parabolic,
    riley_closed_form,
    riley_closed_form_at,
    riley_general,
    riley_parabolic,
    symmetrize_to_xy,
    word_matrix,
)
from riley.twobridge import (
    FAMILIES,
    DoubleTwist,
    KnotId,
    SchubertWord,
    family_to_pq,
    schubert_word,
)
from riley.verifier import check_theorem1, check_theorem2, enumerate_knots

Y = UniPoly.gen()


# --- independent oracle: 2x2 products over flat {(s_exp, y_exp): int} dicts ---


def _e_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _e_mul(a, b):
    out = {}
    for (sa, ya), ca in a.items():
        for (sb, yb), cb in b.items():
            k = (sa + sb, ya + yb)
            out[k] = out.get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _m_mul(a, b):
    return [
        [
            _e_add(_e_mul(a[0][0], b[0][0]), _e_mul(a[0][1], b[1][0])),
            _e_add(_e_mul(a[0][0], b[0][1]), _e_mul(a[0][1], b[1][1])),
        ],
        [
            _e_add(_e_mul(a[1][0], b[0][0]), _e_mul(a[1][1], b[1][0])),
            _e_add(_e_mul(a[1][0], b[0][1]), _e_mul(a[1][1], b[1][1])),
        ],
    ]


_ORACLE_GEN = {
    ("a", 1): [[{(1, 0): 1}, {(0, 0): 1}], [{}, {(-1, 0): 1}]],
    ("a", -1): [[{(-1, 0): 1}, {(0, 0): -1}], [{}, {(1, 0): 1}]],
    ("b", 1): [[{(1, 0): 1}, {}], [{(0, 0): 2, (0, 1): -1}, {(-1, 0): 1}]],
    ("b", -1): [[{(-1, 0): 1}, {}], [{(0, 0): -2, (0, 1): 1}, {(1, 0): 1}]],
}


def _e_shift(a, k):
    """s^k a."""
    return {(se + k, ye): c for (se, ye), c in a.items()}


def _e_two_minus_y(a):
    return _e_mul(a, {(0, 0): 2, (0, 1): -1})


def _e_sub(a, b):
    return _e_add(a, {k: -v for k, v in b.items()})


def _e_norm(a) -> int:
    return sum(map(abs, a.values()))


def oracle_word_matrix(word: SchubertWord):
    m = [[{(0, 0): 1}, {}], [{}, {(0, 0): 1}]]
    for letter in zip(itertools.cycle("ab"), word.exponents):
        m = _m_mul(m, _ORACLE_GEN[letter])
    return m


def to_flat(entry):
    return {(k, j): coeff for k, ys in entry.items() for j, coeff in enumerate(ys) if coeff}


def _word(compact: str) -> SchubertWord:
    assert compact.lower() == ("ab" * len(compact))[: len(compact)], compact
    return SchubertWord(tuple(1 if c.islower() else -1 for c in compact))


def _at_s_one(f):
    """An unpacked Laurent entry {s-exponent: y-list} at s = 1, in Z[y]."""
    return sum(map(UniPoly, f.values()), UniPoly.zero())


def _packed_flat(f, bits: int) -> dict:
    """A flat oracle entry with y packed as 2^bits: {s-exponent: int}."""
    out = {}
    for (se, ye), c in f.items():
        out[se] = out.get(se, 0) + (c << (bits * ye))
    return {e: c for e, c in out.items() if c}


def _oracle_entries(word: SchubertWord):
    """The flat oracle's (W11, W12, W21), the entries word_matrix returns."""
    (f11, f12), (f21, _) = oracle_word_matrix(word)
    return [f11, f12, f21]


def _unpack_laurent(f, bits: int) -> dict:
    """A packed Laurent entry unpacked into an {s-exponent: y-list} map."""
    return {e: rileypoly._unpack(c, bits) for e, c in f.items()}


def _unpacked_w11(w):
    """word_matrix's W11, unpacked into an {s-exponent: y-list} map (W11
    lies within the candidate's majorant, so it fits the slot)."""
    bits, (w11, _, _) = word_matrix(w)
    return _unpack_laurent(w11, bits)


_IDENTITY_ROWS = (({0: 1}, {}), ({}, {0: 1}))


def _apply(letters: str, bits=8):
    """Rows of the product of the images of letters, written as compact()
    writes a word, by the packed column operations themselves (the
    letters need not alternate, so this is not a SchubertWord)."""
    ops = rileypoly._packed_laurent_ops(bits)
    rows = _IDENTITY_ROWS
    for c in letters:
        rows = tuple(ops[c.lower(), 1 if c.islower() else -1](*row) for row in rows)
    return rows


def test_rho_inverses_give_identity():
    for gen in ("a", "b"):
        assert _apply(gen + gen.upper()) == _IDENTITY_ROWS
        assert _apply(gen.upper() + gen) == _IDENTITY_ROWS


def test_rho_traces():
    # meridian trace is s + 1/s
    for gen in ("a", "b"):
        (w11, _), (_, w22) = _apply(gen)
        assert _laurent_add(w11, w22) == {1: 1, -1: 1}
    # trace of rho(a b^-1) is y, symbolically: packed, it is 2^B
    bits = 8
    (w11, _), (_, w22) = _apply("aB", bits)
    assert _laurent_add(w11, w22) == {0: 1 << bits}
    assert _unpack_laurent(_laurent_add(w11, w22), bits) == {0: [0, 1]}


def test_word_matrix_against_flat_oracle():
    # every word is a palindrome with mirrored generators; W12 and W21
    # are compared packed, since they are never unpacked
    words = [
        _word("ab"),
        _word("aBAb"),
        _word("aBabAb"),
        _word("abab"),
        _word("AbaB"),
        schubert_word(KnotId(9, 5)),
        schubert_word(KnotId(11, 3)),
        schubert_word(KnotId(13, 4)),
    ]
    words += [
        schubert_word(KnotId(p, q))
        for p in range(3, 26, 2)
        for q in range(1, p)
        if math.gcd(p, q) == 1
    ]
    for w in words:
        bits, entries = word_matrix(w)
        oracle = _oracle_entries(w)
        assert entries == tuple(_packed_flat(f, bits) for f in oracle), w.compact()
        assert to_flat(_unpack_laurent(entries[0], bits)) == oracle[0], w.compact()


def test_word_matrix_hand_values():
    # w = ab: entry (1,1) is s^2 + 2 - y
    w11 = _unpacked_w11(_word("ab"))
    assert to_flat(w11) == {(2, 0): 1, (0, 0): 2, (0, 1): -1}
    # w = ab^-1a^-1b at s = 1, entry (1,1) is (2-y)^2 - (2-y) + 1
    w11 = _at_s_one(_unpacked_w11(_word("aBAb")))
    u = UniPoly([2, -1])
    assert w11 == u * u - u + 1
    # empty word: the identity's W11, W12, W21
    assert word_matrix(SchubertWord(()))[1] == ({0: 1}, {}, {})


def test_word_matrix_det_is_one():
    # by the flat oracle's arithmetic, on the full word and on the first
    # half whose product U word_matrix forms: det W = det U^2 = 1
    for compact in ("ab", "aBAb", "aBabAb", "abab"):
        word = _word(compact)
        for w in (word, SchubertWord(word.exponents[: len(word) // 2])):
            (f11, f12), (f21, f22) = oracle_word_matrix(w)
            assert _e_sub(_e_mul(f11, f22), _e_mul(f12, f21)) == {(0, 0): 1}, w.compact()


def _mutate_packed_table(monkeypatch, letter, mutation, builder="_packed_column_ops"):
    """Patch a per-word packed table builder so that letter runs
    mutation(true table, bits), whatever the slot width."""
    true_table = getattr(rileypoly, builder)

    def mutated(bits):
        table = true_table(bits)
        return {**table, letter: mutation(table, bits)}

    monkeypatch.setattr(rileypoly, builder, mutated)


def test_word_matrix_exact_determinant_catches_non_unimodular_op(monkeypatch):
    # det U is checked exactly on packed values at every word length;
    # a: c1 <- s^2 c1 together with b: c1 <- s^2 c1 + (2-y) c2 keeps the
    # table transpose-symmetric, but both have determinant s, so only the
    # determinant check can catch it, on short and long words alike
    for k in (KnotId(7, 3), KnotId(61, 17)):
        word_matrix(schubert_word(k))

    def s_squared_c1(table, letter):
        def op(u, v):
            c1, c2 = table[letter](u, v)
            return _laurent_add(c1, _laurent_sub(_laurent_shift(u, 2), _laurent_shift(u, 1))), c2

        return op

    for letter in (("a", 1), ("b", 1)):
        _mutate_packed_table(
            monkeypatch,
            letter,
            lambda table, bits, letter=letter: s_squared_c1(table, letter),
            "_packed_laurent_ops",
        )
    for k in (KnotId(7, 3), KnotId(61, 17)):
        with pytest.raises(RileyValidationError, match="half-word matrix of word .* has determinant != 1"):
            riley_general(k)


def test_mutated_column_operation_is_caught(monkeypatch):
    # b^-1 with the sign of its (2-y) term flipped is still unimodular,
    # so only the general table's transpose symmetry can catch it
    _mutate_packed_table(
        monkeypatch,
        ("b", -1),
        lambda table, bits: lambda u, v: (
            _laurent_add(_laurent_shift(u, -1), rileypoly._two_minus_y(v, bits)),
            _laurent_shift(v, 1),
        ),
        "_packed_laurent_ops",
    )
    for k in (KnotId(5, 2), KnotId(7, 3), KnotId(61, 17)):
        with pytest.raises(RileyValidationError, match=r"fails C rho\(a\^-1\)\^T C\^-1 = rho\(b\^-1\)"):
            riley_general(k)


def test_division_remainder_is_caught(monkeypatch):
    # b: c1 <- s c1 + (3-y) c2 is unimodular, but it breaks the table's
    # transpose symmetry, and with that check switched off it breaks
    # W = U C U^T C^-1 while det U stays 1.  At y = 2 it leaves U lower
    # entries the true table never has (there rho(a), rho(b) are upper
    # triangular), so W21 = u11 u21 + (2-y) u12 u22 is not divisible by
    # 2-y on a word whose first half holds b: the remainder check
    # catches it
    _mutate_packed_table(
        monkeypatch,
        ("b", 1),
        lambda table, bits: lambda u, v: (_laurent_add(table[("b", 1)](u, v)[0], v), _laurent_shift(v, -1)),
        "_packed_laurent_ops",
    )
    monkeypatch.setattr(rileypoly, "_check_transpose_symmetry", lambda *args: None)
    for k in (KnotId(7, 3), KnotId(11, 3), KnotId(61, 17)):
        # the first half holds b, a letter at an even position j
        exps = schubert_word(k).exponents
        assert 1 in exps[1 : len(exps) // 2 : 2], k
        with pytest.raises(RileyValidationError, match=r"is not divisible by 2-y at s\^"):
            riley_general(k)


def test_mutated_parabolic_column_operation_is_caught(monkeypatch):
    # the same mutation in the packed s = 1 table: b^-1 flipped is b there,
    # still unimodular and equal to b^-1 at y = 2, so only the table's
    # transpose symmetry C rho(a^-1)^T C^-1 = rho(b^-1) can catch it
    _mutate_packed_table(monkeypatch, ("b", -1), lambda table, bits: table[("b", 1)])
    for k in (KnotId(5, 2), KnotId(7, 3), KnotId(61, 17)):
        with pytest.raises(RileyValidationError, match=r"fails C rho\(a\^-1\)\^T C\^-1 = rho\(b\^-1\)"):
            riley_parabolic(k)


def test_non_unimodular_parabolic_column_operation_is_caught(monkeypatch):
    # a: c2 <- c1 + 2 c2 with b: (u, v) -> (u + (2-y) v, 2 v) keeps the
    # table transpose-symmetric and u11(2) = 1, but both have determinant
    # 2, so det U is a power of 2 on every half word holding a or b, and
    # the packed determinant check must catch it
    _mutate_packed_table(monkeypatch, ("a", 1), lambda table, bits: lambda u, v: (u, u + 2 * v))
    _mutate_packed_table(
        monkeypatch,
        ("b", 1),
        lambda table, bits: lambda u, v: (u + (v << 1) - (v << bits), 2 * v),
    )
    for k in (KnotId(5, 2), KnotId(7, 3), KnotId(61, 17)):
        with pytest.raises(RileyValidationError, match="has determinant != 1"):
            riley_parabolic(k)


def _mirrored(half: SchubertWord) -> SchubertWord:
    """The palindrome over half whose mirrored letters are the other
    generator, as every relator word is."""
    return SchubertWord(half.exponents + half.exponents[::-1])


def test_non_palindromic_word_is_refused(monkeypatch):
    # both half-word products rest on the word being a palindrome whose
    # mirrored letters are the other generator; a word breaking either
    # part is refused before the product runs.  aBa is an exponent
    # palindrome whose middle letter mirrors onto itself
    true_word = schubert_word(KnotId(7, 3))
    flipped = SchubertWord(true_word.exponents[:-1] + (-true_word.exponents[-1],))
    for word in (flipped, _word("aBa")):
        monkeypatch.setattr(rileypoly, "schubert_word", lambda k, word=word: word)
        for route in (riley_parabolic, riley_general):
            with pytest.raises(RileyValidationError, match="not a palindrome with mirrored generators"):
                route(KnotId(7, 3))


def test_too_narrow_parabolic_slot_is_caught(monkeypatch):
    # packing is a ring homomorphism, so det U packs to 1 at any slot
    # width; a width too small for Phi's coefficients shows only when Phi
    # is unpacked, and then Phi(2) = u11(2)^2 = 1 fails
    monkeypatch.setattr(rileypoly, "_majorants", lambda n: (1, 1, 0, 1))
    for k in (KnotId(7, 3), KnotId(61, 17)):
        with pytest.raises(RileyValidationError, match="at y = 2, not 1"):
            riley_parabolic(k)


def test_parabolic_leading_coefficient_contract(monkeypatch):
    # 2y - 3 is 1 at y = 2, so only the monic check can refuse it
    monkeypatch.setattr(rileypoly, "_unpack", lambda n, bits: [-3, 2])
    with pytest.raises(RileyValidationError, match="leading coefficient 2, not"):
        riley_parabolic(KnotId(7, 3))


# --- the full-word products the half-word routes replaced, as oracles ---


def _full_word_slot_bits(word: SchubertWord) -> int:
    """The slot width the full-word general route used: one bit more than
    the largest 1-norm majorant of the determinant, the candidate and
    both sides of W21 = (2-y) W12."""
    m11, m12, m21, m22 = rileypoly._majorants(len(word))
    return max(m11 * m22 + m12 * m21, m11 + 2 * m12, m21, 3 * m12).bit_length() + 1


def _full_word_parabolic(word: SchubertWord):
    """Slot width and entries (W11, W12, W21, W22) of the packed s = 1
    product over the whole word, at the full-word slot width."""
    bits = _full_word_slot_bits(word)
    return bits, rileypoly._word_product(word.exponents, rileypoly._packed_column_ops(bits), 1, 0)


def _full_word_general(word: SchubertWord):
    """Slot width and entries (W11, W12, W21, W22) of the packed general
    product over the whole word, with the full Laurent determinant and
    W21 = (2-y) W12 checked exactly, as the general route once did."""
    bits = _full_word_slot_bits(word)
    ops = rileypoly._packed_laurent_ops(bits)
    w11, w12, w21, w22 = entries = rileypoly._word_product(word.exponents, ops, {0: 1}, {})
    assert _laurent_sub(_laurent_mul(w11, w22), _laurent_mul(w12, w21)) == {0: 1}, word.compact()
    assert w21 == rileypoly._two_minus_y(w12, bits), word.compact()
    return bits, entries


def _full_word_riley_general(word: SchubertWord) -> BiPoly:
    """The candidate W11 + (1/s - s) W12 of the full product, rewritten
    in (x, y) and normalized."""
    bits, (w11, w12, _, _) = _full_word_general(word)
    candidate = _unpack_laurent(
        _laurent_sub(_laurent_add(w11, _laurent_shift(w12, -1)), _laurent_shift(w12, 1)), bits
    )
    assert all(candidate.get(-e) == c for e, c in candidate.items()), word.compact()
    return normalize_bipoly(symmetrize_to_xy({e: c for e, c in candidate.items() if e >= 0}))


def test_riley_general_matches_full_word_oracle():
    for k in enumerate_knots(61):
        assert riley_general(k).phi_xy == _full_word_riley_general(schubert_word(k)), k


def _full_word_riley_parabolic(word: SchubertWord) -> UniPoly:
    """W11 of the full product, its determinant and W21 = (2-y) W12
    checked, made primitive with a positive leading coefficient."""
    bits, (w11, w12, w21, w22) = _full_word_parabolic(word)
    assert w11 * w22 - w12 * w21 == 1
    assert w21 == (w12 << 1) - (w12 << bits)
    phi = _int_primitive(rileypoly._unpack(w11, bits))
    return UniPoly(phi if phi[-1] > 0 else [-c for c in phi])


def test_half_word_product_matches_full_word_oracle():
    for k in enumerate_knots(99):
        assert riley_parabolic(k) == _full_word_riley_parabolic(schubert_word(k)), k


def _spy_half_slot_width(monkeypatch) -> list:
    """Patch the packed s = 1 table builder to record each slot width
    riley_parabolic asks for."""
    widths, true_ops = [], rileypoly._packed_column_ops

    def spy(bits):
        widths.append(bits)
        return true_ops(bits)

    monkeypatch.setattr(rileypoly, "_packed_column_ops", spy)
    return widths


def _assert_half_route_within_majorants(k: KnotId, word: SchubertWord, widths: list):
    """riley_parabolic(k), which must run on the palindrome over word (its
    first half), equals the full-word oracle, and every coefficient of
    Phi = u11^2 + (2-y) u12^2 and of det U, from the list-based half
    product, lies within its 1-norm majorant, below 2^(B-1) at the slot
    width riley_parabolic used."""
    phi = riley_parabolic(k)
    assert phi == _full_word_riley_parabolic(_mirrored(word))
    u11, u12, u21, u22 = rileypoly._word_product(word.exponents, _LIST_PARABOLIC_OPS, [1], [])
    m11, m12, m21, m22 = rileypoly._majorants(len(word))
    half = 1 << (widths[-1] - 1)
    phi_raw = _zadd(_zmul(u11, u11), _list_two_minus_y(_zmul(u12, u12)))
    assert normalize_parabolic(UniPoly(phi_raw)) == phi
    assert sum(map(abs, phi_raw)) <= m11 * m11 + 3 * m12 * m12 < half
    det = _zsub(_zmul(u11, u22), _zmul(u12, u21))
    assert det == [1]
    assert sum(map(abs, u11)) * sum(map(abs, u22)) + sum(map(abs, u12)) * sum(
        map(abs, u21)
    ) <= m11 * m22 + m12 * m21 < half


def test_half_route_coefficients_within_majorants(monkeypatch):
    widths = _spy_half_slot_width(monkeypatch)
    for k in enumerate_knots(61):
        exps = schubert_word(k).exponents
        _assert_half_route_within_majorants(k, SchubertWord(exps[: len(exps) // 2]), widths)


def test_half_route_coefficients_within_majorants_hypothesis(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    widths = _spy_half_slot_width(monkeypatch)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=40))
    def within(exponents):
        # any first half, not only those of relator words; the
        # knot only labels errors, the word is patched in
        word = SchubertWord(tuple(exponents))
        monkeypatch.setattr(rileypoly, "schubert_word", lambda k: _mirrored(word))
        _assert_half_route_within_majorants(KnotId(3, 1), word, widths)

    within()


def test_cached_majorants_equal_a_fresh_run_hypothesis():
    # the cache is keyed by length alone: the majorant table ignores
    # exponent signs, and relator words alternate a, b
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(st.sampled_from((1, -1)), max_size=120))
    def cached_equals_fresh(exponents):
        fresh = rileypoly._word_product(exponents, rileypoly._MAJORANT_COLUMN_OPS, 1, 0)
        assert rileypoly._majorants(len(exponents)) == fresh

    cached_equals_fresh()


# --- packed s = 1 product against the list-based one ---

def _list_two_minus_y(a: list[int]) -> list[int]:
    """(2 - y) a on a coefficient list."""
    return _zsub([2 * c for c in a], [0, *a])


_LIST_PARABOLIC_OPS = rileypoly._column_ops(lambda f, k: f, _zadd, _zsub, _list_two_minus_y)


def _assert_packed_matches_lists(word):
    """The full-word packed entries unpack to the list-based s = 1
    product, every coefficient lies within its 1-norm majorant, and so do
    the determinant and both sides of W21 = (2-y) W12, below 2^(B-1)."""
    bits, packed = _full_word_parabolic(word)
    lists = rileypoly._word_product(word.exponents, _LIST_PARABOLIC_OPS, [1], [])
    majorants = rileypoly._word_product(word.exponents, rileypoly._MAJORANT_COLUMN_OPS, 1, 0)
    half = 1 << (bits - 1)
    for n, coeffs, bound in zip(packed, lists, majorants):
        assert rileypoly._unpack(n, bits) == coeffs
        assert sum(map(abs, coeffs)) <= bound < half
    w11, w12, w21, w22 = lists
    m11, m12, m21, m22 = majorants
    det = _zsub(_zmul(w11, w22), _zmul(w12, w21))
    assert sum(map(abs, det)) <= m11 * m22 + m12 * m21 < half
    assert sum(map(abs, w11)) <= m11 + 2 * m12 < half
    assert sum(map(abs, w21)) <= m21 < half
    right = _list_two_minus_y(w12)
    assert rileypoly._unpack((packed[1] << 1) - (packed[1] << bits), bits) == right
    assert sum(map(abs, right)) <= 3 * m12 < half


def test_packed_product_matches_list_product():
    for k in enumerate_knots(41):
        _assert_packed_matches_lists(schubert_word(k))


def test_packed_product_matches_list_product_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(st.sampled_from((1, -1)), max_size=60))
    def packed_matches(exponents):
        # any word, not only the relator words
        _assert_packed_matches_lists(SchubertWord(tuple(exponents)))

    packed_matches()


def _assert_general_packed_matches_oracle(word):
    """word_matrix's packed (W11, W12, W21) equal the flat oracle's full
    product packed at the same width; every coefficient of the candidate
    and of det U over the first half lies within its 1-norm majorant,
    below 2^(B-1); and the candidate unpacks to the oracle's."""
    bits, packed = word_matrix(word)
    oracle = _oracle_entries(word)
    assert packed == tuple(_packed_flat(f, bits) for f in oracle)
    f11, f12, _ = oracle
    m11, m12, _, _ = rileypoly._word_product(word.exponents, rileypoly._MAJORANT_COLUMN_OPS, 1, 0)
    half = 1 << (bits - 1)
    candidate = _e_sub(_e_add(f11, _e_shift(f12, -1)), _e_shift(f12, 1))
    assert _e_norm(candidate) <= m11 + 2 * m12 < half
    w11, w12, _ = packed
    assert to_flat(_unpack_laurent(rileypoly._reduction_candidate(w11, w12), bits)) == candidate
    first = SchubertWord(word.exponents[: len(word) // 2])
    (u11, u12), (u21, u22) = oracle_word_matrix(first)
    h11, h12, h21, h22 = rileypoly._word_product(first.exponents, rileypoly._MAJORANT_COLUMN_OPS, 1, 0)
    # |f g|_1 <= |f|_1 |g|_1 bounds every coefficient of u11 u22 - u12 u21
    det_norm = _e_norm(u11) * _e_norm(u22) + _e_norm(u12) * _e_norm(u21)
    assert det_norm <= h11 * h22 + h12 * h21 < half
    assert _e_sub(_e_mul(u11, u22), _e_mul(u12, u21)) == {(0, 0): 1}


def test_general_packed_product_matches_oracle():
    for k in enumerate_knots(21):
        _assert_general_packed_matches_oracle(schubert_word(k))


def test_general_packed_product_matches_oracle_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(st.sampled_from((1, -1)), max_size=20))
    def packed_matches(exponents):
        # the palindrome over any first half, not only the
        # relator words
        _assert_general_packed_matches_oracle(_mirrored(SchubertWord(tuple(exponents))))

    packed_matches()


def test_unpack_round_trips_extreme_coefficients_and_gaps():
    for bits in (2, 3, 8, 61, 64, 65):
        top = (1 << (bits - 1)) - 1
        for coeffs in (
            [],
            [top],
            [-top],
            [0, 0, top, 0, -top],
            [-top, 0, 0, 0, top],
            [top, -top, top, -top],
            [-1, 0, 0, 1],
            [0, 0, 0, -1],
        ):
            n = sum(c << (bits * i) for i, c in enumerate(coeffs))
            assert rileypoly._unpack(n, bits) == coeffs, (bits, coeffs)


def _unpack_by_borrows(n: int, bits: int) -> list[int]:
    """The signed-digit loop _unpack replaced: per slot, read the residue,
    make it negative at 2^(bits-1) or more and borrow from the next slot.
    Three whole-value operations per slot; the oracle for _unpack."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    coeffs = []
    for _ in range(abs(n).bit_length() // bits + 1):
        c = n & mask
        if c >= half:
            c -= mask + 1
        coeffs.append(c)
        n = (n - c) >> bits
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def test_unpack_round_trips_against_borrow_loop_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def packed(draw):
        bits = draw(st.integers(min_value=2, max_value=80))
        top = (1 << (bits - 1)) - 1
        # the extremes +-(2^(bits-1) - 1) and 0 come up often
        coeff = st.one_of(st.sampled_from((top, -top, 0, 1, -1)), st.integers(-top, top))
        coeffs = draw(st.lists(coeff, max_size=40))
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return bits, coeffs

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(packed())
    def round_trip(case):
        bits, coeffs = case
        n = sum(c << (bits * i) for i, c in enumerate(coeffs))
        assert rileypoly._unpack(n, bits) == _unpack_by_borrows(n, bits) == coeffs

    round_trip()


def test_relation_defect_is_the_candidate_times_a_constant_matrix():
    # the identity on the flat oracle, independent of packing: for a
    # relator word W21 = (2-y) W12, so rho(w a) - rho(b w) equals
    # Phi~ [[0, 1], [-(2-y), 0]] with Phi~ = W11 + (1/s - s) W12
    for k in enumerate_knots(31):
        (f11, f12), (f21, f22) = oracle_word_matrix(schubert_word(k))
        assert f21 == _e_two_minus_y(f12), k
        phi = _e_sub(_e_add(f11, _e_shift(f12, -1)), _e_shift(f12, 1))
        w = [[f11, f12], [f21, f22]]
        defect = [
            [_e_sub(x, y) for x, y in zip(row_wa, row_bw)]
            for row_wa, row_bw in zip(
                _m_mul(w, _ORACLE_GEN[("a", 1)]), _m_mul(_ORACLE_GEN[("b", 1)], w)
            )
        ]
        assert defect == [[{}, phi], [_e_sub({}, _e_two_minus_y(phi)), {}]], k


def test_empty_word_validation_raises_promptly():
    # the identity matrix gives the constant candidate 1, which the
    # relation cannot pin down: refused as constant in y at s = 1
    from riley.rileypoly import _riley_from_word

    with pytest.raises(RileyValidationError, match="constant in y"):
        _riley_from_word(SchubertWord(()), "empty word")


def _json_form(phi: BiPoly) -> dict:
    """The JSON form the pinned digests were taken of: y-coefficients
    ascending, each a list of "num/den" strings ascending by x-degree."""
    return {"y_degree": phi.degree, "coeffs": [[f"{c}/1" for c in p.coeffs] for p in phi.coeffs]}


def test_riley_general_pinned_p31():
    # sha256 of the general route over every knot with p <= 31, taken
    # with the Fraction matrix product this kernel replaced
    text = "".join(
        json.dumps([str(k), _json_form(riley_general(k).phi_xy)]) + "\n"
        for k in enumerate_knots(31)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "59c49a0127a8c867b1bc8b237acddc7a71d543a39f9ddbb4d04dfa0c0292c5e1"
    )


def test_riley_general_pinned_crosscheck_families():
    # sha256 of the general route over the 56 families the crosscheck
    # benchmark runs (m <= 7, n <= 2, p up to 61), taken with the
    # list-valued Laurent product the packed one replaced
    families = [DoubleTwist(f, m, n) for f in FAMILIES for m in range(1, 8) for n in range(1, 3)]
    text = "".join(
        json.dumps([str(d), str(k), _json_form(riley_general(k).phi_xy)]) + "\n"
        for d in families
        for k in [family_to_pq(d)]
    )
    assert len(families) == 56 and max(family_to_pq(d).p for d in families) == 61
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "06bbce4266acb13608a95c4e746185baff4c02fe68e2c6acb5456c941b8d284b"
    )


def test_riley_general_pinned_long_word():
    # sha256 of the bivariate polynomial of b(101, 29) as `riley poly
    # 101 29 --bivariate` prints it, from a 100-letter word, taken with
    # the full-word product and its determinant check
    from riley.cli import format_bipoly

    text = format_bipoly(riley_general(KnotId(101, 29)).phi_xy)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d290bbec032b3b97a427f6b96e92f934101a82fc6d3051e16e7a8093726026af"
    )


def test_riley_general_trefoil():
    phi = riley_general(KnotId(3, 1)).phi_xy
    # x^2 - 1 - y, normalized so the leading y-coefficient is positive at x=2
    assert phi == BiPoly([UniPoly([1, 0, -1]), UniPoly.const(1)])
    assert phi.eval_x(2) == UniPoly([-3, 1])


def test_riley_general_figure_eight_both_presentations():
    # q = 2 and q = 3 present the same knot; the polynomial is computed on
    # the odd representative, so both give y^2 + y - x^2 y + x^2 - 1
    expected = BiPoly([UniPoly([-1, 0, 1]), UniPoly([1, 0, -1]), UniPoly.const(1)])
    assert riley_general(KnotId(5, 3)).phi_xy == expected
    assert riley_general(KnotId(5, 2)).phi_xy == expected
    assert expected.eval_x(2) == UniPoly([3, -3, 1])


def test_riley_general_validation_rejects_bad_word(monkeypatch):
    # ab^-1 is not a two-bridge relator word: the letter mirroring a is
    # b, not b^-1, so it is refused before any product runs
    from riley.rileypoly import _riley_from_word

    with pytest.raises(RileyValidationError, match="word aB is not a palindrome"):
        _riley_from_word(_word("aB"), "test word")
    # every palindrome with mirrored generators gives a symmetric
    # candidate (all 2,047 with a first half of at most 10 letters do),
    # so an asymmetric one needs a broken reduction: the candidate
    # W11 + (1/s + s) W12 is refused with the offending exponent
    monkeypatch.setattr(
        rileypoly,
        "_reduction_candidate",
        lambda w11, w12: _laurent_add(_laurent_add(w11, _laurent_shift(w12, -1)), _laurent_shift(w12, 1)),
    )
    for k in (KnotId(5, 2), KnotId(61, 17)):
        with pytest.raises(RileyValidationError, match=r"not symmetric under s -> 1/s \(first offending s-exponent: \d+\)"):
            riley_general(k)


def test_riley_general_checks_the_value_at_s_one_y_two(monkeypatch):
    # at s = 1 and y = 2, rho(b) is the identity and W11 = Phi~(1, 2) = 1.
    # A slot width too narrow for the product unpacks a wrong candidate
    # that still passes every packed check (det U, 2-y | W21, symmetry);
    # the value check refuses it instead of returning it
    monkeypatch.setattr(rileypoly, "_majorants", lambda n: (1, 1, 0, 1))
    with pytest.raises(RileyValidationError, match=r"is -?\d+ at s = 1, y = 2, not 1"):
        riley_general(KnotId(61, 17))


def test_riley_parabolic_examples():
    assert riley_parabolic(KnotId(3, 1)) == UniPoly([-3, 1])
    assert riley_parabolic(KnotId(5, 2)) == UniPoly([3, -3, 1])
    phi = riley_parabolic(KnotId(7, 3))
    assert phi.degree == 3
    assert count_real_roots(phi) == 1
    # same real root count as the closed form of the q-inverse presentation
    other = riley_closed_form(DoubleTwist("ON", 1, 1)).phi_xy.eval_x(2)
    assert count_real_roots(other) == 1


def test_riley_parabolic_matches_general_specialization():
    rng = random.Random(2)
    knots = [
        KnotId(p, q)
        for p in range(3, 26, 2)
        for q in range(1, p)
        if math.gcd(p, q) == 1
    ]
    for k in rng.sample(knots, 12):
        assert riley_parabolic(k) == normalize_parabolic(
            riley_general(k).phi_xy.eval_x(2)
        ), k


def test_degree_law():
    for p in range(3, 40, 2):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                assert riley_parabolic(KnotId(p, q)).degree == (p - 1) // 2


def test_closed_form_params_m1():
    x2 = UniPoly([0, 0, 1])
    u = BiPoly([UniPoly([2, 0, -1]), UniPoly.const(1)])  # y + 2 - x^2
    y_min_2 = BiPoly([-2, 1])

    ee = closed_form_params(DoubleTwist("EE", 1, 1))
    assert ee.t == 2 + y_min_2 * u
    assert ee.mu == 1 + u * BiPoly([-1, 1])

    en = closed_form_params(DoubleTwist("EN", 1, 1))
    assert en.t == ee.t
    assert en.mu == 1 - u

    on = closed_form_params(DoubleTwist("ON", 1, 2))
    assert on.t == BiPoly.const(x2) - BiPoly.gen() - y_min_2 * u * BiPoly.gen()
    oe = closed_form_params(DoubleTwist("OE", 1, 2))
    assert oe.t == on.t
    assert isinstance(on, ClosedFormParams)


_SPECIALIZATION_X0 = (2, Fraction(5, 2), 3, Fraction(7, 3), 0, Fraction(-3, 2), Fraction(1, 7))


def test_closed_form_specialized_equals_evaluated():
    # evaluation at x0 is a ring homomorphism: building (t, mu) at x0 and
    # running the recurrence there agrees with evaluating the bivariate
    # objects, exactly for (t, mu) and up to normalization for Phi
    for family in ("EE", "EN", "OE", "ON"):
        for m in range(1, 6):
            for n in range(1, 5):
                d = DoubleTwist(family, m, n)
                bivariate = closed_form_params(d)
                phi_xy = riley_closed_form(d).phi_xy
                for x0 in _SPECIALIZATION_X0:
                    at = closed_form_params(d, x0)
                    # the specialized pair is scaled by D = den(x0)^2, and so
                    # is eval_x: t and mu have x-degree 2
                    assert at.denominator == Fraction(x0).denominator ** 2, (d, x0)
                    assert at.t == bivariate.t.eval_x(x0), (d, x0)
                    assert at.mu == bivariate.mu.eval_x(x0), (d, x0)
                    assert at.family == d
                    assert riley_closed_form_at(d, x0) == normalize_parabolic(
                        phi_xy.eval_x(x0)
                    ), (d, x0)


# --- the packed closed form against the BiPoly closed form it replaced ---


@functools.cache
def _bipoly_closed_form(d: DoubleTwist) -> tuple[BiPoly, BiPoly, BiPoly]:
    """(t, mu, S_n(t) - mu*S_{n-1}(t)) from the family formulas run on
    BiPoly in (x, y), with the recurrence at t on BiPoly values: the
    unnormalized oracle for the packed closed form."""
    y, x2 = BiPoly.gen(), BiPoly.const(UniPoly([0, 0, 1]))
    s_m, s_m1, s_m2 = (BiPoly(cheb_poly(k).coeffs) for k in (d.m, d.m - 1, d.m - 2))
    u = y + 2 - x2
    if d.family in ("EE", "EN"):
        t = 2 + (y - 2) * u * s_m1 * s_m1
        if d.family == "EE":
            mu = 1 + u * s_m1 * (s_m - s_m1)
        else:
            mu = 1 - u * s_m1 * (s_m1 - s_m2)
    else:
        t = x2 - y - (y - 2) * u * s_m * s_m1
        if d.family == "OE":
            mu = 1 - u * s_m * (s_m - s_m1)
        else:
            mu = 1 + u * s_m1 * (s_m - s_m1)
    s_prev, s_n = cheb_pair(d.n, t)
    return t, mu, s_n - mu * s_prev


def _norm_1(p: BiPoly) -> int:
    return sum(abs(v) for c in p.coeffs for v in c.coeffs)


_ORACLE_X0 = (2, Fraction(5, 2), Fraction(-3, 2), 0, Fraction(7, 3), 10**30 + Fraction(1, 3))


def _assert_closed_form_at_matches_oracle(d: DoubleTwist, x0) -> None:
    t, mu, phi = _bipoly_closed_form(d)
    den = Fraction(x0).denominator ** 2
    params = closed_form_params(d, x0)
    assert (params.t, params.mu) == (t.eval_x(x0), mu.eval_x(x0)), (d, x0)
    assert (params.family, params.denominator) == (d, den), (d, x0)
    assert riley_closed_form_at(d, x0) == normalize_parabolic(phi.eval_x(x0)), (d, x0)


def test_packed_closed_form_matches_bipoly_oracle():
    for family in FAMILIES:
        for m in range(1, 8):
            for n in range(1, 5):
                d = DoubleTwist(family, m, n)
                t, mu, phi = _bipoly_closed_form(d)
                assert riley_closed_form(d).phi_xy == normalize_bipoly(phi), d
                params = closed_form_params(d)
                assert (params.t, params.mu, params.denominator) == (t, mu, 1), d
                # the majorant run bounds every coefficient it unpacks
                bound = max(rileypoly._family_run(d, rileypoly._Majorant(1), rileypoly._Majorant(1), 1))
                assert max(map(_norm_1, (t, mu, phi))) <= bound, d
                for x0 in _ORACLE_X0:
                    _assert_closed_form_at_matches_oracle(d, x0)


def test_packed_closed_form_matches_bipoly_oracle_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    families = [DoubleTwist(f, m, n) for f in FAMILIES for m, n in ((1, 1), (2, 3), (4, 2), (3, 4))]
    x0s = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.sampled_from(families), x0s)
    def matches(d, x0):
        _assert_closed_form_at_matches_oracle(d, x0)

    matches()


def test_float_x0_is_refused():
    # a float is a binary approximation: every x0 entry point raises
    # instead of computing at its binary expansion
    d = DoubleTwist("EE", 1, 1)
    for call in (
        lambda: riley_closed_form_at(d, 2.1),
        lambda: closed_form_params(d, 0.5),
        lambda: check_theorem1(1, 1, 1.9),
        lambda: check_theorem2(1, 1, 2.5),
        lambda: riley_closed_form(d).phi_xy.eval_x(0.1),
    ):
        with pytest.raises(TypeError, match="float"):
            call()
    # exact values still go through, ints and Fractions alike
    assert riley_closed_form_at(d, 2) == riley_closed_form_at(d, Fraction(4, 2))
    assert check_theorem1(1, 1, Fraction(2)) == check_theorem1(1, 1, 2)


def test_closed_form_at_pinned():
    # sha256 over the coefficient lists of riley_closed_form_at on the
    # theorem1 5x4 grid at its two x0 and the theorem2 4x4 grid at seven
    # x0, taken with the Fraction closed form the integer one replaced
    grid = []
    for m in range(1, 6):
        for n in range(1, 5):
            for x0 in (Fraction(2), 2 - Fraction(1, 16 * m * n)):
                grid += [(DoubleTwist(f, m, n), x0) for f in ("EE", "EN")]
    theorem2_x0 = (2, Fraction(5, 2), Fraction(10, 3), 1, Fraction(3, 2), Fraction(-7, 3), 0)
    for m in range(1, 5):
        for n in range(1, 5):
            for x0 in theorem2_x0:
                grid += [(DoubleTwist(f, m, n), Fraction(x0)) for f in ("OE", "ON")]
    text = "".join(
        json.dumps([str(d), str(x0), [str(c) for c in riley_closed_form_at(d, x0).coeffs]]) + "\n"
        for d, x0 in grid
    )
    assert len(grid) == 304
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "30226cc352a1af6ef616357462c599e339f409fd6cd0dad0d7d4d9bf258900b8"
    )


def test_closed_form_specialized_equals_evaluated_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    families = [DoubleTwist(f, m, n) for f, m, n in
                (("EE", 2, 3), ("EN", 3, 1), ("OE", 1, 4), ("ON", 3, 2))]
    phis = {d: riley_closed_form(d).phi_xy for d in families}
    x0s = st.fractions(min_value=-10, max_value=10, max_denominator=50)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from(families), x0s)
    def specialization(d, x0):
        assert riley_closed_form_at(d, x0) == normalize_parabolic(phis[d].eval_x(x0))

    specialization()


def test_closed_form_t_factorization_even_families():
    sq = lambda b: b * b
    u = BiPoly([UniPoly([2, 0, -1]), UniPoly.const(1)])
    y_min_2 = BiPoly([-2, 1])
    for family in ("EE", "EN"):
        for m in range(1, 5):
            t = closed_form_params(DoubleTwist(family, m, 1)).t
            s_m1 = BiPoly([UniPoly.const(c) for c in cheb_poly(m - 1).coeffs])
            assert t - 2 == y_min_2 * u * sq(s_m1), (family, m)


def test_riley_closed_form_values_at_two():
    assert riley_closed_form(DoubleTwist("EE", 1, 1)).phi_xy.eval_x(2) == UniPoly([-3, 1])
    assert riley_closed_form(DoubleTwist("EN", 1, 1)).phi_xy.eval_x(2) == UniPoly([3, -3, 1])
    assert riley_closed_form(DoubleTwist("ON", 1, 1)).phi_xy.eval_x(2) == UniPoly([-1, 2, -3, 1])


def test_proof_identity_even_factorization():
    # mu^2 + 1 - mu*t = (y + 2 - x^2) * S_{m-1}(y)^2 * (t + 2 - x^2)
    u = BiPoly([UniPoly([2, 0, -1]), UniPoly.const(1)])
    two_minus_x2 = BiPoly.const(UniPoly([2, 0, -1]))
    for m in range(1, 5):
        for n in range(1, 5):
            params = closed_form_params(DoubleTwist("EE", m, n))
            t, mu = params.t, params.mu
            s_m1 = BiPoly([UniPoly.const(c) for c in cheb_poly(m - 1).coeffs])
            assert mu * mu + 1 - mu * t == u * s_m1 * s_m1 * (t + two_minus_x2), (m, n)


def test_proof_identity_odd_two_minus_t():
    # 2 - t = (y - x^2 + 2) * (S_m(y) - S_{m-1}(y))^2
    u = BiPoly([UniPoly([2, 0, -1]), UniPoly.const(1)])
    for m in range(1, 5):
        t = closed_form_params(DoubleTwist("ON", m, 1)).t
        diff = cheb_poly(m) - cheb_poly(m - 1)
        d = BiPoly([UniPoly.const(c) for c in diff.coeffs])
        assert 2 - t == u * d * d, m


def test_cheb_pair_at_t_matches_composition():
    # one pass of the recurrence at t equals composing the expanded S_k with t
    from riley.exact import compose

    for family in ("EE", "EN", "OE", "ON"):
        for m in range(1, 5):
            for n in range(1, 5):
                t = closed_form_params(DoubleTwist(family, m, n)).t
                expected = (compose(cheb_poly(n - 1), t), compose(cheb_poly(n), t))
                assert cheb_pair(n, t) == expected, (family, m, n)


def _raw_closed_form(d: DoubleTwist) -> BiPoly:
    """S_n(t) - mu * S_{n-1}(t) without the unit normalization (the
    boundary identities are statements about this exact representative)."""
    from riley.exact import compose

    params = closed_form_params(d)
    return compose(cheb_poly(d.n), params.t) - params.mu * compose(
        cheb_poly(d.n - 1), params.t
    )


def test_boundary_value_even_family_at_y_two():
    # S_n(t) - mu*S_{n-1}(t) at y = 2 equals 1 - (4 - x^2) m n
    for m in range(1, 5):
        for n in range(1, 5):
            phi = _raw_closed_form(DoubleTwist("EE", m, n))
            expected = UniPoly([1 - 4 * m * n, 0, m * n])
            assert phi(UniPoly.const(2)) == expected, (m, n)


def test_anchor_value_odd_negative_family():
    # S_n(t) - mu*S_{n-1}(t) at y = x^2 - 2 equals 1
    for m in range(1, 5):
        for n in range(1, 5):
            phi = _raw_closed_form(DoubleTwist("ON", m, n))
            assert phi(UniPoly([-2, 0, 1])) == UniPoly.const(1), (m, n)


def test_parabolic_never_vanishes_at_two():
    for p in range(3, 40, 2):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                assert riley_parabolic(KnotId(p, q))(2) != 0


def _continuant(exponents) -> UniPoly:
    """v_L(w) for v_-1 = 0, v_0 = 1 and v_k = v_(k-2) + c_k*w*v_(k-1),
    with c_k = e_k at odd k (an a-letter) and -e_k at even k (a b-letter)."""
    w = UniPoly.gen()
    prev, cur = UniPoly.zero(), UniPoly.const(1)
    for k, e in enumerate(exponents, 1):
        prev, cur = cur, prev + cur * w * (e if k % 2 else -e)
    return cur


def test_continuant_is_phi_at_two_plus_w_squared_and_bounds_the_count():
    # A third construction of Phi(2, y), from the relator word alone: at
    # s = 1 and y = 2 + w^2, conjugating each letter's matrix by diag(1, w)
    # leaves one entry +-w, so W11 is the continuant v_L(w), L = p - 1.
    # v_L has at least |sum e_k| = |sigma| real roots (Pontryagin's theorem
    # on a tridiagonal matrix self-adjoint for diag(e_1*e_k)), and each
    # real root y > 2 of Phi gives two, so 2 * real_roots >= |sigma|; the
    # difference was divisible by 4 on every knot with p <= 199.
    w = UniPoly.gen()
    knots = enumerate_knots(99)
    assert len(knots) == 798
    flipped = 0
    for k in knots:
        phi = riley_parabolic(k)
        sign = phi(2)  # a unit; normalization fixes the leading sign, not this one
        assert sign in (1, -1), k
        assert _continuant(schubert_word(k).exponents) == sign * phi(2 + w * w), k
        flipped += sign == -1
        real, sigma = count_real_roots(phi), signature_two_bridge(k).sigma_abs
        assert 2 * real >= sigma and (2 * real - sigma) % 4 == 0, k
    assert flipped == 393


def _gf2_gcd(a: int, b: int) -> int:
    """gcd over GF(2) of polynomials held as int bitmasks (bit i is the
    coefficient of y^i)."""
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def test_parabolic_is_monic_and_squarefree_mod_two():
    # Mod 2, Phi = u11^2 + y u12^2 and Phi' = u12^2, so gcd(Phi, Phi') is
    # gcd(u11, u12)^2 = 1 (det U = 1 holds mod 2); with lc Phi = 1 the
    # reduction keeps the degree, so by Gauss's lemma Phi is squarefree
    # over Q, and the Sturm chain of every scanned Phi ends in a constant
    for k in enumerate_knots(99):
        coeffs = riley_parabolic(k).coeffs
        assert coeffs[-1] == 1, k
        phi = sum(1 << i for i, c in enumerate(coeffs) if c % 2)
        derivative = sum(1 << (i - 1) for i, c in enumerate(coeffs) if i % 2 and c % 2)
        assert _gf2_gcd(phi, derivative) == 1, k


def test_normalize_bipoly():
    raw = BiPoly([UniPoly([3, 0, -3]), UniPoly.const(-3)])
    norm = normalize_bipoly(raw)
    assert norm == BiPoly([UniPoly([-1, 0, 1]), UniPoly.const(1)])
    assert norm.leading(Fraction(2)) > 0
    with pytest.raises(ValueError, match="cannot normalize"):
        normalize_bipoly(BiPoly.zero())


def test_normalize_bipoly_refuses_a_lead_vanishing_at_two():
    # (x - 2)*y + 1: no sign at x = 2 to normalize by
    with pytest.raises(ValueError, match="vanishes at x = 2"):
        normalize_bipoly(BiPoly([UniPoly([1]), UniPoly([-2, 1])]))


def test_normalize_parabolic():
    assert normalize_parabolic(UniPoly([3, -1])) == UniPoly([-3, 1])
    assert normalize_parabolic(UniPoly([6, -2])) == UniPoly([-3, 1])
    assert normalize_parabolic(UniPoly([-6, 4])) == UniPoly([-3, 2])
    with pytest.raises(ValueError, match="cannot normalize"):
        normalize_parabolic(UniPoly.zero())


def test_closed_form_coefficients_are_integers():
    for family in ("EE", "EN", "OE", "ON"):
        phi = riley_closed_form(DoubleTwist(family, 2, 2)).phi_xy
        for c in phi.coeffs:
            assert all(v.denominator == 1 for v in c.coeffs)
