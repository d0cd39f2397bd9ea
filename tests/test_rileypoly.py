import hashlib
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
    _laurent_add,
    _laurent_eval,
    _laurent_mul,
    _laurent_mul_two_minus_y,
    _laurent_shift,
    _laurent_sub,
    _zadd,
    _zmul_two_minus_y,
)
from riley.realroots import count_real_roots
from riley.rileypoly import (
    ClosedFormParams,
    RileyValidationError,
    closed_form_params,
    normalize_bipoly,
    normalize_parabolic,
    riley_closed_form,
    riley_general,
    riley_parabolic,
    word_matrix,
)
from riley.twobridge import DoubleTwist, KnotId, SchubertWord, schubert_word
from riley.verifier import enumerate_knots

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


def oracle_word_matrix(word: SchubertWord):
    m = [[{(0, 0): 1}, {}], [{}, {(0, 0): 1}]]
    for letter in word.letters:
        m = _m_mul(m, _ORACLE_GEN[letter])
    return m


def to_flat(entry):
    return {(k, j): coeff for k, ys in entry.items() for j, coeff in enumerate(ys) if coeff}


def _word(compact: str) -> SchubertWord:
    return SchubertWord(
        tuple((c.lower(), 1 if c.islower() else -1) for c in compact)
    )


_IDENTITY_ROWS = (({0: [1]}, {}), ({}, {0: [1]}))


def _apply(letters):
    """Rows of the product of the letters' images, by the column
    operations themselves (the letters need not alternate)."""
    rows = _IDENTITY_ROWS
    for letter in letters:
        op = rileypoly._COLUMN_OPS[letter]
        rows = tuple(op(*row) for row in rows)
    return rows


def test_rho_inverses_give_identity():
    for gen in ("a", "b"):
        assert _apply([(gen, 1), (gen, -1)]) == _IDENTITY_ROWS
        assert _apply([(gen, -1), (gen, 1)]) == _IDENTITY_ROWS


def test_rho_traces():
    # meridian trace is s + 1/s
    for gen in ("a", "b"):
        (w11, _), (_, w22) = _apply([(gen, 1)])
        assert _laurent_add(w11, w22) == {1: [1], -1: [1]}
    # trace of rho(a b^-1) is y, symbolically
    w11, _, _, w22 = word_matrix(_word("aB"))
    assert _laurent_add(w11, w22) == {0: [0, 1]}


def test_word_matrix_against_flat_oracle():
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
        ours = [to_flat(e) for e in word_matrix(w)]
        oracle = oracle_word_matrix(w)
        assert ours == [oracle[0][0], oracle[0][1], oracle[1][0], oracle[1][1]], w.compact()


def test_word_matrix_hand_values():
    # w = ab: entry (1,1) is s^2 + 2 - y
    w11 = word_matrix(_word("ab"))[0]
    assert to_flat(w11) == {(2, 0): 1, (0, 0): 2, (0, 1): -1}
    # w = ab^-1a^-1b at s = 1, entry (1,1) is (2-y)^2 - (2-y) + 1
    w11 = _laurent_eval(word_matrix(_word("aBAb"))[0], 1, 1)
    u = UniPoly([2, -1])
    assert UniPoly(w11) == u * u - u + 1
    # empty word
    assert word_matrix(SchubertWord(())) == ({0: [1]}, {}, {}, {0: [1]})


def test_word_matrix_det_is_one():
    for compact in ("ab", "aBAb", "aBabAb", "abab"):
        w11, w12, w21, w22 = word_matrix(_word(compact))
        assert _laurent_sub(_laurent_mul(w11, w22), _laurent_mul(w12, w21)) == {0: [1]}


def test_word_matrix_long_word_determinant_check(monkeypatch):
    # words longer than 24 letters are checked at s in {1, 2, -3/2};
    # a broken column operation (det != 1) must be caught there too
    word = schubert_word(KnotId(61, 17))
    assert len(word) > 24
    word_matrix(word)
    broken = lambda u, v: (_laurent_shift(u, 2), _laurent_add(u, _laurent_shift(v, -1)))  # noqa: E731
    monkeypatch.setitem(rileypoly._COLUMN_OPS, ("a", 1), broken)
    with pytest.raises(RileyValidationError, match="determinant differs from 1 at s="):
        word_matrix(word)


def test_mutated_column_operation_is_caught(monkeypatch):
    # b^-1 with the sign of its (2-y) term flipped is still unimodular,
    # so only the relation validation can catch it
    flipped = lambda u, v: (  # noqa: E731
        _laurent_add(_laurent_shift(u, -1), _laurent_mul_two_minus_y(v)),
        _laurent_shift(v, 1),
    )
    monkeypatch.setitem(rileypoly._COLUMN_OPS, ("b", -1), flipped)
    for k in (KnotId(5, 2), KnotId(7, 3), KnotId(61, 17)):
        with pytest.raises(RileyValidationError):
            riley_general(k)


def test_mutated_parabolic_column_operation_is_caught(monkeypatch):
    # the same mutation in the s = 1 table: b^-1 flipped is b there, still
    # unimodular, so the divisibility check must catch it
    flipped = lambda u, v: (_zadd(u, _zmul_two_minus_y(v)), v)  # noqa: E731
    monkeypatch.setitem(rileypoly._PARABOLIC_COLUMN_OPS, ("b", -1), flipped)
    for k in (KnotId(5, 2), KnotId(7, 3), KnotId(61, 17)):
        with pytest.raises(RileyValidationError, match="not divisible"):
            riley_parabolic(k)


def test_divisibility_checks_catch_a_wrong_defect(monkeypatch):
    # a defect entry off by the constant 1 is not divisible by a
    # non-constant candidate: caught at s = 1
    true_defect = rileypoly._relation_defect

    def off_by_one(w11, w12, w21):
        d21, d22 = true_defect(w11, w12, w21)
        return d21, _laurent_add(d22, {0: [1]})

    monkeypatch.setattr(rileypoly, "_relation_defect", off_by_one)
    with pytest.raises(RileyValidationError, match="not divisible .* at s = 1 "):
        riley_general(KnotId(7, 3))
    # the same defect times (s - 1) vanishes at s = 1: caught at a random s
    monkeypatch.setattr(
        rileypoly,
        "_relation_defect",
        lambda *w: tuple(_laurent_sub(_laurent_shift(d, 1), d) for d in off_by_one(*w)),
    )
    with pytest.raises(RileyValidationError, match="not divisible") as exc:
        riley_general(KnotId(7, 3))
    assert "at s = 1 for" not in str(exc.value)


def test_empty_word_validation_raises_promptly():
    # the identity matrix gives the constant candidate 1: every random
    # point is degenerate, so the bounded draw loop must give up
    from riley.rileypoly import _riley_from_word

    with pytest.raises(RileyValidationError, match="constant in y"):
        _riley_from_word(SchubertWord(()), "empty word", 1)


def test_riley_general_pinned_p31():
    # sha256 of the general route over every knot with p <= 31, taken
    # with the Fraction matrix product this kernel replaced
    text = "".join(
        json.dumps([str(k), riley_general(k).phi_xy.to_json_dict()]) + "\n"
        for k in enumerate_knots(31)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "59c49a0127a8c867b1bc8b237acddc7a71d543a39f9ddbb4d04dfa0c0292c5e1"
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


def test_riley_general_validation_rejects_bad_word():
    # ab^-1 is not a two-bridge relator word; its candidate is asymmetric
    # (W11 + (1/s - s) W12 = y - s^2) and must be refused
    from riley.rileypoly import _riley_from_word

    with pytest.raises(RileyValidationError, match="symmetric"):
        _riley_from_word(_word("aB"), "test word", 1)


def test_riley_parabolic_examples():
    assert riley_parabolic(KnotId(3, 1)) == UniPoly([-3, 1])
    assert riley_parabolic(KnotId(5, 2)) == UniPoly([3, -3, 1])
    phi = riley_parabolic(KnotId(7, 3))
    assert phi.degree == 3
    assert count_real_roots(phi).total_real == 1
    # same real root count as the closed form of the q-inverse presentation
    other = riley_closed_form(DoubleTwist("ON", 1, 1)).phi_xy.eval_x(2)
    assert count_real_roots(other).total_real == 1


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
    assert on.t == BiPoly.from_x(x2) - BiPoly.y() - y_min_2 * u * BiPoly.y()
    oe = closed_form_params(DoubleTwist("OE", 1, 2))
    assert oe.t == on.t
    assert isinstance(on, ClosedFormParams)


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
    two_minus_x2 = BiPoly.from_x(UniPoly([2, 0, -1]))
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
            assert phi.subs_y(UniPoly.const(2)) == expected, (m, n)


def test_anchor_value_odd_negative_family():
    # S_n(t) - mu*S_{n-1}(t) at y = x^2 - 2 equals 1
    for m in range(1, 5):
        for n in range(1, 5):
            phi = _raw_closed_form(DoubleTwist("ON", m, n))
            assert phi.subs_y(UniPoly([-2, 0, 1])) == UniPoly.const(1), (m, n)


def test_parabolic_never_vanishes_at_two():
    for p in range(3, 40, 2):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                assert riley_parabolic(KnotId(p, q))(2) != 0


def test_normalize_bipoly():
    raw = BiPoly([UniPoly([Fraction(1, 2), 0, Fraction(-1, 2)]), UniPoly.const(Fraction(-1, 2))])
    norm = normalize_bipoly(raw)
    assert norm == BiPoly([UniPoly([-1, 0, 1]), UniPoly.const(1)])
    assert norm.leading_y(Fraction(2)) > 0
    with pytest.raises(ValueError):
        normalize_bipoly(BiPoly.zero())


def test_normalize_parabolic():
    assert normalize_parabolic(UniPoly([Fraction(3, 2), Fraction(-1, 2)])) == UniPoly([-3, 1])
    assert normalize_parabolic(UniPoly([6, -2])) == UniPoly([-3, 1])


def test_closed_form_coefficients_are_integers():
    for family in ("EE", "EN", "OE", "ON"):
        phi = riley_closed_form(DoubleTwist(family, 2, 2)).phi_xy
        for c in phi.coeffs:
            assert all(v.denominator == 1 for v in c.coeffs)
