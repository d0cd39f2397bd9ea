import math
import random
from fractions import Fraction

import pytest

from riley.exact import (
    BiPoly,
    SymmetryError,
    UniPoly,
    _int_exact_div,
    _int_gcd,
    _laurent_add,
    _laurent_eval,
    _laurent_mul,
    _laurent_shift,
    _laurent_sub,
    _zadd,
    _zmul,
    _zsub,
    compose,
    format_rational,
    parse_rational,
    poly_gcd,
    squarefree_part,
    symmetrize_to_xy,
)

Y = UniPoly.gen()


def rand_poly(rng, max_deg=12, small=False):
    deg = rng.randint(0, max_deg)
    bound = 20 if small else 2**63
    coeffs = [
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        for _ in range(deg + 1)
    ]
    return UniPoly(coeffs)


def test_mul_difference_of_squares():
    assert (Y + 1) * (Y - 1) == Y * Y - 1


def test_add_identity_and_cancellation():
    p = UniPoly([3, -3, 1])
    assert p + UniPoly.zero() == p
    assert UniPoly([3, -3, 1]) + UniPoly([-3, 3]) == UniPoly([0, 0, 1])


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    for _ in range(25):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def _assert_coefficient_types(p):
    """UniPoly coefficients are Fractions; BiPoly coefficients are UniPolys
    whose coefficients are Fractions."""
    if isinstance(p, BiPoly):
        assert all(type(c) is UniPoly for c in p.coeffs), p
        for c in p.coeffs:
            _assert_coefficient_types(c)
    else:
        assert all(type(c) is Fraction for c in p.coeffs), p


def test_kernel_results_keep_coefficient_types():
    # products with gaps leave entries of the kernel's zero untouched, and
    # subtracting a longer polynomial pads with it: that zero must be the
    # ring's own, never an int
    gap = UniPoly([1, 0, 0, 0, 0, 1])  # y^5 + 1
    longer = UniPoly([0, 0, 0, 0, 2])
    x = UniPoly.gen()
    bigap = BiPoly([x, 0, 0, 1])  # zero middle y-coefficients
    unis = [
        gap * (Y + 1),
        (Y + 1) * gap,
        gap * gap,
        Y - longer,
        1 - longer,
        gap + longer,
        gap.derivative(),
        gap**3,
        bigap.subs_y(Y + 1),
    ]
    bis = [
        bigap * BiPoly([1, x]),
        BiPoly([1, x]) * bigap,
        bigap * bigap,
        BiPoly([1]) - bigap,
        bigap - BiPoly([x] * 6),
        bigap + BiPoly([x, x]),
        compose(gap, bigap),
    ]
    for p in unis + bis:
        _assert_coefficient_types(p)
    assert gap * (Y + 1) == UniPoly([1, 1, 0, 0, 0, 1, 1])
    assert bigap * BiPoly([1, x]) == BiPoly([x, x * x, 0, 1, x])
    assert type(gap(Fraction(1, 2))) is Fraction


def test_divrem_exact_factor():
    q, r = divmod(Y * Y - 1, Y - 1)
    assert q == Y + 1 and r.is_zero()


def test_divrem_long_division():
    q, r = divmod(Y * Y, Y + 1)
    assert q == Y - 1 and r == UniPoly.const(1)


def test_divrem_degree_rule():
    q, r = divmod(UniPoly.const(7), Y)
    assert q.is_zero() and r == UniPoly.const(7)


def test_divrem_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(Y, UniPoly.zero())


def test_divrem_random_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_poly(rng, 10, small=True)
        b = rand_poly(rng, 5, small=True)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_gcd_examples():
    assert poly_gcd(Y * Y - 1, Y - 1) == Y - 1
    p = UniPoly([4, 2])
    assert poly_gcd(p, UniPoly.zero()) == p.monic()
    assert poly_gcd(Y * Y + 1, Y * Y - 1) == UniPoly.const(1)


def test_gcd_both_zero_raises():
    with pytest.raises(ValueError):
        poly_gcd(UniPoly.zero(), UniPoly.zero())


def test_gcd_common_factor_randomized():
    rng = random.Random(99)
    for _ in range(20):
        a = rand_poly(rng, 6, small=True)
        b = rand_poly(rng, 6, small=True)
        g = rand_poly(rng, 4, small=True)
        if a.is_zero() or b.is_zero() or g.degree < 1:
            continue
        d = poly_gcd(a * g, b * g)
        _, r = divmod(d, g.monic())
        assert r.is_zero(), "gcd(a*g, b*g) must be divisible by monic(g)"


def test_squarefree_examples():
    assert squarefree_part((Y - 1) * (Y - 1)) == Y - 1
    p = UniPoly([3, -3, 1])
    assert squarefree_part(p) == p.monic()
    assert squarefree_part((Y - 1) * (Y - 1) * (Y - 2)) == (Y - 1) * (Y - 2)


def test_squarefree_zero_raises():
    with pytest.raises(ValueError):
        squarefree_part(UniPoly.zero())


def test_squarefree_coprime_with_derivative():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_poly(rng, 8, small=True)
        if a.degree < 1:
            continue
        sf = squarefree_part(a)
        if sf.degree < 1:
            continue
        assert poly_gcd(sf, sf.derivative()) == UniPoly.const(1)


def test_eval():
    assert UniPoly([3, -3, 1])(2) == 1
    from riley.chebyshev import cheb_poly

    assert cheb_poly(4)(2) == 5


def test_eval_bi_trefoil():
    # x^2 - 1 - y at x = 2 (hand matrix product: W11 + (1/s - s) W12 for
    # w = ab is s^2 + s^-2 + 1 - y, i.e. x^2 - 1 - y)
    phi = BiPoly([UniPoly([-1, 0, 1]), UniPoly.const(-1)])
    assert phi.eval_x(2) == UniPoly([3, -1])


def test_compose_square():
    z2 = UniPoly([0, 0, 1])
    inner = BiPoly([1, 1])  # y + 1
    assert compose(z2, inner) == BiPoly([1, 2, 1])


def test_compose_identity():
    z = UniPoly.gen()
    t = BiPoly([UniPoly([2, 0, -1]), UniPoly([0, 1])])
    assert compose(z, t) == t


def test_compose_constant():
    assert compose(UniPoly.const(5), BiPoly([1, 2, 3])) == BiPoly.const(5)


def test_bipoly_subs_y():
    # (y^2 + x) at y := x - 1  ->  (x-1)^2 + x = x^2 - x + 1
    p = BiPoly([UniPoly.gen(), UniPoly.zero(), UniPoly.const(1)])
    assert p.subs_y(UniPoly([-1, 1])) == UniPoly([1, -1, 1])


def test_symmetrize_examples():
    x = UniPoly.gen()
    assert symmetrize_to_xy({1: [1], -1: [1]}) == BiPoly.from_x(x)
    c = 5
    assert symmetrize_to_xy({2: [1], 0: [c], -2: [1]}) == BiPoly.from_x(UniPoly([c - 2, 0, 1]))
    assert symmetrize_to_xy({0: [0, 1]}) == BiPoly.y()


def test_symmetrize_asymmetric_raises_with_exponent():
    f = {2: [1], -2: [2]}
    with pytest.raises(SymmetryError) as exc:
        symmetrize_to_xy(f)
    assert exc.value.exponent == 2


def _rand_ylist(rng) -> list[int]:
    coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs or [1]


def _rand_symmetric(rng) -> dict[int, list[int]]:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 4)
        terms[k] = terms[-k] = _rand_ylist(rng)
    terms[0] = _rand_ylist(rng)
    return terms


def test_symmetrize_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        f, g = _rand_symmetric(rng), _rand_symmetric(rng)
        assert symmetrize_to_xy(_laurent_mul(f, g)) == symmetrize_to_xy(f) * symmetrize_to_xy(g)
        assert symmetrize_to_xy(_laurent_add(f, g)) == symmetrize_to_xy(f) + symmetrize_to_xy(g)


def test_symmetrize_exactness_via_eval():
    # the rewrite must be exactly equal at x = s + 1/s; the integer
    # evaluation at s0 = a/b carries the factor (ab)^K
    rng = random.Random(31)
    for _ in range(10):
        f = _rand_symmetric(rng)
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        s0 = Fraction(a, b)
        width = max(abs(k) for k in f)
        scaled = symmetrize_to_xy(f).eval_x(s0 + 1 / s0) * (a * b) ** width
        assert scaled == UniPoly(_laurent_eval(f, a, b))


def test_laurent_eval_scaled():
    # f = y s^-2 + 3 s at s = 1/2, scaled by (1*2)^2: 4*(4y + 3/2) = 16y + 6
    f = {-2: [0, 1], 1: [3]}
    assert _laurent_eval(f, 1, 2) == [6, 16]
    assert _laurent_eval(f, 1, 2, width=3) == [12, 32]
    assert _laurent_eval(f, 1, 1) == [3, 1]
    assert _laurent_eval({}, 2, 3) == []


def test_laurent_shift_and_sub():
    f = {0: [1], 1: [0, 2]}
    assert _laurent_shift(f, -1) == {-1: [1], 0: [0, 2]}
    assert _laurent_sub(f, f) == {}
    assert _laurent_sub({}, f) == {0: [-1], 1: [0, -2]}


def test_int_exact_div_examples():
    # (y - 1)(2y + 3) = 2y^2 + y - 3
    assert _int_exact_div([-3, 1, 2], [-1, 1]) == [3, 2]
    assert _int_exact_div([-3, 1, 2], [3, 2]) == [-1, 1]
    # non-monic divisor with a remainder over Z (and over Q: 2y + 1 is primitive)
    assert _int_exact_div([1, 1], [1, 2]) is None
    assert _int_exact_div([1], [0, 1]) is None
    assert _int_exact_div([], [5, 1]) == []
    with pytest.raises(ZeroDivisionError):
        _int_exact_div([1], [])


def test_int_exact_div_agrees_with_rational_division():
    # for a primitive divisor, exact division over Z succeeds exactly when
    # the rational remainder is zero (Gauss's lemma)
    rng = random.Random(17)
    for _ in range(200):
        d = _rand_ylist(rng)
        if abs(math.gcd(*d)) != 1:
            continue
        e = _zmul(_rand_ylist(rng), d) if rng.random() < 0.5 else _rand_ylist(rng)
        q, r = divmod(UniPoly(e), UniPoly(d))
        got = _int_exact_div(e, d)
        if r.is_zero():
            assert got is not None and UniPoly(got) == q
        else:
            assert got is None


def test_int_kernel_properties_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    ints = st.integers(min_value=-10**6, max_value=10**6)
    polys = st.lists(ints, max_size=8).map(lambda c: _zadd(c, []))
    nonzero = polys.filter(bool)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(polys, polys, polys)
    def ring_laws(a, b, c):
        assert _zadd(a, b) == _zadd(b, a)
        assert _zadd(_zadd(a, b), c) == _zadd(a, _zadd(b, c))
        assert _zsub(_zadd(a, b), b) == a
        assert _zmul(a, b) == _zmul(b, a)
        assert _zmul(_zmul(a, b), c) == _zmul(a, _zmul(b, c))
        assert _zmul(a, _zadd(b, c)) == _zadd(_zmul(a, b), _zmul(a, c))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(polys, nonzero, polys)
    def exact_division(q, d, r):
        assert _int_exact_div(_zmul(q, d), d) == q
        e = _zadd(_zmul(q, d), r)
        got = _int_exact_div(e, d)
        if got is not None:
            assert _zmul(got, d) == e
        # None exactly when the remainder is nonzero, once d is primitive
        g = math.gcd(*d)
        prim = [v // g for v in d]
        rem = divmod(UniPoly(e), UniPoly(prim))[1]
        assert (_int_exact_div(e, prim) is None) == (not rem.is_zero())

    ring_laws()
    exact_division()


def test_int_gcd_properties_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def trimmed(min_size, max_size):
        lists = st.lists(st.integers(min_value=-40, max_value=40), min_size=min_size, max_size=max_size)
        return lists.map(lambda c: _zadd(c, [])).filter(lambda c: len(c) >= min_size)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(trimmed(1, 5), trimmed(1, 5), trimmed(2, 4))
    def gcd_of_multiples(a, b, g):
        ag, bg = _zmul(a, g), _zmul(b, g)
        d = _int_gcd(ag, bg)
        assert math.gcd(*d) == 1
        assert _int_exact_div(ag, d) is not None
        assert _int_exact_div(bg, d) is not None
        content = math.gcd(*g)
        assert _int_exact_div(d, [c // content for c in g]) is not None

    gcd_of_multiples()


def test_rational_formatting():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(5)) == "5/1"


def test_bipoly_json_roundtrip():
    p = BiPoly([UniPoly([Fraction(1, 2), 0, -1]), UniPoly.const(3)])
    d = p.to_json_dict()
    assert d["y_degree"] == 1
    assert d["coeffs"][0] == ["1/2", "0/1", "-1/1"]
    assert BiPoly([UniPoly([Fraction(v) for v in row]) for row in d["coeffs"]]) == p
