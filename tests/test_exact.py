import math
import random
from fractions import Fraction

import pytest

from riley import exact
from riley.exact import (
    BiPoly,
    UniPoly,
    _int_trim,
    _zadd,
    _zmul,
    _zsub,
    compose,
    format_rational,
)
from riley.realroots import _int_derivative, _int_exact_div, _int_sturm, squarefree_part
from riley.rileypoly import (
    _laurent_add,
    _laurent_mul,
    _laurent_shift,
    _laurent_sub,
    _unpack,
    symmetrize_to_xy,
)

Y = UniPoly.gen()


def _divmod(a: list, b: list) -> tuple[list, list]:
    """Rational long division of coefficient lists, a = q*b + r with
    deg r < deg b, on Fraction entries: the oracle for the integer
    kernel's exact division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    rem = [Fraction(c) for c in a]
    db, lb = len(b) - 1, b[-1]
    if len(rem) - 1 < db:
        return [], rem
    quot = [Fraction(0)] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            q = c / lb
            quot[i - db] = q
            for j, cb in enumerate(b):
                rem[i - db + j] -= q * cb
    return _int_trim(quot), _int_trim(rem)


def _monic(a: list) -> list:
    return [Fraction(c) / a[-1] for c in a]


def _gcd(a: list, b: list) -> list:
    """Monic gcd by the rational Euclidean algorithm: the oracle for the
    gcd at the end of an integer Sturm sequence."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return _monic(a)


def rand_poly(rng, max_deg=12, small=False):
    deg = rng.randint(0, max_deg)
    bound = 20 if small else 2**63
    return UniPoly([rng.randint(-bound, bound) for _ in range(deg + 1)])


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
    """UniPoly coefficients are Python ints; BiPoly coefficients are
    UniPolys whose coefficients are."""
    if isinstance(p, BiPoly):
        assert all(type(c) is UniPoly for c in p.coeffs), p
        for c in p.coeffs:
            _assert_coefficient_types(c)
    else:
        assert all(type(c) is int for c in p.coeffs), p


def test_kernel_results_keep_coefficient_types():
    # products with gaps leave entries of the kernel's zero untouched, and
    # subtracting a longer polynomial pads with it: that zero must be the
    # ring's own, an int in a UniPoly and a UniPoly in a BiPoly
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
        gap * gap * gap,
        bigap(Y + 1),
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


def test_integer_coefficients_are_ints():
    # everything the closed form and the parabolic route build has integer
    # coefficients, held as Python ints
    from riley.chebyshev import cheb_poly
    from riley.rileypoly import closed_form_params, riley_closed_form, riley_parabolic
    from riley.twobridge import DoubleTwist, KnotId

    for k in range(-4, 9):
        _assert_coefficient_types(cheb_poly(k))
    for family in ("EE", "EN", "OE", "ON"):
        d = DoubleTwist(family, 3, 2)
        phi = riley_closed_form(d).phi_xy
        _assert_coefficient_types(phi)
        for x0 in (None, 2, Fraction(5, 2), Fraction(-7, 3)):
            params = closed_form_params(d, x0)
            _assert_coefficient_types(params.t)
            _assert_coefficient_types(params.mu)
            assert type(params.denominator) is int
            if x0 is not None:
                _assert_coefficient_types(phi.eval_x(x0))
    for p, q in ((3, 1), (7, 3), (21, 8), (61, 23)):
        _assert_coefficient_types(riley_parabolic(KnotId(p, q)))


def test_coefficients_are_integers():
    # an integral rational lifts to an int; a non-integral one raises
    # rather than truncating (int(Fraction(1, 2)) is 0), and a float is
    # refused rather than converted
    p = UniPoly([Fraction(4, 2), Fraction(3, 1), 0, True])
    assert p.coeffs == (2, 3, 0, 1)
    _assert_coefficient_types(p)
    assert repr(UniPoly([Fraction(1), 2])) == "UniPoly([1, 2])"
    assert type(UniPoly.const(Fraction(3, 1)).coeffs[0]) is int
    for make in (
        lambda: UniPoly([Fraction(1, 2)]),
        lambda: UniPoly([1, Fraction(-7, 3)]),
        lambda: UniPoly.const(Fraction(1, 2)),
        lambda: BiPoly([Fraction(1, 2)]),
        lambda: BiPoly([1, UniPoly.gen(), Fraction(5, 4)]),
    ):
        with pytest.raises(ValueError, match="not an integer"):
            make()
    # a Fraction is no scalar of either ring, not even an integral one
    for op in (
        lambda: UniPoly([1]) * Fraction(1, 2),
        lambda: Fraction(1, 2) * UniPoly([1]),
        lambda: Y + Fraction(1, 2),
        lambda: Y * Fraction(3, 1),
        lambda: BiPoly.gen() * Fraction(1, 2),
    ):
        with pytest.raises(TypeError):
            op()
    for bad in ([0.5, 1], [1, 2.0]):
        with pytest.raises(TypeError, match="float"):
            UniPoly(bad)
    with pytest.raises(TypeError):
        UniPoly.const(0.5)
    with pytest.raises(TypeError):
        BiPoly([0.5])
    with pytest.raises(TypeError):
        Y + 0.5
    with pytest.raises(TypeError):
        Y * 0.5


def test_ring_operations_convert_no_coefficient(monkeypatch):
    # operations on int operands never reach the rational conversion
    calls = []

    def counting(c):
        calls.append(c)
        return c

    monkeypatch.setattr(exact, "_rational", counting)
    a, b = UniPoly([1, -2, 3]), UniPoly([4, 5])
    x = BiPoly([a, b])
    for result in (a + b, a - b, a * b, a * 3, 3 - a, -a, x * x + x, x - a):
        _assert_coefficient_types(result)
    assert calls == []


def test_hash_agrees_with_equality_on_constants():
    # a polynomial of degree <= 0 equals its constant, so it hashes as it
    three, zero = UniPoly.const(3), UniPoly.zero()
    assert three == 3 and zero == 0
    assert len({three, 3}) == 1 and len({zero, 0}) == 1
    assert {3: "int"}[three] == "int" and {three: "poly"}[3] == "poly"
    assert 0 in {zero} and zero in {0}
    lifted = BiPoly.const(5)
    assert lifted == 5 == UniPoly.const(5)
    assert len({lifted, 5, UniPoly.const(5)}) == 1
    assert BiPoly.const(UniPoly.gen()) in {UniPoly.gen()}
    assert len({Y, Y + 1, UniPoly([1, 1]), BiPoly([Y, 1]), BiPoly([Y, 1])}) == 3


def test_mixed_ring_dispatch():
    # a BiPoly is a UniPoly too: a UniPoly operand is a scalar to it, and
    # every mixed result is a BiPoly
    x = UniPoly.gen()
    x_plus_1 = UniPoly([1, 1])
    b = BiPoly([x, 1])  # y + x
    results = {
        "uni * bi": (x_plus_1 * b, BiPoly([x * x_plus_1, x_plus_1])),
        "bi * uni": (b * x_plus_1, BiPoly([x * x_plus_1, x_plus_1])),
        "uni + bi": (x_plus_1 + b, BiPoly([x + x_plus_1, 1])),
        "uni - bi": (x_plus_1 - b, BiPoly([1, -1])),
    }
    for name, (got, want) in results.items():
        assert type(got) is BiPoly, name
        assert got.coeffs == want.coeffs, name
        _assert_coefficient_types(got)
    assert x == BiPoly.const(x) and BiPoly.const(x) == x
    assert x_plus_1 != BiPoly.gen() and BiPoly.gen() != x_plus_1
    with pytest.raises(TypeError):
        BiPoly([BiPoly.gen()])
    assert UniPoly.gen()(BiPoly.gen()) == BiPoly.gen()


def test_divrem_exact_factor():
    assert _divmod([-1, 0, 1], [-1, 1]) == ([1, 1], [])


def test_divrem_long_division():
    assert _divmod([0, 0, 1], [1, 1]) == ([-1, 1], [1])
    assert _divmod([1, 0, 1], [0, 2]) == ([0, Fraction(1, 2)], [1])


def test_divrem_degree_rule():
    assert _divmod([7], [0, 1]) == ([], [7])


def test_divrem_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        _divmod([0, 1], [])


def test_divrem_random_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_poly(rng, 10, small=True)
        b = rand_poly(rng, 5, small=True)
        if b.is_zero():
            continue
        q, r = _divmod(a.coeffs, b.coeffs)
        assert _zadd(_zmul(q, b.coeffs), r) == list(a.coeffs)
        assert len(r) < len(b.coeffs)


def test_gcd_examples():
    # the last element of the Sturm sequence of f is +-gcd(f, f'), primitive
    assert _int_sturm([-1, 0, 1])[-1] in ([1], [-1])  # y^2 - 1 is squarefree
    assert _int_sturm([1, -2, 1])[-1] in ([-1, 1], [1, -1])  # (y - 1)^2
    assert _int_sturm([4, -8, 4])[-1] in ([-1, 1], [1, -1])  # content 4
    # (y - 1)^2 (y + 2): gcd(f, f') = y - 1
    assert _int_sturm([2, -3, 0, 1])[-1] in ([-1, 1], [1, -1])
    assert _int_sturm([1, 0, 1])[-1] in ([1], [-1])  # y^2 + 1


def test_gcd_common_factor_randomized():
    # g^2 | f makes g | gcd(f, f'); the oracle gives the same gcd over Q
    rng = random.Random(99)
    checked = 0
    for _ in range(20):
        a = rand_poly(rng, 6, small=True)
        g = rand_poly(rng, 4, small=True)
        if a.is_zero() or g.degree < 1:
            continue
        f = (a * g * g).coeffs
        d = _int_sturm(list(f))[-1]
        assert _divmod(d, g.coeffs)[1] == [], "gcd(a*g^2, (a*g^2)') must be divisible by g"
        assert _monic(d) == _gcd(f, _int_derivative(f))
        checked += 1
    assert checked > 10


def test_squarefree_examples():
    assert squarefree_part((Y - 1) * (Y - 1)) == Y - 1
    p = UniPoly([3, -3, 1])
    assert squarefree_part(p) == p
    assert squarefree_part((Y - 1) * (Y - 1) * (Y - 2)) == (Y - 1) * (Y - 2)
    # primitive, with a positive leading coefficient
    assert squarefree_part(UniPoly([-4, 8, -4])) == Y - 1
    assert squarefree_part(UniPoly([6, -4])) == UniPoly([-3, 2])
    assert squarefree_part((2 * Y + 1) * (2 * Y + 1) * -6) == 2 * Y + 1
    assert squarefree_part(UniPoly.const(-7)) == UniPoly.const(1)


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
        assert sf.leading > 0 and math.gcd(*sf.coeffs) == 1
        if sf.degree < 1:
            continue
        assert _divmod(a.coeffs, sf.coeffs)[1] == []
        assert _gcd(sf.coeffs, _int_derivative(sf.coeffs)) == [1]


def test_eval():
    assert UniPoly([3, -3, 1])(2) == 1
    from riley.chebyshev import cheb_poly

    assert cheb_poly(4)(2) == 5


def test_eval_bi_trefoil():
    # x^2 - 1 - y at x = 2 (hand matrix product: W11 + (1/s - s) W12 for
    # w = ab is s^2 + s^-2 + 1 - y, i.e. x^2 - 1 - y)
    phi = BiPoly([UniPoly([-1, 0, 1]), UniPoly.const(-1)])
    assert phi.eval_x(2) == UniPoly([3, -1])
    # at x0 = a/b the value is scaled by b^(deg_x) = b^2: 4*(9/4 - 1 - y)
    assert phi.eval_x(Fraction(3, 2)) == UniPoly([5, -4])
    assert phi.eval_x(Fraction(-3, 2)) == UniPoly([5, -4])


def test_eval_x_scales_by_the_x_degree():
    # b^(deg_x) * Phi(a/b, y), deg_x the largest x-degree of any
    # y-coefficient: a constant or missing coefficient is scaled by all of it
    x = UniPoly.gen()
    phi = BiPoly([3, 0, x * x * x - 1, x])  # x y^3 + (x^3 - 1) y^2 + 3
    assert phi.eval_x(Fraction(1, 2)) == UniPoly([24, 0, -7, 4])
    assert phi.eval_x(Fraction(-2, 3)) == UniPoly([81, 0, -35, -18])
    assert phi.eval_x(Fraction(5)) == UniPoly([3, 0, 124, 5])
    assert BiPoly([2, 0, 3]).eval_x(Fraction(7, 9)) == UniPoly([2, 0, 3])
    assert BiPoly.zero().eval_x(Fraction(1, 3)) == UniPoly.zero()
    rng = random.Random(41)
    for _ in range(30):
        phi = BiPoly([rand_poly(rng, 4, small=True) for _ in range(rng.randint(1, 4))])
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        deg_x = max(c.degree for c in phi.coeffs)
        want = [c(x0) * x0.denominator**deg_x for c in phi.coeffs]
        assert list(phi.eval_x(x0).coeffs) == _int_trim(want)


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
    assert p(UniPoly([-1, 1])) == UniPoly([1, -1, 1])


def test_symmetrize_examples():
    # the k >= 0 half of s + 1/s, of s^2 + c + s^-2 and of y
    x = UniPoly.gen()
    assert symmetrize_to_xy({1: [1]}) == BiPoly.const(x)
    c = 5
    assert symmetrize_to_xy({2: [1], 0: [c]}) == BiPoly.const(UniPoly([c - 2, 0, 1]))
    assert symmetrize_to_xy({0: [0, 1]}) == BiPoly.gen()
    assert symmetrize_to_xy({}) == BiPoly.zero()


def test_symmetrize_rejects_negative_exponent():
    # the terms at -k are implied by those at k, so a negative key is a
    # caller passing the whole Laurent polynomial
    for f in ({1: [1], -1: [1]}, {-2: [3]}):
        with pytest.raises(ValueError, match="k >= 0"):
            symmetrize_to_xy(f)


def _pack(coeffs: list[int], bits: int) -> int:
    return sum(c << (bits * i) for i, c in enumerate(coeffs))


def _rand_ylist(rng) -> list[int]:
    coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs or [1]


def _half(f: dict) -> dict:
    """The terms at s^k, k >= 0, that symmetrize_to_xy takes."""
    return {e: c for e, c in f.items() if e >= 0}


def _rand_symmetric(rng) -> dict[int, list[int]]:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 4)
        terms[k] = terms[-k] = _rand_ylist(rng)
    terms[0] = _rand_ylist(rng)
    return terms


def test_symmetrize_is_ring_homomorphism():
    # the packed Laurent product and sum, unpacked, rewrite to the
    # product and sum of the rewrites (coefficients stay far below 2^15)
    bits = 16
    rng = random.Random(13)
    for _ in range(20):
        f, g = _rand_symmetric(rng), _rand_symmetric(rng)
        pf, pg = ({e: _pack(c, bits) for e, c in h.items()} for h in (f, g))
        product = {e: _unpack(c, bits) for e, c in _laurent_mul(pf, pg).items()}
        total = {e: _unpack(c, bits) for e, c in _laurent_add(pf, pg).items()}
        phi_f, phi_g = symmetrize_to_xy(_half(f)), symmetrize_to_xy(_half(g))
        assert symmetrize_to_xy(_half(product)) == phi_f * phi_g
        assert symmetrize_to_xy(_half(total)) == phi_f + phi_g


def test_symmetrize_exactness_via_eval():
    # the rewrite must be exactly equal at x = s + 1/s, against a direct
    # rational evaluation of the Laurent polynomial at s0
    rng = random.Random(31)
    for _ in range(10):
        f = _rand_symmetric(rng)
        s0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        at_s0 = [
            sum(c[j] * s0**e for e, c in f.items() if j < len(c))
            for j in range(max(map(len, f.values())))
        ]
        phi, x0 = symmetrize_to_xy(_half(f)), s0 + 1 / s0
        # eval_x scales by den(x0)^(deg_x)
        scale = x0.denominator ** max(c.degree for c in phi.coeffs)
        assert list(phi.eval_x(x0).coeffs) == _int_trim([v * scale for v in at_s0])


def test_laurent_shift_and_sub():
    # packed values: one int per s-exponent, no zero values kept
    f = {0: 1, 1: 6}
    assert _laurent_shift(f, -1) == {-1: 1, 0: 6}
    assert _laurent_sub(f, f) == {}
    assert _laurent_sub({}, f) == {0: -1, 1: -6}
    assert _laurent_add(f, {1: -6, 2: 3}) == {0: 1, 2: 3}
    # (1 + s)(1 - s) = 1 - s^2
    assert _laurent_mul({0: 1, 1: 1}, {0: 1, 1: -1}) == {0: 1, 2: -1}


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
        q, r = _divmod(e, d)
        got = _int_exact_div(e, d)
        if not r:
            assert got == q
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
        rem = _divmod(e, prim)[1]
        assert (_int_exact_div(e, prim) is None) == bool(rem)

    ring_laws()
    exact_division()


def test_int_gcd_properties_hypothesis():
    # The squarefree step production runs: gcd(f, f') is the last element
    # of f's Sturm sequence, and f divided by it has a constant Sturm tail.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def trimmed(min_size, max_size):
        lists = st.lists(st.integers(min_value=-40, max_value=40), min_size=min_size, max_size=max_size)
        return lists.map(lambda c: _zadd(c, [])).filter(lambda c: len(c) >= min_size)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(trimmed(1, 5), trimmed(2, 4))
    def squarefree_of_square_multiple(a, g):
        f = _zmul(a, _zmul(g, g))
        gcd = _int_sturm(f)[-1]
        assert _int_exact_div(f, gcd) is not None
        assert _int_exact_div(_int_derivative(f), gcd) is not None
        sf = list(squarefree_part(UniPoly(f)).coeffs)
        assert _int_exact_div(f, sf) is not None
        assert len(_int_sturm(sf)[-1]) == 1

    squarefree_of_square_multiple()


def test_rational_formatting():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(5)) == "5/1"


def test_zero_has_no_leading_coefficient():
    # a ValueError naming the cause, not the IndexError of an empty tuple
    with pytest.raises(ValueError, match="no leading coefficient"):
        UniPoly.zero().leading
