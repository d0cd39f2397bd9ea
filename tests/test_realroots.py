import random
from fractions import Fraction

import pytest

import riley.realroots
from riley.exact import UniPoly, _int_primitive
from riley.realroots import (
    _cauchy_bound,
    _count_all,
    _int_derivative,
    _int_sturm,
    _signs_at,
    _sturm_chain,
    _variations,
    count_real_roots,
    isolate_roots,
    squarefree_part,
)
from riley.rileypoly import normalize_parabolic, riley_closed_form_at, riley_general, riley_parabolic
from riley.twobridge import FAMILIES, DoubleTwist, KnotId
from riley.verifier import enumerate_knots

Y = UniPoly.gen()


def _pow(f: UniPoly, k: int) -> UniPoly:
    """f**k for k >= 0 by repeated products."""
    out = UniPoly.const(1)
    for _ in range(k):
        out = out * f
    return out


CUBIC = UniPoly([-1, 2, -3, 1])  # y^3 - 3y^2 + 2y - 1, discriminant -23
REPEATED = _pow(Y - 1, 2) * _pow(Y + 2, 3) * (Y * Y - 2)  # distinct roots -2, -sqrt2, 1, sqrt2


def _count_open(f, lo, hi):
    """Distinct roots of f in (lo, hi); the endpoints must not be roots."""
    assert f(lo) != 0 and f(hi) != 0
    chain = _sturm_chain(f)
    return _variations(_signs_at(chain, Fraction(lo))) - _variations(_signs_at(chain, Fraction(hi)))


def test_chain_linear():
    assert _sturm_chain(Y - 3) == [[-3, 1], [1]]


def test_chain_quadratic_ends_negative():
    # remainder of (y^2-3y+3, 2y-3) is the constant 3/4; negated (and
    # rescaled positively to integer form) the chain ends negative
    chain = _sturm_chain(UniPoly([3, -3, 1]))
    assert len(chain) == 3
    assert len(chain[-1]) == 1
    assert chain[-1][0] < 0


def test_chain_of_repeated_root_ends_in_the_gcd():
    # one chain, on f itself: its head is f and its tail gcd(f, f') = y - 1
    chain = _sturm_chain((Y - 1) * (Y - 1))
    assert chain[0] == [1, -2, 1]
    assert chain[-1] == [-1, 1]
    assert _count_all(chain) == 1


def test_chain_of_constant_is_itself_and_zero_raises():
    assert _sturm_chain(UniPoly.const(-6)) == [[-1]]
    with pytest.raises(ValueError, match="root count of the zero polynomial is undefined"):
        _sturm_chain(UniPoly.zero())


def test_chain_degrees_strictly_decrease():
    rng = random.Random(11)
    for _ in range(20):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(3, 9))]
        f = UniPoly(coeffs)
        if f.degree < 1:
            continue
        degs = [len(p) - 1 for p in _sturm_chain(f)]
        assert all(a > b for a, b in zip(degs, degs[1:]))


def test_count_examples():
    assert count_real_roots(Y - 3) == 1
    assert count_real_roots(UniPoly([3, -3, 1])) == 0
    assert count_real_roots(CUBIC) == 1


def test_count_zero_raises():
    # both entry points refuse zero with the one message of _sturm_chain
    for fn in (count_real_roots, isolate_roots):
        with pytest.raises(ValueError, match="^root count of the zero polynomial is undefined$"):
            fn(UniPoly.zero())


def test_count_constant_is_zero():
    for c in (5, -3, 1):
        assert count_real_roots(UniPoly.const(c)) == 0
        assert isolate_roots(UniPoly.const(c)) == ()


def test_count_in_interval_examples():
    assert _count_open(Y - 3, 2, 4) == 1
    assert _count_open(UniPoly([3, -3, 1]), -10, 10) == 0
    assert _count_open(CUBIC, 2, 3) == 1


def test_count_in_interval_endpoint_root():
    # isolation reads the sign of f at a point as the first of its chain
    # signs, and tests it before counting across the point
    chain = _sturm_chain(Y - 3)
    assert _signs_at(chain, Fraction(3)) == [0, 1]
    assert _signs_at(chain, Fraction(2))[0] == -1 and _signs_at(chain, Fraction(4))[0] == 1
    assert _variations(_signs_at(chain, Fraction(1))) == _variations(_signs_at(chain, Fraction(2)))


def test_multiplicities_do_not_inflate_counts():
    f = (Y - 1) * (Y - 1) * (Y + 2)
    assert count_real_roots(f) == 2


def test_repeated_factors_count_and_isolate_as_squarefree_part():
    for f in (REPEATED, _pow(Y - 1, 2), _pow(Y, 3) * _pow(Y + 1, 2), _pow(Y * Y + 1, 2) * (Y - 3)):
        # the intervals differ where the Cauchy bounds of f and g do, but
        # they isolate the same roots in the same order
        g = squarefree_part(f)
        assert count_real_roots(f) == count_real_roots(g)
        on_f, on_g = isolate_roots(f), isolate_roots(g)
        assert len(on_f) == len(on_g)
        for (lo, hi), (glo, ghi) in zip(on_f, on_g):
            assert _count_open(g, lo, hi) == 1 and max(lo, glo) < min(hi, ghi)


def test_repeated_factors_count_and_isolation():
    assert count_real_roots(REPEATED) == 4
    assert count_real_roots(-REPEATED) == 4
    intervals = isolate_roots(REPEATED)
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = intervals
    assert a1 < -2 < b1
    assert b2 < 0 and a2 * a2 > 2 > b2 * b2
    assert a3 < 1 < b3
    assert a4 > 0 and a4 * a4 < 2 < b4 * b4
    assert all(_count_open(REPEATED, lo, hi) == 1 for lo, hi in intervals)


def test_chain_tail_must_divide_f(monkeypatch):
    # a chain that ends before gcd(f, f') ends in a polynomial that does
    # not divide f; with its last element dropped, the irreducible CUBIC's
    # chain ends in a linear remainder
    real_sturm = riley.realroots._int_sturm
    monkeypatch.setattr(riley.realroots, "_int_sturm", lambda f: real_sturm(f)[:-1])
    for fn in (count_real_roots, isolate_roots):
        with pytest.raises(ArithmeticError, match=r"^gcd\(f, f'\) does not divide f$"):
            fn(CUBIC)


def test_sturm_sequence_is_bounded(monkeypatch):
    # a remainder that never shrinks in degree must end in an error, not
    # in a loop without end
    monkeypatch.setattr(riley.realroots, "_int_sturm_rem", lambda a, b: list(b))
    with pytest.raises(ArithmeticError, match="did not end"):
        count_real_roots(CUBIC)


def test_sturm_division_is_checked_exact(monkeypatch):
    # CUBIC is monic and f' = 3y^2 - 6y + 2, so the second remainder is
    # divided by g*h = 9; a perturbed remainder must not pass that division
    real_rem = riley.realroots._int_sturm_rem
    calls = []

    def perturbed(a, b):
        p = real_rem(a, b)
        calls.append(p)
        return [p[0] + 1] + p[1:] if len(calls) == 2 else p

    monkeypatch.setattr(riley.realroots, "_int_sturm_rem", perturbed)
    with pytest.raises(ArithmeticError, match="not exact"):
        count_real_roots(CUBIC)


def _primitive_sturm(f: list[int]) -> list[list[int]]:
    """Oracle: the Sturm sequence as a primitive pseudo-remainder sequence,
    each remainder taken with positive scalings, made primitive and negated."""
    chain = [f, _int_primitive(_int_derivative(f))]
    for _ in range(len(f)):
        a, b = chain[-2], chain[-1]
        lb, sb = abs(b[-1]), (1 if b[-1] > 0 else -1)
        rem = list(a)
        for i in range(len(a) - 1, len(b) - 2, -1):
            top = rem[i] * sb
            rem = [lb * c for c in rem]
            for j, c in enumerate(b):
                rem[i - len(b) + 1 + j] -= top * c
        rem = rem[: len(b) - 1]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            return chain
        chain.append([-c for c in _int_primitive(rem)])
    raise AssertionError("oracle sequence did not end")


def _assert_positive_multiples(f: list[int]) -> int:
    """_int_sturm(f) against the oracle: same degrees, every element a
    positive integer multiple of the oracle's, the same last element.
    Returns the number of defective steps (degree drop >= 2)."""
    chain, oracle = _int_sturm(f), _primitive_sturm(f)
    assert [len(p) for p in chain] == [len(p) for p in oracle], f
    for t, o in zip(chain, oracle):
        k, r = divmod(t[-1], o[-1])
        assert r == 0 and k > 0 and t == [k * c for c in o], f
    assert chain[-1] == oracle[-1], f
    return sum(len(a) - len(b) > 1 for a, b in zip(chain[1:], chain[2:]))


def _int_input(phi: UniPoly) -> list[int]:
    return _int_primitive(phi.coeffs)


def test_sturm_matches_primitive_oracle_on_knots():
    knots = enumerate_knots(61)
    assert len(knots) > 200
    for k in knots:
        _assert_positive_multiples(_int_input(riley_parabolic(k)))


def test_sturm_matches_primitive_oracle_at_rational_x0():
    for family in FAMILIES:
        for m in range(1, 4):
            for n in range(1, 4):
                d = DoubleTwist(family, m, n)
                for x0 in (Fraction(2), Fraction(5, 2), Fraction(7, 3), 2 - Fraction(1, 16 * m * n)):
                    _assert_positive_multiples(_int_input(riley_closed_form_at(d, x0)))


def test_sturm_matches_primitive_oracle_on_seeded_polynomials():
    # non-monic, sparse (defective steps) and with repeated factors
    rng = random.Random(83)
    defective = 0
    for trial in range(300):
        if trial % 3 == 0:
            deg = rng.randint(2, 14)
            coeffs = [rng.randint(-40, 40) if rng.random() < 0.3 else 0 for _ in range(deg)]
            f = UniPoly(coeffs + [rng.choice([-6, -2, 1, 3, 10])])
        elif trial % 3 == 1:
            f = UniPoly.const(rng.choice([-5, 2, 7]))
            for _ in range(rng.randint(1, 4)):
                factor = UniPoly([rng.randint(-5, 5) for _ in range(rng.randint(2, 4))])
                if factor.degree >= 1:
                    f = f * _pow(factor, rng.randint(1, 3))
        else:
            f = UniPoly([rng.randint(-10**6, 10**6) for _ in range(rng.randint(2, 12))])
        if f.degree < 1:
            continue
        defective += _assert_positive_multiples(_int_input(f))
    assert defective > 20


def test_count_matches_sympy_with_repeated_factors():
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    rng = random.Random(67)
    for _ in range(60):
        f = UniPoly.const(rng.choice([-3, -1, 1, 2]))
        for _ in range(rng.randint(1, 4)):
            factor = UniPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 4))])
            if factor.degree >= 1:
                f = f * _pow(factor, rng.randint(1, 3))
        if f.degree < 1:
            continue
        ref = sympy.Poly([int(c) for c in reversed(f.coeffs)], y).count_roots()
        assert count_real_roots(f) == ref, f


def test_count_matches_sympy_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")

    coeff = st.integers(min_value=-9, max_value=9)
    lead = coeff.filter(bool)
    factor = st.one_of(
        st.tuples(coeff, lead), st.tuples(coeff, coeff, lead)
    ).map(UniPoly)  # linear and quadratic integer factors
    factors = st.lists(st.tuples(factor, st.integers(min_value=1, max_value=3)), min_size=1, max_size=4)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(factors)
    def agrees(fs):
        f = UniPoly.const(1)
        for g, mult in fs:
            f = f * _pow(g, mult)
        ref = sympy.Poly([int(c) for c in reversed(f.coeffs)], y).count_roots()
        assert count_real_roots(f) == ref

    agrees()


def test_isolate_linear():
    (lo, hi), = isolate_roots(Y - 3)
    assert lo < 3 < hi


def test_isolate_sqrt5():
    intervals = isolate_roots(Y * Y - 5)
    assert len(intervals) == 2
    for lo, hi in intervals:
        assert hi - lo <= Fraction(1, 64)
    (a1, b1), (a2, b2) = intervals
    # straddle -sqrt(5) and +sqrt(5)
    assert a1 < 0 and a1 * a1 > 5 > b1 * b1
    assert b2 > 0 and a2 * a2 < 5 < b2 * b2


def test_isolate_cubic():
    (lo, hi), = isolate_roots(CUBIC)
    assert 2 <= lo < hi <= 3


def test_isolate_root_at_bisection_midpoint():
    # roots at 0 and +-3 make 0 an early midpoint of (-B, B)
    f = Y * (Y - 3) * (Y + 3)
    intervals = isolate_roots(f)
    assert len(intervals) == 3
    for (lo, hi), root in zip(intervals, (-3, 0, 3)):
        assert lo < root < hi
        assert hi - lo <= Fraction(1, 64)
    # a second root 10^-6 from the midpoint root needs 13 halvings of the
    # enclosure, well inside the separation bound
    (lo0, hi0), (lo1, hi1) = isolate_roots(Y * (Y * 10**6 - 1))
    assert lo0 < 0 < hi0 <= lo1 < Fraction(1, 10**6) < hi1


def test_isolate_root_at_midpoint_is_bounded(monkeypatch):
    # The first midpoint of f = y is its root; with the chain showing no
    # variation at the enclosure's points (0 < |v| < 1, inside the Cauchy
    # bound 1), the enclosure must give up at the root separation bound.
    calls = []

    def no_variation_near_root(chain, v):
        signs = _signs_at(chain, v)
        if not 0 < abs(v) < 1:
            return signs
        calls.append(v)
        if len(calls) > 1000:
            raise RuntimeError("enclosure kept halving past any separation bound")
        return [signs[0]] * len(signs)

    monkeypatch.setattr(riley.realroots, "_signs_at", no_variation_near_root)
    with pytest.raises(ArithmeticError, match="root separation"):
        isolate_roots(Y)
    assert calls


def test_isolate_checks_its_interval_count(monkeypatch):
    # f = y has one root, at the first midpoint; a chain claiming two
    # roots leaves bisection with one interval, and the final count check
    # must refuse to return it
    monkeypatch.setattr(riley.realroots, "_count_all", lambda chain: 2)
    with pytest.raises(ArithmeticError, match="isolation found 1 intervals for 2 roots"):
        isolate_roots(Y)


def test_isolate_evaluates_each_point_once(monkeypatch):
    # each worklist entry carries the variations at both of its ends, so
    # no point's chain signs are computed twice
    points = []
    monkeypatch.setattr(
        riley.realroots, "_signs_at", lambda chain, v: points.append(v) or _signs_at(chain, v)
    )
    phi = normalize_parabolic(riley_general(KnotId(61, 17)).phi_xy.eval_x(Fraction(7, 3)))
    for f in (REPEATED, phi, Y * (Y - 3) * (Y + 3)):
        points.clear()
        isolate_roots(f)
        assert len(points) > 10
        assert len(set(points)) == len(points)


def test_isolate_interval_counts_sum():
    rng = random.Random(23)
    for _ in range(20):
        f = UniPoly([rng.randint(-8, 8) for _ in range(rng.randint(2, 8))])
        if f.degree < 1:
            continue
        intervals = isolate_roots(f)
        assert list(intervals) == sorted(intervals)
        assert all(_count_open(f, lo, hi) == 1 for lo, hi in intervals)
        assert len(intervals) == count_real_roots(f)


def test_count_equals_interval_count_beyond_cauchy_bound():
    rng = random.Random(41)
    checked = 0
    for _ in range(500):
        f = UniPoly([rng.randint(-50, 50) for _ in range(rng.randint(2, 11))])
        if f.degree < 1:
            continue
        b = _cauchy_bound(f) + 1
        assert count_real_roots(f) == _count_open(f, -b, b)
        checked += 1
    assert checked > 450


def test_distinct_linear_factors():
    rng = random.Random(59)
    for k in range(1, 7):
        roots = set()
        while len(roots) < k:
            roots.add(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
        f = UniPoly.const(1)
        for r in roots:
            f = f * UniPoly([-r.numerator, r.denominator])
        assert count_real_roots(f) == k


def test_scale_invariance():
    rng = random.Random(61)
    for _ in range(20):
        f = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 8))])
        if f.degree < 1:
            continue
        c = rng.randint(1, 9) * rng.choice([1, -1])
        assert count_real_roots(f) == count_real_roots(f * c)
