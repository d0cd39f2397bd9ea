import random
from fractions import Fraction

import pytest

import riley.realroots
from riley.exact import UniPoly, squarefree_part
from riley.realroots import (
    cauchy_bound,
    count_in_interval,
    count_real_roots,
    isolate_roots,
    sturm_chain,
)

Y = UniPoly.gen()
CUBIC = UniPoly([-1, 2, -3, 1])  # y^3 - 3y^2 + 2y - 1, discriminant -23
REPEATED = (Y - 1) ** 2 * (Y + 2) ** 3 * (Y * Y - 2)  # distinct roots -2, -sqrt2, 1, sqrt2


def test_chain_linear():
    chain = sturm_chain(Y - 3).polys
    assert chain == (Y - 3, UniPoly.const(1))


def test_chain_quadratic_ends_negative():
    # remainder of (y^2-3y+3, 2y-3) is the constant 3/4; negated (and
    # rescaled positively to integer form) the chain ends negative
    chain = sturm_chain(UniPoly([3, -3, 1])).polys
    assert len(chain) == 3
    assert chain[-1].degree == 0
    assert chain[-1].leading < 0


def test_chain_squarefree_reduction():
    chain = sturm_chain((Y - 1) * (Y - 1)).polys
    assert chain[0] == Y - 1


def test_chain_rejects_constant_and_zero():
    with pytest.raises(ValueError):
        sturm_chain(UniPoly.const(3))
    with pytest.raises(ValueError):
        sturm_chain(UniPoly.zero())


def test_chain_degrees_strictly_decrease():
    rng = random.Random(11)
    for _ in range(20):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(3, 9))]
        f = UniPoly(coeffs)
        if f.degree < 1:
            continue
        degs = [p.degree for p in sturm_chain(f).polys]
        assert all(a > b for a, b in zip(degs, degs[1:]))


def test_count_examples():
    assert count_real_roots(Y - 3).total_real == 1
    assert count_real_roots(UniPoly([3, -3, 1])).total_real == 0
    assert count_real_roots(CUBIC).total_real == 1


def test_count_zero_raises():
    with pytest.raises(ValueError):
        count_real_roots(UniPoly.zero())


def test_count_constant_is_zero():
    assert count_real_roots(UniPoly.const(5)).total_real == 0


def test_count_in_interval_examples():
    assert count_in_interval(Y - 3, 2, 4) == 1
    assert count_in_interval(UniPoly([3, -3, 1]), -10, 10) == 0
    assert count_in_interval(CUBIC, 2, 3) == 1


def test_count_in_interval_endpoint_root():
    with pytest.raises(ValueError, match="nudge"):
        count_in_interval(Y - 3, 3, 4)
    with pytest.raises(ValueError, match="nudge"):
        count_in_interval(Y - 3, 2, 3)
    assert count_in_interval(Y - 3, 1, 2) == 0


def test_count_in_interval_bad_bounds():
    with pytest.raises(ValueError):
        count_in_interval(Y, 2, 2)


def test_multiplicities_do_not_inflate_counts():
    f = (Y - 1) * (Y - 1) * (Y + 2)
    assert count_real_roots(f).total_real == 2


def test_repeated_factors_chain_is_squarefree_chain():
    for f in (REPEATED, (Y - 1) ** 2, Y**3 * (Y + 1) ** 2, (Y * Y + 1) ** 2 * (Y - 3)):
        assert sturm_chain(f) == sturm_chain(squarefree_part(f))


def test_repeated_factors_count_and_isolation():
    assert count_real_roots(REPEATED).total_real == 4
    assert count_real_roots(-REPEATED).total_real == 4
    rc = isolate_roots(REPEATED)
    assert rc.total_real == 4
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = rc.intervals
    assert a1 < -2 < b1
    assert b2 < 0 and a2 * a2 > 2 > b2 * b2
    assert a3 < 1 < b3
    assert a4 > 0 and a4 * a4 < 2 < b4 * b4
    assert all(count_in_interval(REPEATED, lo, hi) == 1 for lo, hi in rc.intervals)


def test_chain_contract_raises_when_squarefree_part_is_wrong(monkeypatch):
    # with the division skipped, the rebuilt chain still ends in gcd(f, f')
    monkeypatch.setattr(riley.realroots, "_int_squarefree", lambda f, g: f)
    assert count_real_roots(CUBIC).total_real == 1  # squarefree: no fallback
    with pytest.raises(ArithmeticError, match="constant"):
        count_real_roots(REPEATED)


def test_sturm_sequence_is_bounded(monkeypatch):
    # a remainder that never shrinks in degree must end in an error, not
    # in a loop without end
    monkeypatch.setattr(riley.realroots, "_int_prem_pos", lambda a, b: list(b))
    with pytest.raises(ArithmeticError, match="did not end"):
        count_real_roots(CUBIC)


def test_count_matches_sympy_with_repeated_factors():
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    rng = random.Random(67)
    for _ in range(60):
        f = UniPoly.const(rng.choice([-3, -1, 1, 2]))
        for _ in range(rng.randint(1, 4)):
            factor = UniPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 4))])
            if factor.degree >= 1:
                f = f * factor ** rng.randint(1, 3)
        if f.degree < 1:
            continue
        ref = sympy.Poly([int(c) for c in reversed(f.coeffs)], y).count_roots()
        assert count_real_roots(f).total_real == ref, f


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
            f = f * g**mult
        ref = sympy.Poly([int(c) for c in reversed(f.coeffs)], y).count_roots()
        assert count_real_roots(f).total_real == ref

    agrees()


def test_isolate_linear():
    rc = isolate_roots(Y - 3)
    assert rc.total_real == 1
    (lo, hi), = rc.intervals
    assert lo < 3 < hi


def test_isolate_sqrt5():
    rc = isolate_roots(Y * Y - 5)
    assert rc.total_real == 2
    assert len(rc.intervals) == 2
    for lo, hi in rc.intervals:
        assert hi - lo <= Fraction(1, 64)
    (a1, b1), (a2, b2) = rc.intervals
    # straddle -sqrt(5) and +sqrt(5)
    assert a1 < 0 and a1 * a1 > 5 > b1 * b1
    assert b2 > 0 and a2 * a2 < 5 < b2 * b2


def test_isolate_cubic():
    rc = isolate_roots(CUBIC)
    assert rc.total_real == 1
    (lo, hi), = rc.intervals
    assert 2 <= lo < hi <= 3


def test_isolate_root_at_bisection_midpoint():
    # roots at 0 and +-3 make 0 an early midpoint of (-B, B)
    f = Y * (Y - 3) * (Y + 3)
    rc = isolate_roots(f)
    assert rc.total_real == 3
    for (lo, hi), root in zip(rc.intervals, (-3, 0, 3)):
        assert lo < root < hi
        assert hi - lo <= Fraction(1, 64)
    # a second root 10^-6 from the midpoint root needs 13 halvings of the
    # enclosure, well inside the separation bound
    rc = isolate_roots(Y * (Y * 10**6 - 1))
    assert rc.total_real == 2
    (lo0, hi0), (lo1, hi1) = rc.intervals
    assert lo0 < 0 < hi0 <= lo1 < Fraction(1, 10**6) < hi1


def test_isolate_root_at_midpoint_is_bounded(monkeypatch):
    # The first midpoint of f = y is its root; with count_open never
    # returning 1, the enclosure must give up at the root separation bound.
    calls = []

    def never_one(self, lo, hi):
        calls.append((lo, hi))
        if len(calls) > 1000:
            raise RuntimeError("enclosure kept halving past any separation bound")
        return 0

    monkeypatch.setattr(riley.realroots._IntChain, "count_open", never_one)
    with pytest.raises(ArithmeticError, match="root separation"):
        isolate_roots(Y)


def test_isolate_interval_counts_sum():
    rng = random.Random(23)
    for _ in range(20):
        f = UniPoly([rng.randint(-8, 8) for _ in range(rng.randint(2, 8))])
        if f.degree < 1:
            continue
        rc = isolate_roots(f)
        per_interval = [count_in_interval(f, lo, hi) for lo, hi in rc.intervals]
        assert all(c == 1 for c in per_interval)
        assert sum(per_interval) == rc.total_real


def test_count_equals_interval_count_beyond_cauchy_bound():
    rng = random.Random(41)
    checked = 0
    for _ in range(500):
        f = UniPoly([rng.randint(-50, 50) for _ in range(rng.randint(2, 11))])
        if f.degree < 1:
            continue
        b = cauchy_bound(f) + 1
        assert count_real_roots(f).total_real == count_in_interval(f, -b, b)
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
            f = f * UniPoly([-r, 1])
        assert count_real_roots(f).total_real == k


def test_scale_invariance():
    rng = random.Random(61)
    for _ in range(20):
        f = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 8))])
        if f.degree < 1:
            continue
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        assert count_real_roots(f).total_real == count_real_roots(f * c).total_real
