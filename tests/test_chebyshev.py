import math
import random
from fractions import Fraction

import pytest

from riley.chebyshev import cheb_diff, cheb_eval, cheb_pair, cheb_poly, trace_poly
from riley.exact import BiPoly, UniPoly

Z = UniPoly.gen()


def test_small_polys():
    assert cheb_poly(0) == UniPoly.const(1)
    assert cheb_poly(1) == Z
    assert cheb_poly(2) == Z * Z - 1
    assert cheb_poly(3) == UniPoly([0, -2, 0, 1])


def test_negative_indices():
    assert cheb_poly(-1).is_zero()
    assert cheb_poly(-2) == UniPoly.const(-1)
    for k in range(0, 11):
        assert cheb_poly(-k - 2) == -cheb_poly(k)


def test_eval_at_two():
    for k in range(0, 60):
        assert cheb_eval(k, 2) == k + 1
    assert cheb_eval(7, 2) == 8


def test_eval_at_minus_two():
    for k in range(0, 60):
        assert cheb_eval(k, -2) == (-1) ** k * (k + 1)
    assert cheb_eval(3, -2) == -4


def test_eval_matches_poly():
    rng = random.Random(3)
    for _ in range(30):
        k = rng.randint(-12, 25)
        z = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
        assert cheb_eval(k, z) == cheb_poly(k)(z)
    assert cheb_eval(2, 3) == 8


def test_cheb_pair_matches_poly():
    rng = random.Random(5)
    for k in range(0, 16):
        z = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
        assert cheb_pair(k, z) == (cheb_poly(k - 1)(z), cheb_poly(k)(z))
        # at the generator the pair is the expanded polynomials themselves
        assert cheb_pair(k, Z) == (cheb_poly(k - 1), cheb_poly(k))
        g = UniPoly([Fraction(1, 3), -2, 1])
        at_g = lambda j: BiPoly(cheb_poly(j).coeffs).subs_y(g)
        assert cheb_pair(k, g) == (at_g(k - 1), at_g(k))


def test_pell_identity_exact():
    for k in range(1, 21):
        sk, sk1 = cheb_poly(k), cheb_poly(k - 1)
        assert sk * sk + sk1 * sk1 - Z * sk * sk1 == UniPoly.const(1)


def test_bound_inside_interval():
    rng = random.Random(17)
    for _ in range(200):
        z = Fraction(rng.randint(-200, 200), 100)
        k = rng.randint(1, 50)
        assert abs(cheb_eval(k - 1, z)) <= k


def _float_eval(p: UniPoly, x: float) -> float:
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


def test_root_product_form():
    for k in range(1, 9):
        p = cheb_poly(k)
        for j in range(1, k + 1):
            assert abs(_float_eval(p, 2 * math.cos(j * math.pi / (k + 1)))) < 1e-9


def test_diff_root_product_form():
    for k in range(1, 9):
        p = cheb_diff(k)
        for j in range(1, k + 1):
            assert abs(_float_eval(p, 2 * math.cos((2 * j - 1) * math.pi / (2 * k + 1)))) < 1e-9


def test_diff_small():
    assert cheb_diff(1) == UniPoly([-1, 1])
    assert cheb_diff(2) == UniPoly([-1, -1, 1])
    # roots of z^2 - z - 1 are 2cos(pi/5) and 2cos(3pi/5)
    for angle in (math.pi / 5, 3 * math.pi / 5):
        assert abs(_float_eval(cheb_diff(2), 2 * math.cos(angle))) < 1e-9


def test_diff_requires_positive_index():
    with pytest.raises(ValueError):
        cheb_diff(0)


def test_trace_poly():
    x = UniPoly.gen()
    assert trace_poly(0) == UniPoly.const(2)
    assert trace_poly(1) == x
    assert trace_poly(2) == x * x - 2
    assert trace_poly(3) == UniPoly([0, -3, 0, 1])
    for k in range(0, 15):
        assert trace_poly(k) == cheb_poly(k) - cheb_poly(k - 2)
    with pytest.raises(ValueError):
        trace_poly(-1)
