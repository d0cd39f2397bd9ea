"""Riley polynomials of two-bridge knots, by two independent routes.

General route: a nonabelian SL(2,C) representation of the knot group of
b(p, q) sends the meridians to

    rho(a) = [[s, 1], [0, 1/s]]      rho(b) = [[s, 0], [2-y, 1/s]]

(s != 0, y != 2), and the defining relation rho(w a) = rho(b w) reduces
to one polynomial condition.  Every entry of W = rho(w) lies in
Z[s^±1, y] and is kept as a map from s-exponent to an int coefficient
list in y (the Laurent kernel in exact.py).  Multiplying W on the right
by a generator image is one column operation on its columns c1, c2; the
s-shifts only move exponents:

    a:     c1 <- s c1                  c2 <- c1 + s^-1 c2
    a^-1:  c1 <- s^-1 c1               c2 <- -c1 + s c2
    b:     c1 <- s c1 + (2-y) c2       c2 <- s^-1 c2
    b^-1:  c1 <- s^-1 c1 - (2-y) c2    c2 <- s c2

The candidate used here is

    Phi~(s, y) = W11 + (1/s - s) * W12,

which is symmetric under s -> 1/s and therefore rewrites exactly as a
polynomial Phi(x, y) in x = s + 1/s and y.  Here x is the meridian
trace and y = tr rho(a b^-1).  Because the reduction formula is not
rederived here, every construction machine-checks it.  The relation
defect rho(w a) - rho(b w) is, from the four entries,

    [[0, Phi~], [(s - 1/s) W21 - (2-y) W11, W21 - (2-y) W12]],

and its entries must all vanish wherever Phi~ vanishes: checked by
exact divisibility at s = 1 and by zero-set containment at 20 random
rational s.  All of it runs over the integers: at s0 = a/b an entry is
evaluated scaled by (ab)^K, which changes no zero set, and each
divisibility test is exact division in Z[y] by a primitive divisor,
which by Gauss's lemma is divisibility over Q.  Any failure raises
instead of returning a possibly-wrong polynomial.

Closed-form route: for a double twist knot the Riley polynomial is
S_n(t) - mu * S_{n-1}(t) with family-specific t and mu built from
Chebyshev polynomials in y.  The two routes share nothing but basic
polynomial arithmetic and the normalization step, so their exact
agreement (see verifier.cross_validate) is a meaningful check of both.

Normalization: Riley polynomials are defined up to units, so results are
scaled to integer coefficients with content 1 and sign chosen to make
the leading y-coefficient positive at x = 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .chebyshev import cheb_pair, cheb_poly
from .exact import (
    BiPoly,
    Laurent,
    UniPoly,
    _int_coeffs,
    _int_exact_div,
    _int_primitive,
    _int_squarefree_part,
    _laurent_add,
    _laurent_eval,
    _laurent_mul,
    _laurent_mul_two_minus_y,
    _laurent_shift,
    _laurent_sub,
    _laurent_width,
    _zadd,
    _zmul,
    _zmul_two_minus_y,
    _zsub,
    asymmetry_exponent,
    compose,  # noqa: F401  (bound here for perfbench/traced.py)
    squarefree_part,  # noqa: F401  (bound here for perfbench/traced.py)
    symmetrize_to_xy,
)
from .twobridge import DoubleTwist, KnotId, SchubertWord, schubert_word

_VALIDATION_POINTS = 20
# Draws of s0 allowed for the validation points; a real relator word
# skips almost none, so hitting the cap means a degenerate word.
_MAX_VALIDATION_DRAWS = 200


class RileyValidationError(RuntimeError):
    """The reduction to a single polynomial failed its validation contract
    for some word; the computed candidate must not be used."""


def _column_ops(shift, add, sub, mul_two_minus_y) -> dict:
    """The four column operations over one entry ring, where shift(f, k)
    is s^k f.  Each letter maps a row (W_i1, W_i2) of the matrix to the
    same row of W * rho(letter); the same operation acts on both rows."""
    return {
        ("a", 1): lambda u, v: (shift(u, 1), add(u, shift(v, -1))),
        ("a", -1): lambda u, v: (shift(u, -1), sub(shift(v, 1), u)),
        ("b", 1): lambda u, v: (add(shift(u, 1), mul_two_minus_y(v)), shift(v, -1)),
        ("b", -1): lambda u, v: (sub(shift(u, -1), mul_two_minus_y(v)), shift(v, 1)),
    }


_COLUMN_OPS = _column_ops(_laurent_shift, _laurent_add, _laurent_sub, _laurent_mul_two_minus_y)


def _word_product(w: SchubertWord, ops: dict, one, zero) -> tuple:
    """Entries (W11, W12, W21, W22) of the product of generator images
    over the word, one column operation from ops per letter."""
    row1, row2 = (one, zero), (zero, one)
    for letter in w.letters:
        op = ops[letter]
        row1, row2 = op(*row1), op(*row2)
    return (*row1, *row2)


def word_matrix(w: SchubertWord) -> tuple[Laurent, Laurent, Laurent, Laurent]:
    """Entries (W11, W12, W21, W22) of the product of generator images
    over the word, one column operation per letter.

    The determinant must be exactly 1 (every generator image is
    unimodular); this is checked symbolically for short words and, for
    long ones, by exact integer evaluation at s in {1, 2, -3/2}, where
    with all entries scaled by (ab)^K at s = a/b it must be (ab)^(2K).
    """
    w11, w12, w21, w22 = entries = _word_product(w, _COLUMN_OPS, {0: [1]}, {})
    if len(w) <= 24:
        if _laurent_sub(_laurent_mul(w11, w22), _laurent_mul(w12, w21)) != {0: [1]}:
            raise RileyValidationError(f"word matrix determinant differs from 1 for word {w.compact()}")
    else:
        width = max(_laurent_width(e) for e in entries)
        for num, den in ((1, 1), (2, 1), (-3, 2)):
            e11, e12, e21, e22 = (_laurent_eval(e, num, den, width) for e in entries)
            if _zsub(_zmul(e11, e22), _zmul(e12, e21)) != [(num * den) ** (2 * width)]:
                raise RileyValidationError(
                    f"word matrix determinant differs from 1 at s={Fraction(num, den)} "
                    f"for word {w.compact()}"
                )
    return entries


@dataclass(frozen=True, slots=True)
class RileyPoly:
    """A normalized Riley polynomial and which construction produced it."""

    phi_xy: BiPoly
    source: str  # "general" | "closed_form"


def normalize_bipoly(phi: BiPoly) -> BiPoly:
    """Scale to integer coefficients with content 1, sign fixed so the
    leading y-coefficient is positive at x = 2."""
    if phi.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    ints = iter(_int_primitive(_int_coeffs([v for c in phi.coeffs for v in c.coeffs])))
    # the same integers, regrouped by y-degree
    phi = BiPoly([UniPoly([next(ints) for _ in c.coeffs]) for c in phi.coeffs])
    lead = phi.leading_y(Fraction(2))
    if lead == 0:
        raise ValueError("leading y-coefficient vanishes at x = 2; sign normalization undefined")
    if lead < 0:
        phi = -phi
    return phi


def normalize_parabolic(phi: UniPoly) -> UniPoly:
    """Univariate analogue: integer coefficients, content 1, leading > 0."""
    if phi.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    phi = UniPoly(_int_primitive(_int_coeffs(phi.coeffs)))
    return -phi if phi.leading < 0 else phi


def _reduction_candidate(w11: Laurent, w12: Laurent) -> Laurent:
    """W11 + (1/s - s) W12."""
    return _laurent_sub(_laurent_add(w11, _laurent_shift(w12, -1)), _laurent_shift(w12, 1))


def _relation_defect(w11: Laurent, w12: Laurent, w21: Laurent) -> tuple[Laurent, Laurent]:
    """Entries (2,1) and (2,2) of rho(w a) - rho(b w); its (1,1) entry is
    0 and its (1,2) entry is the reduction candidate itself, so these two
    must vanish exactly on the zero set of the candidate."""
    d21 = _laurent_sub(
        _laurent_sub(_laurent_shift(w21, 1), _laurent_shift(w21, -1)),
        _laurent_mul_two_minus_y(w11),
    )
    d22 = _laurent_sub(w21, _laurent_mul_two_minus_y(w12))
    return d21, d22


def _check_divides(divisor: list[int], entries: list[list[int]], where: str) -> None:
    """Every nonzero entry must be an exact Z[y]-multiple of the primitive
    divisor (equivalently, by Gauss's lemma, a Q[y]-multiple)."""
    for e in entries:
        if e and _int_exact_div(e, divisor) is None:
            raise RileyValidationError(
                f"relation defect entry is not divisible by the reduction candidate {where}"
            )


def _riley_from_word(word: SchubertWord, label: object, seed: int) -> RileyPoly:
    """Shared general-route pipeline: product, reduction, validation,
    rewrite to (x, y), normalization."""
    w11, w12, w21, _ = word_matrix(word)
    phi_tilde = _reduction_candidate(w11, w12)

    bad = asymmetry_exponent(phi_tilde)
    if bad is not None:
        raise RileyValidationError(
            f"reduction candidate for {label} is not symmetric under s -> 1/s "
            f"(first offending s-exponent: {bad}); refusing to guess a unit multiple"
        )

    defect = _relation_defect(w11, w12, w21)
    # (i) exact divisibility at s = 1 (the parabolic slice).
    phi_1 = _laurent_eval(phi_tilde, 1, 1)
    if not phi_1:
        raise RileyValidationError(f"reduction candidate for {label} vanishes at s = 1")
    _check_divides(
        _int_primitive(phi_1), [_laurent_eval(e, 1, 1) for e in defect], f"at s = 1 for {label}"
    )
    # (ii) zero-set containment at random rational s: the defect entries
    # must be divisible by the squarefree part of the candidate.
    rng = random.Random(seed)
    done = draws = 0
    while done < _VALIDATION_POINTS:
        if draws == _MAX_VALIDATION_DRAWS:
            raise RileyValidationError(
                f"reduction candidate for {label} is constant in y at {draws - done} of "
                f"{draws} random s; cannot validate"
            )
        draws += 1
        s0 = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if rng.random() < 0.5:
            s0 = -s0
        num, den = s0.numerator, s0.denominator
        phi_s0 = _laurent_eval(phi_tilde, num, den)
        if len(phi_s0) < 2:
            continue
        phi_s0 = _int_primitive(phi_s0)
        entries = [_laurent_eval(e, num, den) for e in defect]
        # The squarefree part divides phi_s0, so an entry that phi_s0
        # divides passes; only the others need the squarefree part.
        if any(e and _int_exact_div(e, phi_s0) is None for e in entries):
            _check_divides(_int_squarefree_part(phi_s0), entries, f"at s = {s0} for {label}")
        done += 1

    return RileyPoly(normalize_bipoly(symmetrize_to_xy(phi_tilde)), "general")


def riley_general(k: KnotId) -> RileyPoly:
    """Riley polynomial from the symbolic matrix product over the relator.

    Always-on validation: (i) at s = 1 the candidate must divide all
    entries of rho(w a) - rho(b w); (ii) the same divisibility (of
    squarefree parts, i.e. zero-set containment) must hold at 20 random
    rational s; (iii) the candidate must be symmetric under s -> 1/s.
    Any failure raises RileyValidationError: a silently wrong polynomial
    is never returned.
    """
    return _riley_from_word(schubert_word(k), k, k.p * 2654435761 + k.q)


# ---------------------------------------------------------------------------
# Parabolic fast path: the general route's word product with the same
# column-operation table built at s = 1, where every s-shift is the
# identity and each entry is a single list in Z[y], so each letter costs
# O(degree) integer operations.  This is what the large conjecture scans
# use.
# ---------------------------------------------------------------------------

_PARABOLIC_COLUMN_OPS = _column_ops(lambda f, k: f, _zadd, _zsub, _zmul_two_minus_y)


def riley_parabolic(k: KnotId) -> UniPoly:
    """Riley polynomial of the parabolic slice x = 2, normalized.

    Equals riley_general(k).phi_xy evaluated at x = 2, up to the sign and
    content normalization, but is computed directly over Z[y].  The same
    validation idea as the general route runs here (cheaply): at s = 1
    the relation defect reduces to the single divisibility
    w11 | w21 - (2-y)*w12, an exact division by the primitive part of
    w11, plus the exact determinant identity.
    """
    word = schubert_word(k)
    w11, w12, w21, w22 = _word_product(word, _PARABOLIC_COLUMN_OPS, [1], [])
    if _zsub(_zmul(w11, w22), _zmul(w12, w21)) != [1]:
        raise RileyValidationError(f"parabolic word matrix for {k} has determinant != 1")
    if not w11:
        raise RileyValidationError(f"parabolic reduction candidate for {k} vanishes")
    phi = _int_primitive(w11)
    if phi[-1] < 0:
        phi = [-c for c in phi]
    defect = _zsub(w21, _zmul_two_minus_y(w12))
    if defect and _int_exact_div(defect, phi) is None:
        raise RileyValidationError(
            f"parabolic relation defect for {k} is not divisible by the candidate"
        )
    return UniPoly(phi)


# ---------------------------------------------------------------------------
# Closed forms for double twist knots.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClosedFormParams:
    """The pair (t, mu) with Phi = S_n(t) - mu * S_{n-1}(t)."""

    t: BiPoly
    mu: BiPoly
    family: DoubleTwist


_Y_MINUS_2 = BiPoly([-2, 1])
# y + 2 - x^2
_Y_PLUS_2_MINUS_X2 = BiPoly([UniPoly([2, 0, -1]), UniPoly.const(1)])
_X2 = BiPoly.from_x(UniPoly([0, 0, 1]))


def closed_form_params(d: DoubleTwist) -> ClosedFormParams:
    """Exact (t, mu) for a double twist family.

    With u = y + 2 - x^2 and S_k = S_k(y):

      EE: t = 2 + (y-2) u S_{m-1}^2        mu = 1 + u S_{m-1} (S_m - S_{m-1})
      EN: t as EE                          mu = 1 - u S_{m-1} (S_{m-1} - S_{m-2})
      OE: t = x^2 - y - (y-2) u S_m S_{m-1}  mu = 1 - u S_m (S_m - S_{m-1})
      ON: t as OE                          mu = 1 + u S_{m-1} (S_m - S_{m-1})
    """
    m = d.m
    u = _Y_PLUS_2_MINUS_X2
    # S_k(y) as BiPolys whose x-coefficients are constants
    s_m = BiPoly(cheb_poly(m).coeffs)
    s_m1 = BiPoly(cheb_poly(m - 1).coeffs)
    s_m2 = BiPoly(cheb_poly(m - 2).coeffs)
    if d.family in ("EE", "EN"):
        t = 2 + _Y_MINUS_2 * u * s_m1 * s_m1
        if d.family == "EE":
            mu = 1 + u * s_m1 * (s_m - s_m1)
        else:
            mu = 1 - u * s_m1 * (s_m1 - s_m2)
    else:
        t = _X2 - BiPoly.y() - _Y_MINUS_2 * u * s_m * s_m1
        if d.family == "OE":
            mu = 1 - u * s_m * (s_m - s_m1)
        else:
            mu = 1 + u * s_m1 * (s_m - s_m1)
    return ClosedFormParams(t=t, mu=mu, family=d)


def riley_closed_form(d: DoubleTwist) -> RileyPoly:
    """Closed-form Riley polynomial S_n(t) - mu * S_{n-1}(t), normalized.

    t and mu are built once, and one pass of the Chebyshev recurrence at
    t gives S_{n-1}(t) and S_n(t) together; no matrix product is
    involved, keeping this route independent of the general one.
    """
    params = closed_form_params(d)
    s_prev, s_n = cheb_pair(d.n, params.t)
    phi = s_n - params.mu * s_prev
    return RileyPoly(normalize_bipoly(phi), "closed_form")
