"""Riley polynomials of two-bridge knots, by two independent routes.

General route: a nonabelian SL(2,C) representation of the knot group of
b(p, q) sends the meridians to

    rho(a) = [[s, 1], [0, 1/s]]      rho(b) = [[s, 0], [2-y, 1/s]]

(s != 0, y != 2), and the defining relation rho(w a) = rho(b w) reduces
to one polynomial condition.  Every entry of W = rho(w) lies in
Z[s^±1, y].  Multiplying W on the right by a generator image is one
column operation on its columns c1, c2; the s-shifts only move
exponents:

    a:     c1 <- s c1                  c2 <- c1 + s^-1 c2
    a^-1:  c1 <- s^-1 c1               c2 <- -c1 + s c2
    b:     c1 <- s c1 + (2-y) c2       c2 <- s^-1 c2
    b^-1:  c1 <- s^-1 c1 - (2-y) c2    c2 <- s c2

The candidate used here is

    Phi~(s, y) = W11 + (1/s - s) * W12,

which is symmetric under s -> 1/s and therefore rewrites exactly as a
polynomial Phi(x, y) in x = s + 1/s and y.  Here x is the meridian
trace and y = tr rho(a b^-1).  The relation defect rho(w a) - rho(b w)
is, from the four entries,

    [[0, Phi~], [(s - 1/s) W21 - (2-y) W11, W21 - (2-y) W12]].

A relator word is a palindrome whose mirrored letters are the other
generator, and C rho(g^e)^T C^-1 = rho(g'^e) with C = diag(1, 2-y) for
the two generators g, g' and e = +-1, so W = U C U^T C^-1 with U the
product over the first half of the word (Riley, "Nonabelian
representations of 2-bridge knot groups", 1984).  Hence W C is
symmetric, W21 = (2-y) W12 holds identically in Z[s^±1, y], and at
s = 1, where Phi~ = W11, Phi(2, y) = u11^2 + (2-y) u12^2.  With the
identity the (2,2) entry of the defect is 0, its (2,1) entry is
-(2-y) Phi~, and

    rho(w a) - rho(b w) = Phi~ * [[0, 1], [-(2-y), 0]]

at every s: the relation holds exactly where Phi~ vanishes.  Because
the reduction is not rederived here, every construction checks it and
raises instead of returning a possibly-wrong polynomial.  The general
route checks the identity itself on the full product, after the
determinant and the s -> 1/s symmetry of the candidate, and requires
Phi~(1, y) to be non-constant in y.  The parabolic route multiplies
only the first half and checks the hypotheses of W = U C U^T C^-1
instead: the word is a palindrome with mirrored generators, the column
table is transpose-symmetric under C, and det U = 1; together they give
det W = 1 and W21 = (2-y) W12.  It also requires Phi(2, y) to be
u11(2)^2 = 1 at y = 2 (rho(b) is the identity at s = 1, y = 2), so Phi
is nonzero and already primitive.

Packed entries: both word products hold each coefficient f in Z[y] as
the integer f(2^B), a ring homomorphism Z[y] -> Z (Kronecker
substitution), so a letter is a few big-integer adds and shifts.  It is
injective where |c| < 2^(B-1) for every coefficient, and B comes from
the same product run over 1-norm majorants, which depend only on the
number of letters (_majorants, computed once per length).  A general
entry maps s-exponents to such integers; in the parabolic slice (s = 1,
x = 2) of the conjecture scans an entry of U is one integer, and Phi is
u11^2 + (u12^2 << 1) - (u12^2 << B).  The general route checks its
determinant and the identity exactly on packed values, the parabolic
route det U and the table's symmetry; only the candidate is unpacked.

Closed-form route: for a double twist knot the Riley polynomial is
S_n(t) - mu * S_{n-1}(t) with family-specific t and mu built from
Chebyshev polynomials in y.  The two routes share nothing but basic
polynomial arithmetic and the normalization step, so their exact
agreement (see verifier.cross_validate) is a meaningful check of both.
One set of family formulas builds t and mu either in Z[x][y] or, at a
given x0 = a/b, directly in Z[y] as T = D*t and M = D*mu with D = b^2;
the theorem sweeps and `family --x` use the latter.  The homogeneous
recurrence H_{k+1} = T*H_k - D^2*H_{k-1} gives H_k = D^k S_k(t), so
H_n - M*H_{n-1} = D^n Phi(x0, y) and every step runs on Python ints.
Evaluation at x0 is a ring homomorphism Q[x][y] -> Q[y], so
specializing before the recurrence gives the bivariate polynomial at x0
up to a positive scalar, which normalization removes and on which no
root count depends.

Normalization: Riley polynomials are defined up to units, so results are
scaled to integer coefficients with content 1 and sign chosen to make
the leading y-coefficient positive at x = 2.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .chebyshev import cheb_pair, cheb_poly
from .exact import (
    BiPoly,
    Laurent,
    PackedLaurent,
    Scalar,
    UniPoly,
    _horner,
    _int_coeffs,
    _int_primitive,
    _int_trim,
    _laurent_add,
    _laurent_mul,
    _laurent_shift,
    _laurent_sub,
    _rational,
    asymmetry_exponent,
    compose,  # noqa: F401  (bound here for perfbench/traced.py)
    squarefree_part,  # noqa: F401  (bound here for perfbench/traced.py)
    symmetrize_to_xy,
)
from .twobridge import DoubleTwist, KnotId, SchubertWord, schubert_word

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


def _word_product(letters, ops: dict, one, zero) -> tuple:
    """Entries (W11, W12, W21, W22) of the product of generator images
    over the letters, one column operation from ops per letter."""
    row1, row2 = (one, zero), (zero, one)
    for letter in letters:
        op = ops[letter]
        row1, row2 = op(*row1), op(*row2)
    return (*row1, *row2)


# ---------------------------------------------------------------------------
# Packing (see the module docstring).  Majorants: |u +- v|_1 <= |u|_1 +
# |v|_1, |(2-y) v|_1 <= 3 |v|_1, and an s-shift keeps the 1-norm; packed,
# (2-y) v is 2v - (v << B).
# ---------------------------------------------------------------------------


def _no_shift(f, k: int):
    return f


_MAJORANT_COLUMN_OPS = _column_ops(_no_shift, operator.add, operator.add, lambda v: 3 * v)


@functools.cache
def _majorants(n: int) -> tuple[int, int, int, int]:
    """1-norm majorants (m11, m12, m21, m22) of the entries of the product
    over any n-letter relator word, at every s.  The majorant table
    ignores exponent signs and a SchubertWord alternates a, b, so they
    depend on n alone and are computed once per length."""
    return _word_product((("ab"[i % 2], 1) for i in range(n)), _MAJORANT_COLUMN_OPS, 1, 0)


def _slot_bits(word: SchubertWord) -> int:
    """Slot width B of the general route: one bit more than the largest
    1-norm majorant of the determinant W11 W22 - W12 W21, the candidate
    W11 + (1/s - s) W12 and the two sides W21 and (2-y) W12 of the
    identity, so every coefficient compared or unpacked has
    |c| < 2^(B-1).  Each side is bounded on its own: the signed-digit
    form of an integer is unique, so two packed values are equal only
    when the polynomials are."""
    m11, m12, m21, m22 = _majorants(len(word))
    bound = max(m11 * m22 + m12 * m21, m11 + 2 * m12, m21, 3 * m12)
    return bound.bit_length() + 1


def _unpack(n: int, bits: int) -> list[int]:
    """The trimmed coefficient list of f with f(2^bits) = n, given that
    every coefficient of f satisfies |c| < 2^(bits-1).

    Each slot is read as a signed digit: a residue of 2^(bits-1) or more
    is negative and borrows 1 from the next slot.  A polynomial with s
    slots has |f(2^bits)| >= 2^(bits*(s-1)-1), so bit_length // bits + 1
    passes read every slot.
    """
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    coeffs = []
    for _ in range(abs(n).bit_length() // bits + 1):
        c = n & mask
        if c >= half:
            c -= mask + 1
        coeffs.append(c)
        n = (n - c) >> bits
    return _int_trim(coeffs)


def _unpack_laurent(f: PackedLaurent, bits: int) -> Laurent:
    return {e: _unpack(c, bits) for e, c in f.items()}


def _two_minus_y(f: PackedLaurent, bits: int) -> PackedLaurent:
    return {e: (c << 1) - (c << bits) for e, c in f.items()}


def _packed_laurent_ops(bits: int) -> dict:
    """The general table on s-coefficients packed at y = 2^bits."""
    return _column_ops(_laurent_shift, _laurent_add, _laurent_sub, lambda f: _two_minus_y(f, bits))


def word_matrix(w: SchubertWord) -> tuple[int, tuple[PackedLaurent, ...]]:
    """Slot width B (_slot_bits) and the entries (W11, W12, W21, W22) of
    the product of generator images over the word, one column operation
    per letter, each a map from s-exponent to a coefficient packed at
    y = 2^B.  The determinant must be exactly 1; packing is injective on
    it, so the check on packed values is the polynomial identity."""
    bits = _slot_bits(w)
    w11, w12, w21, w22 = entries = _word_product(w.letters, _packed_laurent_ops(bits), {0: 1}, {})
    if _laurent_sub(_laurent_mul(w11, w22), _laurent_mul(w12, w21)) != {0: 1}:
        raise RileyValidationError(f"word matrix determinant differs from 1 for word {w.compact()}")
    return bits, entries


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
    lead = phi.leading(2)
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


def _reduction_candidate(w11: PackedLaurent, w12: PackedLaurent) -> PackedLaurent:
    """W11 + (1/s - s) W12."""
    return _laurent_sub(_laurent_add(w11, _laurent_shift(w12, -1)), _laurent_shift(w12, 1))


def _riley_from_word(word: SchubertWord, label: object) -> RileyPoly:
    """Shared general-route pipeline: product, reduction, validation (see
    riley_general), rewrite to (x, y), normalization."""
    bits, (w11, w12, w21, _) = word_matrix(word)
    candidate = _reduction_candidate(w11, w12)
    phi_tilde = _unpack_laurent(candidate, bits)

    bad = asymmetry_exponent(phi_tilde)
    if bad is not None:
        raise RileyValidationError(
            f"reduction candidate for {label} is not symmetric under s -> 1/s "
            f"(first offending s-exponent: {bad}); refusing to guess a unit multiple"
        )
    if w21 != _two_minus_y(w12, bits):
        raise RileyValidationError(f"relation identity W21 = (2-y) W12 fails for {label}")
    # the packed values summed over s are Phi~(1, y), packed
    if len(_unpack(sum(candidate.values()), bits)) < 2:
        raise RileyValidationError(f"reduction candidate for {label} is constant in y at s = 1")

    return RileyPoly(normalize_bipoly(symmetrize_to_xy(phi_tilde)), "general")


def riley_general(k: KnotId) -> RileyPoly:
    """Riley polynomial from the symbolic matrix product over the relator.

    Always-on validation: in word_matrix the determinant must be exactly
    1; then the candidate must be symmetric under s -> 1/s, the identity
    W21 = (2-y) W12 must hold exactly, which makes the relation defect
    Phi~ [[0, 1], [-(2-y), 0]] at every s, and Phi~(1, y) must be
    non-constant in y.  Any failure raises RileyValidationError: a
    silently wrong polynomial is never returned.
    """
    return _riley_from_word(schubert_word(k), k)


# ---------------------------------------------------------------------------
# Parabolic fast path: the s = 1 product over half the word, each entry
# one packed integer.
# ---------------------------------------------------------------------------

# each letter and the letter that mirrors it in a relator word
_MIRROR = {(g, e): ("b" if g == "a" else "a", e) for g in "ab" for e in (1, -1)}


def _packed_column_ops(bits: int) -> dict:
    """The s = 1 table on entries packed at y = 2^bits."""
    return _column_ops(_no_shift, operator.add, operator.sub, lambda v: (v << 1) - (v << bits))


def _check_transpose_symmetry(ops: dict, bits: int) -> None:
    """Raise unless C rho(a^e)^T C^-1 = rho(b^e), C = diag(1, 2-y), for
    e = +-1 in the packed table ops, where a letter's rows are its
    operation on the identity's rows.  Written without division as
    rho(b^e) C = C rho(a^e)^T; the equation with a and b swapped is this
    one transposed, so it needs no check of its own."""
    for e in (1, -1):
        (a11, a12), (a21, a22) = ops["a", e](1, 0), ops["a", e](0, 1)
        (b11, b12), (b21, b22) = ops["b", e](1, 0), ops["b", e](0, 1)
        b12_two_minus_y, a12_two_minus_y = (b12 << 1) - (b12 << bits), (a12 << 1) - (a12 << bits)
        if (b11, b12_two_minus_y, b21, b22) != (a11, a21, a12_two_minus_y, a22):
            raise RileyValidationError(
                f"parabolic column table fails C rho(a^{e})^T C^-1 = rho(b^{e}), C = diag(1, 2-y)"
            )


def riley_parabolic(k: KnotId) -> UniPoly:
    """Riley polynomial of the parabolic slice x = 2, normalized.

    Equals riley_general(k).phi_xy evaluated at x = 2, up to the sign and
    content normalization, but is computed directly over Z[y] as
    u11^2 + (2-y) u12^2 from the s = 1 product U over the first half of
    the word, on entries packed at y = 2^B (module docstring).  B is one
    bit longer than the larger 1-norm majorant, m11^2 + 3 m12^2 of Phi or
    m11 m22 + m12 m21 of det U.  Always-on validation: the word must be
    a palindrome with mirrored generators, the packed table
    transpose-symmetric under C = diag(1, 2-y) and det U exactly 1, which
    give W = U C U^T C^-1, det W = 1 and W21 = (2-y) W12, so the relation
    defect at s = 1 is Phi [[0, 1], [-(2-y), 0]]; and Phi must be 1 at
    y = 2 before the sign is normalized.
    """
    letters = schubert_word(k).letters
    half = len(letters) // 2
    first = letters[:half]
    if len(letters) % 2 or letters[half:] != tuple(map(_MIRROR.__getitem__, reversed(first))):
        raise RileyValidationError(f"relator word of {k} is not a palindrome with mirrored generators")
    m11, m12, m21, m22 = _majorants(half)
    bits = max(m11 * m11 + 3 * m12 * m12, m11 * m22 + m12 * m21).bit_length() + 1
    ops = _packed_column_ops(bits)
    _check_transpose_symmetry(ops, bits)
    u11, u12, u21, u22 = _word_product(first, ops, 1, 0)
    if u11 * u22 - u12 * u21 != 1:
        raise RileyValidationError(f"parabolic half-word matrix for {k} has determinant != 1")
    u12_sq = u12 * u12
    phi = _unpack(u11 * u11 + (u12_sq << 1) - (u12_sq << bits), bits)
    at_two = _horner(phi, 2, 0)
    if at_two != 1:
        raise RileyValidationError(f"parabolic Riley polynomial of {k} is {at_two} at y = 2, not 1")
    return UniPoly._raw(tuple(phi) if phi[-1] > 0 else tuple(-c for c in phi))


# ---------------------------------------------------------------------------
# Closed forms for double twist knots.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClosedFormParams:
    """The pair (t, mu) with Phi = S_n(t) - mu * S_{n-1}(t), scaled to
    integer coefficients: the fields hold T = D*t and M = D*mu for the
    positive integer D = denominator.  BiPolys in (x, y) with D = 1, or
    UniPolys in y when specialized at one x0 = a/b, with D = b^2."""

    t: BiPoly | UniPoly
    mu: BiPoly | UniPoly
    family: DoubleTwist
    denominator: int


_X2 = BiPoly.const(UniPoly([0, 0, 1]))


def closed_form_params(d: DoubleTwist, x0: Scalar | None = None) -> ClosedFormParams:
    """Exact (T, M) = D*(t, mu) for a double twist family, in Z[x][y]
    with D = 1, or in Z[y] at x = x0 = a/b when x0 is given, with
    D = b^2.

    With u = y + 2 - x^2 and S_k = S_k(y):

      EE: t = 2 + (y-2) u S_{m-1}^2        mu = 1 + u S_{m-1} (S_m - S_{m-1})
      EN: t as EE                          mu = 1 - u S_{m-1} (S_{m-1} - S_{m-2})
      OE: t = x^2 - y - (y-2) u S_m S_{m-1}  mu = 1 - u S_m (S_m - S_{m-1})
      ON: t as OE                          mu = 1 + u S_{m-1} (S_m - S_{m-1})

    Both depend on x only through x^2 and are linear in u, so one set of
    formulas serves both rings: D*t and D*mu take U = D*u =
    one*(y+2) - x2 for u and scale every other term by one = D, where
    x2 = D*x^2 is X^2, or a^2 at x0 = a/b.  The specialized pair is the
    bivariate one evaluated at x0, times D.  Raises TypeError on a
    float x0.
    """
    m = d.m
    if x0 is None:
        y, x2, one = BiPoly.gen(), _X2, 1
        # S_k(y) as BiPolys whose x-coefficients are constants
        s_m, s_m1, s_m2 = (BiPoly(cheb_poly(k).coeffs) for k in (m, m - 1, m - 2))
    else:
        x0 = _rational(x0)
        y, x2, one = UniPoly.gen(), x0.numerator**2, x0.denominator**2
        s_m, s_m1, s_m2 = cheb_poly(m), cheb_poly(m - 1), cheb_poly(m - 2)
    u = one * (y + 2) - x2
    y_minus_2 = y - 2
    if d.family in ("EE", "EN"):
        t = 2 * one + y_minus_2 * u * s_m1 * s_m1
        if d.family == "EE":
            mu = one + u * s_m1 * (s_m - s_m1)
        else:
            mu = one - u * s_m1 * (s_m1 - s_m2)
    else:
        t = x2 - one * y - y_minus_2 * u * s_m * s_m1
        if d.family == "OE":
            mu = one - u * s_m * (s_m - s_m1)
        else:
            mu = one + u * s_m1 * (s_m - s_m1)
    return ClosedFormParams(t=t, mu=mu, family=d, denominator=one)


def _closed_form(params: ClosedFormParams, n: int):
    """H_n - M * H_{n-1} = D^n * (S_n(t) - mu * S_{n-1}(t)), from one
    pass of the homogeneous Chebyshev recurrence at T = D*t (cheb_pair);
    no matrix product is involved, keeping this route independent of the
    general one."""
    h_prev, h_n = cheb_pair(n, params.t, params.denominator)
    return h_n - params.mu * h_prev


def riley_closed_form(d: DoubleTwist) -> RileyPoly:
    """Closed-form Riley polynomial S_n(t) - mu * S_{n-1}(t) in (x, y),
    normalized."""
    return RileyPoly(normalize_bipoly(_closed_form(closed_form_params(d), d.n)), "closed_form")


def riley_closed_form_at(d: DoubleTwist, x0: Scalar) -> UniPoly:
    """The closed-form Riley polynomial at x = x0, normalized as a
    polynomial in y.

    Evaluation at x0 is a ring homomorphism Q[x][y] -> Q[y], so building
    T and M at x0 and running the recurrence there gives
    riley_closed_form(d).phi_xy.eval_x(x0) up to a positive scalar, which
    normalize_parabolic removes.  Every step runs on integers.
    """
    return normalize_parabolic(_closed_form(closed_form_params(d, x0), d.n))
