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
raises instead of returning a possibly-wrong polynomial.  Both word
products multiply only the first half of the word, giving U, and check
the hypotheses of W = U C U^T C^-1 with the same helpers: the word is a
palindrome with mirrored generators (_first_half), the column table is
transpose-symmetric under C (_check_transpose_symmetry, over either
entry ring), and det U = 1; together they give det W = 1 and
W21 = (2-y) W12.  From U,

    W11 = u11^2 + (2-y) u12^2,   W21 = u11 u21 + (2-y) u12 u22,

and W12 = W21 / (2-y).  The general route forms all three (word_matrix),
requires the division to leave no remainder, the candidate to be
symmetric under s -> 1/s and Phi~(1, y) to be non-constant in y and 1
at y = 2 (rho(b) is the identity at s = 1, y = 2, so W11 = 1 there).
The parabolic route needs only W11 at s = 1, and requires Phi(2, y) to
be u11(2)^2 = 1 at y = 2, so Phi is nonzero and already primitive.
These value checks are consistency checks on the unpacked result, not a
proof that the slot width was wide enough; that rests on the majorants.

Packing: both word products and the closed form hold each coefficient
f in Z[y] as the integer f(2^B), a ring homomorphism Z[y] -> Z
(Kronecker substitution), so a letter or a recurrence step is a few
big-integer adds, shifts and products.  It is injective where
|c| < 2^(B-1) for every coefficient, and B comes from the same code run
over 1-norm majorants.  For the word products these depend only on the
number of letters (_majorants, computed once per length), and one
_slot_bits serves both products.  A general entry maps s-exponents to
such integers (PackedLaurent, with its ring operations _laurent_*), and
2-y divides as one divmod by 2 - 2^B per exponent; in the parabolic
slice (s = 1, x = 2) of the conjecture scans an entry of U is one
integer, and Phi is u11^2 + (u12^2 << 1) - (u12^2 << B).  Both routes
check det U and the table's symmetry exactly on packed values, and the
general route checks the candidate's s -> 1/s symmetry there too; only
its terms at s^k, k >= 0, are unpacked, and symmetrize_to_xy rewrites
them in x = s + 1/s.

Closed-form route: for a double twist knot the Riley polynomial is
S_n(t) - mu * S_{n-1}(t) with family-specific t and mu built from
Chebyshev polynomials in y.  The two routes share nothing but basic
arithmetic (_unpack) and the normalization step, so their exact
agreement (see verifier.cross_validate) is a meaningful check of both.
One set of family formulas (_family_run) gives t and mu either over
Z[x][y] or, at a given x0 = a/b, over Z[y] as T = D*t and M = D*mu with
D = b^2; the theorem sweeps and `family --x` use the latter.  The
homogeneous recurrence H_{k+1} = T*H_k - D^2*H_{k-1} gives
H_k = D^k S_k(t), so H_n - M*H_{n-1} = D^n Phi(x0, y).  The formulas
and the recurrence run once, on packed integers: Phi depends on x only
through X = x^2, with deg_X Phi <= n, so the bivariate run packs
X = 2^B and y = 2^(B*(n+1)), and the run at x0 packs y = 2^B with
X = a^2; one _unpack then gives Phi, T or M.  Evaluation at x0 is a
ring homomorphism Q[x][y] -> Q[y], so specializing before the
recurrence gives the bivariate polynomial at x0 up to a positive
scalar, which normalization removes and on which no root count
depends.

Normalization: Riley polynomials are defined up to units, so results are
divided by their content, with the sign chosen to make the leading
y-coefficient positive at x = 2.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .chebyshev import cheb_pair, trace_poly
from .chebyshev import cheb_poly  # noqa: F401  (bound here for perfbench/traced.py)
from .exact import (
    BiPoly,
    Scalar,
    UniPoly,
    _horner,
    _int_primitive,
    _int_trim,
    _rational,
    compose,  # noqa: F401  (bound here for perfbench/traced.py)
)
from .realroots import squarefree_part  # noqa: F401  (bound here for perfbench/traced.py)
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
# Laurent polynomials in s over Z[y], packed: {s-exponent: c(2^B)}, with
# no zero values.
# ---------------------------------------------------------------------------

PackedLaurent = dict[int, int]


def _laurent_shift(f: PackedLaurent, k: int) -> PackedLaurent:
    """s^k * f."""
    return {e + k: c for e, c in f.items()}


def _laurent_add(f: PackedLaurent, g: PackedLaurent) -> PackedLaurent:
    out = dict(f)
    for e, c in g.items():
        c += out.get(e, 0)
        if c:
            out[e] = c
        else:
            del out[e]
    return out


def _laurent_sub(f: PackedLaurent, g: PackedLaurent) -> PackedLaurent:
    return _laurent_add(f, {e: -c for e, c in g.items()})


def _laurent_mul(f: PackedLaurent, g: PackedLaurent) -> PackedLaurent:
    out: PackedLaurent = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            out[ef + eg] = out.get(ef + eg, 0) + cf * cg
    return {e: c for e, c in out.items() if c}


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


def _slot_bits(half: int, unpacked: int) -> int:
    """Slot width B of a word product over the first `half` letters of a
    relator word: one bit more than the larger of `unpacked`, a 1-norm
    majorant of every coefficient the route unpacks, and det U's majorant
    m11 m22 + m12 m21 of _majorants(half), so every coefficient compared
    or unpacked has |c| < 2^(B-1).  The signed-digit form of an integer
    is unique, so two packed values are equal only when the polynomials
    are."""
    m11, m12, m21, m22 = _majorants(half)
    return max(unpacked, m11 * m22 + m12 * m21).bit_length() + 1


def _unpack(n: int, bits: int) -> list[int]:
    """The trimmed coefficient list of f with f(2^bits) = n, given that
    every coefficient of f satisfies |c| < 2^(bits-1).

    A polynomial with s slots has |f(2^bits)| >= 2^(bits*(s-1)-1), so
    bit_length // bits + 1 slots hold every coefficient.  Adding the bias
    2^(bits-1) to every slot at once makes each slot a digit c + 2^(bits-1)
    in [1, 2^bits - 1] with no borrow, read with one shift and one mask.
    """
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    slots = abs(n).bit_length() // bits + 1
    n += half * (((1 << (bits * slots)) - 1) // mask)
    return _int_trim([((n >> (bits * i)) & mask) - half for i in range(slots)])


def _two_minus_y(f: PackedLaurent, bits: int) -> PackedLaurent:
    return {e: (c << 1) - (c << bits) for e, c in f.items()}


def _packed_laurent_ops(bits: int) -> dict:
    """The general table on s-coefficients packed at y = 2^bits."""
    return _column_ops(_laurent_shift, _laurent_add, _laurent_sub, lambda f: _two_minus_y(f, bits))


# ---------------------------------------------------------------------------
# The hypotheses of W = U C U^T C^-1, checked by both word products.
# ---------------------------------------------------------------------------

# each letter and the letter that mirrors it in a relator word
_MIRROR = {(g, e): ("b" if g == "a" else "a", e) for g in "ab" for e in (1, -1)}


def _first_half(word: SchubertWord, what: str) -> tuple:
    """The letters of the first half of word, which must be a palindrome
    whose mirrored letters are the other generator; what names the word
    in the error."""
    letters = word.letters
    first = letters[: len(letters) // 2]
    if letters != first + tuple(map(_MIRROR.__getitem__, reversed(first))):
        raise RileyValidationError(f"{what} is not a palindrome with mirrored generators")
    return first


def _check_transpose_symmetry(ops: dict, one, zero, two_minus_y) -> None:
    """Raise unless C rho(a^e)^T C^-1 = rho(b^e), C = diag(1, 2-y), for
    e = +-1 in the table ops over an entry ring with elements one and
    zero and multiplication by 2-y, where a letter's rows are its
    operation on the identity's rows.  Written without division as
    rho(b^e) C = C rho(a^e)^T; the equation with a and b swapped is this
    one transposed, so it needs no check of its own."""
    for e in (1, -1):
        (a11, a12), (a21, a22) = ops["a", e](one, zero), ops["a", e](zero, one)
        (b11, b12), (b21, b22) = ops["b", e](one, zero), ops["b", e](zero, one)
        if (b11, two_minus_y(b12), b21, b22) != (a11, a21, two_minus_y(a12), a22):
            raise RileyValidationError(
                f"column table fails C rho(a^{e})^T C^-1 = rho(b^{e}), C = diag(1, 2-y)"
            )


def word_matrix(w: SchubertWord) -> tuple[int, tuple[PackedLaurent, ...]]:
    """Slot width B and the entries (W11, W12, W21) of the product of
    generator images over the relator word w, each a map from s-exponent
    to a coefficient packed at y = 2^B, from the product U over the first
    half of w alone.

    With the hypotheses of W = U C U^T C^-1 checked (w a palindrome with
    mirrored generators, the packed table transpose-symmetric under
    C = diag(1, 2-y), det U exactly 1):

        W11 = u11^2 + (2-y) u12^2,   W21 = u11 u21 + (2-y) u12 u22,
        W12 = W21 / (2-y),

    the division one divmod by 2 - 2^B per s-exponent, which must leave
    no remainder.  Packing is a ring homomorphism, so the quotient is
    the packed full-word W12 at any B.  B (_slot_bits) covers det U and
    the candidate W11 + (1/s - s) W12, bounded by m11 + 2 m12 of
    _majorants(len(w)); W12 and W21 are never unpacked."""
    first = _first_half(w, f"word {w.compact()}")
    m11, m12, _, _ = _majorants(len(w))
    bits = _slot_bits(len(first), m11 + 2 * m12)
    ops = _packed_laurent_ops(bits)
    _check_transpose_symmetry(ops, {0: 1}, {}, lambda f: _two_minus_y(f, bits))
    u11, u12, u21, u22 = _word_product(first, ops, {0: 1}, {})
    if _laurent_sub(_laurent_mul(u11, u22), _laurent_mul(u12, u21)) != {0: 1}:
        raise RileyValidationError(f"half-word matrix of word {w.compact()} has determinant != 1")
    w11 = _laurent_add(_laurent_mul(u11, u11), _two_minus_y(_laurent_mul(u12, u12), bits))
    w21 = _laurent_add(_laurent_mul(u11, u21), _two_minus_y(_laurent_mul(u12, u22), bits))
    w12 = {}
    for e, c in w21.items():
        w12[e], rem = divmod(c, 2 - (1 << bits))
        if rem:
            raise RileyValidationError(f"W21 of word {w.compact()} is not divisible by 2-y at s^{e}")
    return bits, (w11, w12, w21)


@dataclass(frozen=True, slots=True)
class RileyPoly:
    """A normalized Riley polynomial in (x, y)."""

    phi_xy: BiPoly


def normalize_bipoly(phi: BiPoly) -> BiPoly:
    """Divide by the content, sign fixed so the leading y-coefficient is
    positive at x = 2."""
    if phi.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    ints = iter(_int_primitive([v for c in phi.coeffs for v in c.coeffs]))
    # the same integers, regrouped by y-degree
    phi = BiPoly([UniPoly([next(ints) for _ in c.coeffs]) for c in phi.coeffs])
    lead = phi.leading(2)
    if lead == 0:
        raise ValueError("leading y-coefficient vanishes at x = 2; sign normalization undefined")
    if lead < 0:
        phi = -phi
    return phi


def normalize_parabolic(phi: UniPoly) -> UniPoly:
    """Univariate analogue: content 1, leading coefficient > 0."""
    if phi.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    phi = UniPoly(_int_primitive(phi.coeffs))
    return -phi if phi.leading < 0 else phi


def _reduction_candidate(w11: PackedLaurent, w12: PackedLaurent) -> PackedLaurent:
    """W11 + (1/s - s) W12."""
    return _laurent_sub(_laurent_add(w11, _laurent_shift(w12, -1)), _laurent_shift(w12, 1))


def symmetrize_to_xy(half: dict[int, list[int]]) -> BiPoly:
    """Rewrite a Laurent polynomial symmetric under s -> 1/s as an exactly
    equal BiPoly in x = s + 1/s and y.

    half maps each s-exponent k >= 0 to its coefficient list in y
    (ascending, trimmed); the terms at -k are those at k.  Each pair
    s**k + s**-k is replaced by the trace polynomial p_k(x) (p_0 = 2,
    p_1 = x, p_k = x*p_{k-1} - p_{k-2}).  The sum sum_k c_k(y) p_k(x) is
    collected on int lists, one x-coefficient list per power of y, and
    becomes one BiPoly at the end.  Raises ValueError on a negative key.
    """
    if any(k < 0 for k in half):
        raise ValueError(f"symmetrize_to_xy takes exponents k >= 0, got {min(half)}")
    # rows[j] is the x-coefficient list of y^j
    rows = [[0] * (max(half) + 1) for _ in range(max(map(len, half.values())))] if half else []
    for k, c in half.items():
        # c is the y-coefficient of s^k (+ s^-k for k > 0): contributes
        # c(y) * p_k(x), except k = 0 contributes c(y) * 1 (half of p_0).
        xpart = trace_poly(k).coeffs if k > 0 else (1,)
        for row, cj in zip(rows, c):
            if cj:
                for i, v in enumerate(xpart):
                    row[i] += cj * v
    return BiPoly([UniPoly._raw(tuple(_int_trim(row))) for row in rows])


def _riley_from_word(word: SchubertWord, label: object) -> RileyPoly:
    """Shared general-route pipeline: product, reduction, validation (see
    riley_general), rewrite to (x, y), normalization."""
    bits, (w11, w12, _) = word_matrix(word)
    candidate = _reduction_candidate(w11, w12)
    # packing is injective at this slot width, so packed values compare
    # as the polynomials do
    asymmetric = [k for k in map(abs, candidate) if candidate.get(k) != candidate.get(-k)]
    if asymmetric:
        raise RileyValidationError(
            f"reduction candidate for {label} is not symmetric under s -> 1/s "
            f"(first offending s-exponent: {min(asymmetric)}); refusing to guess a unit multiple"
        )
    phi_xy = symmetrize_to_xy({k: _unpack(c, bits) for k, c in candidate.items() if k >= 0})
    # the packed values summed over s are Phi~(1, y), packed; at s = 1 and
    # y = 2, rho(b) is the identity, so W11 = Phi~(1, 2) = 1
    at_one = _unpack(sum(candidate.values()), bits)
    if len(at_one) < 2:
        raise RileyValidationError(f"reduction candidate for {label} is constant in y at s = 1")
    at_two = _horner(at_one, 2, 0)
    if at_two != 1:
        raise RileyValidationError(f"reduction candidate for {label} is {at_two} at s = 1, y = 2, not 1")
    return RileyPoly(normalize_bipoly(phi_xy))


def riley_general(k: KnotId) -> RileyPoly:
    """Riley polynomial from the symbolic matrix product over the relator.

    The product runs over the first half of the word (word_matrix).
    Always-on validation: in word_matrix the word must be a palindrome
    with mirrored generators, the packed Laurent table
    transpose-symmetric under C = diag(1, 2-y) and det U exactly 1, which
    give W = U C U^T C^-1 and so W21 = (2-y) W12 and the relation defect
    Phi~ [[0, 1], [-(2-y), 0]] at every s; W21 must divide by 2-y with no
    remainder.  Then the candidate must be symmetric under s -> 1/s,
    checked on its packed values, and Phi~(1, y) non-constant in y with
    Phi~(1, 2) = 1.  Any failure
    raises RileyValidationError: a silently wrong polynomial is never
    returned.
    """
    return _riley_from_word(schubert_word(k), k)


# ---------------------------------------------------------------------------
# Parabolic fast path: the s = 1 product over half the word, each entry
# one packed integer.
# ---------------------------------------------------------------------------

def _packed_column_ops(bits: int) -> dict:
    """The s = 1 table on entries packed at y = 2^bits."""
    return _column_ops(_no_shift, operator.add, operator.sub, lambda v: (v << 1) - (v << bits))


def riley_parabolic(k: KnotId) -> UniPoly:
    """Riley polynomial of the parabolic slice x = 2, normalized.

    Equals riley_general(k).phi_xy evaluated at x = 2, up to the sign and
    content normalization, but is computed directly over Z[y] as
    u11^2 + (2-y) u12^2 from the s = 1 product U over the first half of
    the word, on entries packed at y = 2^B (module docstring).  B
    (_slot_bits) is one bit longer than the larger 1-norm majorant,
    m11^2 + 3 m12^2 of Phi or m11 m22 + m12 m21 of det U.  Always-on
    validation, shared with word_matrix: the word must be a palindrome
    with mirrored generators, the packed table transpose-symmetric under
    C = diag(1, 2-y) and det U exactly 1, which
    give W = U C U^T C^-1, det W = 1 and W21 = (2-y) W12, so the relation
    defect at s = 1 is Phi [[0, 1], [-(2-y), 0]]; and Phi must be 1 at
    y = 2 before the sign is normalized.
    """
    first = _first_half(schubert_word(k), f"relator word of {k}")
    m11, m12, _, _ = _majorants(len(first))
    bits = _slot_bits(len(first), m11 * m11 + 3 * m12 * m12)
    ops = _packed_column_ops(bits)
    _check_transpose_symmetry(ops, 1, 0, lambda v: (v << 1) - (v << bits))
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


class _Majorant(int):
    """A 1-norm majorant: an int whose subtraction adds.  Since
    |f +- g|_1 <= |f|_1 + |g|_1 and |f g|_1 <= |f|_1 |g|_1, formulas run
    on majorants of their inputs (and on nonnegative int constants) give
    majorants of their results."""

    def __add__(self, other):
        return _Majorant(int.__add__(self, other))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return _Majorant(int.__mul__(self, other))

    __rmul__ = __mul__


def _family_run(d: DoubleTwist, y, x2, one) -> tuple:
    """(T, M, H_n - M*H_{n-1}) = (D*t, D*mu, D^n * Phi) for a double
    twist family at ring elements y, x2 = D*x^2 and one = D: D = 1 and
    x2 = x^2 in Z[x][y], or D = b^2 and x2 = a^2 at x0 = a/b.

    With u = y + 2 - x^2 and S_k = S_k(y):

      EE: t = 2 + (y-2) u S_{m-1}^2        mu = 1 + u S_{m-1} (S_m - S_{m-1})
      EN: t as EE                          mu = 1 - u S_{m-1} (S_{m-1} - S_{m-2})
      OE: t = x^2 - y - (y-2) u S_m S_{m-1}  mu = 1 - u S_m (S_m - S_{m-1})
      ON: t as OE                          mu = 1 + u S_{m-1} (S_m - S_{m-1})

    Both depend on x only through x^2 and are linear in u, so D*t and
    D*mu take U = D*u = one*(y+2) - x2 for u and scale every other term
    by one.  The pair (H_{n-1}, H_n) comes from one pass of the
    homogeneous Chebyshev recurrence at T (cheb_pair); no matrix product
    is involved, keeping this route independent of the general one.
    """
    s_m1, s_m = cheb_pair(d.m, y)
    s_m2 = y * s_m1 - s_m
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
    h_prev, h_n = cheb_pair(d.n, t, one)
    return t, mu, h_n - mu * h_prev


def _unpack_xy(n: int, bits: int, row: int) -> BiPoly:
    """The polynomial in (x, y) packed as n at X = x^2 = 2^bits and
    y = 2^(bits*row), given x-degrees below 2*row and coefficients below
    2^(bits-1) in absolute value."""
    flat = _unpack(n, bits)
    rows = []
    for j in range(0, len(flat), row):
        chunk = flat[j : j + row]
        xs = [0] * (2 * len(chunk) - 1)
        xs[::2] = chunk
        rows.append(UniPoly._raw(tuple(_int_trim(xs))))
    return BiPoly._raw(tuple(rows))


def _closed_form_run(d: DoubleTwist, x0: Scalar | None = None) -> tuple:
    """(unpack, D, (T, M, D^n Phi)) with the last three packed as ints
    and unpack mapping one of them to its BiPoly in (x, y) or, given
    x0 = a/b, its UniPoly in y at x0, where D = b^2.

    Phi depends on x only through X = x^2, with deg_X t, deg_X mu <= 1,
    so deg_X Phi <= n: the bivariate run packs X = 2^B and
    y = 2^(B*(n+1)), the run at x0 takes X = a^2 and y = 2^B.  B is one
    bit more than the largest 1-norm majorant of T, M and Phi, from the
    same formulas run on majorants (|y|_1 = |X|_1 = 1).  `riley family`
    prints t, mu and Phi from one such run."""
    if x0 is None:
        bound_x2, one, row = _Majorant(1), 1, d.n + 1
    else:
        x0 = _rational(x0)
        bound_x2, one, row = x0.numerator**2, x0.denominator**2, 1
    bits = max(_family_run(d, _Majorant(1), bound_x2, one)).bit_length() + 1
    if x0 is None:
        x2, unpack = 1 << bits, functools.partial(_unpack_xy, bits=bits, row=row)
    else:
        x2, unpack = bound_x2, lambda v: UniPoly._raw(tuple(_unpack(v, bits)))
    return unpack, one, _family_run(d, 1 << (bits * row), x2, one)


def closed_form_params(d: DoubleTwist, x0: Scalar | None = None) -> ClosedFormParams:
    """Exact (T, M) = D*(t, mu) for a double twist family (formulas in
    _family_run), in Z[x][y] with D = 1, or in Z[y] at x = x0 = a/b when
    x0 is given, with D = b^2.  Both are unpacked from the packed run of
    _closed_form_run; the specialized pair is the bivariate one evaluated
    at x0, times D.  Raises TypeError on a float x0."""
    unpack, one, (t, mu, _) = _closed_form_run(d, x0)
    return ClosedFormParams(t=unpack(t), mu=unpack(mu), family=d, denominator=one)


def riley_closed_form(d: DoubleTwist) -> RileyPoly:
    """Closed-form Riley polynomial S_n(t) - mu * S_{n-1}(t) in (x, y),
    normalized; one run on packed integers (_closed_form_run)."""
    unpack, _, (_, _, phi) = _closed_form_run(d)
    return RileyPoly(normalize_bipoly(unpack(phi)))


def riley_closed_form_at(d: DoubleTwist, x0: Scalar) -> UniPoly:
    """The closed-form Riley polynomial at x = x0, normalized as a
    polynomial in y.

    Evaluation at x0 is a ring homomorphism Q[x][y] -> Q[y], so building
    T and M at x0 and running the recurrence there gives
    riley_closed_form(d).phi_xy.eval_x(x0) up to a positive scalar, which
    normalize_parabolic removes.  Every step runs on integers.
    """
    unpack, _, (_, _, phi) = _closed_form_run(d, x0)
    return normalize_parabolic(unpack(phi))
