"""Exact real root counting and isolation via Sturm sequences.

Counts are always of *distinct* real roots, from one chain: the Sturm
sequence of the input f itself.  It ends in +-gcd(f, f'), and every
element is a multiple of that gcd, so dividing it out changes no sign
variation at a point that is not a root of f: the chain counts the
distinct roots of f whether or not f is squarefree (Sturm's theorem in
Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 2).
A last element that is not constant must divide f, else ArithmeticError.
Internally the chain lives on integer coefficient lists, each a positive
multiple of the Sturm remainder; a positive rescale preserves every sign
in the sequence, hence every variation count.  The lists are the elements
S_i of Collins' subresultant sequence, held as S_i / kappa_i with a
tracked positive integer kappa_i, so every step is an exact division by
a scalar that Collins' theory fixes, not a content gcd.  A content is
taken out only when a remainder's leading coefficient shares a factor
with that of the input (at a rational x0, where the leading coefficient
carries a power of x0's denominator), and it goes into kappa_i.  The
last element is made primitive, so it is the primitive +-gcd(f, f').
The sequence is _int_sturm, which also gives squarefree_part its gcd.

count_real_roots returns the count as an int and isolate_roots the
isolating intervals as a tuple, ascending, one per distinct real root.
Both refuse the zero polynomial; a nonzero constant has no roots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exact import UniPoly, _homogeneous, _int_content, _int_primitive, _int_trim

# widest isolating interval that isolate_roots returns
_ISOLATION_WIDTH = Fraction(1, 64)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _variations(signs: list[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


# ---------------------------------------------------------------------------
# Sturm sequences, squarefree parts and exact division on plain int lists
# (ascending, trimmed): subresultant sequences keep the numbers small
# without a content gcd per step.  Scaling by nonzero constants is
# harmless everywhere these are used: it changes no zero set, and
# positive scaling changes no sign.
# ---------------------------------------------------------------------------


def _int_exact_div(a: Sequence[int], d: Sequence[int]) -> list[int] | None:
    """Quotient q with q * d == a in Z[y], or None when the division
    leaves a remainder.  d need not be monic; when d is primitive, None
    means exactly that d does not divide a over Q (Gauss's lemma)."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    if not a:
        return []
    dd = len(d) - 1
    if len(a) - 1 < dd:
        return None
    rem = list(a)
    lead = d[-1]
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        top = rem[i]
        if top:
            q, r = divmod(top, lead)
            if r:
                return None
            off = i - dd
            quot[off] = q
            for j in range(dd):
                rem[off + j] -= q * d[j]
    if any(rem[:dd]):
        return None
    return quot


def _int_prem_pos(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b scaled so it is a *positive* rational
    multiple of the true remainder (an even power of the leading
    coefficient of b is used when needed)."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    rem = list(a)
    steps = 0
    for i in range(da, db - 1, -1):
        top = rem[i]
        rem = [lb * c for c in rem]
        steps += 1
        if top:
            off = i - db
            for j, cb in enumerate(b):
                rem[off + j] -= top * cb
        rem[i] = 0
    rem = _int_trim(rem)
    if lb < 0 and steps % 2 == 1:
        rem = [-c for c in rem]
    return rem


def _int_sturm_rem(a: list[int], b: list[int]) -> list[int]:
    """-prem(a, b) scaled by |lc b|^(delta+1), delta = deg a - deg b >= 1:
    a positive multiple of minus the remainder of a by b.  The usual
    delta = 1 step is one pass over b, (q1*y + q0)*b - lb^2*a."""
    if len(b) < 2:
        return []
    if len(a) - len(b) != 1:
        return [-c for c in _int_prem_pos(a, b)]
    lb = b[-1]
    l2 = lb * lb
    q1 = lb * a[-1]
    q0 = lb * a[-2] - a[-1] * b[-2]
    out = [q0 * b[0] - l2 * a[0]]
    out += [q0 * bk + q1 * bj - l2 * ak for ak, bk, bj in zip(a[1:], b[1:-1], b)]
    return _int_trim(out)


def _int_sturm(f: list[int]) -> list[list[int]]:
    """Sturm sequence of a non-constant integer coefficient list f, up to
    a positive integer factor per element; its last element is the
    primitive +-gcd(f, f').

    The elements are those of Collins' subresultant sequence S of
    (f, pp(f')), kept as T_i = S_i / kappa_i for positive integers
    kappa_i.  A step takes P = -prem(T_(i-1), T_i) (scaled by
    |lc T_i|^(delta+1), delta the degree drop), so S_(i+1) = P*n/d with
    n/d = kappa_(i-1)*kappa_i^(delta+1) / (g*h^delta) in lowest terms,
    where Collins' g and h come from |lc S_i| = kappa_i*|lc T_i|.
    P / d is checked exact.  Only when its leading coefficient shares a
    factor with lc f (as at a rational x0, where lc f carries a power of
    x0's denominator) is its content c taken out, with kappa = n*c;
    otherwise kappa = n.  Every element is a positive multiple of the
    primitive remainder, so every sign is that of the Sturm sequence.
    Degrees fall strictly, so it ends within len(f) remainders; a
    remainder whose degree does not fall raises ArithmeticError."""
    a, b = f, _int_primitive(_int_derivative(f))
    chain = [a, b]
    ka = kb = g = h = 1
    for _ in range(len(f)):
        p = _int_sturm_rem(a, b)
        if not p:
            chain[-1] = _int_primitive(b)
            return chain
        if len(p) >= len(b):
            break
        delta = len(a) - len(b)
        n, d = ka * kb ** (delta + 1), g * h**delta
        c = math.gcd(n, d)
        n, d = n // c, d // c
        p = _int_div_scalar(p, d)
        # Collins' scalars for the next step: g = |lc S_i| and
        # h = g^delta / h^(delta-1)
        g = kb * abs(b[-1])
        h = g if delta == 1 else _int_div_scalar([g**delta], h ** (delta - 1))[0]
        if math.gcd(p[-1], f[-1]) != 1:
            c = _int_content(p)
            p = [v // c for v in p]
            n *= c
        a, b, ka, kb = b, p, kb, n
        chain.append(p)
    raise ArithmeticError("Sturm sequence did not end: remainder degrees did not fall")


def _int_div_scalar(p: list[int], d: int) -> list[int]:
    """p / d coefficientwise, checked exact."""
    out = []
    for v in p:
        q, r = divmod(v, d)
        if r:
            raise ArithmeticError("Sturm sequence: a subresultant division is not exact")
        out.append(q)
    return out


def _int_derivative(a: Sequence) -> list:
    return _int_trim([i * c for i, c in enumerate(a)][1:])


def _int_squarefree(f: list[int], g: list[int]) -> list[int]:
    """Squarefree part f / g of an integer coefficient list f, given the
    primitive g = +-gcd(f, f'); the result keeps the sign of f."""
    if g[-1] < 0:
        g = [-c for c in g]
    q = _int_exact_div(f, g)
    if q is None:
        raise ArithmeticError("gcd(f, f') does not divide f")
    return q


def squarefree_part(a: UniPoly) -> UniPoly:
    """a / gcd(a, a'), i.e. the product of a's distinct irreducible
    factors, primitive with a positive leading coefficient.  Raises
    ValueError on zero input."""
    if a.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    if a.degree == 0:
        return UniPoly.const(1)
    f = list(a.coeffs)
    q = _int_primitive(_int_squarefree(f, _int_sturm(f)[-1]))
    return UniPoly._raw(tuple(q) if q[-1] > 0 else tuple(-c for c in q))


def _sturm_chain(f: UniPoly) -> list[list[int]]:
    """The Sturm chain of f itself on integer lists, f made primitive; a
    nonzero constant is its own chain, zero raises ValueError.  It ends
    in the primitive +-gcd(f, f'), which must divide f."""
    if f.is_zero():
        raise ValueError("root count of the zero polynomial is undefined")
    f_int = _int_primitive(f.coeffs)
    if not f.degree:
        return [f_int]
    chain = _int_sturm(f_int)
    if len(chain[-1]) > 1:
        _int_squarefree(f_int, chain[-1])  # raises unless the tail divides f
    return chain


def _signs_at(chain: list[list[int]], v: Fraction) -> list[int]:
    # den^d * p(v) has the sign of p(v): den > 0
    num, den = v.numerator, v.denominator
    return [_sign(_homogeneous(p, num, den)) for p in chain]


def _count_all(chain: list[list[int]]) -> int:
    """Distinct real roots, V(-inf) - V(+inf), from the leading
    coefficients' signs; at -inf the odd-degree elements flip sign.
    Whatever the middle elements, the count is congruent to
    deg f - deg gcd(f, f') mod 2, since the parity of a variation count
    is fixed by its end signs: a parity check could not catch a wrong
    element."""
    at_pos = [_sign(p[-1]) for p in chain]
    at_neg = [-s if len(p) % 2 == 0 else s for s, p in zip(at_pos, chain)]
    return _variations(at_neg) - _variations(at_pos)


def count_real_roots(f: UniPoly) -> int:
    """Number of distinct real roots of f; ValueError on zero."""
    return _count_all(_sturm_chain(f))


def _cauchy_bound(f: UniPoly) -> Fraction:
    """1 + max |a_i / a_d| for a non-constant f: every real root lies
    strictly inside (-B, B)."""
    return 1 + Fraction(max(abs(c) for c in f.coeffs[:-1])) / abs(f.leading)


def _halvings_below_separation(f: list[int], radius: Fraction) -> int:
    """Halvings that bring radius below the distance between any two roots
    of the squarefree integer polynomial f of degree d: by Mahler's bound
    that distance exceeds d^(-(d+2)/2) ||f||_2^(1-d) > 2^-b, and radius < 2^a."""
    d = len(f) - 1
    norm2_bits = sum(c * c for c in f).bit_length()  # ||f||_2^2 < 2^norm2_bits
    b = (d.bit_length() * (d + 2) + (d - 1) * norm2_bits + 1) // 2
    a = max(0, radius.numerator.bit_length() - radius.denominator.bit_length() + 1)
    return a + b


def isolate_roots(f: UniPoly) -> tuple[tuple[Fraction, Fraction], ...]:
    """Disjoint open rational intervals (lo, hi), ascending, each holding
    exactly one distinct real root of f, by Sturm-guided bisection.

    Starts from the Cauchy bound and bisects until each interval holds
    one root and is no wider than 1/64, so there are count_real_roots(f)
    intervals.  Midpoints that land exactly on a root are enclosed by a
    symmetric interval, halved at most until it is narrower than Mahler's
    root-separation bound; past that the contract raises ArithmeticError.
    ValueError on zero; a nonzero constant gives ().
    """
    chain = _sturm_chain(f)
    total = _count_all(chain)
    if total == 0:
        return ()
    bound = _cauchy_bound(f)
    intervals: list[tuple[Fraction, Fraction]] = []

    def enclose_root_at(mid: Fraction, radius: Fraction) -> tuple[Fraction, Fraction, int, int]:
        """(lo, hi, V(lo), V(hi)) for a symmetric interval around the
        root mid that holds no other root."""
        squarefree = _int_squarefree(chain[0], chain[-1])
        w = radius
        for _ in range(_halvings_below_separation(squarefree, radius) + 1):
            lo, hi = mid - w, mid + w
            at_lo, at_hi = _signs_at(chain, lo), _signs_at(chain, hi)
            if at_lo[0] and at_hi[0]:
                v_lo, v_hi = _variations(at_lo), _variations(at_hi)
                if v_lo - v_hi == 1:
                    return lo, hi, v_lo, v_hi
            w /= 2
        raise ArithmeticError(
            f"no isolating interval around the root {mid} within the root separation bound"
        )

    # an explicit worklist, not recursion: the bisection depth grows with
    # the bit size of the Cauchy bound, past Python's recursion limit at
    # x0 = 10^100.  Each entry carries the variations at both of its ends,
    # so every point's chain signs are computed once.
    v_neg, v_pos = (_variations(_signs_at(chain, v)) for v in (-bound, bound))
    work = [(-bound, bound, v_neg, v_pos)]
    while work:
        lo, hi, v_lo, v_hi = work.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1 and hi - lo <= _ISOLATION_WIDTH:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        at_mid = _signs_at(chain, mid)
        if at_mid[0] == 0:
            a, b, v_a, v_b = enclose_root_at(mid, min(_ISOLATION_WIDTH, hi - mid) / 2)
            intervals.append((a, b))
            work += [(lo, a, v_lo, v_a), (b, hi, v_b, v_hi)]
            continue
        v_mid = _variations(at_mid)
        work += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    intervals.sort()
    if len(intervals) != total:
        raise ArithmeticError(f"isolation found {len(intervals)} intervals for {total} roots")
    return tuple(intervals)
