"""Exact real root counting and isolation via Sturm sequences.

Counts are always of *distinct* real roots: the chain is built from the
squarefree part of the input, so multiplicities never inflate a count.
Internally the chain lives on integer coefficient lists produced by
positive rescaling (primitive pseudo-remainder sequences); a positive
rescale preserves every sign in the sequence, hence every variation
count, while keeping coefficients far smaller than naive rational
remainders would.

One remainder sequence per input suffices.  The Sturm sequence of f is,
up to sign, the Euclidean sequence of f and f', so it ends in
+-gcd(f, f').  When that last element is a nonzero constant, f is
squarefree and the sequence is already its Sturm chain.  Only otherwise
is f divided exactly by the gcd and the chain built again on the
squarefree part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    Scalar,
    UniPoly,
    _int_coeffs,
    _int_derivative,
    _int_prem_pos,
    _int_primitive,
    _int_squarefree,
)

DEFAULT_ISOLATION_WIDTH = Fraction(1, 64)


@dataclass(frozen=True, slots=True)
class SturmChain:
    """Sturm chain of the squarefree part of a polynomial.

    polys[0] is the squarefree part, polys[1] its derivative, and each
    later element is the negated remainder of the two before it; every
    element is stored rescaled by a positive rational to integer,
    content-1 form.  The last element is a nonzero constant and degrees
    strictly decrease along the chain.
    """

    polys: tuple[UniPoly, ...]


@dataclass(frozen=True, slots=True)
class RootCount:
    """Number of distinct real roots, with optional isolating intervals.

    The intervals (when present) are pairwise disjoint open rational
    intervals, each containing exactly one root of the squarefree part.
    """

    total_real: int
    intervals: tuple[tuple[Fraction, Fraction], ...] | None = None


def _int_sturm(f: list[int]) -> list[list[int]]:
    """Sturm sequence of a primitive integer coefficient list f, every
    element primitive; its last element is +-gcd(f, f').  Degrees fall
    strictly along the sequence, so it ends within len(f) remainders."""
    chain = [f, _int_primitive(_int_derivative(f))]
    for _ in range(len(f)):
        rem = _int_prem_pos(chain[-2], chain[-1])
        if not rem:
            return chain
        chain.append([-c for c in _int_primitive(rem)])
    raise ArithmeticError("Sturm sequence did not end: remainder degrees did not fall")


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


def _sign_at_rational(poly: list[int], num: int, den: int) -> int:
    """Sign of the polynomial at num/den (den > 0) via the homogeneous
    integer evaluation sum c_i * num^i * den^(d-i)."""
    acc = poly[-1]
    dpow = 1
    for i in range(len(poly) - 2, -1, -1):
        dpow *= den
        acc = acc * num + poly[i] * dpow
    return _sign(acc)


class _IntChain:
    """Integer Sturm chain with sign-variation queries."""

    def __init__(self, f: UniPoly):
        if f.is_zero():
            raise ValueError("Sturm chain of the zero polynomial is undefined")
        if f.degree < 1:
            raise ValueError("Sturm chain of a constant polynomial is undefined")
        f_int = _int_primitive(_int_coeffs(f.coeffs))
        chain = _int_sturm(f_int)
        if len(chain[-1]) > 1:
            chain = _int_sturm(_int_squarefree(f_int, chain[-1]))
            if len(chain[-1]) != 1:
                raise ArithmeticError(
                    "Sturm chain of the squarefree part does not end in a constant"
                )
        self.chain = chain

    def variations_at(self, v: Fraction) -> int:
        num, den = v.numerator, v.denominator
        return _variations([_sign_at_rational(p, num, den) for p in self.chain])

    def variations_at_inf(self, positive: bool) -> int:
        signs = []
        for poly in self.chain:
            s = _sign(poly[-1])
            if not positive and (len(poly) - 1) % 2 == 1:
                s = -s
            signs.append(s)
        return _variations(signs)

    def sign_at(self, v: Fraction) -> int:
        return _sign_at_rational(self.chain[0], v.numerator, v.denominator)

    def count_all(self) -> int:
        return self.variations_at_inf(False) - self.variations_at_inf(True)

    def count_open(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in (lo, hi); endpoints must not be roots."""
        return self.variations_at(lo) - self.variations_at(hi)


def sturm_chain(f: UniPoly) -> SturmChain:
    """Sturm chain of squarefree_part(f); f must be nonzero, non-constant."""
    return SturmChain(tuple(UniPoly(p) for p in _IntChain(f).chain))


def count_real_roots(f: UniPoly) -> RootCount:
    """Number of distinct real roots of f (no intervals computed)."""
    if f.is_zero():
        raise ValueError("root count of the zero polynomial is undefined")
    if f.degree < 1:
        return RootCount(0)
    return RootCount(_IntChain(f).count_all())


def count_in_interval(f: UniPoly, lo: Scalar, hi: Scalar) -> int:
    """Number of distinct roots of f in the open interval (lo, hi).

    Raises ValueError when an endpoint is a root: nudge the rational
    endpoint slightly and retry.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError(f"empty interval: lo={lo} must be < hi={hi}")
    if f.is_zero():
        raise ValueError("root count of the zero polynomial is undefined")
    if f.degree < 1:
        return 0
    for v in (lo, hi):
        if f(v) == 0:
            raise ValueError(
                f"endpoint {v} is a root of the polynomial; nudge the rational endpoint"
            )
    return _IntChain(f).count_open(lo, hi)


def cauchy_bound(f: UniPoly) -> Fraction:
    """1 + max |a_i / a_d|: every real root lies strictly inside (-B, B)."""
    if f.is_zero() or f.degree < 1:
        raise ValueError("Cauchy bound requires a non-constant polynomial")
    lead = abs(f.leading)
    return 1 + max(abs(c) / lead for c in f.coeffs[:-1])


def _halvings_below_separation(f: list[int], radius: Fraction) -> int:
    """Halvings that bring radius below the distance between any two roots
    of the squarefree integer polynomial f of degree d: by Mahler's bound
    that distance exceeds d^(-(d+2)/2) ||f||_2^(1-d) > 2^-b, and radius < 2^a."""
    d = len(f) - 1
    norm2_bits = sum(c * c for c in f).bit_length()  # ||f||_2^2 < 2^norm2_bits
    b = (d.bit_length() * (d + 2) + (d - 1) * norm2_bits + 1) // 2
    a = max(0, radius.numerator.bit_length() - radius.denominator.bit_length() + 1)
    return a + b


def isolate_roots(f: UniPoly, max_width: Fraction = DEFAULT_ISOLATION_WIDTH) -> RootCount:
    """Disjoint rational isolating intervals via Sturm-guided bisection.

    Starts from the Cauchy bound and bisects until each interval holds
    exactly one root of the squarefree part and is no wider than
    max_width.  Midpoints that land exactly on a root are enclosed by a
    symmetric interval, halved at most until it is narrower than Mahler's
    root-separation bound; past that the contract raises ArithmeticError.
    """
    chain = _IntChain(f)
    total = chain.count_all()
    if total == 0:
        return RootCount(0, ())
    bound = cauchy_bound(f)
    intervals: list[tuple[Fraction, Fraction]] = []

    def enclose_root_at(mid: Fraction, radius: Fraction) -> tuple[Fraction, Fraction]:
        w = radius
        for _ in range(_halvings_below_separation(chain.chain[0], radius) + 1):
            lo, hi = mid - w, mid + w
            if (
                chain.sign_at(lo) != 0
                and chain.sign_at(hi) != 0
                and chain.count_open(lo, hi) == 1
            ):
                return lo, hi
            w /= 2
        raise ArithmeticError(
            f"no isolating interval around the root {mid} within the root separation bound"
        )

    def split(lo: Fraction, hi: Fraction, cnt: int) -> None:
        if cnt == 0:
            return
        if cnt == 1 and hi - lo <= max_width:
            intervals.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if chain.sign_at(mid) == 0:
            inner = enclose_root_at(mid, min(max_width, hi - mid) / 2)
            intervals.append(inner)
            split(lo, inner[0], chain.count_open(lo, inner[0]))
            split(inner[1], hi, chain.count_open(inner[1], hi))
            return
        left = chain.count_open(lo, mid)
        split(lo, mid, left)
        split(mid, hi, cnt - left)

    split(-bound, bound, total)
    intervals.sort()
    if len(intervals) != total:
        raise ArithmeticError(
            f"isolation found {len(intervals)} intervals for {total} roots"
        )
    return RootCount(total, tuple(intervals))
