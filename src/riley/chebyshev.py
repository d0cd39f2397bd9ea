"""Chebyshev polynomials of the second kind, S_k, for all integer k.

S_0(z) = 1, S_1(z) = z and S_k(z) = z*S_{k-1}(z) - S_{k-2}(z) for every
integer k; running the recurrence backward gives S_{-1} = 0, S_{-2} = -1
and in general S_{-k-2} = -S_k.  The expanded forms are memoized per
process; every evaluation, at a number or at a polynomial such as the
closed form's t, runs the recurrence itself in cheb_pair.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import BiPoly, Scalar, UniPoly

# The memo table grows monotonically; entries are immutable, and
# list.append is atomic under the GIL, so concurrent readers are safe.
_CHEB: list[UniPoly] = [UniPoly.const(1), UniPoly.gen()]


def cheb_poly(k: int) -> UniPoly:
    """S_k as an explicit polynomial, for any integer k."""
    if k == -1:
        return UniPoly.zero()
    if k < -1:
        return -cheb_poly(-k - 2)
    z = _CHEB[1]
    while len(_CHEB) <= k:
        _CHEB.append(z * _CHEB[-1] - _CHEB[-2])
    return _CHEB[k]


def cheb_pair(k: int, z: Fraction | UniPoly | BiPoly) -> tuple:
    """(S_{k-1}(z), S_k(z)) for k >= 0 and any ring element z (Fraction,
    UniPoly, BiPoly), by k steps of the recurrence.  For k <= 1 the
    entries are the ints 0 or 1, not ring elements."""
    prev, cur = 0, 1  # S_{-1}, S_0
    for _ in range(k):
        prev, cur = cur, z * cur - prev
    return prev, cur


def cheb_eval(k: int, z: Scalar) -> Fraction:
    """S_k(z) by the linear recurrence: O(|k|) exact steps."""
    if k == -1:
        return Fraction(0)
    if k < -1:
        return -cheb_eval(-k - 2, z)
    return Fraction(cheb_pair(k, Fraction(z))[1])


def cheb_diff(k: int) -> UniPoly:
    """S_k - S_{k-1} as an explicit polynomial; requires k >= 1."""
    if k < 1:
        raise ValueError(f"cheb_diff requires k >= 1, got {k}")
    return cheb_poly(k) - cheb_poly(k - 1)


def trace_poly(k: int) -> UniPoly:
    """p_k with p_0 = 2, p_1 = x, p_k = x*p_{k-1} - p_{k-2}.

    Under x = s + 1/s, p_k(x) equals s**k + s**-k; it is computed as
    p_k = S_k - S_{k-2}, which holds for all k >= 0.
    """
    if k < 0:
        raise ValueError(f"trace_poly requires k >= 0, got {k}")
    return cheb_poly(k) - cheb_poly(k - 2)
