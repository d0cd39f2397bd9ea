"""Chebyshev polynomials of the second kind, S_k, for all integer k.

S_0(z) = 1, S_1(z) = z and S_k(z) = z*S_{k-1}(z) - S_{k-2}(z) for every
integer k; running the recurrence backward gives S_{-1} = 0, S_{-2} = -1
and in general S_{-k-2} = -S_k.  The expanded forms, with int
coefficients, are memoized per process; the closed form runs the
recurrence itself at its t, packed as one integer (see rileypoly), in
cheb_pair, in homogeneous form at a rational x0 so that its
coefficients stay integers.
"""

from __future__ import annotations

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


def cheb_pair(k: int, z: Scalar | UniPoly | BiPoly, den: int = 1) -> tuple:
    """(H_{k-1}, H_k) with H_j = den^j * S_j(z / den), for k >= 0, any
    ring element z (rational, UniPoly, BiPoly) and an integer den != 0,
    by k steps of the homogeneous recurrence
    H_{j+1} = z*H_j - den^2*H_{j-1}.  With den = 1 this is
    (S_{k-1}(z), S_k(z)); with den > 1 a z of integer coefficients keeps
    them integral.  For k <= 1 the entries are the ints 0 or 1, not ring
    elements."""
    d2 = den * den
    prev, cur = 0, 1  # H_{-1}, H_0
    for _ in range(k):
        prev, cur = cur, z * cur - d2 * prev
    return prev, cur


def trace_poly(k: int) -> UniPoly:
    """p_k with p_0 = 2, p_1 = x, p_k = x*p_{k-1} - p_{k-2}.

    Under x = s + 1/s, p_k(x) equals s**k + s**-k; it is computed as
    p_k = S_k - S_{k-2}, which holds for all k >= 0.
    """
    if k < 0:
        raise ValueError(f"trace_poly requires k >= 0, got {k}")
    return cheb_poly(k) - cheb_poly(k - 2)
