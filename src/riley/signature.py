"""Knot signatures for two-bridge knots, exactly.

The route is classical plumbing data: expand p/q* (q* the even
representative of q or p-q) as an even continued fraction

    p/q* = 2b_1 - 1/(2b_2 - 1/( ... - 1/(2b_k)))

whose entries e_i = 2b_i are the diagonal of a symmetric tridiagonal
matrix with off-diagonal 1.  Its signature is the knot signature (up to
the mirror convention fixed by choosing the even representative) and its
determinant is +-p, which is checked on every call as a corruption check.

The signature is a sign count.  The LDL^T pivots of the matrix are
d_1 = e_1 and d_i = e_i - 1/d_{i-1}.  Every |e_i| >= 2, so by induction
|d_i| > 1 and sign d_i = sign e_i; by Sylvester's law of inertia the
signature is therefore sum(sign(e_i)), with no eigenvalue computation.

For the four double twist families the signatures are known in closed
form (2, 0, 2-2n, 2n, up to sign); the tests hold this computation to
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .twobridge import KnotId


class SignatureError(RuntimeError):
    """Internal consistency failure (e.g. |det| != p): upstream bug."""


@dataclass(frozen=True, slots=True)
class EvenCF:
    """Even continued fraction expansion: all entries even and nonzero.

    Evaluating entries (e_1, ..., e_k) as e_1 - 1/(e_2 - 1/(...)) must
    reproduce p/q* exactly; for knot inputs k is even (even_cf raises
    SignatureError otherwise).  The entries are the diagonal of the
    symmetric tridiagonal form with off-diagonal 1.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("even continued fraction must have at least one entry")
        for e in self.entries:
            if e == 0 or e % 2 != 0:
                raise ValueError(f"entries must be nonzero even integers, got {e}")

    def __len__(self) -> int:
        return len(self.entries)

    def determinant(self) -> int:
        """Determinant of the tridiagonal form, by the continuant recurrence."""
        prev, det = 0, 1
        for e in self.entries:
            prev, det = det, e * det - prev
        return det

    def signature(self) -> int:
        """Signature of the tridiagonal form: the pivot-sign count
        sum(sign(e_i)) (module docstring)."""
        return sum(1 if e > 0 else -1 for e in self.entries)


def even_cf(k: KnotId) -> EvenCF:
    """Even continued fraction of p/q*, q* the even one of {q, p-q}.

    Each step takes the nearest even integer 2b to the current value
    (never a tie: a tie would force a common factor) and recurses on the
    reciprocal of the remainder; the remainder strictly shrinks, so the
    expansion ends within p steps.  The result is round-trip checked
    against p/q* and must have even length for a knot.  The round trip
    runs on integers: the expansion's value is K(e_1..e_k) / K(e_2..e_k),
    a ratio of continuants, so it equals p/q* exactly when
    K(e_1..e_k) q* = K(e_2..e_k) p (no continuant vanishes: every
    |e_i| >= 2, so |K| grows with each entry).
    """
    p, q = k.p, k.q
    q_star = q if q % 2 == 0 else p - q
    entries: list[int] = []
    num, den = p, q_star
    for _ in range(p):
        if den < 0:
            num, den = -num, -den
        # nearest integer to num/(2*den); exact half-values cannot occur
        # for coprime inputs
        b2 = 2 * ((num + den) // (2 * den))
        entries.append(b2)
        rem = b2 * den - num
        if rem == 0:
            break
        num, den = den, rem
    else:
        raise SignatureError(f"even continued fraction of {p}/{q_star} did not end within {p} steps")
    cf = EvenCF(tuple(entries))
    # the continuants K(e_j..e_k) and K(e_(j+1)..e_k), from j = k down to 1
    num, den = 1, 0
    for e in reversed(entries):
        num, den = e * num - den, num
    if num * q_star != den * p:
        raise SignatureError(f"even continued fraction of {p}/{q_star} failed its round-trip check")
    if len(entries) % 2 != 0:
        raise SignatureError(
            f"even continued fraction of {p}/{q_star} has odd length {len(entries)}; "
            "expected even length for a knot"
        )
    return cf


@dataclass(frozen=True, slots=True)
class TwoBridgeSignature:
    """Signature data of b(p, q) under the q*-even convention.

    sigma_abs is presentation- and mirror-invariant; sigma_signed depends
    on the convention and should only be compared within it.
    """

    sigma_abs: int
    sigma_signed: int
    cf: EvenCF
    determinant: int


def signature_two_bridge(k: KnotId) -> TwoBridgeSignature:
    """Signature of b(p, q) from the even continued fraction.

    Raises SignatureError when |det| != p, which would mean the expansion
    is corrupted.
    """
    cf = even_cf(k)
    det = cf.determinant()
    if abs(det) != k.p:
        raise SignatureError(
            f"|det| = {abs(det)} != p = {k.p} for {k}: continued-fraction matrix is inconsistent"
        )
    signed = cf.signature()
    return TwoBridgeSignature(
        sigma_abs=abs(signed), sigma_signed=signed, cf=cf, determinant=det
    )
