"""Two-bridge knot identifiers, sign sequences and Schubert relator words.

A two-bridge knot b(p, q) is indexed by an odd p >= 3 and a q coprime to
p with 0 < q < p; b(p, q) and b(p, q') present the same knot exactly
when q' == q or q' == q^-1 (mod p).  The knot group has the presentation
< a, b | w a = b w > with

    w = a^e_1 b^e_2 ... a^e_{p-2} b^e_{p-1},   e_j = (-1)^floor(j*q/p),

where the q in the floor formula must be the odd representative of
{q, q - p} (for even stored q the word is built on q - p, which names
the same knot).  The generators alternate, a at odd j and b at even j,
so a SchubertWord holds only the exponents e_j, and epsilon_sequence is
the one place the sign formula is written.

Double twist knots J(k, l) (k, l counting half twists, k*l even) form
four families indexed by the parities and signs of (k, l); each family
has a known (p, q) (family_to_pq), whose floor-formula word is the
family's relator word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FAMILIES = ("EE", "EN", "OE", "ON")


@dataclass(frozen=True, slots=True)
class KnotId:
    """A two-bridge knot presentation b(p, q).

    Any coprime 0 < q < p (p odd) is allowed, so family presentations
    that are not in canonical form can be represented; `canonical()`
    reduces q to min(q, q^-1 mod p).
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0:
            link = " (even p gives a link, not a knot)" if self.p % 2 == 0 else ""
            raise ValueError(f"p must be an odd integer >= 3, got {self.p}{link}")
        if not 0 < self.q < self.p:
            raise ValueError(f"q must satisfy 0 < q < p, got q={self.q}, p={self.p}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got ({self.p}, {self.q})")

    def canonical(self) -> "KnotId":
        q_inv = pow(self.q, -1, self.p)
        return KnotId(self.p, min(self.q, q_inv))

    def __str__(self) -> str:
        return f"b({self.p},{self.q})"


def epsilon_sequence(p: int, q: int) -> tuple[int, ...]:
    """Exponent signs e_j = (-1)^floor(j*q/p) for j = 1..p-1.

    q may be any integer coprime to p (in particular the negative odd
    representative used for relator words); the floor is exact integer
    arithmetic either way.
    """
    return tuple(-1 if (j * q // p) % 2 else 1 for j in range(1, p))


def odd_representative(p: int, q: int) -> int:
    """The odd member of {q, q - p}: the exponent parameter relator words
    are built on.

    Both values name the same knot (q is only defined mod p), but the
    presentation < a, b | w a = b w > with w from the floor formula is a
    knot group presentation only for odd q: with even q the relation
    forces an empty representation variety (e.g. (5, 2): the matrix
    equation demands 2*(y-2)^2 = 0 alongside the candidate polynomial).
    p odd makes exactly one of q, q - p odd.
    """
    return q if q % 2 else q - p


@dataclass(frozen=True, slots=True)
class DoubleTwist:
    """Double twist knot J(k, l) with k*l even, tagged by family:

      EE = J(2m, 2n)      EN = J(2m, -2n)
      OE = J(2m+1, 2n)    ON = J(2m+1, -2n)

    with m, n >= 1.
    """

    family: str
    m: int
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m and n must be >= 1, got m={self.m}, n={self.n}")

    @property
    def twists(self) -> tuple[int, int]:
        """The half-twist counts (k, l) of J(k, l)."""
        k = 2 * self.m if self.family in ("EE", "EN") else 2 * self.m + 1
        l = 2 * self.n if self.family in ("EE", "OE") else -2 * self.n
        return k, l

    def __str__(self) -> str:
        k, l = self.twists
        return f"J({k},{l})"


def family_to_pq(d: DoubleTwist) -> KnotId:
    """The b(p, q) presentation of a double twist knot.

    The returned q is odd for every family, so schubert_word builds the
    family's relator word on it as is; it is kept un-reduced, so call
    .canonical() when the normalized identifier is wanted.
    """
    m, n = d.m, d.n
    if d.family == "EE":
        return KnotId(4 * m * n - 1, 4 * m * n - 2 * n - 1)
    if d.family == "EN":
        return KnotId(4 * m * n + 1, 4 * m * n - 2 * n + 1)
    if d.family == "OE":
        return KnotId(4 * m * n + 2 * n - 1, 4 * m * n - 1)
    return KnotId(4 * m * n + 2 * n + 1, 4 * m * n + 1)


@dataclass(frozen=True, slots=True)
class SchubertWord:
    """Relator word a^e_1 b^e_2 a^e_3 ..., held as its exponents e_j = +-1.

    The generators alternate, so letter j's generator is implied by its
    position: a for odd j, b for even j.
    """

    exponents: tuple[int, ...]

    def __post_init__(self):
        for j, e in enumerate(self.exponents, 1):
            if e not in (1, -1):
                raise ValueError(f"letter {j} has exponent {e}, expected +1 or -1")

    def __len__(self) -> int:
        return len(self.exponents)

    def pretty(self) -> str:
        """Spaced rendering, e.g. "a b⁻¹ a⁻¹ b"."""
        return " ".join(
            "ab"[i % 2] + ("" if e == 1 else "⁻¹") for i, e in enumerate(self.exponents)
        )

    def compact(self) -> str:
        """ASCII rendering: a, b for exponent +1 and A, B for -1."""
        return "".join(("ab" if e == 1 else "AB")[i % 2] for i, e in enumerate(self.exponents))


def schubert_word(k: KnotId) -> SchubertWord:
    """The relator word of b(p, q): length p-1, exponents
    epsilon_sequence at the odd representative of q (see
    odd_representative)."""
    return SchubertWord(epsilon_sequence(k.p, odd_representative(k.p, k.q)))
