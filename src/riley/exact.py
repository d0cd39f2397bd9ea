"""Exact polynomial arithmetic over Z: one polynomial container and one
dense ring kernel.

UniPoly holds int coefficients (a non-integral rational or a float is
refused, _integer); BiPoly is a UniPoly over UniPoly coefficients in x.
The kernel (_zadd, _zsub, _zmul, _int_trim, _horner) serves both and
plain int lists.  BiPoly.eval_x(a/b) is b^(deg_x) times the value at
x = a/b, so it stays in Z[y] (_homogeneous).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _rational(c) -> Scalar:
    """c as an exact rational in canonical form: an int when it is an
    integer, else a Fraction.  Raises TypeError on a float, which is a
    binary approximation with no place in exact arithmetic; every
    coefficient and every point x0 enters through here."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"float {c!r} in exact arithmetic; pass an int or a Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _integer(c) -> int:
    """c as a polynomial coefficient, an int: _rational, then ValueError
    unless the value is integral (int() would truncate 1/2 to 0)."""
    if type(c) is int:
        return c
    c = _rational(c)
    if type(c) is not int:
        raise ValueError(f"coefficient {c} is not an integer")
    return c


def format_rational(v: Scalar) -> str:
    """Render a rational as "num/den" (always with a denominator)."""
    return f"{v.numerator}/{v.denominator}"


class UniPoly:
    """Dense polynomial in one variable over a coefficient ring, trimmed
    canonical form; UniPoly's ring is Z, held as Python ints.

    Coefficients are stored ascending by degree; the leading coefficient
    is nonzero unless the polynomial is zero (empty tuple).  Instances
    are immutable and hashable; equality is coefficientwise.  A subclass
    states another ring by three class attributes: _lift embeds a value
    as a coefficient, _zero is the ring's zero, and _scalars are the
    types that multiply coefficientwise.
    """

    __slots__ = ("coeffs",)
    _lift = staticmethod(_integer)
    _zero = 0
    _scalars = (int,)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs: tuple = tuple(_int_trim([self._lift(c) for c in coeffs]))

    @classmethod
    def _raw(cls, coeffs: tuple) -> "UniPoly":
        # Trusted constructor: coeffs already in the ring and trimmed.
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls._raw(())

    @classmethod
    def const(cls, c) -> "UniPoly":
        c = cls._lift(c)
        return cls._raw((c,) if c else ())

    @classmethod
    def gen(cls) -> "UniPoly":
        """The polynomial consisting of the variable itself."""
        return cls._raw((cls._zero, cls._lift(1)))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self._zero

    def _coerce(self, other) -> tuple:
        """other's coefficient tuple in this ring, or NotImplemented.  The
        type test comes first: a subclass instance is a UniPoly too."""
        if type(other) is type(self):
            return other.coeffs
        if isinstance(other, self._scalars):
            c = self._lift(other)
            return (c,) if c else ()
        return NotImplemented

    def __add__(self, other) -> "UniPoly":
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self._raw(tuple(_zadd(self.coeffs, b)))

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self._raw(tuple(_zsub(self.coeffs, b, self._zero)))

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __neg__(self) -> "UniPoly":
        return self._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "UniPoly":
        if type(other) is type(self):
            return self._raw(tuple(_zmul(self.coeffs, other.coeffs, self._zero)))
        if isinstance(other, self._scalars):
            if not other:
                return self.zero()
            return self._raw(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, v):
        """Exact evaluation by Horner's rule at any ring element v (a
        rational, or a polynomial for composition)."""
        return _horner(self.coeffs, v, self._zero)

    def __eq__(self, other: object) -> bool:
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self.coeffs == b

    def __hash__(self) -> int:
        # degree <= 0 hashes as its constant, as equality with scalars needs
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeffs[0]) if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# The dense ring kernel.
#
# _zadd, _zsub, _zmul, _int_trim and _horner need only +, -, * and
# truthiness of the coefficients: they serve int lists and int tuples in
# UniPoly, and UniPoly tuples in BiPoly.  _zsub and _zmul take the
# ring's zero (default int 0) for the entries they create, so no int 0
# lands in a BiPoly.
# ---------------------------------------------------------------------------


def _zadd(a: Sequence, b: Sequence) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _int_trim(out)


def _zsub(a: Sequence, b: Sequence, zero=0) -> list:
    out = list(a) + [zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _int_trim(out)


def _zmul(a: Sequence, b: Sequence, zero=0) -> list:
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _int_trim(out)


def _int_content(coeffs: Sequence[int]) -> int:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def _int_primitive(coeffs: Sequence[int]) -> list[int]:
    """Divide by the (positive) content; preserves every coefficient sign."""
    g = _int_content(coeffs)
    if g > 1:
        return [c // g for c in coeffs]
    return list(coeffs)


def _int_trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _horner(coeffs: Sequence, v, acc):
    """sum coeffs[i] * v**i by Horner's rule, starting from the zero acc."""
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def _homogeneous(coeffs: Sequence[int], num: int, den: int) -> int:
    """den^d * f(num/den) = sum c_i num^i den^(d-i) for the integer
    coefficient list f of degree d, by Horner's rule; 0 for []."""
    acc, dpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * dpow
        dpow *= den
    return acc


class BiPoly(UniPoly):
    """Polynomial in y whose coefficients are UniPoly values in x.

    `coeffs[j]` is the x-polynomial multiplying y**j.  Scalars and
    UniPolys lift to constants in y; a BiPoly is never a coefficient.
    """

    __slots__ = ()
    _lift = staticmethod(lambda c: c if type(c) is UniPoly else UniPoly.const(c))
    _zero = UniPoly.zero()
    _scalars = (int, UniPoly)

    def eval_x(self, x0: Scalar) -> UniPoly:
        """b^d * Phi(a/b, y) in Z[y] for x0 = a/b in lowest terms, b > 0,
        and d the x-degree of Phi: x := x0 substituted in every
        coefficient, scaled to stay integral.  Raises TypeError on a
        float."""
        x0 = _rational(x0)
        a, b = x0.numerator, x0.denominator
        d = max((c.degree for c in self.coeffs), default=0)
        return UniPoly([_homogeneous(c.coeffs, a, b) * b ** (d - c.degree) for c in self.coeffs])


def compose(outer: UniPoly, inner: BiPoly) -> BiPoly:
    """Exact polynomial composition outer(inner) by Horner's rule."""
    return outer(inner)
