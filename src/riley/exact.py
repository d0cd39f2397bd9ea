"""Exact polynomial arithmetic over the rationals.

Everything in this package computes with exact arbitrary-precision
rationals (`fractions.Fraction`); no floating point enters any result.
Three polynomial containers are provided:

  UniPoly     dense univariate polynomial, coefficients ascending by degree
  BiPoly      polynomial in y whose coefficients are UniPoly values in x
  SymLaurent  Laurent polynomial in s whose coefficients are UniPoly
              values in y (exponents may be negative)

A Laurent polynomial invariant under s -> 1/s rewrites exactly into a
BiPoly via x = s + 1/s (see symmetrize_to_xy).

Polynomial gcds run over integer coefficient lists using primitive
pseudo-remainder sequences with content removal, which keeps
intermediate coefficients small while staying exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rational = Fraction
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or an integer literal into an exact Fraction."""
    return Fraction(text.strip())


def format_rational(v: Fraction) -> str:
    """Render a Fraction as "num/den" (always with a denominator)."""
    return f"{v.numerator}/{v.denominator}"


class SymmetryError(ValueError):
    """A Laurent polynomial expected to be symmetric under s -> 1/s is not.

    Carries the offending exponent: the term at `exponent` differs from
    the term at `-exponent`.
    """

    def __init__(self, exponent: int):
        self.exponent = exponent
        super().__init__(
            f"Laurent polynomial not symmetric under s -> 1/s: "
            f"term at exponent {exponent} differs from term at {-exponent}"
        )


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class UniPoly:
    """Dense univariate polynomial over Fraction, trimmed canonical form.

    Coefficients are stored ascending by degree; the leading coefficient
    is nonzero unless the polynomial is zero (empty tuple).  Instances
    are immutable and hashable; equality is coefficientwise.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs: tuple[Fraction, ...] = _trim([Fraction(c) for c in coeffs])

    @classmethod
    def _raw(cls, coeffs: tuple[Fraction, ...]) -> "UniPoly":
        # Trusted constructor: coeffs already Fractions and trimmed.
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls._raw(())

    @classmethod
    def const(cls, c: Scalar) -> "UniPoly":
        c = Fraction(c)
        return cls._raw(() if c == 0 else (c,))

    @classmethod
    def gen(cls) -> "UniPoly":
        """The polynomial consisting of the variable itself."""
        return cls._raw((_ZERO, _ONE))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def __add__(self, other: "UniPoly | Scalar") -> "UniPoly":
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly._raw(_trim(out))

    __radd__ = __add__

    def __sub__(self, other: "UniPoly | Scalar") -> "UniPoly":
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "UniPoly":
        return (-self) + other

    def __neg__(self) -> "UniPoly":
        return UniPoly._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return UniPoly.zero()
            return UniPoly._raw(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UniPoly._raw(_trim(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = UniPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Exact division with remainder: self = q*other + r, deg r < deg other."""
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero polynomial")
        rem = list(self.coeffs)
        db, lb = other.degree, other.leading
        if len(rem) - 1 < db:
            return UniPoly.zero(), self
        quot = [_ZERO] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                q = c / lb
                quot[i - db] = q
                for j, cb in enumerate(other.coeffs):
                    rem[i - db + j] -= q * cb
        return UniPoly._raw(_trim(quot)), UniPoly._raw(_trim(rem))

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def __call__(self, v: Scalar) -> Fraction:
        """Exact evaluation by Horner's rule."""
        v = Fraction(v)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly._raw(
            _trim([i * c for i, c in enumerate(self.coeffs)][1:])
        )

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading
        if lead == 1:
            return self
        return UniPoly._raw(tuple(c / lead for c in self.coeffs))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"


def _as_unipoly(v: "UniPoly | Scalar") -> "UniPoly":
    if isinstance(v, UniPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return UniPoly.const(v)
    return NotImplemented


# ---------------------------------------------------------------------------
# Integer-coefficient kernels.
#
# gcd, squarefree parts and Sturm chains clear denominators once and run
# over plain int lists: primitive pseudo-remainder sequences keep the
# numbers small and Python-int arithmetic is much faster than Fraction.
# Scaling by positive constants is harmless everywhere these are used.
# ---------------------------------------------------------------------------


def _int_coeffs(p: UniPoly) -> list[int]:
    """Integer coefficient list of p scaled by the lcm of denominators."""
    if p.is_zero():
        return []
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [int(c * den) for c in p.coeffs]


def _int_content(coeffs: Sequence[int]) -> int:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def _int_primitive(coeffs: list[int]) -> list[int]:
    """Divide by the (positive) content; preserves every coefficient sign."""
    g = _int_content(coeffs)
    if g > 1:
        return [c // g for c in coeffs]
    return list(coeffs)


def _int_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


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


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer coefficient lists (sign unspecified)."""
    a, b = _int_trim(list(a)), _int_trim(list(b))
    if len(a) < len(b):
        a, b = b, a
    a, b = _int_primitive(a), _int_primitive(b)
    while b:
        a, b = b, _int_primitive(_int_prem_pos(a, b))
    return a


def _int_derivative(a: Sequence[int]) -> list[int]:
    return _int_trim([i * c for i, c in enumerate(a)][1:])


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor of a and b.

    Raises ValueError when both inputs are zero.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    g = _int_gcd(_int_coeffs(a), _int_coeffs(b))
    return UniPoly(g).monic()


def squarefree_part(a: UniPoly) -> UniPoly:
    """Monic a / gcd(a, a'), i.e. the product of a's distinct irreducible
    factors.  Raises ValueError on zero input."""
    if a.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    if a.degree == 0:
        return UniPoly.const(1)
    g = poly_gcd(a, a.derivative())
    q, r = divmod(a, g)
    if not r.is_zero():
        raise ArithmeticError("gcd(a, a') does not divide a")
    return q.monic()


class BiPoly:
    """Polynomial in y whose coefficients are UniPoly values in x.

    `coeffs[j]` is the x-polynomial multiplying y**j; the sequence is
    trimmed so the top entry is nonzero unless the whole polynomial is
    zero.  Immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[UniPoly | Scalar] = ()):
        lst = [c if isinstance(c, UniPoly) else UniPoly.const(c) for c in coeffs]
        while lst and lst[-1].is_zero():
            lst.pop()
        self.coeffs: tuple[UniPoly, ...] = tuple(lst)

    @classmethod
    def _raw(cls, coeffs: tuple[UniPoly, ...]) -> "BiPoly":
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls._raw(())

    @classmethod
    def const(cls, c: Scalar) -> "BiPoly":
        return cls.from_x(UniPoly.const(c))

    @classmethod
    def from_x(cls, p: UniPoly) -> "BiPoly":
        """Embed an x-polynomial as a y-degree-0 BiPoly."""
        return cls.zero() if p.is_zero() else cls._raw((p,))

    @classmethod
    def y(cls) -> "BiPoly":
        return cls._raw((UniPoly.zero(), UniPoly.const(1)))

    @classmethod
    def x(cls) -> "BiPoly":
        return cls._raw((UniPoly.gen(),))

    @property
    def y_degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def x_degree(self) -> int:
        return max((c.degree for c in self.coeffs), default=-1)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_y(self) -> UniPoly:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def y_coeff(self, j: int) -> UniPoly:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else UniPoly.zero()

    def __add__(self, other: "BiPoly | UniPoly | Scalar") -> "BiPoly":
        other = _as_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BiPoly(out)

    __radd__ = __add__

    def __sub__(self, other: "BiPoly | UniPoly | Scalar") -> "BiPoly":
        other = _as_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "UniPoly | Scalar") -> "BiPoly":
        return (-self) + other

    def __neg__(self) -> "BiPoly":
        return BiPoly._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "BiPoly | UniPoly | Scalar") -> "BiPoly":
        if isinstance(other, (int, Fraction, UniPoly)):
            other = (
                UniPoly.const(other) if isinstance(other, (int, Fraction)) else other
            )
            if other.is_zero():
                return BiPoly.zero()
            return BiPoly._raw(tuple(c * other for c in self.coeffs))
        if not isinstance(other, BiPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return BiPoly.zero()
        out: list[UniPoly] = [UniPoly.zero()] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca.is_zero():
                for j, cb in enumerate(b):
                    out[i + j] = out[i + j] + ca * cb
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval_x(self, x0: Scalar) -> UniPoly:
        """Substitute x := x0 in every coefficient, leaving a UniPoly in y."""
        x0 = Fraction(x0)
        return UniPoly([c(x0) for c in self.coeffs])

    def subs_y(self, g: UniPoly) -> UniPoly:
        """Substitute y := g(x), collapsing to a UniPoly in x (Horner)."""
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * g + c
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, UniPoly)):
            other = _as_bipoly(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"BiPoly({[list(c.coeffs) for c in self.coeffs]!r})"

    def to_json_dict(self) -> dict:
        """JSON-compatible form: y-coefficients ascending, each a list of
        exact "num/den" strings ascending by x-degree."""
        return {
            "y_degree": self.y_degree,
            "coeffs": [[format_rational(c) for c in p.coeffs] for p in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "BiPoly":
        coeffs = [UniPoly([Fraction(s) for s in row]) for row in d["coeffs"]]
        p = cls(coeffs)
        if p.y_degree != d["y_degree"]:
            raise ValueError("y_degree field does not match coefficient list")
        return p


def _as_bipoly(v: "BiPoly | UniPoly | Scalar") -> "BiPoly":
    if isinstance(v, BiPoly):
        return v
    if isinstance(v, UniPoly):
        return BiPoly.from_x(v)
    if isinstance(v, (int, Fraction)):
        return BiPoly.const(v)
    return NotImplemented


def compose(outer: UniPoly, inner: BiPoly) -> BiPoly:
    """Exact polynomial composition outer(inner) by Horner's rule."""
    acc = BiPoly.zero()
    for c in reversed(outer.coeffs):
        acc = acc * inner + c
    return acc


class SymLaurent:
    """Laurent polynomial in s over UniPoly coefficients in y.

    Stored as a map from (possibly negative) s-exponent to a nonzero
    UniPoly in y; no zero coefficients are kept.  Immutable by
    convention: no method mutates an existing instance.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, UniPoly | Scalar] | None = None):
        out: dict[int, UniPoly] = {}
        for k, v in (terms or {}).items():
            p = v if isinstance(v, UniPoly) else UniPoly.const(v)
            if not p.is_zero():
                out[int(k)] = p
        self.terms = out

    @classmethod
    def zero(cls) -> "SymLaurent":
        return cls()

    @classmethod
    def one(cls) -> "SymLaurent":
        return cls({0: 1})

    @classmethod
    def s_power(cls, k: int, coeff: UniPoly | Scalar = 1) -> "SymLaurent":
        return cls({k: coeff})

    @classmethod
    def from_y(cls, p: UniPoly) -> "SymLaurent":
        return cls({0: p})

    def is_zero(self) -> bool:
        return not self.terms

    def term(self, k: int) -> UniPoly:
        return self.terms.get(k, UniPoly.zero())

    def items(self) -> Iterator[tuple[int, UniPoly]]:
        return iter(sorted(self.terms.items()))

    def __add__(self, other: "SymLaurent") -> "SymLaurent":
        if not isinstance(other, SymLaurent):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, UniPoly.zero()) + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        res = SymLaurent.__new__(SymLaurent)
        res.terms = out
        return res

    def __sub__(self, other: "SymLaurent") -> "SymLaurent":
        return self + (-other)

    def __neg__(self) -> "SymLaurent":
        res = SymLaurent.__new__(SymLaurent)
        res.terms = {k: -v for k, v in self.terms.items()}
        return res

    def __mul__(self, other: "SymLaurent | UniPoly | Scalar") -> "SymLaurent":
        if isinstance(other, (int, Fraction, UniPoly)):
            p = other if isinstance(other, UniPoly) else UniPoly.const(other)
            if p.is_zero():
                return SymLaurent.zero()
            res = SymLaurent.__new__(SymLaurent)
            res.terms = {k: v * p for k, v in self.terms.items()}
            return res
        if not isinstance(other, SymLaurent):
            return NotImplemented
        out: dict[int, UniPoly] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = ka + kb
                prod = va * vb
                acc = out.get(k)
                s = prod if acc is None else acc + prod
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        res = SymLaurent.__new__(SymLaurent)
        res.terms = out
        return res

    __rmul__ = __mul__

    def eval_s(self, s0: Scalar) -> UniPoly:
        """Substitute s := s0 (nonzero rational), leaving a UniPoly in y."""
        s0 = Fraction(s0)
        if s0 == 0:
            raise ZeroDivisionError("cannot substitute s = 0 into a Laurent polynomial")
        acc = UniPoly.zero()
        for k, v in self.terms.items():
            acc = acc + v * s0**k
        return acc

    def asymmetry_exponent(self) -> int | None:
        """Smallest positive exponent witnessing failure of s <-> 1/s
        symmetry, or None when symmetric."""
        for k in sorted({abs(k) for k in self.terms if k != 0}):
            if self.term(k) != self.term(-k):
                return k
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"SymLaurent({{ {', '.join(f'{k}: {list(v.coeffs)}' for k, v in self.items())} }})"


def symmetrize_to_xy(f: SymLaurent) -> BiPoly:
    """Rewrite a Laurent polynomial symmetric under s -> 1/s as an exactly
    equal BiPoly in x = s + 1/s and y.

    Each pair s**k + s**-k is replaced by the trace polynomial p_k(x)
    (p_0 = 2, p_1 = x, p_k = x*p_{k-1} - p_{k-2}).  Raises SymmetryError
    carrying the offending exponent when the input is not symmetric.
    """
    from .chebyshev import trace_poly

    bad = f.asymmetry_exponent()
    if bad is not None:
        raise SymmetryError(bad)
    result = BiPoly.zero()
    for k, c in f.items():
        if k < 0:
            continue
        # c is the y-coefficient of s^k (+ s^-k for k > 0): contributes
        # c(y) * p_k(x), except k = 0 contributes c(y) * 1 (half of p_0).
        xpart = trace_poly(k) if k > 0 else UniPoly.const(1)
        contrib = BiPoly._raw(tuple(UniPoly.const(cy) for cy in c.coeffs))
        result = result + contrib * xpart
    return result
