"""Exact polynomial arithmetic: one dense ring kernel, run on integer
coefficients everywhere but at the edges.

The dense kernel (_zadd, _zsub, _zmul, _int_trim, _int_derivative,
_horner) works on ascending coefficient sequences over any ring, given
the ring's zero where it creates entries.  UniPoly (dense, ascending
coefficients) runs it on `fractions.Fraction` tuples and BiPoly (a
polynomial in y over UniPoly coefficients in x) on UniPoly tuples; both
are immutable containers for results, rational x0 and isolating
intervals.  Everything heavier runs on plain int coefficient lists
(ascending, trimmed, [] for zero): the same ring operations, primitive
pseudo-remainder gcds with content removal, and exact division.

Divisibility over Q is decided by exact division in Z[y]: when the
divisor d is primitive, Gauss's lemma says d divides e in Q[y] exactly
when it does in Z[y], i.e. when integer long division leaves no
remainder (_int_exact_div).

Laurent polynomials in s over Z[y] (the entries of the Riley word
matrix) are maps from s-exponent to such a list; multiplying by a power
of s only moves exponents.  At a rational s0 = a/b a Laurent polynomial
f with exponents in [-K, K] is evaluated over the integers as
sum c_k a^(k+K) b^(K-k) = f(s0) (ab)^K, a nonzero multiple of f(s0)
with the same zero set.  One invariant under s -> 1/s rewrites exactly
into a BiPoly via x = s + 1/s (see symmetrize_to_xy).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

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


class UniPoly:
    """Dense univariate polynomial over Fraction, trimmed canonical form.

    Coefficients are stored ascending by degree; the leading coefficient
    is nonzero unless the polynomial is zero (empty tuple).  Instances
    are immutable and hashable; equality is coefficientwise.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs: tuple[Fraction, ...] = tuple(_int_trim([Fraction(c) for c in coeffs]))

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
        return UniPoly._raw(tuple(_zadd(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: "UniPoly | Scalar") -> "UniPoly":
        other = _as_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return UniPoly._raw(tuple(_zsub(self.coeffs, other.coeffs, _ZERO)))

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
        return UniPoly._raw(tuple(_zmul(self.coeffs, other.coeffs, _ZERO)))

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
        return UniPoly._raw(tuple(_int_trim(quot))), UniPoly._raw(tuple(_int_trim(rem)))

    def __call__(self, v: Scalar) -> Fraction:
        """Exact evaluation by Horner's rule."""
        return _horner(self.coeffs, Fraction(v), _ZERO)

    def derivative(self) -> "UniPoly":
        return UniPoly._raw(tuple(_int_derivative(self.coeffs)))

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
# The dense ring kernel and the integer coefficient kernel.
#
# _zadd, _zsub, _zmul, _int_trim, _int_derivative and _horner need only
# +, -, * and truthiness of the coefficients: they serve int lists here,
# Fraction tuples in UniPoly and UniPoly tuples in BiPoly.  _zsub and
# _zmul take the ring's zero (default int 0) for the entries they create,
# so no int 0 lands in a UniPoly or a BiPoly.
#
# Word products, gcds, squarefree parts, divisibility checks and Sturm
# chains run over plain int lists (ascending, trimmed): primitive
# pseudo-remainder sequences keep the numbers small and Python-int
# arithmetic is much faster than Fraction.  Scaling by nonzero constants
# is harmless everywhere these are used: it changes no zero set, and
# positive scaling changes no sign.
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


def _zmul_two_minus_y(a: list[int]) -> list[int]:
    """Multiply by (2 - y)."""
    if not a:
        return []
    out = [0] * (len(a) + 1)
    for i, c in enumerate(a):
        out[i] += 2 * c
        out[i + 1] -= c
    return out


def _zmul(a: Sequence, b: Sequence, zero=0) -> list:
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _int_trim(out)


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


def _int_coeffs(values: Sequence[Fraction]) -> list[int]:
    """The values scaled by the lcm of their denominators, as ints."""
    den = math.lcm(*(c.denominator for c in values))
    return [int(c * den) for c in values]


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


def _int_trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _horner(coeffs: Sequence, v, acc):
    """sum coeffs[i] * v**i by Horner's rule, starting from the zero acc."""
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


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


def _int_derivative(a: Sequence) -> list:
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
    g = _int_gcd(_int_coeffs(a.coeffs), _int_coeffs(b.coeffs))
    return UniPoly(g).monic()


def _int_squarefree(f: list[int], g: list[int]) -> list[int]:
    """Squarefree part f / g of an integer coefficient list f, given the
    primitive g = +-gcd(f, f'); the result keeps the sign of f."""
    if g[-1] < 0:
        g = [-c for c in g]
    q = _int_exact_div(f, g)
    if q is None:
        raise ArithmeticError("gcd(f, f') does not divide f")
    return q


def _int_squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a non-constant integer list f, up to content."""
    return _int_squarefree(f, _int_gcd(f, _int_derivative(f)))


def squarefree_part(a: UniPoly) -> UniPoly:
    """Monic a / gcd(a, a'), i.e. the product of a's distinct irreducible
    factors.  Raises ValueError on zero input."""
    if a.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    if a.degree == 0:
        return UniPoly.const(1)
    return UniPoly(_int_squarefree_part(_int_coeffs(a.coeffs))).monic()


class BiPoly:
    """Polynomial in y whose coefficients are UniPoly values in x.

    `coeffs[j]` is the x-polynomial multiplying y**j; the sequence is
    trimmed so the top entry is nonzero unless the whole polynomial is
    zero.  Immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[UniPoly | Scalar] = ()):
        lst = [c if isinstance(c, UniPoly) else UniPoly.const(c) for c in coeffs]
        self.coeffs: tuple[UniPoly, ...] = tuple(_int_trim(lst))

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

    @property
    def y_degree(self) -> int:
        return len(self.coeffs) - 1

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
        return BiPoly._raw(tuple(_zadd(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: "BiPoly | UniPoly | Scalar") -> "BiPoly":
        other = _as_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return BiPoly._raw(tuple(_zsub(self.coeffs, other.coeffs, UniPoly.zero())))

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
        return BiPoly._raw(tuple(_zmul(self.coeffs, other.coeffs, UniPoly.zero())))

    __rmul__ = __mul__

    def eval_x(self, x0: Scalar) -> UniPoly:
        """Substitute x := x0 in every coefficient, leaving a UniPoly in y."""
        x0 = Fraction(x0)
        return UniPoly([c(x0) for c in self.coeffs])

    def subs_y(self, g: UniPoly) -> UniPoly:
        """Substitute y := g(x), collapsing to a UniPoly in x (Horner)."""
        return _horner(self.coeffs, g, UniPoly.zero())

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
    return _horner(outer.coeffs, inner, BiPoly.zero())


# ---------------------------------------------------------------------------
# Laurent polynomials in s over Z[y]: {s-exponent: int list in y}, with no
# empty lists.  Lists may be shared between maps and are never mutated.
# ---------------------------------------------------------------------------

Laurent = dict[int, list[int]]


def _laurent_shift(f: Laurent, k: int) -> Laurent:
    """s^k * f."""
    return {e + k: c for e, c in f.items()}


def _laurent_add(f: Laurent, g: Laurent) -> Laurent:
    out = dict(f)
    for e, c in g.items():
        old = out.get(e)
        if old is None:
            out[e] = c
        else:
            c = _zadd(old, c)
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def _laurent_sub(f: Laurent, g: Laurent) -> Laurent:
    return _laurent_add(f, {e: [-v for v in c] for e, c in g.items()})


def _laurent_mul_two_minus_y(f: Laurent) -> Laurent:
    """(2 - y) * f."""
    return {e: _zmul_two_minus_y(c) for e, c in f.items()}


def _laurent_mul(f: Laurent, g: Laurent) -> Laurent:
    out: Laurent = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            out[ef + eg] = _zadd(out.get(ef + eg, []), _zmul(cf, cg))
    return {e: c for e, c in out.items() if c}


def _laurent_width(f: Laurent) -> int:
    """Largest |exponent| of f (0 for f = 0)."""
    return max((abs(e) for e in f), default=0)


def _laurent_eval(f: Laurent, num: int, den: int, width: int | None = None) -> list[int]:
    """f(num/den) * (num*den)^K over the integers, K = width (default
    _laurent_width(f)): sum c_k num^(k+K) den^(K-k).  num, den nonzero."""
    if width is None:
        width = _laurent_width(f)
    out: list[int] = []
    for e, c in f.items():
        w = num ** (width + e) * den ** (width - e)
        out = _zadd(out, [w * v for v in c])
    return out


def asymmetry_exponent(f: Laurent) -> int | None:
    """Smallest positive exponent k whose s^k term differs from its s^-k
    term, or None when f is invariant under s -> 1/s."""
    for k in sorted({abs(e) for e in f if e != 0}):
        if f.get(k) != f.get(-k):
            return k
    return None


def symmetrize_to_xy(f: Laurent) -> BiPoly:
    """Rewrite a Laurent polynomial symmetric under s -> 1/s as an exactly
    equal BiPoly in x = s + 1/s and y.

    f maps each s-exponent to its coefficient list in y (ascending,
    trimmed).  Each pair s**k + s**-k is replaced by the trace polynomial
    p_k(x) (p_0 = 2, p_1 = x, p_k = x*p_{k-1} - p_{k-2}).  Raises
    SymmetryError carrying the offending exponent when the input is not
    symmetric.
    """
    from .chebyshev import trace_poly

    bad = asymmetry_exponent(f)
    if bad is not None:
        raise SymmetryError(bad)
    result = BiPoly.zero()
    for k, c in f.items():
        if k < 0:
            continue
        # c is the y-coefficient of s^k (+ s^-k for k > 0): contributes
        # c(y) * p_k(x), except k = 0 contributes c(y) * 1 (half of p_0).
        xpart = trace_poly(k) if k > 0 else UniPoly.const(1)
        contrib = BiPoly._raw(tuple(UniPoly.const(cy) for cy in c))
        result = result + contrib * xpart
    return result
