"""Exact polynomial arithmetic: one polynomial container and one dense
ring kernel, run on integer coefficients everywhere but at the edges.

The dense kernel (_zadd, _zsub, _zmul, _int_trim, _horner) works on
ascending coefficient sequences over any ring, given the ring's zero
where it creates entries.  UniPoly (dense, ascending coefficients,
immutable) runs it over the rationals, stored canonically: a coefficient
that is an integer is a Python int, and only one that is not is a
`fractions.Fraction` (_rational; a float is refused).  Results are
stored so too (_canonical): only one that holds a Fraction is converted,
so integer polynomials run on Python ints throughout.  BiPoly, a
polynomial in y over UniPoly coefficients in x, is a UniPoly subclass
that states only that ring.  Calling either is Horner evaluation at a
rational or composition with a polynomial.  Sturm sequences
(subresultant sequences with tracked contents), squarefree parts and
exact division run on plain int coefficient lists (ascending, trimmed,
[] for zero).  A Sturm sequence of f ends in +-gcd(f, f'), so one
remainder sequence serves both root counting and squarefree parts.

Divisibility over Q is decided by exact division in Z[y]: when the
divisor d is primitive, Gauss's lemma says d divides e in Q[y] exactly
when it does in Z[y], i.e. when integer long division leaves no
remainder (_int_exact_div).

Laurent polynomials in s over Z[y] (the entries of the Riley word
matrix) map s-exponents to coefficients in Z[y], packed as ints c(2^B)
for the ring operations (see rileypoly) and as int lists otherwise.  One
invariant under s -> 1/s rewrites exactly into a BiPoly via x = s + 1/s
(symmetrize_to_xy).
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


def _canonical(coeffs: list) -> tuple:
    """The result coeffs as a canonical tuple, converted only if it holds a Fraction."""
    if Fraction in map(type, coeffs):
        return tuple(map(_rational, coeffs))
    return tuple(coeffs)


def format_rational(v: Scalar) -> str:
    """Render a rational as "num/den" (always with a denominator)."""
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
    """Dense polynomial in one variable over a coefficient ring, trimmed
    canonical form; UniPoly's ring is Q, held as int or Fraction values.

    Coefficients are stored ascending by degree; the leading coefficient
    is nonzero unless the polynomial is zero (empty tuple).  Instances
    are immutable and hashable; equality is coefficientwise.  A subclass
    states another ring by four class attributes: _lift embeds a value
    as a coefficient, _canon puts a result's coefficient list in
    canonical form, _zero is the ring's zero, and _scalars are the
    types that multiply coefficientwise.
    """

    __slots__ = ("coeffs",)
    _lift = staticmethod(_rational)
    _canon = staticmethod(_canonical)
    _zero = 0
    _scalars = (int, Fraction)

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
        return self._raw(self._canon(_zadd(self.coeffs, b)))

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self._raw(self._canon(_zsub(self.coeffs, b, self._zero)))

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __neg__(self) -> "UniPoly":
        return self._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "UniPoly":
        if type(other) is type(self):
            return self._raw(self._canon(_zmul(self.coeffs, other.coeffs, self._zero)))
        if isinstance(other, self._scalars):
            if not other:
                return self.zero()
            return self._raw(self._canon([c * other for c in self.coeffs]))
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, v):
        """Exact evaluation by Horner's rule at any ring element v (a
        rational, or a polynomial for composition)."""
        return _horner(self.coeffs, v, self._zero)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading
        if lead == 1:
            return self
        return type(self)([Fraction(c) / lead for c in self.coeffs])

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
# The dense ring kernel and the integer coefficient kernel.
#
# _zadd, _zsub, _zmul, _int_trim and _horner need only +, -, * and
# truthiness of the coefficients: they serve int lists here, rational
# tuples in UniPoly and UniPoly tuples in BiPoly.  _zsub and _zmul take
# the ring's zero (default int 0) for the entries they create, so no int
# 0 lands in a BiPoly.
#
# Sturm sequences, squarefree parts and exact division run over plain
# int lists (ascending, trimmed): subresultant sequences keep the
# numbers small without a content gcd per step, and Python-int
# arithmetic is much faster than Fraction.  Scaling by
# nonzero constants is harmless everywhere these are used: it changes no
# zero set, and positive scaling changes no sign.
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


def _int_coeffs(values: Sequence[Scalar]) -> list[int]:
    """The values scaled by the lcm of their denominators, as ints."""
    den = math.lcm(*(c.denominator for c in values))
    if den == 1:
        return [c.numerator for c in values]
    return [c.numerator * (den // c.denominator) for c in values]


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


def _int_squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a non-constant integer list f, up to content."""
    return _int_squarefree(f, _int_sturm(f)[-1])


def squarefree_part(a: UniPoly) -> UniPoly:
    """Monic a / gcd(a, a'), i.e. the product of a's distinct irreducible
    factors.  Raises ValueError on zero input."""
    if a.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    if a.degree == 0:
        return UniPoly.const(1)
    return UniPoly(_int_squarefree_part(_int_coeffs(a.coeffs))).monic()


class BiPoly(UniPoly):
    """Polynomial in y whose coefficients are UniPoly values in x.

    `coeffs[j]` is the x-polynomial multiplying y**j.  Scalars and
    UniPolys lift to constants in y; a BiPoly is never a coefficient.
    """

    __slots__ = ()
    _lift = staticmethod(lambda c: c if type(c) is UniPoly else UniPoly.const(c))
    # UniPoly results are canonical already
    _canon = staticmethod(tuple)
    _zero = UniPoly.zero()
    _scalars = (int, Fraction, UniPoly)

    def eval_x(self, x0: Scalar) -> UniPoly:
        """Substitute x := x0 in every coefficient, leaving a UniPoly in y."""
        x0 = _rational(x0)
        return UniPoly([c(x0) for c in self.coeffs])

    def to_json_dict(self) -> dict:
        """JSON-compatible form: y-coefficients ascending, each a list of
        exact "num/den" strings ascending by x-degree."""
        return {
            "y_degree": self.degree,
            "coeffs": [[format_rational(c) for c in p.coeffs] for p in self.coeffs],
        }


def compose(outer: UniPoly, inner: BiPoly) -> BiPoly:
    """Exact polynomial composition outer(inner) by Horner's rule."""
    return outer(inner)


# ---------------------------------------------------------------------------
# Laurent polynomials in s over Z[y], with no zero values: packed,
# {s-exponent: c(2^B)} for the ring operations, or {s-exponent: int list
# in y} for the symmetry check and the rewrite to (x, y).
# ---------------------------------------------------------------------------

Laurent = dict[int, list[int]]
PackedLaurent = dict[int, int]


def _laurent_shift(f: dict, k: int) -> dict:
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
    p_k(x) (p_0 = 2, p_1 = x, p_k = x*p_{k-1} - p_{k-2}).  The sum
    sum_k c_k(y) p_k(x) is collected on int lists, one x-coefficient
    list per power of y, and becomes one BiPoly at the end.  Raises
    SymmetryError carrying the offending exponent when the input is not
    symmetric.
    """
    from .chebyshev import trace_poly

    bad = asymmetry_exponent(f)
    if bad is not None:
        raise SymmetryError(bad)
    # rows[j] is the x-coefficient list of y^j
    rows = [[0] * (max(f) + 1) for _ in range(max(map(len, f.values())))] if f else []
    for k, c in f.items():
        if k < 0:
            continue
        # c is the y-coefficient of s^k (+ s^-k for k > 0): contributes
        # c(y) * p_k(x), except k = 0 contributes c(y) * 1 (half of p_0).
        xpart = trace_poly(k).coeffs if k > 0 else (1,)
        for row, cj in zip(rows, c):
            if cj:
                for i, v in enumerate(xpart):
                    row[i] += cj * v
    return BiPoly([UniPoly._raw(tuple(_int_trim(row))) for row in rows])
