"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are dense rational coefficient vectors of length phi(m), taken
modulo the m-th cyclotomic polynomial.  Inversion goes through the
extended Euclidean algorithm on polynomials over Q.  All operations are
exact.  A scenario works in one field, so every element lives in exactly
one field: operands may be ints, rationals, "p/q" strings or elements of
the same field, and an element of another field raises ValueError.

Coefficients are canonical: an integral value is a Python int, whichever
backend runs (gmpy2's mpq or the fractions.Fraction fallback), and any
other value is an mpq/Fraction whose denominator is not 1.  No float ever
appears.  Almost every scalar the Lie-theoretic code touches is integral,
so most arithmetic runs on ints and skips the rational gcd.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as _Q

_RATIONALS = ("mpq", "Fraction")  # the type names an element compares equal to


def rational(value, den=None):
    """Build the internal rational scalar from an int, a "p/q" string, or a pair.
    The result is always a _Q, also when it is integral: callers divide it by
    ints and read `.denominator` off the quotient."""
    if den is not None:
        return _Q(value, den)
    return _Q(value)


def _canon(q):
    # the canonical coefficient: an int when q is integral, else q itself
    return int(q) if q.denominator == 1 else q


def _div(a, b):
    # a / b on raw coefficients; an exact int quotient skips the rationals,
    # and _Q(a) keeps any other int / int from making a float
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _canon(_Q(a) / b)


def _cyclotomic_poly(m):
    # Phi_m as a list of integer coefficients, low degree first.
    # Computed by dividing x^m - 1 by the product of Phi_d over proper divisors d.
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _polymul_q(den, _CYCLO_CACHE.setdefault(d, _cyclotomic_poly(d)))
    q, r = _polydivmod_q(num, den)
    if r:
        raise AssertionError("non-exact polynomial division")
    return q


_CYCLO_CACHE = {}


_FIELD_CACHE = {}


class CyclotomicField:
    """The field Q(zeta_m), with elements reduced mod Phi_m."""

    def __init__(self, order):
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        self.order = order
        phi = _CYCLO_CACHE.setdefault(order, _cyclotomic_poly(order))
        self.modulus = list(phi)
        self.degree = len(phi) - 1
        # x^k mod Phi_m for k = degree .. 2*degree - 2, used during multiplication
        self._red = []
        cur = [-c for c in self.modulus[:-1]]  # x^degree (Phi_m is monic)
        for _ in range(self.degree - 1):
            self._red.append(tuple(cur))
            cur = [0] + cur
            top = cur.pop()
            if top:
                for i in range(self.degree):
                    cur[i] -= top * self.modulus[i]
        self._red.append(tuple(cur))
        self.zero = FieldElement(self, (0,) * self.degree)
        self.one = FieldElement(self, (1,) + (0,) * (self.degree - 1))

    def __repr__(self):
        return "CyclotomicField(%d)" % self.order

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("CyclotomicField", self.order))

    @property
    def zeta(self):
        """The class of the generator zeta_m."""
        if self.degree == 1:
            # zeta_1 = 1, zeta_2 = -1
            return self.one if self.order == 1 else -self.one
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2))

    def scalar(self, value):
        """An int, rational, "p/q" string or element of this field, as an
        element of this field.  An element of another field raises ValueError."""
        if isinstance(value, FieldElement):
            if value.field is self:
                return value
            raise ValueError("%r lies in %r, not in %r" % (value, value.field, self))
        if type(value) is not int:
            value = _canon(_Q(value))
        return FieldElement(self, (value,) + (0,) * (self.degree - 1))

    def root_of_unity(self, order, power=1):
        """zeta_order ** power; requires order | m."""
        if self.order % order != 0:
            raise ValueError(
                "field Q(zeta_%d) has no root of unity of order %d" % (self.order, order)
            )
        return self.zeta ** ((self.order // order) * power)

    def element(self, coeffs):
        coeffs = tuple(_canon(_Q(c)) for c in coeffs)
        if len(coeffs) != self.degree:
            raise ValueError("expected %d coefficients" % self.degree)
        return FieldElement(self, coeffs)

    def _reduce(self, prod):
        # prod has length <= 2*degree - 1
        d = self.degree
        out = list(prod[:d]) + [0] * (d - len(prod[:d]))
        for k in range(d, len(prod)):
            c = prod[k]
            if c:
                row = self._red[k - d]
                for i in range(d):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(_canon(c) for c in out)


def field(order):
    f = _FIELD_CACHE.get(order)
    if f is None:
        f = _FIELD_CACHE[order] = CyclotomicField(order)
    return f


# the operand check of the operators: `field(order)` caches the fields, so
# an element of the same field passes on one identity comparison, which
# __add__, __sub__, __mul__ and __eq__ make inline before calling it
_coerce = CyclotomicField.scalar


class FieldElement:
    """An element of Q(zeta_m) as a coefficient vector modulo Phi_m."""

    __slots__ = ("field", "coeffs")

    def __init__(self, fld, coeffs):
        self.field = fld
        self.coeffs = coeffs

    def __add__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = _coerce(self.field, other)
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            # an int result is canonical already, and it is the common case
            c = a[0] + b[0]
            return FieldElement(self.field, (c if type(c) is int else _canon(c),))
        return FieldElement(self.field, tuple(_canon(x + y) for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        a = self.coeffs
        if len(a) == 1:
            return FieldElement(self.field, (-a[0],))
        return FieldElement(self.field, tuple(-x for x in a))

    def __sub__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = _coerce(self.field, other)
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(self.field, other) - self

    def __mul__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = _coerce(self.field, other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        if n == 1:
            c = a[0] * b[0]
            return FieldElement(self.field, (c if type(c) is int else _canon(c),))
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return FieldElement(self.field, self.field._reduce(prod))

    def __rmul__(self, other):
        if type(other) is not int:
            return self * other
        # an int on the left, such as a structure constant, scales the
        # coefficients without being made an element first
        a = self.coeffs
        if len(a) == 1:
            c = a[0] * other
            return FieldElement(self.field, (c if type(c) is int else _canon(c),))
        return FieldElement(self.field, tuple(_canon(x * other) for x in a))

    def __truediv__(self, other):
        other = _coerce(self.field, other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(self.field, other) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.field.degree == 1:
            return FieldElement(self.field, (_div(1, self.coeffs[0]),))
        # extended Euclid on (self, Phi_m) over Q[x]
        r0 = list(self.field.modulus)
        r1 = list(self.coeffs)
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [], [1]
        while True:
            if len(r1) == 1:
                coeffs = [_div(c, r1[0]) for c in s1] + [0] * (self.field.degree - len(s1))
                return FieldElement(self.field, tuple(coeffs[: self.field.degree]))
            q, r = _polydivmod_q(r0, r1)
            s0, s1 = s1, _polysub_q(s0, _polymul_q(q, s1))
            r0, r1 = r1, r
            if not r1:
                raise ArithmeticError("element not invertible mod Phi_m")

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        if type(other) is FieldElement and other.field is self.field:
            return self.coeffs == other.coeffs
        if isinstance(other, (FieldElement, int, str)) or type(other).__name__ in _RATIONALS:
            return self.coeffs == _coerce(self.field, other).coeffs
        return NotImplemented

    def __hash__(self):
        # a rational element hashes as its rational value
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                z = "z%d" % self.field.order + ("^%d" % k if k > 1 else "")
                parts.append(("%s*" % c if c != 1 else "") + z)
        return " + ".join(parts) if parts else "0"


def _polydivmod_q(num, den):
    num = list(num)
    dd = len(den) - 1
    q = [0] * max(len(num) - dd, 0)
    for i in range(len(q) - 1, -1, -1):
        c = _div(num[i + dd], den[-1])
        q[i] = c
        if c:
            for j, y in enumerate(den):
                num[i + j] -= c * y
    num = [_canon(c) for c in num]
    while num and not num[-1]:
        num.pop()
    return q, num


def _polymul_q(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [_canon(c) for c in out]


def _polysub_q(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    out = [_canon(c) for c in out]
    while out and not out[-1]:
        out.pop()
    return out


QQ = field(1)


class _RawRationals:
    """The raw rationals (ints and canonical mpq/Fraction values) as a scalar
    kind beside the fields: the kind of the untwisted side (see linalg)."""

    zero, one = 0, 1

    def scalar(self, value):
        """An int, rational or "p/q" string as a canonical raw rational."""
        return value if type(value) is int else _canon(_Q(value))

    def __repr__(self):
        return "RAW"


RAW = _RawRationals()
