"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are dense rational coefficient vectors of length phi(m), taken
modulo the m-th cyclotomic polynomial.  Inversion goes through the
extended Euclidean algorithm on polynomials over Q.  All operations are
exact; mixing elements of different orders promotes both operands to the
least common order.
"""

from __future__ import annotations

import math
from functools import reduce

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as _Q

_Q0 = _Q(0)
_Q1 = _Q(1)


def rational(value, den=None):
    """Build the internal rational scalar from an int, a "p/q" string, or a pair."""
    if den is not None:
        return _Q(value, den)
    return _Q(value)


def _cyclotomic_poly(m):
    # Phi_m as a list of integer coefficients, low degree first.
    # Computed by dividing x^m - 1 by the product of Phi_d over proper divisors d.
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _polymul_int(den, _CYCLO_CACHE.setdefault(d, _cyclotomic_poly(d)))
    return _polydiv_exact_int(num, den)


_CYCLO_CACHE = {}


def _moebius_totient(n):
    """The Moebius function mu(n) and Euler's totient phi(n)."""
    mu, phi, p = 1, n, 2
    while n > 1:
        if p * p > n:
            p = n  # what is left is prime
        if n % p == 0:
            n //= p
            mu, phi = -mu, phi // p * (p - 1)
            if n % p == 0:
                mu = 0
            while n % p == 0:
                n //= p
        p += 1
    return mu, phi


def _polymul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _polydiv_exact_int(num, den):
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        q[i] = c
        if c:
            for j, y in enumerate(den):
                num[i + j] -= c * y
    if any(num):
        raise AssertionError("non-exact polynomial division")
    return q


_FIELD_CACHE = {}


class CyclotomicField:
    """The field Q(zeta_m), with elements reduced mod Phi_m."""

    def __init__(self, order):
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        self.order = order
        phi = _CYCLO_CACHE.setdefault(order, _cyclotomic_poly(order))
        self.modulus = [_Q(c) for c in phi]
        self.degree = len(phi) - 1
        # x^k mod Phi_m for k = degree .. 2*degree - 2, used during multiplication
        self._red = []
        cur = [-c for c in self.modulus[:-1]]  # x^degree (Phi_m is monic)
        for _ in range(self.degree - 1):
            self._red.append(tuple(cur))
            cur = [_Q0] + cur
            top = cur.pop()
            if top:
                for i in range(self.degree):
                    cur[i] -= top * self.modulus[i]
        self._red.append(tuple(cur))
        # Tr(zeta^k) / phi(m) = mu(m/g) / phi(m/g) with g = gcd(k, m) (a
        # Ramanujan sum).  The normalised trace of an element is the same in
        # every Q(zeta_M) that holds it, so it serves as the hash.
        self._trace_weights = tuple(
            _Q(*_moebius_totient(order // math.gcd(k, order))) for k in range(self.degree)
        )
        self.zero = FieldElement(self, (_Q0,) * self.degree)
        one = [_Q0] * self.degree
        one[0] = _Q1
        self.one = FieldElement(self, tuple(one))

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
        coeffs = [_Q0] * self.degree
        coeffs[1] = _Q1
        return FieldElement(self, tuple(coeffs))

    def scalar(self, value):
        """Embed an int, rational, or "p/q" string into the field."""
        if isinstance(value, FieldElement):
            if value.field.order == self.order:
                return value
            return embed(value, self)
        coeffs = [_Q0] * self.degree
        coeffs[0] = _Q(value)
        return FieldElement(self, tuple(coeffs))

    def root_of_unity(self, order, power=1):
        """zeta_order ** power; requires order | m."""
        if self.order % order != 0:
            raise ValueError(
                "field Q(zeta_%d) has no root of unity of order %d" % (self.order, order)
            )
        return self.zeta ** ((self.order // order) * power)

    def element(self, coeffs):
        coeffs = tuple(_Q(c) for c in coeffs)
        if len(coeffs) != self.degree:
            raise ValueError("expected %d coefficients" % self.degree)
        return FieldElement(self, coeffs)

    def _reduce(self, prod):
        # prod has length <= 2*degree - 1
        d = self.degree
        out = list(prod[:d]) + [_Q0] * (d - len(prod[:d]))
        for k in range(d, len(prod)):
            c = prod[k]
            if c:
                row = self._red[k - d]
                for i in range(d):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)


def field(order):
    f = _FIELD_CACHE.get(order)
    if f is None:
        f = _FIELD_CACHE[order] = CyclotomicField(order)
    return f


def embed(elt, target):
    """Embed an element of Q(zeta_m) into Q(zeta_M) for m | M."""
    m, M = elt.field.order, target.order
    if M % m != 0:
        raise ValueError("no embedding Q(zeta_%d) -> Q(zeta_%d)" % (m, M))
    z = target.zeta ** (M // m)
    acc = target.zero
    p = target.one
    for c in elt.coeffs:
        if c:
            acc = acc + FieldElement(target, tuple(c * x for x in p.coeffs))
        p = p * z
    return acc


def common_field(a, b):
    if a.field.order == b.field.order:
        return a, b
    m = (a.field.order * b.field.order) // math.gcd(a.field.order, b.field.order)
    f = field(m)
    return embed(a, f), embed(b, f)


class FieldElement:
    """An element of Q(zeta_m) as a coefficient vector modulo Phi_m."""

    __slots__ = ("field", "coeffs")

    def __init__(self, fld, coeffs):
        self.field = fld
        self.coeffs = coeffs

    def __add__(self, other):
        other = _coerce(other, self.field)
        if other.field is not self.field and other.field.order != self.field.order:
            a, b = common_field(self, other)
            return a + b
        return FieldElement(
            self.field, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other, self.field))

    def __rsub__(self, other):
        return _coerce(other, self.field) - self

    def __mul__(self, other):
        other = _coerce(other, self.field)
        if other.field.order != self.field.order:
            a, b = common_field(self, other)
            return a * b
        a, b = self.coeffs, other.coeffs
        n = len(a)
        if n == 1:
            return FieldElement(self.field, (a[0] * b[0],))
        prod = [_Q0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return FieldElement(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other, self.field)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other, self.field) / self

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
            return FieldElement(self.field, (_Q1 / self.coeffs[0],))
        # extended Euclid on (self, Phi_m) over Q[x]
        r0 = list(self.field.modulus)
        r1 = list(self.coeffs)
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [], [_Q1]
        while True:
            if len(r1) == 1:
                inv = _Q1 / r1[0]
                coeffs = [c * inv for c in s1] + [_Q0] * (self.field.degree - len(s1))
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
        if isinstance(other, (int, str)) or type(other).__name__ in ("mpq", "Fraction"):
            other = _coerce(other, self.field)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field.order != self.field.order:
            a, b = common_field(self, other)
            return a == b
        return self.coeffs == other.coeffs

    def __hash__(self):
        # equal elements of different fields hash alike (see _trace_weights),
        # and a rational element hashes as its rational value
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(sum(c * w for c, w in zip(self.coeffs, self.field._trace_weights) if c))

    def __bool__(self):
        return not self.is_zero()

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


def _coerce(value, fld):
    if isinstance(value, FieldElement):
        return value
    return fld.scalar(value)


def _polydivmod_q(num, den):
    num = list(num)
    dd = len(den) - 1
    q = [_Q0] * max(len(num) - dd, 0)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dd] / den[-1]
        q[i] = c
        if c:
            for j, y in enumerate(den):
                num[i + j] -= c * y
    while num and not num[-1]:
        num.pop()
    return q, num


def _polymul_q(a, b):
    if not a or not b:
        return []
    out = [_Q0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _polysub_q(a, b):
    n = max(len(a), len(b))
    out = [_Q0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    while out and not out[-1]:
        out.pop()
    return out


def lcm(values):
    return reduce(lambda a, b: a * b // math.gcd(a, b), values, 1)


QQ = field(1)
