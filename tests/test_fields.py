"""Cyclotomic field arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emapalg import fields
from emapalg.fields import QQ, field


def test_field_is_cached():
    assert field(4) is field(4)
    assert field(1) is QQ


def test_degrees():
    # phi(m) for m = 1, 2, 3, 4, 6, 8, 12
    for m, deg in [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2), (8, 4), (12, 4)]:
        assert field(m).degree == deg


def test_zeta_order():
    for m in (2, 3, 4, 6, 8):
        F = field(m)
        z = F.zeta
        assert z**m == F.one
        for k in range(1, m):
            assert z**k != F.one


def test_root_of_unity():
    F = field(12)
    assert F.root_of_unity(4) ** 4 == F.one
    assert F.root_of_unity(4) ** 2 == -F.one
    assert F.root_of_unity(6, 3) == -F.one
    with pytest.raises(ValueError):
        F.root_of_unity(5)


def test_rational_detection():
    F = field(4)
    x = F.scalar(3) / F.scalar(7)
    assert x.is_rational() and x.as_rational() == Fraction(3, 7)
    assert not F.zeta.is_rational()


def test_inverse_against_product():
    F = field(8)
    x = F.zeta + F.scalar(2)
    assert x * x.inverse() == F.one
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_mixing_fields_raises():
    x, y = field(4).zeta, field(8).zeta
    for op in (
        lambda: x + y,
        lambda: x * y,
        lambda: x / y,
        lambda: x == y,
        lambda: field(4).scalar(y),
    ):
        with pytest.raises(ValueError):
            op()


def test_operators_coerce_only_foreign_operands(monkeypatch):
    # an element of the same field skips the operand check; an element of
    # another field still raises, and ints, Fractions and "p/q" strings
    # still coerce
    calls = []
    coerce = fields._coerce
    monkeypatch.setattr(
        fields, "_coerce", lambda fld, value: calls.append(value) or coerce(fld, value)
    )
    F = field(4)
    x, y = F.zeta, F.scalar(3)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x == y):
        op()
    assert calls == []
    z8 = field(8).zeta
    for op in (lambda: x + z8, lambda: x - z8, lambda: x * z8, lambda: x == z8):
        with pytest.raises(ValueError):
            op()
    values = (2, Fraction(1, 2), "-3/4")
    for value in values:
        q = F.scalar(value)
        assert x + value == x + q and x - value == x - q and x * value == x * q
        assert q == value
    assert calls == [z8] * 4 + [v for v in values for _ in range(4)]


def test_int_times_element_scales_without_coercion(monkeypatch):
    # a structure constant on the left multiplies without being lifted, and
    # the product's coefficients stay canonical
    calls = []
    coerce = fields._coerce
    monkeypatch.setattr(
        fields, "_coerce", lambda fld, value: calls.append(value) or coerce(fld, value)
    )
    F = field(8)
    x = F.element([Fraction(1, 2), 3, 0, Fraction(-3, 4)])
    for c in (4, -8, 0):
        y = c * x
        assert y == x * F.scalar(c)
        assert all(type(v) is int for v in y.coeffs)
    assert calls == []


_scalars = st.integers(min_value=-9, max_value=9)


def _elt(F, coeffs):
    acc = F.zero
    z = F.one
    for c in coeffs:
        acc = acc + F.scalar(c) * z
        z = z * F.zeta
    return acc


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 6, 8]),
    st.lists(_scalars, min_size=1, max_size=4),
    st.lists(_scalars, min_size=1, max_size=4),
    st.lists(_scalars, min_size=1, max_size=4),
)
def test_ring_axioms(m, a, b, c):
    F = field(m)
    x, y, z = _elt(F, a), _elt(F, b), _elt(F, c)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x - x == F.zero
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 6]), st.lists(_scalars, min_size=1, max_size=3))
def test_pow_matches_repeated_product(m, a):
    F = field(m)
    x = _elt(F, a)
    acc = F.one
    for k in range(5):
        assert x**k == acc
        acc = acc * x


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
    st.lists(_scalars, min_size=1, max_size=4),
    st.lists(_scalars, min_size=1, max_size=4),
)
def test_equal_elements_hash_alike(m, a, b):
    F = field(m)
    x, y = _elt(F, a), _elt(F, b)
    x2 = (x + y) - y  # the same value, reached another way
    for u, v in ((x, x2), (x, y), (x, F.scalar(a[0]))):
        if u == v:
            assert hash(u) == hash(v)
    assert x == x2 and {x2: 1}.get(x) == 1
    assert hash(F.scalar(a[0])) == hash(Fraction(a[0]))
    assert {F.scalar(a[0]): 1}.get(Fraction(a[0])) == 1


# Canonical coefficients: an integral value is a Python int, any other value
# a _Q with denominator != 1; never a float or a bool.

_ORDERS = [1, 2, 3, 4, 5, 8, 12]
_values = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


def _is_canonical(x):
    return all(
        type(c) is int or (type(c) is fields._Q and c.denominator != 1)
        for c in x.coeffs
    )


def _ref_mul(a, b, modulus):
    # product of two Fraction coefficient vectors, reduced mod the monic Phi_m
    d = len(modulus) - 1
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += Fraction(x) * Fraction(y)
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        for i, y in enumerate(modulus):
            prod[k - d + i] -= c * y
    return tuple(prod[:d])


def _fracs(x):
    return tuple(Fraction(c) for c in x.coeffs)


def _vec(F, data):
    return [data.draw(_values) for _ in range(F.degree)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_ORDERS), st.data())
def test_results_have_canonical_coefficients(m, data):
    F = field(m)
    a, b = _vec(F, data), _vec(F, data)
    x, y = F.element(a), F.element(b)
    one = tuple(Fraction(int(i == 0)) for i in range(F.degree))
    results = [
        (x + y, tuple(Fraction(p) + Fraction(q) for p, q in zip(a, b))),
        (x - y, tuple(Fraction(p) - Fraction(q) for p, q in zip(a, b))),
        (x * y, _ref_mul(a, b, F.modulus)),
        (x ** 2, _ref_mul(a, a, F.modulus)),
        (x, tuple(Fraction(c) for c in a)),
    ]
    if not y.is_zero():
        # x / y and y^-1 are checked through the product that defines them
        q, inv = x / y, y.inverse()
        results += [(q, None), (inv, None), (y ** -2, None)]
        assert _ref_mul(_fracs(q), b, F.modulus) == tuple(Fraction(c) for c in a)
        assert _ref_mul(_fracs(inv), b, F.modulus) == one
        assert _ref_mul(_fracs(y ** -2), _ref_mul(b, b, F.modulus), F.modulus) == one
    for r, ref in results:
        assert _is_canonical(r), r.coeffs
        if ref is not None:
            assert _fracs(r) == ref
    v = data.draw(_values)
    for form in (v, Fraction(v), "%d/%d" % (v.numerator, v.denominator)):
        s = F.scalar(form)
        assert _is_canonical(s)
        assert _fracs(s) == (Fraction(v),) + (Fraction(0),) * (F.degree - 1)


@pytest.mark.parametrize("m", _ORDERS)
def test_equal_integral_forms_compare_and_hash_alike(m):
    F = field(m)
    forms = (2, Fraction(4, 2), "6/3")
    pad = [0] * (F.degree - 1)
    elts = [F.scalar(f) for f in forms] + [F.element([f] + pad) for f in forms]
    for x in elts:
        assert type(x.coeffs[0]) is int and _is_canonical(x)
        assert {y: 1 for y in elts} == {x: 1}
        for f in forms:
            assert x == f and x == F.scalar(f)
        assert hash(x) == hash(2) == hash(Fraction(2))
        assert {2: "a"}.get(x) == "a" and {x: "b"}.get(Fraction(4, 2)) == "b"
