"""Cyclotomic field arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
