"""Laurent functions, jets, group actions on the torus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emapalg.coordalg import (
    EtaFunction,
    GammaGroup,
    GroupGenerator,
    JetAlgebra,
    LaurentFunction,
    Point,
    PointAction,
    acts_freely,
    interpolate,
    jet_expand,
    jet_monomials,
)
from emapalg.fields import QQ, field
from emapalg.liealg import GAutomorphism, build_sl
from emapalg.rootdata import DiagramSymmetry

_nz = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
_exp = st.integers(min_value=-3, max_value=3)


def _pt(*cs):
    return Point(tuple(QQ.scalar(c) for c in cs))


def _evaluate(f, point):
    acc = f.field.zero
    for exp, c in f.terms.items():
        term = c
        for x, k in zip(point.coords, exp):
            term = term * x**k
        acc = acc + term
    return acc


def _xi_component(group, f, xi):
    """Isotypic projection by character averaging."""
    fld = group.algebra.field
    inv_n = fld.scalar(1) / fld.scalar(group.size)
    acc = LaurentFunction(f.nvars, {}, fld=fld)
    for gamma in group.elements:
        chi = group.character_value(xi, gamma).inverse()
        acc = acc + group.act_function(gamma, f).scale(chi)
    return acc.scale(inv_n)


def _z2_group(fld=None):
    fld = fld or field(2)
    g = build_sl(2, fld)
    aut = GAutomorphism(g, DiagramSymmetry.identity(1), (1,), -fld.one)
    gen = GroupGenerator(2, PointAction((-fld.one,)), aut, -fld.one)
    return GammaGroup(g, [gen])


def test_point_rejects_zero():
    with pytest.raises(ValueError):
        Point((QQ.zero,))


def _mono(a):
    return LaurentFunction.variable(1, 0, power=a)


def test_laurent_evaluate():
    f = _mono(2) - LaurentFunction.constant(1, QQ.scalar(3)) * _mono(-1)
    p = _pt(2)
    assert _evaluate(f, p).as_rational() == 4 - 1.5


@settings(max_examples=40, deadline=None)
@given(_exp, _exp, _nz)
def test_laurent_product_evaluates_pointwise(a, b, c):
    f, g = _mono(a), _mono(b) + LaurentFunction.constant(1, QQ.scalar(2))
    p = _pt(c)
    assert _evaluate(f * g, p) == _evaluate(f, p) * _evaluate(g, p)


def test_jet_monomials_order():
    assert jet_monomials(1, 3) == [(0,), (1,), (2,)]
    assert jet_monomials(2, 2) == [(0, 0), (0, 1), (1, 0)]


def _jet_multiply(jet, a, b):
    """Truncated product of two coefficient dicts in the jet algebra."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) < jet.order:
                c = c1 * c2
                s = out.get(e)
                out[e] = c if s is None else s + c
    return {e: c for e, c in out.items() if not c.is_zero()}


def test_jet_algebra_multiply_truncates():
    J = JetAlgebra(_pt(1), 2)
    u = {(1,): QQ.one}
    assert _jet_multiply(J, u, u) == {}
    J3 = JetAlgebra(_pt(1), 3)
    assert _jet_multiply(J3, u, u) == {(2,): QQ.one}


@settings(max_examples=40, deadline=None)
@given(_exp, _nz)
def test_jet_expand_constant_term_is_value(a, c):
    f = _mono(a) + LaurentFunction.constant(1, QQ.scalar(5))
    p = _pt(c)
    jet = jet_expand(f, p, 3)
    assert jet.get((0,), QQ.zero) == _evaluate(f, p)


def test_jet_expand_derivative():
    # f = t^2 at x: jet is x^2 + 2x u + u^2
    t = LaurentFunction.variable(1, 0)
    jet = jet_expand(t**2, _pt(3), 3)
    assert jet == {(0,): QQ.scalar(9), (1,): QQ.scalar(6), (2,): QQ.one}


def test_jet_expand_negative_power():
    # 1/t at x=2: 1/2 - u/4 + u^2/8
    jet = jet_expand(_mono(-1), _pt(2), 3)
    half = QQ.one / QQ.scalar(2)
    assert jet[(0,)] == half
    assert jet[(1,)] == -half / QQ.scalar(2)
    assert jet[(2,)] == half / QQ.scalar(4)


@settings(max_examples=30, deadline=None)
@given(_exp, _exp, _nz)
def test_jet_expand_is_multiplicative(a, b, c):
    f, g = _mono(a) + LaurentFunction.constant(1, QQ.one), _mono(b)
    p = _pt(c)
    J = JetAlgebra(p, 4)
    lhs = jet_expand(f * g, p, 4)
    rhs = _jet_multiply(J, jet_expand(f, p, 4), jet_expand(g, p, 4))
    assert lhs == rhs


def test_eta_function_basics():
    p, q = _pt(1), _pt(2)
    eta = EtaFunction.of({p: 2, q: 1})
    assert eta[p] == 2 and eta[q] == 1 and eta[_pt(3)] == 0
    assert eta.max_exponent() == 2
    assert eta.scale(3)[p] == 6


_eta = st.dictionaries(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3))


@settings(max_examples=40, deadline=None)
@given(_eta, _eta)
def test_eta_join_is_the_pointwise_max(m1, m2):
    eta1 = EtaFunction.of({_pt(c): e for c, e in m1.items()})
    eta2 = EtaFunction.of({_pt(c): e for c, e in m2.items()})
    join = eta1 | eta2
    assert eta1 <= join and eta2 <= join
    for c in range(1, 6):
        assert join[_pt(c)] == max(m1.get(c, 0), m2.get(c, 0))
    assert eta1 | eta1 == eta1


def test_eta_orbit_saturation():
    group = _z2_group()
    fld = group.algebra.field
    p = Point((fld.one,))
    eta = EtaFunction.of({p: 2})
    sat = eta.orbit_saturation(group)
    assert sat[p] == 2 and sat[Point((-fld.one,))] == 2


def test_group_free_action_and_transversal():
    group = _z2_group()
    fld = group.algebra.field
    free, viol = acts_freely(group)
    assert free and not viol
    p, mp = Point((fld.one,)), Point((-fld.one,))
    # a transversal set leads one orbit per point: p and -p share theirs
    assert len(group.orbits([p, mp])) == 1
    assert len(group.orbits([p, Point((fld.scalar(2),))])) == 2


def test_group_orbits_follow_the_listed_points():
    group = _z2_group()
    fld = group.algebra.field
    p1, m1, p2, m2 = (Point((fld.scalar(c),)) for c in (1, -1, 2, -2))
    # each orbit starts at its first listed point, in listed order; m1 comes
    # after its orbit-mate p1 and adds nothing; the unlisted -2 is in its orbit
    assert group.orbits([p2, p1, m1]) == [[p2, m2], [p1, m1]]
    assert group.orbits([m1, p1]) == [[m1, p1]]
    assert group.orbits([]) == []


def test_non_free_action():
    fld = field(2)
    g = build_sl(2, fld)
    aut = GAutomorphism(g, DiagramSymmetry.identity(1), (1,), -fld.one)
    gen = GroupGenerator(2, PointAction((fld.one,)), aut, -fld.one)
    group = GammaGroup(g, [gen])
    free, viol = acts_freely(group)
    assert not free and viol == [(1,)]


def test_jet_transport_factor():
    fld = field(2)
    pa = PointAction((-fld.one,))
    assert pa.jet_transport_factor((2,)) == fld.one
    assert pa.jet_transport_factor((3,)) == -fld.one


def test_xi_component_decomposes():
    group = _z2_group()
    fld = group.algebra.field
    t = LaurentFunction.variable(1, 0, fld=fld)
    f = t + t**2
    even = _xi_component(group, f, (0,))
    odd = _xi_component(group, f, (1,))
    assert even == t**2
    assert odd == t
    assert even + odd == f


def test_interpolate_matches_values():
    pts = [_pt(1), _pt(2), _pt(-1)]
    vals = [QQ.scalar(5), QQ.zero, QQ.scalar(7)]
    f = interpolate(list(zip(pts, vals)))
    for p, v in zip(pts, vals):
        assert _evaluate(f, p) == v


def test_interpolate_rejects_duplicates():
    with pytest.raises(ValueError):
        interpolate([(_pt(1), QQ.one), (_pt(1), QQ.zero)])


def test_group_element_algebra():
    group = _z2_group()
    assert group.identity == (0,)
    assert group.inverse((1,)) == (1,)
    assert len(group.elements) == 2
    assert group.character_value((1,), (1,)) == -group.algebra.field.one
