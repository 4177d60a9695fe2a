"""Scenario loading, scalar literal parsing, validators."""

import json
import os

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emapalg.coordalg import GammaGroup, Point
from emapalg.fields import QQ, RAW, field
from emapalg.liealg import integer_weight
from emapalg.scenario import (
    ScenarioError,
    format_scalar,
    load_scenario,
    parse_scalar,
    validation_passed,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _fixture(name):
    return os.path.join(FIXTURES, name)


def _data(name):
    with open(_fixture(name)) as fh:
        return json.load(fh)


def test_load_sl2():
    scn = load_scenario(_fixture("sl2_z2.json"))
    assert scn.name == "sl2_z2"
    assert scn.field.order == 2
    assert scn.group.size == 2
    assert validation_passed(scn)
    assert set(scn.points) == {"p1", "m1", "p2"}
    assert set(scn.psis) == {"psi2w", "psi2w_plain", "psiw", "psi_two_pt"}
    # equivariant extension doubled the support
    assert len(scn.psis["psi2w"].assignments) == 2
    assert len(scn.psis["psi2w_plain"].assignments) == 1


def test_load_sl3():
    scn = load_scenario(_fixture("sl3_flip.json"))
    assert scn.algebra.dim == 8
    assert validation_passed(scn)
    psi = scn.psis["psi_w1"]
    assert psi[scn.points["p1"]].coords == (1, 0)
    assert psi[scn.points["m1"]].coords == (0, 1)


def test_parse_scalar_forms():
    F = field(4)
    assert parse_scalar("3", F) == F.scalar(3)
    assert parse_scalar("-2/5", F) == -F.scalar(2) / F.scalar(5)
    assert parse_scalar("zeta", F) == F.zeta
    assert parse_scalar("zeta^2", F) == -F.one
    assert parse_scalar("-zeta^1", F) == -F.zeta
    assert parse_scalar(7, F) == F.scalar(7)


@pytest.mark.parametrize("bad", ["", "z", "zeta^x", "1/0", "2.5", None, []])
def test_parse_scalar_rejects(bad):
    F = field(4)
    with pytest.raises(ScenarioError):
        parse_scalar(bad, F)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([2, 4, 6]),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=9),
)
def test_format_parse_roundtrip_rationals(m, p, q):
    F = field(m)
    x = F.scalar(p) / F.scalar(q)
    assert parse_scalar(format_scalar(x), F) == x


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4, 6, 8]), st.integers(min_value=0, max_value=7))
def test_format_parse_roundtrip_roots(m, k):
    F = field(m)
    x = F.zeta**k
    assert parse_scalar(format_scalar(x), F) == x


def test_integral_values_report_alike_whatever_form_they_arrived_in():
    # the report code reads .numerator and .denominator off raw coefficients
    F = field(4)
    for form in (2, Fraction(4, 2), "6/3"):
        assert format_scalar(F.scalar(form)) == "2"
    assert format_scalar(parse_scalar("4/2", F)) == "2"
    assert format_scalar(parse_scalar("-6/4", F)) == "-3/2"
    assert format_scalar(F.element(["4/2", Fraction(1, 2)])) == "[2/1,1/2]"
    assert format_scalar((F.scalar(2) + F.zeta * 4) / 2) == "[1/1,2/1]"
    twos = (QQ.scalar("2"), QQ.scalar("4/2"), parse_scalar("4/2", QQ))
    keys = {Point((s,)).sort_key() for s in twos}
    assert keys == {((1, ((2, 1),)),)}
    assert Point((F.scalar("4/2"),)).sort_key() == ((4, ((2, 1), (0, 1))),)
    w = integer_weight(RAW.scalar("6/3"), 5)
    assert w == 2 and type(w) is int
    with pytest.raises(ValueError):
        integer_weight(RAW.scalar("5/2"), 5)


def test_malformed_inputs():
    for mutate in [
        lambda d: d.update(lie_type="B2"),
        lambda d: d.update(num_variables=0),
        lambda d: d.update(cyclotomic_order=3),  # not divisible by lcm 2
        lambda d: d["generators"][0].update(order=0),
        lambda d: d["generators"][0].update(scaling=["1", "1"]),
        lambda d: d["points"].update(bad=["0"]),
        lambda d: d["psi"].update(bad={"values": {"nope": [1]}}),
        lambda d: d["psi"].update(bad={"values": {"p1": [1, 2]}}),
        lambda d: d.update(description="unknown top-level key"),
        lambda d: d["generators"][0].update(period=2),
        lambda d: d["generators"][0]["automorphism"].update(grading=[1]),
        lambda d: d["psi"]["psiw"].update(weights={"p1": [1]}),
        # mappings must be objects, integers must be integers (not bool)
        lambda d: d.update(points=[1, 2]),
        lambda d: d.update(psi=[1]),
        lambda d: d["psi"]["psiw"].update(values=[1]),
        lambda d: d.update(generators=3),
        lambda d: d["psi"]["psiw"].update(values={"p1": ["x"]}),
        lambda d: d["psi"]["psiw"].update(values={"p1": [1.5]}),
        lambda d: d["psi"]["psiw"].update(values={"p1": [True]}),
        lambda d: d.update(num_variables=True),
        lambda d: d.update(cyclotomic_order=-2),
        lambda d: d["generators"][0].update(order=True),
        lambda d: d["generators"][0]["automorphism"].update(a=[1.5]),
        lambda d: d["generators"][0]["automorphism"].update(a=["1"]),
        lambda d: d["points"].update(p1=[True]),
    ]:
        data = _data("sl2_z2.json")
        mutate(data)
        with pytest.raises(ScenarioError):
            load_scenario(data=data)


def test_group_axiom_errors():
    # generator 0 has order 2 but declares 1 (its point scaling is made
    # trivial, so only the automorphism breaks the order); generator 1 scales
    # e_1 by -1 and does not commute with the flip of generator 0
    data = _data("sl3_flip.json")
    data["generators"][0]["order"] = 1
    data["generators"][0]["scaling"] = ["1"]
    data["generators"].append(
        {"order": 2, "scaling": ["1"], "automorphism": {"a": [1, 0], "zeta": "-1"}}
    )
    data["psi"] = {}
    scn = load_scenario(data=data)
    errors = [
        "generator 0: automorphism order does not divide 1",
        "generators 0 and 1 do not commute",
    ]
    assert scn.validation["group_axiom_errors"] == errors
    assert not validation_passed(scn)
    with pytest.raises(ValueError, match=errors[0]):
        GammaGroup(scn.algebra, scn.group.generators)


def test_point_scaling_order_error():
    # in Q(zeta_4) the scaling z -> zeta z has order 4, not the declared 2;
    # the automorphism and zeta still have order 2
    data = _data("sl2_z2.json")
    data["cyclotomic_order"] = 4
    data["generators"][0]["scaling"] = ["zeta"]
    scn = load_scenario(data=data)
    error = "generator 0: point scaling order does not divide 2"
    assert scn.validation["group_axiom_errors"] == [error]
    assert not validation_passed(scn)
    # the equivariant extension is skipped, so psi2w stays plain
    assert not scn.psis["psi2w"].equivariant
    with pytest.raises(ValueError, match=error):
        GammaGroup(scn.algebra, scn.group.generators)


def test_non_transversal_equivariant_psi_fails_validation():
    data = _data("sl2_z2.json")
    data["psi"]["bad"] = {"equivariant": True, "values": {"p1": [2], "m1": [2]}}
    scn = load_scenario(data=data)
    assert not validation_passed(scn)
    assert scn.validation["psi_equivariance"]["bad"] is False


def test_non_free_action_fails_validation():
    data = _data("sl2_z2.json")
    data["generators"][0]["scaling"] = ["1"]
    data["psi"] = {}
    scn = load_scenario(data=data)
    assert not validation_passed(scn)
    assert not scn.validation["free_action"]
    # the identity scaling fixes every point, so every named point is off
    # the free locus
    assert not scn.validation["x_star_ok"]
    assert scn.validation["x_star_violations"] == ["m1", "p1", "p2"]


def test_cyclotomic_override():
    data = _data("sl2_z2.json")
    data["cyclotomic_order"] = 4
    scn = load_scenario(data=data)
    assert scn.field.order == 4
    assert validation_passed(scn)


def test_point_name_fallback():
    scn = load_scenario(_fixture("sl2_z2.json"))
    fld = scn.field
    from emapalg.coordalg import Point

    assert scn.point_name(scn.points["p1"]) == "p1"
    assert scn.point_name(Point((fld.scalar(9),))) == "(9)"
