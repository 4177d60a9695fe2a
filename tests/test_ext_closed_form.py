"""Ext^1 between simple evaluation modules against its closed form.

At a smooth point p of an n-dimensional X, Ext^1(V_p(lam), V_p(mu)) over
g tensor A has dimension n [g tensor V(lam) : V(mu)], n being
dim (m_p / m_p^2)^* (Kodera, "Extensions between finite-dimensional simple
modules over a generalized current Lie algebra", Transform. Groups 15,
2010; Neher-Savage, arXiv:1103.4367, for equivariant map algebras with a
free action).  At two distinct points it is 0 when lam and mu are both
nonzero, and the trivial module V(0) is an evaluation module at every
point.  The multiplicity is computed here by the Brauer-Klimyk rule from
RootDatum.character, sharing no code with repmod.multiplicities; every rung
of ext1_ladder must equal the closed form.

Evaluation modules sit in jet degree 0, where the positive-degree actions
vanish, so their complexes never read the module terms of d1.  Those are
reached by the paper's characterization of local Weyl modules: Hom and
every Ext^1 rung from W(lam) into a simple evaluation module of lower
height vanish.

The twisted case goes through the category isomorphism: evaluation
modules over the invariant algebra of a fixture scenario, untwisted onto
the truncation at the orbit leaders, meet the same closed form."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emapalg.coordalg import EtaFunction, Point
from emapalg.ema import InvariantAlgebra, TruncatedAlgebra
from emapalg.fields import QQ
from emapalg.homology import ext1_ladder
from emapalg.liealg import build_sl
from emapalg.repmod import PsiFunction, evaluation_module, psi_gamma, untwist
from emapalg.rootdata import Weight
from emapalg.scenario import load_scenario
from emapalg.weyl import weyl_module

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def adjoint_tensor_multiplicity(rd, lam, mu):
    """[g tensor V(lam) : V(mu)] by Brauer-Klimyk: the sum, over the weights
    beta of the adjoint module with their multiplicities, of the sign of the
    Weyl group element taking lam + beta + rho into the dominant chamber,
    where it lands on mu + rho."""
    total = 0
    for beta, m in rd.character(rd.theta.coords).items():
        nu, sign = [a + b + 1 for a, b in zip(lam, beta)], 1
        while min(nu) < 0:
            i = nu.index(min(nu))
            nu = [x - nu[i] * a for x, a in zip(nu, rd.simple_roots[i].coords)]
            sign = -sign
        if 0 not in nu and [x - 1 for x in nu] == list(mu):
            total += sign * m
    return total


def test_brauer_klimyk_small_cases():
    # sl2: V(2) tensor V(l) = V(l + 2) + V(l) + V(l - 2) for l >= 2
    rd = build_sl(2).rd
    assert [adjoint_tensor_multiplicity(rd, (2,), (m,)) for m in range(6)] == [1, 0, 1, 0, 1, 0]
    assert [adjoint_tensor_multiplicity(rd, (1,), (m,)) for m in range(4)] == [0, 1, 0, 1]
    # sl3: the adjoint squared holds V(1,1) twice
    rd = build_sl(3).rd
    assert adjoint_tensor_multiplicity(rd, (1, 1), (1, 1)) == 2
    assert adjoint_tensor_multiplicity(rd, (1, 1), (0, 0)) == 1
    assert adjoint_tensor_multiplicity(rd, (1, 0), (2, 1)) == 1
    assert adjoint_tensor_multiplicity(rd, (1, 0), (0, 1)) == 0


def _points(nvars):
    coords = [(1, 2), (3, 1)] if nvars == 2 else [(1,), (2,)]
    return [Point(tuple(QQ.scalar(c) for c in cs)) for cs in coords]


_WEIGHTS = {
    1: [(k,) for k in range(4)],
    2: [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)],
    3: [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)],
}


@st.composite
def evaluation_pairs(draw):
    """(g, nvars, lam, mu, same point) over ranks 1-3 and 1-2 variables."""
    rank, nvars = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    lam, mu = draw(st.sampled_from(_WEIGHTS[rank])), draw(st.sampled_from(_WEIGHTS[rank]))
    return build_sl(rank + 1), nvars, lam, mu, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(evaluation_pairs())
def test_ladder_rungs_equal_the_closed_form(case):
    g, nvars, lam, mu, same = case
    p, q = _points(nvars)
    alg = TruncatedAlgebra(g, EtaFunction.of({p: 1} if same else {p: 1, q: 1}))
    m1 = evaluation_module(PsiFunction.of({p: Weight(lam)}), alg)
    m2 = evaluation_module(PsiFunction.of({p if same else q: Weight(mu)}), alg)
    ladder = ext1_ladder(m1, m2, rungs=3)
    if not same and any(lam) and any(mu):
        want = 0
    else:
        want = nvars * adjoint_tensor_multiplicity(g.rd, lam, mu)
    assert ladder.dims == [want] * 3


@pytest.mark.parametrize("nvars", [1, 2])
@pytest.mark.parametrize("lam", [(1,), (2,), (3,), (1, 0), (1, 1), (2, 0)])
def test_weyl_module_has_no_ext_into_lower_evaluation_modules(lam, nvars):
    g = build_sl(len(lam) + 1)
    p = _points(nvars)[0]
    w = weyl_module(g, PsiFunction.of({p: Weight(lam)})).module
    alg = TruncatedAlgebra(g, EtaFunction.of({p: 1}))
    lower = [mu for mu in _WEIGHTS[len(lam)] if g.rd.height(Weight(mu)) < g.rd.height(Weight(lam))]
    assert lower
    for mu in lower:
        ladder = ext1_ladder(w, evaluation_module(PsiFunction.of({p: Weight(mu)}), alg), rungs=2)
        assert (ladder.hom_dim, ladder.dims) == (0, [0, 0])


def _twisted_pairs():
    """(fixture, lam, mu, same point) parameters over the _WEIGHTS of sl2_z2
    and sl3_flip, with sl2_z2 also at two points of different orbits."""
    for name, rank, two_points in (("sl2_z2", 1, True), ("sl3_flip", 2, False)):
        for lam in _WEIGHTS[rank]:
            for mu in _WEIGHTS[rank]:
                for same in (True, False) if two_points else (True,):
                    tag = "%s-%s-%s-%s" % (name, lam, mu, "one" if same else "two")
                    yield pytest.param(name, lam, mu, same, id=tag.replace(" ", ""))


@pytest.mark.parametrize("name, lam, mu, same", _twisted_pairs())
def test_twisted_ladder_rungs_equal_the_closed_form(name, lam, mu, same):
    # equivariant evaluation modules over the invariant algebra, untwisted
    scn = load_scenario(os.path.join(FIXTURES, name + ".json"))
    p, q = scn.points["p1"], scn.points["p1" if same else "p2"]
    inv = InvariantAlgebra(scn.algebra, scn.group, EtaFunction.of(dict.fromkeys({p, q}, 1)))
    m1, m2 = (
        untwist(evaluation_module(psi_gamma(scn.group, PsiFunction.of({x: Weight(w)})), inv))
        for x, w in ((p, lam), (q, mu))
    )
    ladder = ext1_ladder(m1, m2, rungs=3)
    if not same and any(lam) and any(mu):
        want = 0
    else:
        want = adjoint_tensor_multiplicity(scn.algebra.rd, lam, mu)
    assert ladder.hom_dim == int(lam == mu and (same or not any(lam)))
    assert ladder.dims == [want] * 3
