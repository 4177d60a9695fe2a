"""Chevalley-Eilenberg H^0/H^1, Ext ladders, characterization battery."""

import pytest

from emapalg.coordalg import EtaFunction
from emapalg.ema import InvariantAlgebra, TruncatedAlgebra
from emapalg.fields import QQ, RAW
from emapalg.homology import (
    CEComplex,
    characterization_battery,
    enumerate_phi,
    ext1_ladder,
)
from emapalg.liealg import LieAlgebra, build_sl, irreducible_module
from emapalg.linalg import Matrix, hom_action
from emapalg.repmod import (
    PsiFunction,
    direct_sum,
    evaluation_module,
    psi_gamma,
)
from emapalg.rootdata import Weight
from emapalg.weyl import head, twisted_weyl, weyl_module

from ce_oracle import FullComplex
from helpers import natural_module
from test_ema import pt, z2_setup


def _psi(fld, mapping):
    from emapalg.coordalg import Point

    return PsiFunction.of(
        {Point((fld.scalar(c),)): Weight(w) for c, w in mapping.items()}
    )


def _h0_h1(L, actions, vdim):
    """(H^0, H^1) of the Levi-relative complex, checked against the full
    complex of ce_oracle."""
    cx = CEComplex(L, actions, vdim)
    full = FullComplex(L, actions, vdim)
    assert (cx.h0_dim(), cx.h1()) == (full.h0_dim(), full.h1())
    return cx.h0_dim(), cx.h1()


def test_whitehead_vanishing_semisimple():
    # H^0 = H^1 = 0 for sl2 on V(2w)
    g = build_sl(2)
    mod = irreducible_module(g, Weight((2,)))
    assert _h0_h1(g, mod.actions, mod.dim) == (0, 0)


class _TableAlgebra(LieAlgebra):
    """A Lie algebra over QQ given by its nonzero brackets [x_i, x_j], i < j,
    with raw structure constants."""

    field = QQ

    def __init__(self, dim, brackets):
        self.dim = dim
        self._table = {}
        for (i, j), terms in brackets.items():
            self._table[(i, j)] = tuple(terms)
            self._table[(j, i)] = tuple((k, -c) for k, c in terms)

    def bracket_terms(self, i, j):
        return self._table.get((i, j), ())


def _trivial_h(L):
    """(H^0, H^1) of L on the one-dimensional trivial module."""
    zero = Matrix.from_triples(RAW, 1, 1, ())
    return _h0_h1(L, [zero] * L.dim, 1)


def test_abelian_h1():
    # two-dimensional abelian: H^1 = (L / [L, L])^* = L^*
    L = _TableAlgebra(2, {})
    L.check_jacobi(samples=None)
    assert _trivial_h(L) == (1, 2)


@pytest.mark.parametrize(
    "L, expected_h1",
    [
        # [x, y] = y: [L, L] = ky, so H^1 = 1; without the bracket term of
        # d1 it would read 2
        (_TableAlgebra(2, {(0, 1): [(1, 1)]}), 1),
        # Heisenberg [x, y] = z: H^1 = (L / kz)^*
        (_TableAlgebra(3, {(0, 1): [(2, 1)]}), 2),
        # sl2 is perfect
        (build_sl(2), 0),
    ],
    ids=["affine-line", "heisenberg", "sl2"],
)
def test_nonabelian_h1(L, expected_h1):
    L.check_jacobi(samples=None)
    assert _trivial_h(L) == (1, expected_h1)


def test_hom_module_dimension():
    g = build_sl(2)
    m = natural_module(g)
    # Hom(V, V) with (x.T) = rho(x) T - T rho(x), flattened row-major
    actions = [hom_action(a, a) for a in m.actions]
    assert {(a.nrows, a.ncols) for a in actions} == {(4, 4)}
    # invariants of Hom(V, V) = scalars (Schur)
    assert _h0_h1(g, actions, 4) == (1, 0)


def test_ext_ladder_weyl_extension():
    # Ext^1(V(2w), V(0)) over truncations: the Weyl module W(2w) is a
    # nontrivial extension, so each rung is at least 1
    g = build_sl(2)
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    v2 = evaluation_module(_psi(fld, {1: (2,)}), alg)
    v0 = evaluation_module(PsiFunction.of({}), alg)
    ladder = ext1_ladder(v2, v0, rungs=3)
    assert [e for e, _ in ladder.rungs] == [2, 3, 4]
    assert all(d >= 1 for d in ladder.dims)
    assert ladder.hom_dim == 0


def test_ext_ladder_self_extension_of_natural():
    # V(w) deforms along x tensor u (u the local coordinate), giving a
    # one-dimensional self-Ext at each depth
    g = build_sl(2)
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    v = evaluation_module(_psi(fld, {1: (1,)}), alg)
    ladder = ext1_ladder(v, v, rungs=2)
    assert ladder.dims == [1, 1]
    assert ladder.hom_dim == 1


def test_ext_ladder_trivial_trivial_vanishes():
    # the truncated algebra is perfect, so H^1 with trivial coefficients is 0
    g = build_sl(2)
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    v0 = evaluation_module(PsiFunction.of({}), alg)
    ladder = ext1_ladder(v0, v0, rungs=2)
    assert ladder.dims == [0, 0]
    assert ladder.hom_dim == 1


def test_ext_ladder_takes_truncation_modules_and_a_rung():
    # twisted modules are untwisted by the caller; no rung would leave Hom unread
    g, group = z2_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (2,)}))
    tw, w, _ = twisted_weyl(group, psi, [pt(fld, 1)])
    with pytest.raises(ValueError, match="over truncations"):
        ext1_ladder(tw, tw, rungs=1)
    with pytest.raises(ValueError, match="at least one rung"):
        ext1_ladder(w.module, w.module, rungs=0)


def test_enumerate_phi_counts():
    g, group = z2_setup()
    fld = g.field
    out = enumerate_phi(group, [pt(fld, 1)], 1, 1)
    assert len(out) == 2  # zero and omega-valued
    out2 = enumerate_phi(group, [pt(fld, 1)], 1, 2)
    assert len(out2) == 3


def test_battery_pass_on_twisted_weyl():
    g, group = z2_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (2,)}))
    tw, _, _ = twisted_weyl(group, psi, [pt(fld, 1)])
    rep = characterization_battery(tw, psi, weight_bound=2, rungs=3)
    assert rep.verdict == "PASS"
    assert rep.witness is None
    assert len(rep.candidates) == 2


def test_battery_untwists_its_module_once(monkeypatch):
    # the top constituent and every candidate are read off one untwist
    from emapalg import homology, repmod

    calls = []

    def counting(module, _untwist=repmod.untwist):
        calls.append(module)
        return _untwist(module)

    monkeypatch.setattr(repmod, "untwist", counting)
    monkeypatch.setattr(homology, "untwist", counting)
    g, group = z2_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (2,)}))
    tw, _, _ = twisted_weyl(group, psi, [pt(fld, 1)])
    assert characterization_battery(tw, psi, weight_bound=2, rungs=2).verdict == "PASS"
    assert len(calls) == 1


def test_battery_fails_on_head_alone():
    g, group = z2_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (2,)}))
    tw, _, _ = twisted_weyl(group, psi, [pt(fld, 1)])
    hd = evaluation_module(psi, tw.algebra)
    rep = characterization_battery(hd, psi, weight_bound=2, rungs=3)
    assert rep.verdict == "FAIL"
    assert rep.witness is not None


def test_battery_requires_maximal_weight():
    g, group = z2_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (1,)}))
    inv = InvariantAlgebra(g, group, EtaFunction.of({pt(fld, 1): 1}))
    mod = evaluation_module(psi, inv)
    wrong = psi_gamma(group, _psi(fld, {1: (2,)}))
    with pytest.raises(ValueError):
        characterization_battery(mod, wrong)


def test_battery_rejects_plain_algebra():
    g = build_sl(2)
    w = weyl_module(g, _psi(QQ, {1: (2,)}))
    with pytest.raises(ValueError):
        characterization_battery(w.module, _psi(QQ, {1: (2,)}))
