"""The Levi-relative complex of emapalg.homology against the full
Chevalley-Eilenberg complex of ce_oracle on every ladder rung of the fixture
batteries and of hypothesis-drawn small psi, and the checks that must raise.
The generic (s = 0) and semisimple (n = 0) cases are in test_homology."""

import contextlib
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emapalg import homology
from emapalg.cli import main
from emapalg.coordalg import EtaFunction, Point
from emapalg.ema import TruncatedAlgebra
from emapalg.fields import QQ, RAW, _Q
from emapalg.homology import CEComplex, characterization_battery, ext1_ladder
from emapalg.liealg import FiniteModule, build_sl
from emapalg.linalg import Matrix
from emapalg.repmod import PsiFunction, direct_sum, evaluation_module, extend_to
from emapalg.rootdata import Weight
from emapalg.scenario import load_scenario
from emapalg.weyl import twisted_weyl, weyl_module

from ce_oracle import FullComplex, full_hom_actions
from test_homology import _TableAlgebra

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


@contextlib.contextmanager
def against_oracle(checked=None):
    """Every rung that ext1_ladder reports inside the block, those read off a
    complex built for an earlier rung included, has its H^0 (the ladder's
    Hom) and H^1 checked against the full complex built on its own on that
    rung: the truncation at the rung's exponent on the support of the join,
    both modules extended to it, and every basis element acting on Hom(M1,
    M2).  Every CEComplex built inside the block checks the actions it read
    against the oracle's, on the two modules the ladder last extended to its
    algebra, and is appended to `checked` when that is given.  Yields the
    list of the (H^0, H^1) pairs checked, one per reported rung."""
    seen = []
    extended = []  # every module the ladder extends to a rung, in order
    extend_to, ladder = homology.extend_to, homology.ext1_ladder

    def recorded_extend_to(module, big):
        extended.append(extend_to(module, big))
        return extended[-1]

    class Checked(CEComplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            m1, m2 = extended[-2:]
            assert m1.algebra is m2.algebra is self.L
            actions = full_hom_actions(m1, m2)
            assert all(actions[i] == a for i, a in self.actions.items())
            if checked is not None:
                checked.append(self)

    def checked_ladder(m1, m2, *args, **kwargs):
        out = ladder(m1, m2, *args, **kwargs)
        join = m1.algebra.eta | m2.algebra.eta
        for e, h1 in out.rungs:
            L = TruncatedAlgebra(m1.algebra.g, EtaFunction.of(dict.fromkeys(join.support(), e)))
            n1, n2 = extend_to(m1, L), extend_to(m2, L)
            full = FullComplex(L, full_hom_actions(n1, n2), m1.dim * m2.dim)
            assert (out.hom_dim, h1) == (full.h0_dim(), full.h1())
            seen.append((out.hom_dim, h1))
        return out

    with mock.patch.object(homology, "CEComplex", Checked), mock.patch.object(
        homology, "extend_to", recorded_extend_to
    ), mock.patch.object(homology, "ext1_ladder", checked_ladder):
        yield seen


def test_battery_demo_rungs_match_the_full_complex():
    scn = load_scenario(os.path.join(FIXTURES, "sl2_z2.json"))
    psi = scn.psis["psi2w"]
    tw, _, _ = twisted_weyl(scn.group, psi, [scn.points["p1"]])
    head = evaluation_module(psi, tw.algebra)
    padded = direct_sum(tw, evaluation_module(scn.psis["psiw"], tw.algebra))
    with against_oracle() as seen:
        verdicts = [
            characterization_battery(m, psi, weight_bound=2, rungs=3).verdict
            for m in (tw, head, padded)
        ]
    assert verdicts == ["PASS", "FAIL", "FAIL"]
    # the comparison covered rungs with H^1 = 1 and with H^0 = 1
    assert (0, 1) in seen and any(h0 == 1 for h0, _ in seen)


@pytest.mark.parametrize(
    "fixture, argv",
    [
        ("sl2_z2.json", ["ext", "psiw", "--rungs", "2", "--bound", "1"]),
        ("sl2_z2.json", ["battery", "psi2w", "--bound", "2"]),
        ("sl3_flip.json", ["battery", "psi_w1"]),
        ("sl3_stress.json", ["battery", "psi_w1w2_eq", "--bound", "1"]),
    ],
    ids=[
        "sl2_z2-ext-psiw", "sl2_z2-battery-psi2w", "sl3_flip-battery-psi_w1",
        "sl3_stress-battery-psi_w1w2_eq",
    ],
)
def test_cli_rungs_match_the_full_complex(fixture, argv, tmp_path):
    out = str(tmp_path / "out.json")
    checked = []
    with against_oracle(checked) as seen:
        code = main(argv[:1] + [os.path.join(FIXTURES, fixture)] + argv[1:] + ["--output", out])
    assert code == 0 and seen
    if fixture == "sl3_stress.json":
        # the sl3_flip rungs have no weight-zero cochain; these reach a
        # nonempty Levi-relative d1
        assert any(c.d1.nrows and c.d1.ncols for c in checked)


def test_ladder_rungs_hold_raw_rationals(tmp_path):
    # the untwisted modules and the structure constants are rational, so the
    # battery's rungs are raw: no matrix the complex row-reduces holds a
    # field element, and none mixes the two kinds
    built = []

    class Recorded(CEComplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    out = ["--output", str(tmp_path / "out.json")]
    with mock.patch.object(homology, "CEComplex", Recorded):
        for fixture, psi in (("sl3_flip.json", "psi_w1"), ("sl2_z2.json", "psi2w")):
            assert main(["battery", os.path.join(FIXTURES, fixture), psi] + out) == 0
    entries = [x for c in built for _, _, x in c.d1.nonzeros()]
    entries += [
        x
        for c in built
        for terms in (c._e_brackets, c._n_brackets)
        for triples in terms.values()
        for _, _, x in triples
    ]
    entries += [x for c in built for a in c.actions.values() for _, _, x in a.nonzeros()]
    assert entries and all(type(x) is int or type(x) is _Q for x in entries)
    assert all(c.d1.field is RAW for c in built)


def _pt(c):
    return Point((QQ.scalar(c),))


@st.composite
def ladder_cases(draw):
    """(m1, m2, base, rungs) over plain truncations: A1 with weights up to 2
    at one or two points, or A2 with w1 or w2 at one point; m1 a local Weyl
    or an evaluation module, m2 an evaluation module; exponents up to 3."""
    if draw(st.booleans()):
        g = build_sl(2)
        npts = draw(st.integers(1, 2))
        # weight 1 at a second point keeps a two-point Weyl module at exponent <= 3
        lam1 = [(draw(st.integers(1, 2)),)] + [(1,)] * (npts - 1)
        lam2 = [(draw(st.integers(0, 3 - npts)),) for _ in range(npts)]
    else:
        g = build_sl(3)
        lam1 = [draw(st.sampled_from([(1, 0), (0, 1)]))]
        lam2 = [draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))]
    pts = [_pt(c) for c in range(1, len(lam1) + 1)]
    psi1 = PsiFunction.of({p: Weight(w) for p, w in zip(pts, lam1)})
    psi2 = PsiFunction.of({p: Weight(w) for p, w in zip(pts, lam2)})
    evaluation = TruncatedAlgebra(g, EtaFunction.of({p: 1 for p in pts}))
    if draw(st.booleans()):
        m1 = weyl_module(g, psi1).module
    else:
        m1 = evaluation_module(psi1, evaluation)
    m2 = evaluation_module(psi2, evaluation)
    base = draw(st.integers(m1.algebra.eta.max_exponent(), 3))
    return m1, m2, base, draw(st.integers(1, 4 - base))


@settings(max_examples=40, deadline=None)
@given(ladder_cases())
def test_hypothesis_ladders_match_the_full_complex(case):
    m1, m2, base, rungs = case
    with against_oracle() as seen:
        ladder = homology.ext1_ladder(m1, m2, rungs=rungs, base=base)
    assert len(seen) == rungs
    assert ladder.dims == [h1 for _, h1 in seen]


@pytest.mark.parametrize(
    "lam1, lam2, hom_s_nonzero",
    [((1, 1), (1, 1), True), ((2, 1), (0, 1), True), ((1, 1), (0, 0), False)],
    ids=["W(w,w)-ev(w,w)", "W(2w,w)-ev(0,w)", "W(w,w)-trivial"],
)
def test_two_variable_two_point_ladders_match_the_full_complex(lam1, lam2, hom_s_nonzero):
    # points of A^2: W(psi1) against an evaluation module over sl2 at (1, 2)
    # and (3, 1), on two rungs, each checked against the full complex.  The
    # uncut complex of each rung is checked too: W(w,w) sits in jet degree 0,
    # so its cut complex keeps only the cochains of degree 1, on which d1
    # reads no bracket of n
    g = build_sl(2)
    pts = [Point((QQ.scalar(1), QQ.scalar(2))), Point((QQ.scalar(3), QQ.scalar(1)))]
    psi1 = PsiFunction.of({p: Weight((c,)) for p, c in zip(pts, lam1)})
    psi2 = PsiFunction.of({p: Weight((c,)) for p, c in zip(pts, lam2)})
    evaluation = TruncatedAlgebra(g, EtaFunction.of({p: 1 for p in pts}))
    m1 = weyl_module(g, psi1).module
    m2 = evaluation_module(psi2, evaluation)
    checked = []
    with against_oracle(checked) as seen:
        ladder = homology.ext1_ladder(m1, m2, rungs=2)
    assert ladder.dims == [h1 for _, h1 in seen] and len(seen) == 2
    for e, h1 in ladder.rungs:
        L = TruncatedAlgebra(g, EtaFunction.of(dict.fromkeys(pts, e)))
        uncut = CEComplex(L, full_hom_actions(extend_to(m1, L), extend_to(m2, L)), m1.dim * m2.dim)
        assert (uncut.h0_dim(), uncut.h1()) == (ladder.hom_dim, h1)
        checked.append(uncut)
    assert all(len(c.L.points) == 2 and c.L.points[0].nvars == 2 for c in checked)
    if hom_s_nonzero:
        # Hom_s(n, V) != 0: some rung reaches a nonempty d1 and reads both
        # bracket tables
        assert any(c.d1.nrows and c.d1.ncols and c._e_brackets and c._n_brackets for c in checked)
    else:
        # no weight-zero cochain, so no bracket is read
        assert all(not c.cochains and not c._e_brackets and not c._n_brackets for c in checked)


def _one_point_weyl(g, lam):
    return weyl_module(g, PsiFunction.of({_pt(1): Weight(lam)})).module


def _one_point_evaluation(g, lam):
    alg = TruncatedAlgebra(g, EtaFunction.of({_pt(1): 1}))
    return evaluation_module(PsiFunction.of({_pt(1): Weight(lam)}), alg)


def _hom_degrees(m1, m2):
    return [d2 - d1 for d2 in m2.jet_degrees() for d1 in m1.jet_degrees()]


def _rung_actions(m1, m2, e):
    L = TruncatedAlgebra(m1.algebra.g, EtaFunction.of({_pt(1): e}))
    return L, full_hom_actions(extend_to(m1, L), extend_to(m2, L))


@pytest.mark.parametrize("mu, h1", [(0, 0), (2, 0), (4, 4)])
def test_ladder_below_e0_matches_the_full_complex_rung_by_rung(mu, h1):
    # sl2 W(4w) at one point has top jet degree 4, so e0 = 6 lies above the
    # base 5: rungs 5 and 6 are built, and rung 7 is read off rung 6's complex
    g = build_sl(2)
    w = _one_point_weyl(g, (4,))
    assert max(w.jet_degrees()) == 4
    v = _one_point_evaluation(g, (mu,))
    checked = []
    with against_oracle(checked) as seen:
        ladder = homology.ext1_ladder(w, v, rungs=3)
    assert ladder.e0 == 6 and [e for e, _ in ladder.rungs] == [5, 6, 7]
    assert ladder.dims == [h1] * 3 and len(seen) == 3
    assert [len(c.L.jets[0].monomials) for c in checked] == [5, 6]
    if mu:
        # the cut drops cochains that the uncut complex of the rung keeps,
        # and leaves a d1 that reads the brackets of n
        L, actions = _rung_actions(w, v, 6)
        assert len(checked[1].cochains) < len(CEComplex(L, actions, w.dim * v.dim).cochains)
        assert all(c.d1.nrows and c.d1.ncols and c._n_brackets for c in checked)


def test_wrong_jet_degree_raises_the_bound_check():
    # W(3w) has V(3) in degree 0 and V(1) in degrees 1 and 2; the projection
    # onto the degree-2 V(1) spans part of V^s = Hom_s(W(3w), V(1)), and its
    # coboundary is nonzero on the degree-2 part of n.  Declaring W(3w) to
    # sit in degree 0 lowers the bound to 1, below that component
    g = build_sl(2)
    w = _one_point_weyl(g, (3,))
    v = _one_point_evaluation(g, (1,))
    L, actions = _rung_actions(w, v, 4)
    vdim = w.dim * v.dim
    cut = CEComplex(L, actions, vdim, degrees=_hom_degrees(w, v))
    full = FullComplex(L, actions, vdim)
    assert (cut.h0_dim(), cut.h1()) == (full.h0_dim(), full.h1())
    with pytest.raises(AssertionError, match="above the jet-degree bound"):
        CEComplex(L, actions, vdim, degrees=[0] * vdim)


def test_ungraded_module_builds_every_rung():
    # W(2w) in a basis that mixes its two weight-zero vectors, of jet degrees
    # 0 and 1: still a module with a diagonal Cartan action, but its actions
    # no longer shift a basis vector's jet degree, so nothing is cut and
    # every rung builds its own complex
    g = build_sl(2)
    w = _one_point_weyl(g, (2,))
    k, l = w.weights()[(0,)]
    assert w.jet_degrees()[k] != w.jet_degrees()[l]
    p = Matrix.from_triples(RAW, w.dim, w.dim, [(i, i, 1) for i in range(w.dim)] + [(l, k, 1)])
    actions = [p.matmul(a).matmul(p.inverse()) for a in w.actions]
    conj = FiniteModule(w.algebra, actions, cyclic=p.apply(w.cyclic))
    conj.check_bracket()
    assert conj.jet_degrees() is None
    checked = []
    with against_oracle(checked) as seen:
        ladder = homology.ext1_ladder(conj, conj, rungs=3)
    assert ladder.e0 is None and len(seen) == 3
    assert [len(c.L.jets[0].monomials) for c in checked] == [3, 4, 5]


def test_off_diagonal_cartan_action_raises_in_the_ladder():
    # the natural module conjugated by [[1, 1], [0, 1]] still represents sl2,
    # but h no longer acts diagonally; there is no fallback to the full complex
    g = build_sl(2)
    alg = TruncatedAlgebra(g, EtaFunction.of({_pt(1): 1}))
    nat = evaluation_module(PsiFunction.of({_pt(1): Weight((1,))}), alg)
    p = Matrix([[QQ.one, QQ.one], [QQ.zero, QQ.one]])
    conj = FiniteModule(alg, [p.matmul(a).matmul(p.inverse()) for a in nat.actions])
    conj.check_bracket()
    with pytest.raises(ValueError, match="not diagonal"):
        ext1_ladder(conj, conj, rungs=1)


def test_off_diagonal_cartan_bracket_on_n_raises():
    # x0 as a "Cartan element" with [x0, x1] = x2: not diagonal on n
    L = _TableAlgebra(3, {(0, 1): [(2, 1)]})
    L.levi_split = lambda: ([0], [], [1, 2])
    zero = Matrix.from_triples(RAW, 1, 1, ())
    with pytest.raises(ValueError, match="not diagonal on n"):
        CEComplex(L, [zero] * 3, 1)


def test_truncation_levi_split():
    g = build_sl(3)
    alg = TruncatedAlgebra(g, EtaFunction.of({_pt(1): 2, _pt(2): 1}))
    cartan, raising, nil = alg.levi_split()
    # s = g tensor 1 at both points: 2 Cartan and 2 simple raising elements each
    assert len(cartan) == len(raising) == 4
    assert nil == [k for k, (_, _, mono) in enumerate(alg.basis) if any(mono)]
    assert len(nil) == g.dim
