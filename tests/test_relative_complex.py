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
from emapalg.repmod import PsiFunction, direct_sum, evaluation_module
from emapalg.rootdata import Weight
from emapalg.scenario import load_scenario
from emapalg.weyl import twisted_weyl, weyl_module

from ce_oracle import FullComplex, full_hom_actions
from test_homology import _TableAlgebra

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


@contextlib.contextmanager
def against_oracle(checked=None):
    """Every CEComplex built inside the block checks its H^0 and H^1 against
    the full complex on the same algebra and module, whose actions the oracle
    builds at every basis element from the two modules the ladder extended
    to the rung.  Yields the list of the (H^0, H^1) pairs checked; each
    checked complex is also appended to `checked` when it is given."""
    seen = []
    extended = []  # every module the ladder extends to a rung, in order
    extend_to = homology.extend_to

    def recorded_extend_to(module, big):
        extended.append(extend_to(module, big))
        return extended[-1]

    class Checked(CEComplex):
        def h1(self):
            dims = (self.h0_dim(), super().h1())
            m1, m2 = extended[-2:]
            assert m1.algebra is m2.algebra is self.L
            actions = full_hom_actions(m1, m2)
            assert all(actions[i] == a for i, a in self.actions.items())
            full = FullComplex(self.L, actions, self.vdim)
            assert dims == (full.h0_dim(), full.h1())
            seen.append(dims)
            if checked is not None:
                checked.append(self)
            return dims[1]

    with mock.patch.object(homology, "CEComplex", Checked), mock.patch.object(
        homology, "extend_to", recorded_extend_to
    ):
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
        def __init__(self, *args):
            super().__init__(*args)
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
        ladder = ext1_ladder(m1, m2, rungs=rungs, base=base)
    assert len(seen) == rungs
    assert ladder.dims == [h1 for _, h1 in seen]


@pytest.mark.parametrize(
    "lam1, lam2, hom_s_nonzero",
    [((1, 1), (1, 1), True), ((2, 1), (0, 1), True), ((1, 1), (0, 0), False)],
    ids=["W(w,w)-ev(w,w)", "W(2w,w)-ev(0,w)", "W(w,w)-trivial"],
)
def test_two_variable_two_point_ladders_match_the_full_complex(lam1, lam2, hom_s_nonzero):
    # points of A^2: W(psi1) against an evaluation module over sl2 at (1, 2)
    # and (3, 1), on two rungs, each checked against the full complex
    g = build_sl(2)
    pts = [Point((QQ.scalar(1), QQ.scalar(2))), Point((QQ.scalar(3), QQ.scalar(1)))]
    psi1 = PsiFunction.of({p: Weight((c,)) for p, c in zip(pts, lam1)})
    psi2 = PsiFunction.of({p: Weight((c,)) for p, c in zip(pts, lam2)})
    evaluation = TruncatedAlgebra(g, EtaFunction.of({p: 1 for p in pts}))
    m1 = weyl_module(g, psi1).module
    m2 = evaluation_module(psi2, evaluation)
    checked = []
    with against_oracle(checked) as seen:
        ladder = ext1_ladder(m1, m2, rungs=2)
    assert ladder.dims == [h1 for _, h1 in seen] and len(seen) == 2
    assert all(len(c.L.points) == 2 and c.L.points[0].nvars == 2 for c in checked)
    if hom_s_nonzero:
        # Hom_s(n, V) != 0: some rung reaches a nonempty d1 and reads both
        # bracket tables
        assert any(c.d1.nrows and c.d1.ncols and c._e_brackets and c._n_brackets for c in checked)
    else:
        # no weight-zero cochain, so no bracket is read
        assert all(not c.cochains and not c._e_brackets and not c._n_brackets for c in checked)


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
