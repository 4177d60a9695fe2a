"""Local Weyl modules: certified construction, twisting, tensor structure."""

import ast
import copy
import itertools
import os
import subprocess
import sys
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emapalg.coordalg import EtaFunction
from emapalg.ema import TruncatedAlgebra
from emapalg.fields import QQ, RAW, FieldElement, _div, field
from emapalg.liealg import FiniteModule, build_sl, irreducible_module
from emapalg.linalg import Matrix, Subspace, linear_combination, saturate
from emapalg.repmod import (
    PsiFunction,
    is_isomorphic,
    joint_weights,
    multiplicities,
    psi_gamma,
    quotient_module,
    untwist,
)
from emapalg.rootdata import Weight
from emapalg.scenario import load_scenario
from emapalg.weyl import (
    CertificationError,
    _Straightener,
    _build_once,
    _generators,
    _maximal_submodule,
    _push_down_seeds,
    _truncation,
    check_choice_independence,
    check_gamma_twist,
    head,
    hw_quotient_check,
    tensor_check,
    twisted_weyl,
    weyl_dim_bound,
    weyl_module,
)

from helpers import freudenthal_mults, one_more_seed_past_the_interval
from sl2_oracle import weyl_dim_sl2, weyl_weight_dims_sl2
from test_ema import flip_setup, pt, z2_setup

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _psi(fld, mapping):
    from emapalg.coordalg import Point

    return PsiFunction.of(
        {Point((fld.scalar(c),)): Weight(w) for c, w in mapping.items()}
    )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sl2_dims_match_oracle(m):
    g = build_sl(2)
    w = weyl_module(g, _psi(QQ, {1: (m,)}))
    assert w.dim == weyl_dim_sl2(m)
    assert w.certificate["buffer+1"] == w.dim
    assert w.certificate["N+1"] == w.dim
    assert w.certificate["reversed"] == w.dim


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sl2_dims_at_a_point_of_the_plane_are_catalan_numbers(m):
    """dim W(m omega) of sl2 tensor C[x, y] at one point is the Catalan number
    C_{m+1} = binom(2m + 2, m + 1) / (m + 2), after Feigin-Loktev,
    "Multi-dimensional Weyl modules and symmetric functions", Comm. Math.
    Phys. 251 (2004).  The exact statement there was not checked offline;
    the numbers here come from the formula, not from recorded outputs."""
    scn = load_scenario(FIXTURES / "sl2_plane.json")
    w = weyl_module(scn.algebra, scn.psis["psi_%sw" % ("" if m == 1 else m)])
    assert w.dim == comb(2 * m + 2, m + 1) // (m + 2)
    for entry in ("buffer+1", "N+1", "reversed"):
        assert w.certificate[entry] == w.dim


def test_sl2_weight_layers_match_oracle():
    g = build_sl(2)
    for m in (2, 3):
        w = weyl_module(g, _psi(QQ, {1: (m,)}))
        layers = weyl_weight_dims_sl2(m)
        # h-weight m - 2d layer of W equals the oracle's degree-d layer
        table = joint_weights(w.module)
        for d, dim in layers.items():
            if dim:
                assert table[(Weight((m - 2 * d,)),)] == dim


def test_weyl_w_equals_irreducible_for_fundamental():
    g = build_sl(2)
    w = weyl_module(g, _psi(QQ, {1: (1,)}))
    assert w.dim == irreducible_module(g, Weight((1,))).dim == 2


def test_sl3_plane_fundamental_weyl_module_is_the_irreducible():
    # omega_1 is minuscule: every weight of W(omega_1) lies in the Weyl orbit
    # of omega_1 with multiplicity 1, so at a point of the plane, as on the
    # line, W(omega_1) = V(omega_1) of dimension 3.  The twisted module of the
    # equivariant omega_1 is its twist
    scn = load_scenario(FIXTURES / "sl3_plane.json")
    w = weyl_module(scn.algebra, scn.psis["psi_w1"])
    assert w.dim == irreducible_module(scn.algebra, Weight((1, 0))).dim == 3
    for entry in ("buffer+1", "N+1", "reversed"):
        assert w.certificate[entry] == w.dim
    point = scn.points["p1"]
    tw, _, _ = twisted_weyl(scn.group, scn.psis["psi_w1_eq"], [point])
    assert tw.dim == 3


@pytest.mark.parametrize("name, dim", [("psi_w1w2", 10), ("psi_2w1", 12)])
def test_sl3_plane_weyl_dimensions_stay_as_recorded(name, dim):
    # regression values, recorded before the cap-0 build; no closed form
    # for a point of the plane is checked here
    scn = load_scenario(FIXTURES / "sl3_plane.json")
    w = weyl_module(scn.algebra, scn.psis[name])
    assert w.dim == dim
    for entry in ("buffer+1", "N+1", "reversed"):
        assert w.certificate[entry] == dim


def test_weyl_dim_bound_dominates():
    g = build_sl(2)
    for m in (1, 2, 3):
        psi = _psi(QQ, {1: (m,)})
        assert weyl_dim_bound(g, psi) >= weyl_module(g, psi).dim


@st.composite
def _bound_cases(draw):
    """(n, psi): sl_n for n = 2..4 at one or two points of one or two
    variables, each weight small enough for the straightener to enumerate
    its monomials quickly."""
    n = draw(st.integers(2, 4))
    nvars = draw(st.integers(1, 2))
    budget = {2: 3, 3: 2, 4: 1}[n]  # the largest coordinate sum of a weight
    weight = st.lists(st.integers(0, budget), min_size=n - 1, max_size=n - 1).filter(
        lambda c: 0 < sum(c) <= budget
    )
    from emapalg.coordalg import Point

    points = [
        Point(tuple(QQ.scalar(k + j + 1) for j in range(nvars)))
        for k in range(draw(st.integers(1, 2)))
    ]
    return n, PsiFunction.of({p: Weight(tuple(draw(weight))) for p in points})


@settings(max_examples=40, deadline=None)
@given(_bound_cases())
def test_weyl_dim_bound_counts_the_enumerated_monomials(case):
    # the bound is a count; the straightener's enumeration at the builds'
    # cap 0, which lists nothing past the interval, is the oracle
    n, psi = case
    g = build_sl(n)
    st = _Straightener(_truncation(g, psi), psi, 0)
    assert weyl_dim_bound(g, psi) == len(st.monomials) == st.n_low


def test_weyl_multiplicities():
    g = build_sl(2)
    w = weyl_module(g, _psi(QQ, {1: (2,)}))
    mults = multiplicities(w.module)
    assert mults == {_psi(QQ, {1: (2,)}): 1, PsiFunction.of({}): 1}


def test_weyl_rejects_zero_psi():
    g = build_sl(2)
    with pytest.raises(ValueError):
        weyl_module(g, PsiFunction.of({}))


def test_sl3_fundamental_weyl():
    g = build_sl(3)
    w = weyl_module(g, _psi(QQ, {1: (1, 0)}))
    assert w.dim == 3


def test_head_of_w2():
    g = build_sl(2)
    w = weyl_module(g, _psi(QQ, {1: (2,)}))
    hd = head(w.module)
    assert hd.dim == 3
    assert multiplicities(hd) == {_psi(QQ, {1: (2,)}): 1}


def test_head_refuses_an_algebra_without_cartan_elements():
    # an invariant algebra names no Levi split, so there are no weights to
    # separate the top line by; head must not quietly return the module
    g, group = z2_setup()
    psi = psi_gamma(group, _psi(g.field, {1: (2,)}))
    tw, _, _ = twisted_weyl(group, psi, [pt(g.field, 1)])
    with pytest.raises(ValueError, match="Cartan"):
        head(tw)


def test_hw_quotient_check():
    g = build_sl(2)
    w = weyl_module(g, _psi(QQ, {1: (2,)}))
    psi, witness = hw_quotient_check(w.module)
    assert psi == _psi(QQ, {1: (2,)})
    assert witness is not None
    assert witness.rank() == w.dim


def _fixed_point_maximal_submodule(module):
    """The greatest submodule inside the span of the images of op - c over
    the Cartan operators op, c the cyclic vector's eigenvalue: the subspace
    loop U <- {v in U : op(v) in U for every op} run until it is stable."""
    fld, n = module.field, module.dim
    cart = [module.actions[i] for i in module.algebra.levi_split()[0]]
    cur = Subspace(n, (), fld=fld)
    ident = Matrix.identity(fld, n)
    for op in cart:
        k = min(module.cyclic)
        c = _div(op.apply(module.cyclic).get(k, 0), module.cyclic[k])
        shifted = Matrix.combination(fld, n, n, [(fld.one, op), (-c, ident)])
        for j in range(n):
            cur.add_vector(shifted.column(j))
    while cur.dim:
        basis = cur.basis
        cols = []
        for b in basis:
            col = {}
            for t, op in enumerate(module.actions):
                col.update((t * n + j, x) for j, x in cur.reduce(op.apply(b)).items())
            cols.append(col)
        ker = Matrix.from_columns(fld, len(module.actions) * n, cols).nullspace()
        if ker.dim == cur.dim:
            break
        vecs = [linear_combination((c, basis[k]) for k, c in kv.items()) for kv in ker.basis]
        cur = Subspace(n, vecs, fld=fld)
    return cur


@pytest.mark.parametrize(
    "n,mapping",
    [
        (2, {1: (2,)}),
        (2, {1: (3,)}),
        (3, {1: (1, 1)}),
        (3, {1: (2, 0)}),
        (2, {1: (2,), 2: (1,)}),
    ],
)
def test_head_by_dual_saturation_matches_the_fixed_point_loop(n, mapping):
    w = weyl_module(build_sl(n), _psi(QQ, mapping))
    sub = _maximal_submodule(w.module)
    assert sub == _fixed_point_maximal_submodule(w.module)
    assert w.dim - sub.dim == prod(
        build_sl(n).rd.weyl_dim(Weight(lam)) for lam in mapping.values()
    )


def test_hw_quotient_check_refuses_a_non_integer_weight():
    # h tensor 1 acts on a line by 5/2: no integer weight to read psi from
    g = build_sl(2)
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(QQ, 1): 1}))
    zero = Matrix.from_triples(QQ, 1, 1, ())
    actions = [zero] * alg.dim
    actions[alg.index[(0, g.h(0), (0,))]] = Matrix.from_triples(
        QQ, 1, 1, [(0, 0, QQ.scalar("5/2"))]
    )
    with pytest.raises(ValueError, match="not an integer weight"):
        hw_quotient_check(FiniteModule(alg, actions, cyclic={0: QQ.one}))


def test_tensor_check_untwisted():
    g = build_sl(2)
    res = tensor_check(g, _psi(QQ, {1: (1,)}), _psi(QQ, {2: (1,)}))
    assert res["untwisted"]
    assert res["dim_product"] == res["dim_joint"] == 4


def test_twisted_weyl_sl2():
    g, group = z2_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (2,)}))
    tw, w, inv = twisted_weyl(group, psi, [pt(fld, 1)])
    assert tw.dim == w.dim == 4
    back = untwist(tw)
    assert back.actions == w.module.actions


def test_twisted_weyl_sl3():
    g, group = flip_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (1, 0)}))
    tw, w, _ = twisted_weyl(group, psi, [pt(fld, 1)])
    assert tw.dim == w.dim == 3


def test_choice_independence_sl2():
    g, group = z2_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (2,)}))
    assert check_choice_independence(group, psi)


def test_gamma_twist_sl2():
    g, group = z2_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (2,)}))
    assert check_gamma_twist(group, psi, [pt(fld, 1)], (1,))


def test_gamma_twist_sl3():
    g, group = flip_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (1, 0)}))
    assert check_gamma_twist(group, psi, [pt(fld, 1)], (1,))


def test_isomorphism_checks_raise_when_inconclusive(monkeypatch):
    import emapalg.weyl

    monkeypatch.setattr(emapalg.weyl, "is_isomorphic", lambda m1, m2: (None, None))
    g, group = z2_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (2,)}))
    with pytest.raises(RuntimeError):
        check_choice_independence(group, psi)
    with pytest.raises(RuntimeError):
        check_gamma_twist(group, psi, [pt(fld, 1)], (1,))
    with pytest.raises(RuntimeError):
        tensor_check(build_sl(2), _psi(QQ, {1: (1,)}), _psi(QQ, {2: (1,)}))


def test_certificate_structure():
    g = build_sl(2)
    w = weyl_module(g, _psi(QQ, {1: (2,)}))
    assert w.certificate["relations"] == "verified"
    assert w.certificate["bracket"] == "verified"
    assert w.certificate["cyclic"] is True
    assert w.certificate["weights_in_interval"] is True


def _exhaustive_seeds(alg, st):
    """Push-downs of every monomial outside the interval by every basis
    element that reach the interval, restricted to it."""
    seeds = []
    for j in range(st.n_low, len(st.monomials)):
        for ai in range(alg.dim):
            state = st.act(ai, j)
            if any(k < st.n_low for k in state):
                seeds.append({k: c for k, c in state.items() if k < st.n_low})
    return seeds


def _unpruned_operator_matrix(st, ai, n):
    """The action of basis element ai on the first n normal monomials modulo
    the others, from every one of those monomials."""
    triples = []
    for j in range(n):
        for k, c in st.act(ai, j).items():
            if k < n:
                triples.append((k, j, c))
    return Matrix.from_triples(st.field, n, n, triples)


def _two_variable_psi(lam):
    from emapalg.coordalg import Point

    return PsiFunction.of({Point((QQ.scalar(1), QQ.scalar(2))): Weight(lam)})


_SEED_PSIS = [
    pytest.param(2, _psi(QQ, {1: (3,)}), id="A1-3w"),
    pytest.param(3, _psi(QQ, {1: (1, 1)}), id="A2-w1+w2"),
    pytest.param(2, _psi(QQ, {1: (2,), 2: (1,)}), id="A1-2w@a+w@b"),
    pytest.param(2, _two_variable_psi((2,)), id="A1-2w@(a,b)"),
]
_SEED_CASES = pytest.mark.parametrize("n, psi", _SEED_PSIS)


def _straighten(g, psi, buffer_extra=0, n_extra=0, reverse_order=False):
    """The truncation of a build and its straightener, at the build's excess
    cap buffer_extra, as weyl_module and its rebuilds make them."""
    alg = _truncation(g, psi, n_extra)
    return alg, _Straightener(alg, psi, buffer_extra, reverse_order=reverse_order)


def _assert_seeds_generate_the_relations(alg, st, reverse_order=False):
    # the head-tail seeds e_i x 1_p on excess 1 (at cap 0 only those with a
    # tail inside the interval), closed under the generators, span the same
    # relation space as every push-down closed under every basis element.
    # The push-downs come from a straightener at excess cap + ht(theta), so
    # that they also start from monomials the builds never see: no basis
    # element lowers the excess by more than ht(theta)
    rd = alg.g.rd
    wide = _Straightener(
        alg, st.psi, st.cap + int(rd.height(rd.theta)), reverse_order=reverse_order
    )
    n = st.n_low
    assert wide.n_low == n and wide.monomials[:n] == st.monomials[:n]
    seeds = _push_down_seeds(alg, st)
    exhaustive = _exhaustive_seeds(alg, wide)
    assert all(seed in exhaustive for seed in seeds)
    gens = [st.operator_matrix(ai) for ai in _generators(alg)]
    every = [_unpruned_operator_matrix(wide, ai, n) for ai in range(alg.dim)]
    assert saturate(Subspace(n, seeds, fld=QQ), gens) == saturate(
        Subspace(n, exhaustive, fld=QQ), every
    )


@_SEED_CASES
@pytest.mark.parametrize(
    "kwargs",
    [{}, {"buffer_extra": 1}, {"n_extra": 1}, {"reverse_order": True}],
    ids=["base", "buffer+1", "N+1", "reversed"],
)
def test_push_down_seeds_match_exhaustive_loop(monkeypatch, n, psi, kwargs):
    # each build at its own cap: 0, and 1 for buffer+1, whose seeds are the
    # push-downs of every excess-1 monomial.  The argument holds for any box
    # of contents, so it is checked on the interval's box and on the box one
    # lower in every positive coordinate, where the space is no longer a
    # Weyl module's relations
    from emapalg import weyl

    interval_top = weyl._interval_top
    for lower in (0, 1):
        monkeypatch.setattr(
            weyl,
            "_interval_top",
            lambda alg, psi, lower=lower: [max(0, t - lower) for t in interval_top(alg, psi)],
        )
        alg, st = _straighten(build_sl(n), psi, **kwargs)
        _assert_seeds_generate_the_relations(alg, st, kwargs.get("reverse_order", False))


@pytest.mark.parametrize("idle", [-1, 2], ids=["idle-first", "idle-last"])
def test_push_down_seeds_with_a_point_where_psi_vanishes(idle):
    # where psi is nonzero at every point, e_i x 1 at one point already
    # pushes the other points' relations down (through the scalar psi(h_i));
    # at a truncation point where psi vanishes (top 0) only that point's
    # seeds do
    g = build_sl(2)
    psi = _psi(QQ, {1: (2,)})
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(QQ, 1): 2, pt(QQ, idle): 2}))
    _assert_seeds_generate_the_relations(alg, _Straightener(alg, psi, 0))


def _push_down_seed_families(n, psi, n_extra=0):
    """The push-down seeds of the build on the truncation of psi (n_extra
    exponents higher) at cap 0 and at cap 1, and the truncation."""
    alg = _truncation(build_sl(n), psi, n_extra)
    return [_push_down_seeds(alg, _Straightener(alg, psi, cap)) for cap in (0, 1)] + [alg]


def test_cap_zero_drops_the_seeds_of_tails_past_the_interval():
    # A3 omega_1 at N+1: an excess-1 monomial whose head misses the one
    # coordinate past top has a tail past the interval too, and cap 0 leaves
    # its seed out; both families close up to the same relation space
    psi = _psi(QQ, {1: (1, 0, 0)})
    small, full, alg = _push_down_seed_families(4, psi, n_extra=1)
    assert len(small) == 82 and len(full) == 114
    assert all(seed in full for seed in small)
    st = _Straightener(alg, psi, 0)
    gens = [st.operator_matrix(ai) for ai in _generators(alg)]
    assert saturate(Subspace(st.n_low, small, fld=QQ), gens) == saturate(
        Subspace(st.n_low, full, fld=QQ), gens
    )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cap_zero_keeps_every_seed_of_sl2_at_one_point(m):
    # sl2 at one point has a single content coordinate, which every head
    # touches, so no excess-1 monomial has a tail past the interval
    small, full, _ = _push_down_seed_families(2, _psi(QQ, {1: (m,)}))
    assert small == full


def test_a_seed_past_the_interval_raises(monkeypatch):
    # a seed on a monomial past the interval (here the last one listed),
    # which only a build at cap 1 can hold, as a push-down at the wrong
    # coordinate would; the build names it instead of failing inside saturate
    from emapalg import weyl

    push_down_seeds = weyl._push_down_seeds

    def stray(alg, st, tails=None):
        return push_down_seeds(alg, st, tails) + [{len(st.monomials) - 1: 1}]

    monkeypatch.setattr(weyl, "_push_down_seeds", stray)
    psi = _psi(QQ, {1: (2,)})
    alg = _truncation(build_sl(2), psi)
    _build_once(alg, psi)  # cap 0: the last monomial lies inside
    with pytest.raises(CertificationError, match="leaves the weight interval") as err:
        _build_once(alg, psi, buffer_extra=1)
    assert err.value.relation == "seed outside the interval"


@_SEED_CASES
def test_operator_matrix_skips_only_images_past_the_prefix(n, psi):
    alg, st = _straighten(build_sl(n), psi)
    for ai in range(alg.dim):
        assert st.operator_matrix(ai) == _unpruned_operator_matrix(st, ai, st.n_low)


def _stress_psis():
    """The plain psi of the stress scenario (the stress tier's weyl probes)."""
    scn = load_scenario(str(FIXTURES / "sl3_stress.json"))
    return [
        pytest.param(3, psi, id=name)
        for name, psi in sorted(scn.psis.items())
        if not psi.equivariant
    ]


@pytest.mark.parametrize("n, psi", _SEED_PSIS + _stress_psis())
def test_kept_column_quotient_equals_the_full_quotient(n, psi):
    # weyl_module builds the non-generator actions on the columns off R's
    # pivots only; the quotient of the full matrices is the same module.
    # Both are raw: the build is over the integers
    g = build_sl(n)
    w = weyl_module(g, psi)
    alg = _truncation(g, psi)
    st, rel, _ = _build_once(alg, psi)
    n_low = st.n_low
    full = [_unpruned_operator_matrix(st, ai, n_low) for ai in range(alg.dim)]
    cyclic = {0: 1}  # the empty monomial
    want = quotient_module(FiniteModule(alg, full, cyclic=cyclic), rel, check=False)
    assert w.module.actions == want.actions
    assert w.module.cyclic == want.cyclic


def _assert_memo_kept(snapshots):
    """Every memo entry of each (straightener, deep copy of its memo) is
    still there, equal to its copy; entries added since are not compared."""
    for st, memo in snapshots:
        for ai, images in enumerate(memo):
            for j, image in images.items():
                assert st._memo[ai][j] == image


@pytest.mark.parametrize(
    "n, psi",
    [
        pytest.param(2, _psi(QQ, {1: (4,)}), id="A1-4w"),
        pytest.param(4, _psi(QQ, {1: (1, 0, 0)}), id="A3-w1"),
        pytest.param(2, "psi_2w", id="A1-2w@plane"),
    ],
)
def test_shared_columns_leave_the_memo_unchanged(monkeypatch, n, psi):
    # operator_matrix hands act's memo dicts to Matrix.from_columns as its
    # columns, uncopied: the quotient, every certificate check and the
    # multiplicities read them and must never write into them
    from emapalg import weyl

    if isinstance(psi, str):
        scn = load_scenario(FIXTURES / "sl2_plane.json")
        g, psi = scn.algebra, scn.psis[psi]
    else:
        g = build_sl(n)
    snapshots = []
    build_once, quotient = weyl._build_once, weyl.quotient_module

    def recording_build(*args, **kwargs):
        out = build_once(*args, **kwargs)
        snapshots.append((out[0], copy.deepcopy(out[0]._memo)))
        return out

    def checked_quotient(module, sub, check=True):
        (st, memo), = snapshots
        # the kept-column actions added memo entries: they are shared too
        snapshots.append((st, copy.deepcopy(st._memo)))
        out = quotient(module, sub, check)
        _assert_memo_kept(snapshots)
        pivots = set(sub.pivots)
        pos = {j: k for k, j in enumerate(j for j in range(module.dim) if j not in pivots)}
        for op, qop, images in zip(module.actions, out.actions, st._memo):
            for j, k in pos.items():
                # at cap 1 the memo also holds images past the interval,
                # which operator_matrix skips (an image is homogeneous in
                # content, so it lies wholly inside or wholly past it)
                if j in images and all(m < module.dim for m in images[j]):
                    # a column read out of a matrix is a copy of the shared
                    # one, and the quotient's column is its residue mod R,
                    # here reduced with the memo's own dict as the argument
                    col = op.column(j)
                    assert col == images[j] and col is not images[j]
                    residue = sub.reduce(images[j])
                    assert qop.column(k) == {pos[c]: x for c, x in residue.items()}
        _assert_memo_kept(snapshots)
        return out

    monkeypatch.setattr(weyl, "_build_once", recording_build)
    monkeypatch.setattr(weyl, "quotient_module", checked_quotient)
    w = weyl_module(g, psi)
    assert len(snapshots) == 4  # base (twice), N+1, reversed
    _assert_memo_kept(snapshots)
    multiplicities(w.module)
    _assert_memo_kept(snapshots)


@pytest.mark.parametrize(
    "n, psi",
    _SEED_PSIS
    + _stress_psis()
    + [
        pytest.param(4, _psi(QQ, {1: (1, 0, 0)}), id="A3-w1"),
        pytest.param(4, _psi(QQ, {1: (1, 0, 1)}), id="A3-w1+w3"),
    ],
)
@pytest.mark.parametrize(
    "n_extra, reverse_order", [(0, False), (1, False), (0, True)],
    ids=["base/buffer+1", "N+1", "reversed"],
)
def test_cap_zero_and_cap_one_builds_agree(n, psi, n_extra, reverse_order):
    # every build kind at cap 0 against the same build at cap 1 (the base
    # against buffer+1): same monomials inside, relation space and operators
    alg = _truncation(build_sl(n), psi, n_extra)
    low, full = (_build_once(alg, psi, cap, reverse_order) for cap in (0, 1))
    assert low[0].monomials == full[0].monomials[: full[0].n_low]
    assert low[1] == full[1]
    assert low[2] == full[2]


def _over(fld, psi):
    """psi with its points' rational coordinates read in the field fld."""
    from emapalg.coordalg import Point

    return PsiFunction.of(
        {
            Point(tuple(fld.scalar(c.as_rational()) for c in p.coords)): w
            for p, w in psi.assignments
        }
    )


@_SEED_CASES
@pytest.mark.parametrize("order", [4, 3])
def test_weyl_module_over_a_cyclotomic_field_lifts_the_rational_module(n, psi, order):
    # the module is raw whatever the field: over Q(zeta_4) and Q(zeta_3) it is
    # the rational module, entry for entry, with no field element in it; the
    # field enters only at twist
    fld = field(order)
    w_qq = weyl_module(build_sl(n), psi)
    w = weyl_module(build_sl(n, fld), _over(fld, psi))
    assert w.dim == w_qq.dim
    assert w.certificate == w_qq.certificate
    assert w.module.field is w_qq.module.field is RAW
    pairs = [(w.module.cyclic, w_qq.module.cyclic)] + [
        (row, row_qq)
        for op, op_qq in zip(w.module.actions, w_qq.module.actions, strict=True)
        for row, row_qq in zip(op.entries, op_qq.entries, strict=True)
    ]
    for vec, vec_qq in pairs:
        assert vec == vec_qq
        for k, x in vec.items():
            assert type(x) is type(vec_qq[k]) and type(x) is not FieldElement


def _excess(st, content):
    """How far a content lies past the interval's top, summed over the
    (simple root, point) coordinates."""
    return sum(max(0, c - t) for c, t in zip(content, st.top))


@_SEED_CASES
@pytest.mark.parametrize(
    "kwargs",
    [{}, {"buffer_extra": 1}, {"n_extra": 1}, {"reverse_order": True}],
    ids=["base", "buffer+1", "N+1", "reversed"],
)
def test_stored_excess_equals_the_excess_of_the_content(n, psi, kwargs):
    _, st = _straighten(build_sl(n), psi, **kwargs)
    assert len(st.mono_excess) == len(st.content) == len(st.monomials)
    for j in range(len(st.monomials)):
        assert st.mono_excess[j] == _excess(st, st.content[j])
    assert st.n_low == sum(1 for c in st.content if not _excess(st, c))


def _root_content(st, ai):
    """The content that basis element ai adds: its root at its point,
    negated for a raising element, zero for a Cartan one."""
    p_idx, g_idx, _ = st.alg.basis[ai]
    kind, k = st.alg.g.labels[g_idx]
    out = [0] * len(st.top)
    if kind != "h":
        npts = len(st.alg.points)
        for i, c in enumerate(st.alg.g.rd.positive_roots[k]):
            out[i * npts + p_idx] = -c if kind == "e" else c
    return out


@pytest.mark.parametrize("n, psi", _SEED_PSIS + _stress_psis())
def test_builds_touch_no_monomial_past_one_drop_beyond_the_interval(monkeypatch, n, psi):
    # act(x, m) reaches content at most max(c(m), c(m) + root x) in every
    # (simple root, point) coordinate.  Outside the Weyl powers every call
    # stays within the build's cap: excess 0 at cap 0 (N+1, reversed), 1 at
    # cap 1 (the base, which its buffer+1 check reuses), so the cap never
    # cuts a term.  Only a Weyl-power step reaches past the interval, to
    # excess 1, with a lowering element whose image is dropped: at cap 0 act
    # never forms it
    from emapalg import weyl

    reach = {}
    phase = ["other"]
    act = _Straightener.act
    weyl_power_seeds = weyl._weyl_power_seeds

    def recording(st, alg_idx, j):
        c = st.content[j]
        top = _excess(st, [max(a, a + d) for a, d in zip(c, _root_content(st, alg_idx))])
        out = act(st, alg_idx, j)
        seen = reach.setdefault(st, {"other": 0, "powers": 0})
        seen[phase[0]] = max(seen[phase[0]], top)
        if top and not st.cap:
            assert phase[0] == "powers" and st.kind[alg_idx] == "f" and not out
        return out

    def powers(alg, st):
        phase[0] = "powers"
        try:
            return weyl_power_seeds(alg, st)
        finally:
            phase[0] = "other"

    monkeypatch.setattr(_Straightener, "act", recording)
    monkeypatch.setattr(weyl, "_weyl_power_seeds", powers)
    weyl_module(build_sl(n), psi)
    assert len(reach) == 3  # base (and buffer+1), N+1, reversed
    assert sorted(st.cap for st in reach) == [0, 0, 1]
    for st, seen in reach.items():
        assert seen["other"] <= st.cap
        assert seen["powers"] <= 1


def _tuple_act(straightener, normal, memo, alg_idx, mono):
    """The straightening recursion on factor tuples, keyed by (alg_idx,
    mono) in memo: the action of a basis element on a normal monomial as
    {monomial in normal: nonzero int}, normal the enumerated monomials."""
    key = (alg_idx, mono)
    out = memo.get(key)
    if out is not None:
        return out
    s = straightener
    kind = s.kind[alg_idx]
    f = s.alg_index_to_factor.get(alg_idx)
    if kind == "f" and (not mono or f >= mono[0]):
        cand = (f,) + mono
        out = {cand: 1} if cand in normal else {}
    elif not mono:
        c = s._char_scalar(*s.alg.basis[alg_idx]) if kind == "h" else 0
        out = {(): c} if c else {}
    else:
        rest = mono[1:]
        acc = {}
        m0_alg = s.factor_alg_index[mono[0]]
        for m, c in _tuple_act(s, normal, memo, alg_idx, rest).items():
            for m2, c2 in _tuple_act(s, normal, memo, m0_alg, m).items():
                acc[m2] = acc.get(m2, 0) + c * c2
        for k, b in s.alg.bracket_terms(alg_idx, m0_alg):
            for m2, c2 in _tuple_act(s, normal, memo, k, rest).items():
                acc[m2] = acc.get(m2, 0) + b * c2
        out = {m: c for m, c in acc.items() if c}
    memo[key] = out
    return out


@st.composite
def _straightener_cases(draw):
    """(n, psi, cap, reverse_order): sl_n for n = 2..4 at one or two points
    of one or two variables, caps 0 to 2, with weights small enough that
    every basis element can be applied to every monomial of the cap-2
    enumeration."""
    n = draw(st.integers(2, 4))
    npoints = draw(st.integers(1, 2))
    nvars = draw(st.integers(1, 2))
    # the largest coordinate sum of a weight at each point
    budget = {2: 3, 3: 2, 4: 1}[n] if npoints == 1 else {2: 2, 3: 1, 4: 1}[n]
    weight = st.lists(st.integers(0, budget), min_size=n - 1, max_size=n - 1).filter(
        lambda c: 0 < sum(c) <= budget
    )
    from emapalg.coordalg import Point

    points = [Point(tuple(QQ.scalar(k + j + 1) for j in range(nvars))) for k in range(npoints)]
    psi = PsiFunction.of({p: Weight(tuple(draw(weight))) for p in points})
    return n, psi, draw(st.integers(0, 2)), draw(st.booleans())


def _two_point_case(lam, cap, reverse_order):
    """The case of lam at the two points (1, 2) and (2, 3)."""
    from emapalg.coordalg import Point

    psi = PsiFunction.of({Point((QQ.scalar(k), QQ.scalar(k + 1))): Weight(lam) for k in (1, 2)})
    return len(lam) + 1, psi, cap, reverse_order


@settings(max_examples=30, deadline=None)
@given(_straightener_cases())
@example(_two_point_case((2,), 2, False))
@example(_two_point_case((0, 1), 1, True))
@example(_two_point_case((1, 0, 0), 2, True))
def test_id_straightener_matches_the_tuple_recursion(case):
    # every basis element on every enumerated monomial, read back through
    # monomials, against the recursion on factor tuples
    n, psi, cap, reverse_order = case
    alg = _truncation(build_sl(n), psi)
    straightener = _Straightener(alg, psi, cap, reverse_order=reverse_order)
    monomials = straightener.monomials
    normal = set(monomials)
    assert len(normal) == len(monomials) and monomials[0] == ()
    memo = {}
    for ai in range(alg.dim):
        for j, mono in enumerate(monomials):
            got = {monomials[k]: c for k, c in straightener.act(ai, j).items()}
            assert got == _tuple_act(straightener, normal, memo, ai, mono)


def _graded_kept_monomials(n, lams):
    """The kept monomials of the build of W(psi), psi = {coordinate: lam},
    the columns off R's pivots, counted by weight and jet degree at each
    point, in the truncation's point order: {(weights, degrees): count}.  R
    is spanned by vectors homogeneous in all of them, so these counts are the
    multigraded character of W(psi)."""
    g = build_sl(n)
    psi = _psi(QQ, lams)
    alg = _truncation(g, psi)
    straightener, rel, _ = _build_once(alg, psi)
    npts = len(alg.points)
    pivots = set(rel.pivots)
    counts = {}
    for j in range(straightener.n_low):
        if j not in pivots:
            # the content coordinate of (simple root i, point p) is i * npts + p
            content = straightener.content[j]
            weights = []
            for p_idx, p in enumerate(alg.points):
                weight = psi[p]
                for i, alpha in enumerate(g.rd.simple_roots):
                    c = content[i * npts + p_idx]
                    weight = weight - Weight(tuple(c * a for a in alpha.coords))
                weights.append(weight)
            degrees = [0] * npts
            for f in straightener.monomials[j]:
                _, _, p_idx, mono = straightener.factors[f]
                degrees[p_idx] += sum(mono)
            key = tuple(weights), tuple(degrees)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _gaussian_binomial(m, k):
    """The coefficients of the Gaussian binomial [m choose k]_q, by degree,
    from [m choose k] = [m - 1 choose k - 1] + q^k [m - 1 choose k]."""
    if k < 0 or k > m:
        return []
    if k in (0, m):
        return [1]
    out = [0] * (k * (m - k) + 1)
    for d, c in enumerate(_gaussian_binomial(m - 1, k - 1)):
        out[d] += c
    for d, c in enumerate(_gaussian_binomial(m - 1, k)):
        out[d + k] += c
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_kept_monomials_grade_as_gaussian_binomials_in_type_a1(m):
    # the weight m - 2k piece of W(m omega) at one point has graded
    # dimension [m choose k]_q in the jet degree
    counts = _graded_kept_monomials(2, {1: (m,)})
    for k in range(m + 1):
        want = _gaussian_binomial(m, k)
        got = [counts.pop(((Weight((m - 2 * k,)),), (d,)), 0) for d in range(len(want))]
        assert got == want
    assert not counts


@pytest.mark.parametrize("n, lam", [(2, (1,)), (2, (3,)), (2, (4,)), (3, (1, 1)), (3, (2, 1))])
def test_jet_degree_reader_matches_the_kept_monomials(n, lam):
    # FiniteModule.jet_degrees reads the grading off the built module's
    # actions; the kept monomials give it independently
    w = weyl_module(build_sl(n), _psi(QQ, {1: lam})).module
    degrees = w.jet_degrees()
    got = {}
    for key, coords in w.weights().items():
        for c in coords:
            graded = (Weight(key),), (degrees[c],)
            got[graded] = got.get(graded, 0) + 1
    assert got == _graded_kept_monomials(n, {1: lam})


@pytest.mark.parametrize("ma, mb", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)])
def test_two_point_kept_monomials_grade_as_products_in_type_a1(ma, mb):
    # W(psi) at two points is the tensor product of the one-point modules, so
    # its character by weight and jet degree at each point is the product of
    # the two one-point Gaussian binomial characters (checked only; the
    # build does not use it)
    counts = _graded_kept_monomials(2, {1: (ma,), 2: (mb,)})
    for ka, kb in itertools.product(range(ma + 1), range(mb + 1)):
        weights = Weight((ma - 2 * ka,)), Weight((mb - 2 * kb,))
        for da, ca in enumerate(_gaussian_binomial(ma, ka)):
            for db, cb in enumerate(_gaussian_binomial(mb, kb)):
                assert counts.pop((weights, (da, db)), 0) == ca * cb
    assert not counts


@pytest.mark.parametrize(
    "n, lam",
    [(3, (1, 0)), (3, (1, 1)), (3, (2, 0)), (3, (2, 1))]
    + [(4, (1, 0, 0)), (4, (0, 1, 0)), (4, (1, 0, 1))],
    ids=lambda v: str(v).replace(" ", ""),
)
def test_degree_zero_kept_monomials_have_the_freudenthal_character(n, lam):
    # the jet-degree 0 piece of W(lam) at one point is V(lam)
    counts = _graded_kept_monomials(n, {1: lam})
    got = {weight: c for ((weight,), (degree,)), c in counts.items() if degree == 0}
    assert got == freudenthal_mults(build_sl(n).rd, Weight(lam))


def _lie_closure(alg, indices):
    """The span of the iterated brackets of the given basis elements."""
    ad = [
        Matrix.from_triples(
            alg.field,
            alg.dim,
            alg.dim,
            [(k, j, c) for j in range(alg.dim) for k, c in alg.bracket_terms(i, j)],
        )
        for i in indices
    ]
    return saturate(Subspace(alg.dim, [{i: alg.field.one} for i in indices], fld=alg.field), ad)


@pytest.mark.parametrize(
    "n, eta",
    [
        (2, {(1,): 3}),
        (3, {(1,): 3}),
        (2, {(1,): 3, (2,): 2}),
        (2, {(1, 2): 3}),
    ],
    ids=["A1-one-point", "A2-one-point", "A1-two-points", "A1-two-variables"],
)
def test_generators_generate_the_truncation(n, eta):
    from emapalg.coordalg import Point

    points = {Point(tuple(QQ.scalar(c) for c in p)): k for p, k in eta.items()}
    alg = TruncatedAlgebra(build_sl(n), EtaFunction.of(points))
    gens = _generators(alg)
    assert _lie_closure(alg, gens).dim == alg.dim
    # the set is minimal: without any one element it generates less
    for ai in gens:
        assert _lie_closure(alg, [x for x in gens if x != ai]).dim < alg.dim
    # without the degree-one jets of h the generated algebra is g tensor 1
    degree_zero = [ai for ai in gens if sum(alg.basis[ai][2]) == 0]
    assert _lie_closure(alg, degree_zero).dim == len(alg.points) * alg.g.dim


@pytest.mark.parametrize("n, lam", [(2, (2,)), (3, (2, 0))], ids=["A1-2w", "A2-2w1"])
def test_closed_form_catches_a_fault_every_build_shares(monkeypatch, n, lam):
    # one relation too many, (f_1 x t) w = 0, in every build cuts W(lam)
    # down to a proper quotient that passes the relation, bracket, cyclic,
    # buffer+1 and rebuild checks (the base build, N+1 and reversed all
    # agree, and the buffer+1 push-downs lie in the base's R); only the
    # Chari-Loktev closed form sees it
    from emapalg import weyl

    push_down_seeds = weyl._push_down_seeds
    build_once = weyl._build_once
    dims = []

    def one_relation_too_many(alg, st, tails=None):
        ai = alg.index[(0, alg.g.f(0), (1,))]
        extra = dict(st.act(ai, 0))  # on the empty monomial, id 0
        return push_down_seeds(alg, st, tails) + [extra]

    def recording(*args, **kwargs):
        out = build_once(*args, **kwargs)
        dims.append(out[0].n_low - out[1].dim)
        return out

    monkeypatch.setattr(weyl, "_push_down_seeds", one_relation_too_many)
    monkeypatch.setattr(weyl, "_build_once", recording)
    with pytest.raises(CertificationError, match="Chari-Loktev"):
        weyl_module(build_sl(n), _psi(QQ, {1: lam}))
    assert len(dims) == 3 and len(set(dims)) == 1  # base, N+1, reversed
    assert dims[0] < _chari_loktev_dim(n - 1, lam)


@pytest.mark.parametrize("n, lam", [(2, (2,)), (3, (2, 0))], ids=["A1-2w", "A2-2w1"])
def test_buffer_one_catches_a_fault_only_its_seeds_carry(monkeypatch, n, lam):
    # no build seeds from a tail past the interval but buffer+1, so only
    # buffer+1 holds the extra relation: it is no element of the base
    # build's R, and the check fails before the Chari-Loktev closed form
    from emapalg import weyl

    monkeypatch.setattr(
        weyl, "_push_down_seeds", one_more_seed_past_the_interval(weyl._push_down_seeds)
    )
    with pytest.raises(CertificationError, match="buffer\\+1") as err:
        weyl_module(build_sl(n), _psi(QQ, {1: lam}))
    assert err.value.relation == ("recompute", "buffer+1")


@pytest.mark.parametrize("mapping", [{1: (1,), 2: (1,)}, {1: (2,), 2: (1,)}], ids=["w+w", "2w+w"])
def test_interval_check_is_per_point(monkeypatch, mapping):
    # a build on a box off the interval: nothing at the first point and one
    # step past the interval at the second, where psi = w, without the
    # push-down seeds, and at one more truncation exponent, so that the box
    # spans enough monomials for weights() to read their weights.  The Weyl
    # power has no term in the box, so (f x 1_p)^2 w survives: its weight at
    # p is 1 - 4 = -3, outside [-1, 1], while its total weight lam - 4 stays
    # inside the interval of lam
    from emapalg import weyl

    truncation = weyl._truncation
    monkeypatch.setattr(
        weyl, "_truncation", lambda g, psi, n_extra=0: truncation(g, psi, n_extra + 1)
    )
    monkeypatch.setattr(weyl, "_interval_top", lambda alg, psi: [0, 2])
    monkeypatch.setattr(weyl, "_push_down_seeds", lambda alg, st, tails=None: [])
    with pytest.raises(CertificationError, match="weight escapes the interval") as err:
        weyl_module(build_sl(2), _psi(QQ, mapping))
    assert err.value.relation == ("weight", (-3,))


def test_unreadable_weight_fails_the_interval_check(monkeypatch):
    # the box above at the exponents of psi = 2w@1 + w@2: it spans too few
    # monomials for weights() to read the weight -3 at the second point
    from emapalg import weyl

    monkeypatch.setattr(weyl, "_interval_top", lambda alg, psi: [0, 2])
    monkeypatch.setattr(weyl, "_push_down_seeds", lambda alg, st, tails=None: [])
    with pytest.raises(CertificationError, match="-3 is not an integer weight") as err:
        weyl_module(build_sl(2), _psi(QQ, {1: (2,), 2: (1,)}))
    assert err.value.relation == "weight"


@pytest.mark.parametrize("n, mapping", [(2, {1: (2,)}), (3, {1: (1, 0), 2: (0, 1)})])
def test_head_and_hw_quotient_refuse_a_cyclic_vector_of_two_weights(n, mapping):
    # w plus the last kept monomial, which has a lower weight
    w = weyl_module(build_sl(n), _psi(QQ, mapping))
    (k,) = w.module.cyclic
    module = FiniteModule(
        w.module.algebra, w.module.actions, cyclic={k: QQ.one, w.dim - 1: QQ.one}
    )
    for read in (head, hw_quotient_check):
        with pytest.raises(ValueError, match="cyclic vector is not a joint weight vector"):
            read(module)


def test_weyl_build_runs_under_a_low_recursion_limit():
    code = (
        "import sys\n"
        "sys.setrecursionlimit(150)\n"
        "from emapalg.coordalg import Point\n"
        "from emapalg.fields import QQ\n"
        "from emapalg.liealg import build_sl\n"
        "from emapalg.repmod import PsiFunction\n"
        "from emapalg.rootdata import Weight\n"
        "from emapalg.weyl import weyl_module\n"
        "for n, lam in ((3, (1, 1)), (2, (4,))):\n"
        "    psi = PsiFunction.of({Point((QQ.scalar(1),)): Weight(lam)})\n"
        "    print(weyl_module(build_sl(n), psi).dim)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["9", "16"]
    for file in sorted(src.rglob("*.py")):
        assert "setrecursionlimit" not in file.read_text(), file


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, and every certificate must survive
    # it, so a check in the package raises instead
    src = Path(__file__).resolve().parents[1] / "src" / "emapalg"
    files = sorted(src.glob("*.py"))
    assert files
    found = [
        "%s:%d" % (file.name, node.lineno)
        for file in files
        for node in ast.walk(ast.parse(file.read_text(), str(file)))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def _chari_loktev_dim(rank, lam):
    """dim W(lam) at one point in type A_rank: prod_i C(rank + 1, i) ** lam_i
    (Chari-Loktev 2006)."""
    return prod(comb(rank + 1, i) ** k for i, k in enumerate(lam, start=1))


@pytest.mark.parametrize(
    "n, mapping",
    [(2, {1: (m,)}) for m in (1, 2, 3, 4)]
    + [(3, {1: lam}) for lam in ((1, 0), (0, 1), (1, 1), (2, 0))]
    + [(4, {1: (1, 0, 0)}), (4, {1: (0, 1, 0)}), (2, {1: (2,), 2: (1,)})],
    ids=lambda v: str(v).replace(" ", ""),
)
def test_weyl_dims_match_chari_loktev(n, mapping):
    # dimensions multiply over distinct points
    want = prod(_chari_loktev_dim(n - 1, lam) for lam in mapping.values())
    assert weyl_module(build_sl(n), _psi(QQ, mapping)).dim == want


def _fundamental_power_character(rd, lam):
    """Character of the tensor product of lam_i copies of each fundamental
    module V(omega_i), from their Freudenthal multiplicities; in type A it is
    the g-character of the local Weyl module W(lam) (Chari-Loktev 2006)."""
    rank = rd.rank
    char = {Weight((0,) * rank): 1}
    for i, k in enumerate(lam.coords):
        omega = Weight(tuple(int(j == i) for j in range(rank)))
        fundamental = freudenthal_mults(rd, omega)
        for _ in range(k):
            out = {}
            for mu, a in char.items():
                for nu, b in fundamental.items():
                    out[mu + nu] = out.get(mu + nu, 0) + a * b
            char = out
    return char


_points = st.sampled_from([-2, -1, 1, 2, 3])


def _psi_maps(values, npoints):
    return st.dictionaries(
        _points, st.sampled_from(values), min_size=npoints, max_size=npoints
    )


# (n, {point: lam}) for sl_n.  Two-point builds grow fast (A1 3w at two
# points, dim 64, took about 100 s on a 2-core x86_64 host with the fractions
# backend), so two points carry a total weight of at most 3.
_weyl_oracle_inputs = st.one_of(
    st.tuples(st.just(2), _psi_maps([(1,), (2,), (3,)], 1)),
    st.tuples(
        st.just(2),
        _psi_maps([(1,), (2,)], 2).filter(lambda m: sum(lam[0] for lam in m.values()) <= 3),
    ),
    st.tuples(st.just(3), _psi_maps([(1, 0), (0, 1)], 1)),
)


@settings(max_examples=10, deadline=None)
@given(_weyl_oracle_inputs)
def test_weyl_weight_table_matches_freudenthal_characters(case):
    # the joint weight table is the product over the points of the
    # characters of the one-point Weyl modules
    n, mapping = case
    g = build_sl(n)
    psi = _psi(QQ, mapping)
    w = weyl_module(g, psi)
    points = w.module.algebra.points
    want = {(): 1}
    for p in points:
        char = _fundamental_power_character(g.rd, psi[p])
        want = {key + (mu,): a * b for key, a in want.items() for mu, b in char.items()}
    assert joint_weights(w.module) == want
    assert w.dim == prod(_chari_loktev_dim(n - 1, lam) for lam in mapping.values())
