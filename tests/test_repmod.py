"""Evaluation modules, twisting transports, multiplicities, Hom spaces."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emapalg.coordalg import (
    EtaFunction,
    GammaGroup,
    GroupGenerator,
    LaurentFunction,
    Point,
    PointAction,
)
from emapalg.ema import (
    InvariantAlgebra,
    TruncatedAlgebra,
    constructive_lift,
    gamma_truncation_matrix,
)
from emapalg.fields import QQ, RAW, FieldElement, _Q, field
from emapalg.liealg import GAutomorphism, build_sl, transport
from emapalg.linalg import Matrix
from emapalg.repmod import (
    FiniteModule,
    PsiFunction,
    direct_sum,
    evaluation_module,
    extend_to,
    height_psi,
    height_psi_orbits,
    hom_space,
    is_equivariant,
    is_isomorphic,
    joint_weights,
    lift_module,
    multiplicities,
    psi_dim,
    psi_gamma,
    psi_restrict,
    support,
    tensor_product,
    twist,
    unique_top,
    untwist,
)
from emapalg.rootdata import DiagramSymmetry, RootDatum, Weight
from emapalg.weyl import check_gamma_twist, twisted_weyl, weyl_module

from helpers import freudenthal_mults, is_maximal_weight, natural_module
from test_ema import flip_setup, pt, z2_setup


def _psi(fld, mapping):
    return PsiFunction.of({pt(fld, c): Weight(w) for c, w in mapping.items()})


def test_psi_function_basics():
    fld = field(4)
    psi = _psi(fld, {1: (2,), 2: (0,)})
    assert psi.support() == (pt(fld, 1),)
    assert psi[pt(fld, 1)] == Weight((2,))
    assert psi[pt(fld, 3)] == Weight((0,))
    assert (psi + psi)[pt(fld, 1)] == Weight((4,))
    assert psi.total_weight() == Weight((2,))


def test_height_psi():
    g, group = z2_setup()
    fld = g.field
    psi = _psi(fld, {1: (2,), 2: (1,)})
    rd = g.rd
    # heights are scaled by n + 1 = 2, so they are ints
    assert height_psi(rd, psi) == 2 * (rd.height(Weight((2,))) + rd.height(Weight((1,))))
    e = psi_gamma(group, _psi(fld, {1: (2,)}))
    # orbit-aware height counts one term per orbit
    assert height_psi_orbits(group, e) == 2 * rd.height(Weight((2,)))
    assert height_psi(rd, e) == 2 * 2 * rd.height(Weight((2,)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_int_heights_order_psi_as_the_rational_sum(data):
    # A1-A3 psi at one and two points: the int height_psi is n + 1 times the
    # sum of the rational heights, so sorting and unique_top read the same
    rank = data.draw(st.integers(min_value=1, max_value=3), label="rank")
    rd = RootDatum(rank)
    weight = st.tuples(*[st.integers(min_value=0, max_value=3)] * rank)
    values = data.draw(
        st.lists(st.lists(weight, min_size=1, max_size=2), min_size=2, max_size=6), label="psi"
    )
    psis = [_psi(QQ, {c + 1: w for c, w in enumerate(ws)}) for ws in values]

    def rational(psi):
        return sum((rd.height(w) for _, w in psi.assignments), rd.height(Weight((0,) * rank)))

    ints = [height_psi(rd, psi) for psi in psis]
    assert all(type(h) is int for h in ints)
    assert ints == [(rank + 1) * rational(psi) for psi in psis]
    order = range(len(psis))
    assert sorted(order, key=lambda i: (-ints[i], i)) == sorted(
        order, key=lambda i: (-rational(psis[i]), i)
    )
    table = dict.fromkeys(psis, 1)
    assert unique_top(table, lambda ps: height_psi(rd, ps)) == unique_top(table, rational)


def test_psi_gamma_z2():
    g, group = z2_setup()
    fld = g.field
    e = psi_gamma(group, _psi(fld, {1: (2,)}))
    assert e[pt(fld, 1)] == Weight((2,)) and e[pt(fld, -1)] == Weight((2,))
    assert e.equivariant and is_equivariant(group, e)
    back = psi_restrict(e, group, [pt(fld, 1)])
    assert back[pt(fld, 1)] == Weight((2,)) and len(back.assignments) == 1


def test_psi_gamma_flip():
    g, group = flip_setup()
    fld = g.field
    e = psi_gamma(group, _psi(fld, {1: (1, 0)}))
    assert e[pt(fld, 1)] == Weight((1, 0))
    assert e[pt(fld, -1)] == Weight((0, 1))


def test_psi_gamma_rejects_non_transversal():
    g, group = z2_setup()
    fld = g.field
    with pytest.raises(ValueError):
        psi_gamma(group, _psi(fld, {1: (1,), -1: (1,)}))


def test_evaluation_module_single_point():
    g, _ = z2_setup()
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    mod = evaluation_module(_psi(fld, {1: (2,)}), alg)
    assert mod.dim == 3
    mod.check_bracket()
    assert multiplicities(mod) == {_psi(fld, {1: (2,)}): 1}


@pytest.mark.parametrize("finite", [False, True])
def test_bracket_check_rejects_perturbed_action(finite):
    # doubling rho(e) keeps [h, e] = 2e but breaks [e, f] = h
    g, _ = z2_setup()
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    if finite:
        algebra, actions = alg, evaluation_module(_psi(fld, {1: (1,)}), alg).actions
    else:
        algebra, actions = g, natural_module(g).actions

    def build(acts):
        return FiniteModule(algebra, acts).check_bracket()

    build(actions)
    kind = actions[0].field  # the actions' own scalar kind, raw here
    doubled = [Matrix.combination(kind, 2, 2, [(kind.scalar(2), actions[0])])]
    with pytest.raises(ValueError, match=r"basis pair \(0, 2\)"):
        build(doubled + list(actions[1:]))


def test_evaluation_module_two_points():
    g, _ = z2_setup()
    fld = g.field
    psi = _psi(fld, {1: (1,), 2: (1,)})
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1, pt(fld, 2): 1}))
    mod = evaluation_module(psi, alg)
    assert mod.dim == 4
    mod.check_bracket()
    assert multiplicities(mod) == {psi: 1}
    assert set(support(mod)) == {pt(fld, 1), pt(fld, 2)}


def test_twist_untwist_roundtrip():
    g, group = z2_setup()
    fld = g.field
    x = pt(fld, 1)
    inv = InvariantAlgebra(g, group, EtaFunction.of({x: 1}))
    target, _, _ = inv.evaluation_iso()
    plain = evaluation_module(_psi(fld, {1: (2,)}), target)
    tw = twist(plain, inv)
    back = untwist(tw)
    assert back.actions == plain.actions
    tw2 = twist(back, inv)
    assert tw2.actions == tw.actions


def test_twisted_multiplicities():
    g, group = z2_setup()
    fld = g.field
    x = pt(fld, 1)
    inv = InvariantAlgebra(g, group, EtaFunction.of({x: 1}))
    psi_e = psi_gamma(group, _psi(fld, {1: (2,)}))
    mod = evaluation_module(psi_e, inv)
    assert multiplicities(mod) == {psi_e: 1}


def test_joint_weights_of_natural_evaluation():
    g, _ = z2_setup()
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    mod = evaluation_module(_psi(fld, {1: (1,)}), alg)
    table = joint_weights(mod)
    assert sorted(table.values()) == [1, 1]
    assert set(table) == {(Weight((1,)),), (Weight((-1,)),)}


def test_schur_hom():
    g, _ = z2_setup()
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    v = evaluation_module(_psi(fld, {1: (2,)}), alg)
    w = evaluation_module(_psi(fld, {1: (1,)}), alg)
    assert len(hom_space(v, v)) == 1
    assert len(hom_space(v, w)) == 0


def test_is_isomorphic_with_witness():
    g, _ = z2_setup()
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    v1 = evaluation_module(_psi(fld, {1: (2,)}), alg)
    v2 = evaluation_module(_psi(fld, {1: (2,)}), alg)
    ok, witness = is_isomorphic(v1, v2)
    assert ok and witness is not None
    w = evaluation_module(_psi(fld, {1: (1,)}), alg)
    ok, _ = is_isomorphic(v1, w)
    assert not ok


def _sum(modules):
    out = modules[0]
    for m in modules[1:]:
        out = direct_sum(out, m)
    return out


def test_is_isomorphic_beyond_eight_hom_generators():
    # End of the trivial 8-dim module has 64 rank-1 basis maps: any
    # combination of seven of them has rank <= 7, so only a combination of
    # more than seven generators is invertible
    g, _ = z2_setup()
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    triv = _sum([evaluation_module(_psi(fld, {}), alg)] * 8)
    homs = hom_space(triv, triv)
    assert len(homs) == 64 and all(t.rank() == 1 for t in homs)
    ok, witness = is_isomorphic(triv, triv)
    assert ok is True
    assert witness.inverse() is not None
    assert all(witness.matmul(a) == a.matmul(witness) for a in triv.actions)


def test_is_isomorphic_inconclusive_is_not_false():
    # V(2) + 2 V(0) and 2 V(1) + V(0): same dimension, Hom = Hom(2 V(0), V(0))
    # of dimension 2 and no isomorphism, which random trials cannot prove;
    # End of either side has dimension 5, so the answer is an exact "no"
    g, _ = z2_setup()
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    v0, v1, v2 = (evaluation_module(_psi(fld, m), alg) for m in ({}, {1: (1,)}, {1: (2,)}))
    m1, m2 = _sum([v2, v0, v0]), _sum([v1, v1, v0])
    assert len(hom_space(m1, m2)) == 2
    assert len(hom_space(m1, m1)) == len(hom_space(m2, m2)) == 5
    assert is_isomorphic(m1, m2) == (False, None)
    # the multiples of one singular intertwiner give an exact "no"
    v3 = evaluation_module(_psi(fld, {1: (3,)}), alg)
    assert len(hom_space(_sum([v2, v1, v0]), _sum([v1, v3]))) == 1
    assert is_isomorphic(_sum([v2, v1, v0]), _sum([v1, v3])) == (False, None)


def test_direct_sum_and_tensor():
    g, _ = z2_setup()
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    a = evaluation_module(_psi(fld, {1: (1,)}), alg)
    b = evaluation_module(_psi(fld, {1: (2,)}), alg)
    s = direct_sum(a, b)
    assert s.dim == 5
    t = tensor_product(a, a)
    assert t.dim == 4
    t.check_bracket()
    # V(w) tensor V(w) at one point = V(2w) + V(0)
    mults = multiplicities(t)
    assert mults[_psi(fld, {1: (2,)})] == 1
    assert mults[PsiFunction.of({})] == 1


def _weight_keyed_multiplicities(module):
    """The reference for multiplicities: the same character solve on Weight
    keys, with joint weights as tuples of Weights, candidates by height and
    then coordinates, and Freudenthal characters keyed by Weight."""
    alg = module.algebra
    rd = alg.g.rd
    counts = dict(joint_weights(module))
    candidates = [wkey for wkey in counts if all(w.is_dominant() for w in wkey)]
    candidates.sort(
        key=lambda wk: (-sum(map(rd.scaled_height, wk)), tuple(w.coords for w in wk))
    )
    table = {}
    chars = {}
    for wkey in candidates:
        m = counts.get(wkey, 0)
        if m <= 0:
            continue
        psi = PsiFunction.of({p: w for p, w in zip(alg.points, wkey) if not w.is_zero()})
        table[psi] = table.get(psi, 0) + m
        for w in wkey:
            if w not in chars:
                chars[w] = freudenthal_mults(rd, w)
        for combo in itertools.product(*(chars[w].items() for w in wkey)):
            jk = tuple(w for w, _ in combo)
            cm = m
            for _, k in combo:
                cm *= k
            counts[jk] = counts.get(jk, 0) - cm
    assert not any(counts.values())
    return table


# highest weights of the atoms, per rank: sl2 and sl3
_ATOM_WEIGHTS = {1: [(0,), (1,), (2,), (3,)], 2: [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_int_keyed_multiplicities_match_the_weight_keyed_solve(data):
    # random direct sums of tensor products of evaluation modules of sl2 and
    # sl3, at one point or two: the int-keyed table is the Weight-keyed one,
    # entries and order alike
    rank = data.draw(st.sampled_from([1, 2]), label="rank")
    npoints = data.draw(st.sampled_from([1, 2]), label="points")
    g = build_sl(rank + 1, QQ)
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(QQ, c + 1): 1 for c in range(npoints)}))
    atom = st.lists(st.sampled_from(_ATOM_WEIGHTS[rank]), min_size=npoints, max_size=npoints)
    terms = data.draw(
        st.lists(st.lists(atom, min_size=1, max_size=3), min_size=2, max_size=3), label="terms"
    )
    total = None
    dim = 0
    for factors in terms:
        psis = [_psi(QQ, {c + 1: w for c, w in enumerate(ws)}) for ws in factors]
        term_dim = math.prod(psi_dim(g.rd, psi) for psi in psis)
        # a term that would take the sum past 72 dimensions is left out
        if dim + term_dim > 72:
            continue
        dim += term_dim
        term = evaluation_module(psis[0], alg)
        for psi in psis[1:]:
            term = tensor_product(term, evaluation_module(psi, alg))
        total = term if total is None else direct_sum(total, term)
    if total is None:
        return
    got = multiplicities(total)
    assert list(got.items()) == list(_weight_keyed_multiplicities(total).items())
    assert sum(m * psi_dim(g.rd, psi) for psi, m in got.items()) == total.dim


def test_is_maximal_weight():
    g, _ = z2_setup()
    fld = g.field
    psi = _psi(fld, {1: (2,)})
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1}))
    mod = evaluation_module(psi, alg)
    ok, top = is_maximal_weight(mod, psi)
    assert ok and top == psi
    # tensor with itself has top 2*psi, not psi
    ok, _ = is_maximal_weight(tensor_product(mod, mod), psi)
    assert not ok


def test_extend_to_finer_truncation():
    g, _ = z2_setup()
    fld = g.field
    x = pt(fld, 1)
    small = TruncatedAlgebra(g, EtaFunction.of({x: 1}))
    big = TruncatedAlgebra(g, EtaFunction.of({x: 2}))
    mod = evaluation_module(_psi(fld, {1: (2,)}), small)
    ext = extend_to(mod, big)
    assert ext.dim == mod.dim
    ext.check_bracket()
    assert multiplicities(ext) == multiplicities(mod)


def _quotient_matrix(big, small):
    """The quotient Lie map from a finer truncation onto a coarser one:
    x tensor u^beta at p goes to itself while |beta| < small.eta[p], else
    to zero.  Its entries are 0 and 1, so it is raw, like the modules it
    transports."""
    triples = [
        (small.index[(small.points.index(big.points[p_idx]), g_idx, mono)], j, 1)
        for j, (p_idx, g_idx, mono) in enumerate(big.basis)
        if sum(mono) < small.eta[big.points[p_idx]]
    ]
    return Matrix.from_triples(RAW, small.dim, big.dim, triples)


_sl2_values = st.dictionaries(st.sampled_from([1, 2, 3]), st.integers(1, 2), min_size=1, max_size=2)
_bumps = st.dictionaries(st.sampled_from([1, 2, 3, 4]), st.integers(0, 2), max_size=3)


@settings(max_examples=15, deadline=None)
@given(_sl2_values, _bumps)
def test_extend_to_is_the_transport_through_the_quotient_map(values, bumps):
    g, _ = z2_setup()
    fld = g.field
    w = weyl_module(g, _psi(fld, {c: (k,) for c, k in values.items()})).module
    small = w.algebra
    bump = EtaFunction.of({pt(fld, c): e for c, e in bumps.items()})
    finer = EtaFunction.of({p: small.eta[p] + bump[p] for p in small.points + list(bump.support())})
    big = TruncatedAlgebra(g, finer)
    ext = extend_to(w, big)
    ref = transport(w, _quotient_matrix(big, small), big)
    assert ext.algebra is big and ext.actions == ref.actions and ext.cyclic == w.cyclic


def test_transport_refuses_a_raw_module_along_a_field_matrix():
    # the Z/2 element carries W(omega) at 1 to W(omega) at -1 by a zeta matrix
    g, group = z2_setup()
    fld = g.field
    w1 = weyl_module(g, _psi(fld, {1: (1,)})).module
    w2 = weyl_module(g, _psi(fld, {-1: (1,)})).module
    gamma = group.elements[1]
    phi = gamma_truncation_matrix(group, group.inverse(gamma), w2.algebra, w1.algebra)
    assert phi.field is fld and w1.field is RAW
    with pytest.raises(ValueError, match=r"over CyclotomicField\(4\), module over RAW"):
        transport(w1, phi, w2.algebra)
    pulled = transport(lift_module(w1, fld), phi, w2.algebra)
    assert pulled.field is fld
    pulled.check_bracket()


def test_extend_to_rejects_a_coarser_or_foreign_target():
    g, _ = z2_setup()
    fld = g.field
    x = pt(fld, 1)
    mod = evaluation_module(_psi(fld, {1: (2,)}), TruncatedAlgebra(g, EtaFunction.of({x: 2})))
    with pytest.raises(ValueError, match="not dominated"):
        extend_to(mod, TruncatedAlgebra(g, EtaFunction.of({x: 1})))
    other = build_sl(2, fld)
    with pytest.raises(ValueError, match="different Lie algebras"):
        extend_to(mod, TruncatedAlgebra(other, EtaFunction.of({x: 2})))


def _z4_setup():
    """sl2 with Z/4 acting by t -> i t and e -> i e, f -> -i f."""
    fld = field(4)
    g = build_sl(2, fld)
    aut = GAutomorphism(g, DiagramSymmetry.identity(1), (1,), fld.zeta)
    return g, GammaGroup(g, [GroupGenerator(4, PointAction((fld.zeta,)), aut, fld.zeta)])


def _shares_an_orbit(group, points):
    """Brute-force reference: some gamma carries a listed point onto a later
    one (a repeated point counting as two points of its orbit)."""
    return any(
        group.act_point(gamma, p) == q
        for i, p in enumerate(points)
        for q in points[i + 1 :]
        for gamma in group.elements
    )


_SETUPS = {"z2": z2_setup, "z4": _z4_setup}
# one-variable points c * zeta^k; Z/2 acts by -1 and Z/4 by zeta = i
_POOL = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 2), (2, 3), (3, 1)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_SETUPS)), st.lists(st.sampled_from(_POOL), min_size=1, max_size=3))
def test_transversal_checks_agree_with_a_pairwise_orbit_scan(setup, picks):
    g, group = _SETUPS[setup]()
    fld = g.field
    points = [Point((fld.scalar(c) * fld.zeta**k,)) for c, k in picks]
    distinct = list(dict.fromkeys(points))
    one = Weight((1,))

    def raises(call, prefix):
        try:
            call()
        except ValueError as exc:
            assert str(exc).startswith(prefix), exc
            return True
        return False

    clash = _shares_an_orbit(group, distinct)
    psi = PsiFunction.of(dict.fromkeys(distinct, one))
    assert raises(lambda: psi_gamma(group, psi), "support contains two points of one orbit") == clash
    # the repeats stay in the list handed to psi_restrict
    lead = psi_gamma(group, PsiFunction.of({points[0]: one}))
    assert raises(
        lambda: psi_restrict(lead, group, points), "not a transversal"
    ) == _shares_an_orbit(group, points)
    eta = EtaFunction.of(dict.fromkeys(distinct, 1))
    inv = InvariantAlgebra(g, group, EtaFunction.of({o[0]: 1 for o in group.orbits(distinct)}))
    assert raises(lambda: inv.evaluation_iso(eta), "support contains two points of one orbit") == clash
    f = LaurentFunction.variable(1, 0, fld=fld)
    lift = lambda: constructive_lift(g, group, g.basis_vector(g.e(0)), f, distinct[0], eta)
    assert raises(lift, "support contains two points of one orbit") == clash


@pytest.mark.parametrize("setup", sorted(_SETUPS))
def test_psi_restrict_rejects_a_transversal_missing_a_support_orbit(setup):
    g, group = _SETUPS[setup]()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (1,), 2: (2,)}))
    assert psi_restrict(psi, group, [pt(fld, 1), pt(fld, 2)]) == _psi(fld, {1: (1,), 2: (2,)})
    with pytest.raises(ValueError, match="transversal misses the support orbit"):
        psi_restrict(psi, group, [pt(fld, 1), pt(fld, 3)])


def test_transport_preserves_bracket_via_iso():
    g, group = z2_setup()
    fld = g.field
    x = pt(fld, 1)
    inv = InvariantAlgebra(g, group, EtaFunction.of({x: 2}))
    psi_e = psi_gamma(group, _psi(fld, {1: (2,)}))
    mod = evaluation_module(psi_e, inv)
    mod.check_bracket()
    assert mod.dim == 3


def _z4_twisted_weyl():
    """W(2w) at the point i, a transversal of the orbit {1, i, -1, -i} of
    sl2 with Z/4 acting by t -> i t, and its twist: the orbit sums are
    read at -1, so evaluation at i brings in powers of zeta."""
    g, group = _z4_setup()
    fld = g.field
    psi = psi_gamma(group, _psi(fld, {1: (2,)}))
    tw, w, _ = twisted_weyl(group, psi, [Point((fld.zeta,))])
    return g, group, psi, tw, w.module


def _entries(module):
    return [x for a in module.actions for _, _, x in a.nonzeros()]


def test_twist_over_z4_lifts_to_the_field():
    g, _, _, tw, w = _z4_twisted_weyl()
    assert w.field is RAW and tw.field is g.field
    assert all(type(x) is int or type(x) is _Q for x in _entries(w))
    entries = _entries(tw)
    assert all(type(x) is FieldElement and x.field is g.field for x in entries)
    assert any(not x.is_rational() for x in entries)


def test_untwist_of_the_z4_twist_is_the_raw_module():
    _, _, _, tw, w = _z4_twisted_weyl()
    back = untwist(tw)
    assert back.field is RAW
    assert back.actions == w.actions and back.cyclic == w.cyclic
    assert all(type(x) is int or type(x) is _Q for x in _entries(back))


def test_untwist_refuses_an_entry_off_the_rationals():
    g, _, _, tw, _ = _z4_twisted_weyl()
    fld = g.field
    # zeta times each action: its untwist is zeta times the raw module
    scaled = [Matrix.combination(fld, tw.dim, tw.dim, [(fld.zeta, a)]) for a in tw.actions]
    with pytest.raises(ValueError, match="not rational"):
        untwist(FiniteModule(tw.algebra, scaled, cyclic=tw.cyclic))
    # a zeta in the cyclic vector alone is refused too
    with pytest.raises(ValueError, match="not rational"):
        untwist(FiniteModule(tw.algebra, tw.actions, cyclic={0: fld.zeta}))


def test_gamma_twist_over_z4():
    # the pullback along gamma^-1 has zeta entries; W(psi_{gamma.x}) is lifted
    # to the field before the two are compared
    g, group, psi, _, _ = _z4_twisted_weyl()
    fld = g.field
    for point in (pt(fld, 1), Point((fld.zeta,))):
        for gamma in group.elements:
            assert check_gamma_twist(group, psi, [point], gamma)
