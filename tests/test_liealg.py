"""Chevalley algebras sl_2..sl_4, automorphisms, and irreducible modules."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emapalg import liealg
from emapalg.coordalg import EtaFunction, Point
from emapalg.ema import TruncatedAlgebra
from emapalg.fields import QQ, RAW, field
from emapalg.linalg import Matrix, linear_combination, lower
from emapalg.liealg import (
    FiniteModule,
    automorphism_matrix,
    build_sl,
    irreducible_module,
    transport,
)
from emapalg.repmod import lift_module, tensor_product
from emapalg.rootdata import DiagramSymmetry, Weight

from helpers import freudenthal_mults, natural_module

_small = st.integers(min_value=-3, max_value=3)


def test_dimensions():
    for n, d in [(2, 3), (3, 8), (4, 15)]:
        assert build_sl(n).dim == d


def test_bad_rank():
    with pytest.raises(ValueError):
        build_sl(5)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.lists(_small, min_size=8, max_size=8),
    st.lists(_small, min_size=8, max_size=8),
    st.lists(_small, min_size=8, max_size=8),
)
def test_jacobi_and_antisymmetry(n, a, b, c):
    g = build_sl(n)
    u, v, w = ({i: QQ.scalar(x) for i, x in enumerate(xs[: g.dim]) if x} for xs in (a, b, c))
    zero = {}
    add = lambda x, y: linear_combination([(QQ.one, x), (QQ.one, y)])
    assert add(g.bracket(u, v), g.bracket(v, u)) == zero
    jac = add(
        add(g.bracket(u, g.bracket(v, w)), g.bracket(v, g.bracket(w, u))),
        g.bracket(w, g.bracket(u, v)),
    )
    assert jac == zero


def _matmul_table(g):
    """The bracket table by commutators of the basis matrices, read back in
    the Chevalley basis from the matrix entries.  The basis matrices are
    raw int matrices, so the table is read in ints."""
    units = {}
    for k, rc in enumerate(g.rd.positive_roots):
        lo = rc.index(1)
        hi = len(rc) - 1 - rc[::-1].index(1)
        units[(lo, hi + 1)] = g.index[("e", k)]
        units[(hi + 1, lo)] = g.index[("f", k)]
    order = [g.index[(kind, k)] for k in range(len(g.rd.positive_roots)) for kind in "ef"]
    table = {}
    for i, a in enumerate(g.basis_matrices):
        for j, b in enumerate(g.basis_matrices):
            m = Matrix.combination(RAW, g.n, g.n, [(1, a.matmul(b)), (-1, b.matmul(a))])
            entry = {(r, c): x for r, c, x in m.nonzeros()}
            coeff = {units[rc]: x for rc, x in entry.items() if rc in units}
            out = [(ai, coeff[ai]) for ai in order if ai in coeff]
            acc = 0
            for h in range(g.n - 1):
                acc += entry.get((h, h), 0)
                if acc:
                    out.append((g.index[("h", h)], acc))
            table[(i, j)] = tuple(out)
    return table


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("order", [1, 4], ids=["QQ", "Q(zeta4)"])
def test_matrix_unit_table_equals_the_matmul_table(n, order):
    g = build_sl(n, field(order))
    assert g._table == _matmul_table(g)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("order", [1, 4], ids=["QQ", "Q(zeta4)"])
def test_structure_constants_are_ints_in_one_table_per_rank(n, order):
    fld = field(order)
    g = build_sl(n, fld)
    assert build_sl(n, QQ)._table is build_sl(n, field(4))._table
    t = TruncatedAlgebra(g, EtaFunction.of({Point((fld.one,)): 2, Point((-fld.one,)): 1}))
    for alg in (g, t):
        pairs = itertools.product(range(alg.dim), repeat=2)
        coeffs = [c for i, j in pairs for _, c in alg.bracket_terms(i, j)]
        assert coeffs and all(type(c) is int for c in coeffs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simple_root_indices_are_shared_per_rank(n):
    g = build_sl(n)
    assert g._e is build_sl(n, field(4))._e and g._f is build_sl(n, field(4))._f
    for i in range(g.rd.rank):
        k = g.rd.positive_roots.index(tuple(int(j == i) for j in range(g.rd.rank)))
        assert (g.e(i), g.f(i)) == (g.index[("e", k)], g.index[("f", k)])


def test_a_wrong_table_fails_the_axiom_check(monkeypatch):
    # the table is built once per rank, so the check runs on a fresh one
    monkeypatch.setattr(liealg, "_RANKS", {})
    commutator = liealg._commutator
    monkeypatch.setattr(
        liealg, "_commutator", lambda a, b: {k: -x for k, x in commutator(a, b).items()}
    )
    for n in (2, 3, 4):
        with pytest.raises(AssertionError):
            build_sl(n)


def test_sl2_relations():
    g = build_sl(2)
    e, f, h = (g.basis_vector(g.e(0)), g.basis_vector(g.f(0)), g.basis_vector(g.h(0)))
    assert g.bracket(e, f) == h
    assert g.bracket(h, e) == {k: QQ.scalar(2) * x for k, x in e.items()}
    assert g.bracket(h, f) == {k: QQ.scalar(-2) * x for k, x in f.items()}


def test_natural_module_character():
    g = build_sl(3)
    nat = natural_module(g)
    assert nat.character() == freudenthal_mults(g.rd, Weight((1, 0)))


def test_tensor_product_of_g_modules():
    g = build_sl(2)
    nat = natural_module(g)
    tens = tensor_product(nat, nat)
    assert tens.dim == 4 and tens.cyclic == {0: QQ.one}
    # V(1) x V(1) = V(2) + V(0)
    assert tens.character() == {Weight((2,)): 1, Weight((0,)): 2, Weight((-2,)): 1}


@pytest.mark.parametrize(
    "n,coords,dim",
    [
        (2, (2,), 3),
        (2, (3,), 4),
        (3, (1, 0), 3),
        (3, (1, 1), 8),
        (3, (2, 0), 6),
        (4, (1, 0, 0), 4),
        (4, (0, 1, 0), 6),
    ],
)
def test_irreducible_dims(n, coords, dim):
    g = build_sl(n)
    mod = irreducible_module(g, Weight(coords))
    assert mod.dim == dim
    assert mod.character() == freudenthal_mults(g.rd, Weight(coords))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_highest_is_a_highest_weight_vector(n):
    """For the natural module and the irreducibles,
    `cyclic` is a sparse vector killed by every e and an h-eigenvector with
    the eigenvalues lam."""
    g = build_sl(n)
    rank = g.rd.rank
    nat = natural_module(g)
    unit = lambda i: Weight(tuple(int(j == i) for j in range(rank)))
    cases = [
        (nat, unit(0)),
        (irreducible_module(g, Weight((1,) * rank)), Weight((1,) * rank)),
        (irreducible_module(g, Weight((2,) + (0,) * (rank - 1))), Weight((2,) + (0,) * (rank - 1))),
        (irreducible_module(g, Weight((0,) * rank)), Weight((0,) * rank)),
    ]
    for mod, lam in cases:
        hw = mod.cyclic
        assert isinstance(hw, dict) and hw
        assert all(0 <= k < mod.dim and x for k, x in hw.items())
        for label, idx in g.index.items():
            if label[0] == "e":
                assert mod.actions[idx].apply(hw) == {}
        for i in range(rank):
            c = QQ.scalar(lam.coords[i])
            expect = linear_combination([(c, hw)])
            assert mod.actions[g.h(i)].apply(hw) == expect


def test_adjoint_zero_weight_mult():
    g = build_sl(3)
    mod = irreducible_module(g, Weight((1, 1)))
    assert mod.character()[Weight((0, 0))] == 2


def test_automorphism_flip():
    F = field(2)
    g = build_sl(3, F)
    tau = DiagramSymmetry.flip(2)
    mat = automorphism_matrix(g, tau, (0, 0), F.one)
    # squares to the identity
    assert mat.matmul(mat) == Matrix.identity(F, g.dim)
    # preserves brackets on random pairs
    for i, j in itertools.islice(itertools.product(range(g.dim), repeat=2), 20):
        u, v = g.basis_vector(i), g.basis_vector(j)
        assert mat.apply(g.bracket(u, v)) == g.bracket(mat.apply(u), mat.apply(v))


def test_automorphism_scaling_order():
    F = field(4)
    g = build_sl(2, F)
    mat = automorphism_matrix(g, DiagramSymmetry.identity(1), (1,), F.zeta)
    acc = mat
    for _ in range(3):
        acc = mat.matmul(acc)
    assert acc == Matrix.identity(F, g.dim)


def test_pullback_by_inner_scaling_preserves_character():
    F = field(2)
    g = build_sl(2, F)
    mod = irreducible_module(g, Weight((2,)))
    mat = automorphism_matrix(g, DiagramSymmetry.identity(1), (1,), -F.one)
    # the automorphism is over the field, so V is lifted to it, and the
    # pullback is lowered back to be read
    tw = transport(lift_module(mod, F), mat.inverse(), g)
    assert FiniteModule(g, [lower(a) for a in tw.actions]).character() == mod.character()


def test_invalid_automorphism():
    F = field(2)
    g = build_sl(2, F)
    ident = DiagramSymmetry.identity(1)
    with pytest.raises(ValueError):
        automorphism_matrix(g, ident, (1,), F.zero)
    # a negative exponent too; with every exponent 0 a zero zeta gives the
    # identity, zeta^0 being 1
    with pytest.raises(ValueError, match="zeta is 0"):
        automorphism_matrix(g, ident, (-1,), F.zero)
    assert automorphism_matrix(g, ident, (0,), F.zero) == Matrix.identity(F, g.dim)


def _preserves_every_pair(mat, g):
    """Reference: mat carries [x_i, x_j] to [mat x_i, mat x_j] on every basis
    pair i < j."""
    images = [mat.column(i) for i in range(g.dim)]
    return all(
        mat.apply(g.bracket(g.basis_vector(i), g.basis_vector(j)))
        == g.bracket(images[i], images[j])
        for i, j in itertools.combinations(range(g.dim), 2)
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.booleans(), st.booleans(), st.data())
def test_preserves_bracket_matches_every_pair(n, flip, perturb, data):
    # preserves_bracket walks the generators against the basis only; on the
    # automorphisms and on single-entry perturbations of them it gives the
    # all-pairs verdict
    F = field(4)
    g = build_sl(n, F)
    rank = n - 1
    tau = DiagramSymmetry.flip(rank) if flip else DiagramSymmetry.identity(rank)
    exponents = data.draw(st.tuples(*[st.integers(0, 3)] * rank))
    mat = automorphism_matrix(g, tau, exponents, F.zeta)
    if perturb:
        r, c = data.draw(st.integers(0, g.dim - 1)), data.draw(st.integers(0, g.dim - 1))
        delta = data.draw(st.sampled_from([F.one, -F.one, F.zeta]))
        bump = Matrix.from_triples(F, g.dim, g.dim, [(r, c, delta)])
        mat = Matrix.combination(F, g.dim, g.dim, [(F.one, mat), (F.one, bump)])
    assert liealg.preserves_bracket(mat, g, g) == _preserves_every_pair(mat, g)
    assert perturb or _preserves_every_pair(mat, g)
