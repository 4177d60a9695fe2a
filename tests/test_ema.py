"""Truncated map algebras, invariants, evaluation isomorphisms, lifts,
ideal identities."""

import os
import random

import pytest

from emapalg.coordalg import (
    EtaFunction,
    GammaGroup,
    GroupGenerator,
    LaurentFunction,
    Point,
    PointAction,
    jet_expand,
)
from emapalg.ema import (
    InvariantAlgebra,
    MapElement,
    TruncatedAlgebra,
    annihilator_eta,
    constructive_lift,
    gamma_truncation_matrix,
    ideal_equality_check,
    power_ideal_check,
    verify_annihilation,
    verify_lift,
)
from emapalg.fields import field
from emapalg.liealg import automorphism_matrix, build_sl
from emapalg.linalg import Matrix, Subspace
from emapalg.rootdata import DiagramSymmetry, Weight
from emapalg.scenario import load_scenario

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def z2_setup(order=4):
    """sl2 with Z/2 acting by t -> -t and e -> -e, f -> -f."""
    fld = field(order)
    g = build_sl(2, fld)
    minus = -fld.one
    tau = DiagramSymmetry.identity(1)
    mat = automorphism_matrix(g, tau, (1,), minus)
    gen = GroupGenerator(2, PointAction((minus,)), mat, tau)
    return g, GammaGroup(g, [gen])


def flip_setup():
    """sl3 with Z/2 acting by t -> -t and the diagram flip."""
    fld = field(4)
    g = build_sl(3, fld)
    tau = DiagramSymmetry.flip(2)
    mat = automorphism_matrix(g, tau, (0, 0), fld.one)
    gen = GroupGenerator(2, PointAction((-fld.one,)), mat, tau)
    return g, GammaGroup(g, [gen])


def pt(fld, c):
    return Point((fld.scalar(c),))


def test_truncated_dims():
    g, _ = z2_setup()
    fld = g.field
    assert TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 1})).dim == 3
    assert TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 2})).dim == 6
    assert (
        TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 2, pt(fld, 2): 1})).dim == 9
    )


def test_truncated_jacobi():
    g, _ = z2_setup()
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(g.field, 1): 2}))
    alg.check_jacobi(samples=40)


def test_bracket_constant_part_matches_g():
    g, _ = z2_setup()
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 2}))
    # (u tensor 1) bracket (v tensor 1) = [u, v] tensor 1
    for i in range(g.dim):
        for j in range(g.dim):
            u = alg.basis_vector(alg.index[(0, i, (0,))])
            v = alg.basis_vector(alg.index[(0, j, (0,))])
            br = alg.bracket(u, v)
            expect = {
                alg.index[(0, k, (0,))]: c
                for k, c in g.bracket(g.basis_vector(i), g.basis_vector(j)).items()
            }
            assert br == expect


def _project(alg, g_vec, f):
    """Image of (g-element tensor function) in the truncation."""
    out = {}
    for p_idx, jet in enumerate(alg.jets):
        coeffs = jet_expand(f, jet.point, jet.order)
        for g_idx, c in g_vec.items():
            for mono, jc in coeffs.items():
                out[alg.index[(p_idx, g_idx, mono)]] = c * jc
    return out


def test_project_takes_jets():
    g, _ = z2_setup()
    fld = g.field
    alg = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 2): 2}))
    t = LaurentFunction.variable(1, 0, fld=fld)
    v = _project(alg, g.basis_vector(g.e(0)), t)
    # jet of t at 2 below order 2: 2 + u
    e_idx0 = alg.index[(0, g.e(0), (0,))]
    e_idx1 = alg.index[(0, g.e(0), (1,))]
    assert v[e_idx0] == fld.scalar(2) and v[e_idx1] == fld.one


def test_orbit_truncation_and_gamma_order():
    g, group = z2_setup()
    fld = g.field
    eta = EtaFunction.of({pt(fld, 1): 2})
    t = TruncatedAlgebra(g, eta.orbit_saturation(group))
    assert t.dim == 12
    m = gamma_truncation_matrix(group, (1,), t, t)
    assert m.matmul(m) == Matrix.identity(fld, t.dim)


def _reference_components(g, group, eta):
    """The xi-graded invariants of the orbit truncation, built without orbit
    sums: average over the whole group, project the g factor onto each
    character over the whole truncation, and take the reduced basis."""
    t = TruncatedAlgebra(g, eta.orbit_saturation(group))
    fld = g.field
    inv_n = fld.one / fld.scalar(group.size)
    avg = Matrix.combination(
        fld,
        t.dim,
        t.dim,
        [(inv_n, gamma_truncation_matrix(group, gamma, t, t)) for gamma in group.elements],
    )
    assert avg.matmul(avg) == avg
    components = {}
    for xi in group.characters:
        triples = []
        for gamma in group.elements:
            chi = group.character_value(xi, gamma).inverse() * inv_n
            gm = group.g_matrix(gamma)
            for j, (p_idx, g_idx, mono) in enumerate(t.basis):
                for g_tgt, c in gm.column(g_idx).items():
                    triples.append((t.index[(p_idx, g_tgt, mono)], j, c * chi))
        proj = Matrix.from_triples(fld, t.dim, t.dim, triples)
        vecs = [proj.apply(avg.column(j)) for j in range(t.dim)]
        components[xi] = Subspace(t.dim, vecs, fld=fld)
    return components


@pytest.mark.parametrize("setup", [z2_setup, flip_setup])
@pytest.mark.parametrize("exps", [(1,), (2,), (1, 2)])
def test_orbit_sum_basis_matches_reference(setup, exps):
    g, group = setup()
    fld = g.field
    eta = EtaFunction.of({pt(fld, k + 1): e for k, e in enumerate(exps)})
    inv = InvariantAlgebra(g, group, eta)
    ref = _reference_components(g, group, eta)
    assert inv.xi_labels == [xi for xi in group.characters for _ in range(ref[xi].dim)]
    for xi in group.characters:
        mine = [b for b, label in zip(inv.basis, inv.xi_labels) if label == xi]
        assert Subspace(inv.ambient.dim, mine, fld=fld) == ref[xi]
        # the orbit sums are in reduced echelon form, so they are the
        # reference's reduced basis itself, in the same order
        assert mine == ref[xi].basis


def test_invariant_algebra_rejects_a_non_free_orbit():
    # sl3 with the flip and the trivial scaling: every point is fixed
    fld = field(4)
    g = build_sl(3, fld)
    tau = DiagramSymmetry.flip(2)
    mat = automorphism_matrix(g, tau, (0, 0), fld.one)
    group = GammaGroup(g, [GroupGenerator(2, PointAction((fld.one,)), mat, tau)])
    with pytest.raises(ValueError, match="does not act freely"):
        InvariantAlgebra(g, group, EtaFunction.of({pt(fld, 1): 1}))


def test_order_one_generator_gives_the_whole_truncation():
    fld = field(4)
    g = build_sl(2, fld)
    tau = DiagramSymmetry.identity(1)
    mat = automorphism_matrix(g, tau, (0,), fld.one)
    group = GammaGroup(g, [GroupGenerator(1, PointAction((fld.one,)), mat, tau)])
    eta = EtaFunction.of({pt(fld, 1): 2})
    assert InvariantAlgebra(g, group, eta).dim == TruncatedAlgebra(g, eta).dim


def test_invariant_dims_and_labels():
    g, group = z2_setup()
    fld = g.field
    inv1 = InvariantAlgebra(g, group, EtaFunction.of({pt(fld, 1): 1}))
    assert inv1.dim == 3
    assert sorted(inv1.xi_labels) == [(0,), (1,), (1,)]
    inv2 = InvariantAlgebra(g, group, EtaFunction.of({pt(fld, 1): 2}))
    assert inv2.dim == 6


def test_coords_rejects_non_invariant_vectors():
    g, group = z2_setup()
    inv = InvariantAlgebra(g, group, EtaFunction.of({pt(g.field, 1): 2}))
    t = inv.ambient
    assert inv.coords(inv.basis[1]) == inv.basis_vector(1)
    # a single ambient basis vector lives at one point of a two-point orbit
    with pytest.raises(ValueError):
        inv.coords(t.basis_vector(0))


def _fixture_invariant(name, exponent):
    """The invariant algebra of a fixture scenario, truncated at every one of
    its points to the given exponent."""
    scn = load_scenario(os.path.join(FIXTURES, name + ".json"))
    eta = EtaFunction.of({p: exponent for p in scn.points.values()})
    return InvariantAlgebra(scn.algebra, scn.group, eta)


@pytest.mark.parametrize("exponent", [1, 2, 3])
@pytest.mark.parametrize("name", ["sl2_z2", "sl2_z2_one_orbit", "sl3_flip", "sl3_stress"])
def test_structure_constants_match_ambient_bracket(name, exponent):
    # the label-read structure constants against the bracket of the orbit
    # sums in the ambient truncation, read back through coords
    inv = _fixture_invariant(name, exponent)
    t = inv.ambient
    for i in range(inv.dim):
        for j in range(inv.dim):
            ref = tuple(sorted(inv.coords(t.bracket(inv.basis[i], inv.basis[j])).items()))
            assert inv.bracket_terms(i, j) == ref, (i, j)


def test_invariant_jacobi_all_triples_sl3():
    _fixture_invariant("sl3_flip", 2).check_jacobi(samples=None)


def test_corrupted_eigen_bracket_fails_the_grading_check(monkeypatch):
    inv = _fixture_invariant("sl3_flip", 1)
    x = inv._reps[0]
    label = {e: inv.xi_labels[inv._slot[(x, e, (0,))]] for e in range(inv.g.dim)}
    a, b = next((a, b) for a in label for b in label if inv.g.bracket(inv._eigen[a], inv._eigen[b]))
    (e0, _), *_ = inv._eigen_inv.apply(inv.g.bracket(inv._eigen[a], inv._eigen[b])).items()
    # put [v_a, v_b] on an eigenvector of another character
    wrong = next(e for e in label if label[e] != label[e0])
    monkeypatch.setattr(inv.g, "bracket", lambda u, v: dict(inv._eigen[wrong]))
    with pytest.raises(AssertionError):
        inv.bracket_terms(inv._slot[(x, a, (0,))], inv._slot[(x, b, (0,))])


def test_invariant_closed_under_bracket():
    g, group = z2_setup()
    inv = InvariantAlgebra(g, group, EtaFunction.of({pt(g.field, 1): 2}))
    for i in range(inv.dim):
        for j in range(inv.dim):
            inv.bracket(inv.basis_vector(i), inv.basis_vector(j))  # coords must exist


@pytest.mark.parametrize("exps", [(1,), (2,), (1, 2), (2, 2)])
def test_ev_iso_sl2(exps):
    g, group = z2_setup()
    fld = g.field
    eta = EtaFunction.of({pt(fld, k + 1): e for k, e in enumerate(exps)})
    inv = InvariantAlgebra(g, group, eta)
    target, mat, matinv = inv.evaluation_iso(eta)
    assert inv.dim == target.dim
    assert mat.matmul(matinv) == Matrix.identity(fld, inv.dim)
    assert inv.check_iso_is_homomorphism(eta)


@pytest.mark.parametrize("exps", [(1,), (2,)])
def test_ev_iso_sl3_flip(exps):
    g, group = flip_setup()
    fld = g.field
    eta = EtaFunction.of({pt(fld, k + 1): e for k, e in enumerate(exps)})
    inv = InvariantAlgebra(g, group, eta)
    target, _, _ = inv.evaluation_iso(eta)
    assert inv.dim == target.dim
    assert inv.check_iso_is_homomorphism(eta)


def test_gamma_truncation_matrix_is_homomorphism():
    g, group = z2_setup()
    fld = g.field
    src = TruncatedAlgebra(g, EtaFunction.of({pt(fld, 1): 2}))
    tgt = TruncatedAlgebra(g, EtaFunction.of({pt(fld, -1): 2}))
    m = gamma_truncation_matrix(group, (1,), src, tgt)
    for i in range(src.dim):
        for j in range(src.dim):
            u, v = src.basis_vector(i), src.basis_vector(j)
            lhs = m.apply(src.bracket(u, v))
            rhs = tgt.bracket(m.apply(u), m.apply(v))
            assert lhs == rhs


def test_constructive_lift_deterministic():
    g, group = z2_setup()
    fld = g.field
    x = pt(fld, 1)
    eta = EtaFunction.of({x: 2})
    f = LaurentFunction.variable(1, 0, fld=fld)
    a = g.basis_vector(g.e(0))
    alpha, f1, f2 = constructive_lift(g, group, a, f, x, eta)
    ok, msg = verify_lift(g, group, alpha, a, f, x, eta)
    assert ok, msg


def test_constructive_lift_randomized():
    g, group = z2_setup()
    fld = g.field
    rng = random.Random(7)
    t = LaurentFunction.variable(1, 0, fld=fld)
    for _ in range(10):
        exps = {pt(fld, 1): rng.randint(1, 2)}
        if rng.random() < 0.5:
            exps[pt(fld, 2)] = rng.randint(1, 2)
        eta = EtaFunction.of(exps)
        x = rng.choice(list(eta.support()))
        draws = [rng.randint(-2, 2) for _ in range(g.dim)]
        a = {i: fld.scalar(c) for i, c in enumerate(draws) if c}
        if not a:
            a = g.basis_vector(0)
        f = t ** rng.randint(0, 2) + LaurentFunction.constant(1, fld.scalar(rng.randint(0, 3)))
        alpha, _, _ = constructive_lift(g, group, a, f, x, eta)
        ok, msg = verify_lift(g, group, alpha, a, f, x, eta)
        assert ok, msg


def test_lift_needs_root_of_minus_one():
    g, group = z2_setup(order=2)  # QQ(-1): no 4th root of unity
    fld = g.field
    x = pt(fld, 1)
    eta = EtaFunction.of({x: 2})
    f = LaurentFunction.constant(1, fld.one)
    with pytest.raises(ValueError):
        constructive_lift(g, group, g.basis_vector(0), f, x, eta)


def test_ideal_equality():
    g, group = z2_setup()
    fld = g.field
    ambient = EtaFunction.of({pt(fld, 1): 3})
    inv = InvariantAlgebra(g, group, ambient)
    assert ideal_equality_check(inv, EtaFunction.of({pt(fld, 1): 1}))


def test_power_ideal_small():
    g, group = z2_setup()
    fld = g.field
    for m in (1, 2):
        ambient = EtaFunction.of({pt(fld, 1): 2 * m + 1})
        inv = InvariantAlgebra(g, group, ambient)
        assert power_ideal_check(inv, EtaFunction.of({pt(fld, 1): 1}), m)


def test_annihilator_of_evaluation_module():
    from emapalg.repmod import PsiFunction, evaluation_module, psi_gamma

    g, group = z2_setup()
    fld = g.field
    x = pt(fld, 1)
    psi = psi_gamma(group, PsiFunction.of({x: Weight((2,))}))
    inv = InvariantAlgebra(g, group, EtaFunction.of({x: 2}))
    mod = evaluation_module(psi, inv)
    eta = annihilator_eta(mod)
    assert eta[x] == 1
    assert verify_annihilation(mod, eta)


def test_map_element_roundtrip():
    g, group = z2_setup()
    fld = g.field
    t = LaurentFunction.variable(1, 0, fld=fld)
    el = MapElement.pure(g, g.basis_vector(g.e(0)), t)
    tw = el.gamma_apply(group, (1,))
    assert tw.gamma_apply(group, (1,)) == el
