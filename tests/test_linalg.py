"""Exact linear algebra."""

import ast
import functools
import itertools
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emapalg
from emapalg.fields import QQ, RAW, _Q, field
from emapalg.liealg import FiniteModule, build_sl, weight_spaces
from emapalg.linalg import (
    Matrix,
    Subspace,
    commutator_matches,
    hom_action,
    intersect,
    joint_eigenspaces,
    kron_slots,
    kron_vector,
    lift,
    linear_combination,
    lower,
    restrict_operator,
    rref,
    saturate,
    tensor_strides,
)
from emapalg.repmod import PsiFunction, psi_gamma
from emapalg.rootdata import Weight
from emapalg.weyl import twisted_weyl

from helpers import natural_module
from test_ema import pt, z2_setup

_ints = st.integers(min_value=-5, max_value=5)


def _mat(rows):
    return Matrix([[QQ.scalar(x) for x in r] for r in rows], ncols=len(rows[0]), fld=QQ)


def _vec(xs):
    """The sparse vector with the given integer coordinates."""
    return {i: QQ.scalar(x) for i, x in enumerate(xs) if x}


def _dense_rref(rows, ncols):
    """Reference: the dense Gauss-Jordan elimination that linalg.rref
    replaced.  Returns (dense rows, pivot columns); zero rows dropped."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[: len(pivots)]], pivots


def _ref_nullspace(rows, ncols, fld):
    red, pivots = _dense_rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [fld.zero] * ncols
            v[fc] = fld.one
            for row, pc in zip(red, pivots):
                v[pc] = -row[fc]
            basis.append(v)
    return _dense_rref(basis, ncols)[0]


def _ref_solve(rows, rhs, ncols, fld):
    red, pivots = _dense_rref([tuple(r) + (b,) for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    x = [fld.zero] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[-1]
    return tuple(x)


def _ref_inverse(rows, fld):
    n = len(rows)
    unit = [tuple(fld.one if i == j else fld.zero for j in range(n)) for i in range(n)]
    red, pivots = _dense_rref([tuple(r) + u for r, u in zip(rows, unit)], 2 * n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def _densify(row, n, fld):
    return tuple(row.get(c, fld.zero) for c in range(n))


def _sparsify(row):
    return {c: x for c, x in enumerate(row) if not x.is_zero()}


@st.composite
def _sparse_matrices(draw):
    """(field, dense rows, ncols): up to 4 x 5 over QQ or Q(zeta_3), about
    two thirds of the entries zero."""
    fld = draw(st.sampled_from([QQ, field(3)]))
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=5))
    coeff = st.integers(min_value=-3, max_value=3)

    def entry():
        if draw(st.integers(min_value=0, max_value=2)):
            return fld.zero
        return fld.element([draw(coeff) for _ in range(fld.degree)])

    return fld, [tuple(entry() for _ in range(ncols)) for _ in range(nrows)], ncols


@st.composite
def _raw_or_field_rows(draw):
    """(field, dense rows, ncols): _sparse_matrices, or up to 5 x 5 raw
    rationals, most of them zero."""
    if draw(st.booleans()):
        return draw(_sparse_matrices())
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, _Q(1, 2), _Q(-2, 3)])
    return RAW, [tuple(draw(entry) for _ in range(ncols)) for _ in range(nrows)], ncols


@settings(max_examples=150, deadline=None)
@given(_raw_or_field_rows(), st.data())
def test_rref_nullspace_and_subspace_ignore_row_order(drawn, data):
    # rref adds the rows sparsest first; the reduced echelon form is unique,
    # so no permutation of the rows changes it, the nullspace or a span
    fld, rows, ncols = drawn
    order = data.draw(st.permutations(range(len(rows))))

    def views(rs):
        triples = ((r, c, x) for r, row in enumerate(rs) for c, x in enumerate(row) if x)
        m = Matrix.from_triples(fld, len(rs), ncols, triples)
        return rref(rs, ncols), m.nullspace().basis, Subspace(ncols, rs, fld=fld).basis

    assert views(rows) == views([rows[i] for i in order])


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices(), st.data())
def test_sparse_rows_agree_with_dense_reference(drawn, data):
    fld, rows, ncols = drawn
    m = Matrix(rows, ncols=ncols, fld=fld)
    ref_rows, ref_pivots = _dense_rref(rows, ncols)
    got_rows, got_pivots = rref(m.entries, ncols)
    assert got_pivots == ref_pivots
    assert [_densify(r, ncols, fld) for r in got_rows] == ref_rows
    assert rref(rows, ncols) == (got_rows, got_pivots)
    assert m.rank() == len(ref_pivots)
    assert [_densify(v, ncols, fld) for v in m.nullspace().basis] == _ref_nullspace(
        rows, ncols, fld
    )
    # one consistent right-hand side, one arbitrary
    x = data.draw(st.lists(_ints, min_size=ncols, max_size=ncols))
    b = data.draw(st.lists(_ints, min_size=len(rows), max_size=len(rows)))
    for rhs in (m.apply(_sparsify(map(fld.scalar, x))), _sparsify(map(fld.scalar, b))):
        sol = m.solve(rhs)
        ref = _ref_solve(rows, _densify(rhs, len(rows), fld), ncols, fld)
        assert (None if sol is None else _densify(sol, ncols, fld)) == ref
    k = min(len(rows), ncols)
    square = [r[:k] for r in rows[:k]]
    inv = Matrix(square, ncols=k, fld=fld).inverse()
    ref_inv = _ref_inverse(square, fld)
    assert inv == (None if ref_inv is None else Matrix(ref_inv, ncols=k, fld=fld))
    assert Matrix(rows, ncols=ncols, fld=fld).inverse() == (
        None if len(rows) != ncols else inv
    )
    # one vector at a time
    sub = Subspace(ncols, (), fld=fld)
    for i, row in enumerate(rows):
        before = _dense_rref(rows[:i], ncols)[0]
        after = _dense_rref(rows[: i + 1], ncols)[0]
        assert sub.add_vector(_sparsify(row)) == (len(after) > len(before))
        assert [_densify(v, ncols, fld) for v in sub.basis] == after


def _check_vec(v, n):
    """v is a sparse vector of a space of dimension n: a dict with in-range
    int keys and no zero value."""
    assert isinstance(v, dict)
    for c, x in v.items():
        assert isinstance(c, int) and 0 <= c < n
        assert not x.is_zero()


def _dense_apply(rows, x, fld):
    out = []
    for row in rows:
        acc = fld.zero
        for a, b in zip(row, x):
            acc = acc + a * b
        out.append(acc)
    return tuple(out)


def _dense_residue(basis, pivots, v):
    """v modulo reduced echelon dense rows, with their pivot columns."""
    v = list(v)
    for row, p in zip(basis, pivots):
        c = v[p]
        v = [a - c * b for a, b in zip(v, row)]
    return tuple(v)


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices(), st.data())
def test_sparse_api_contract(drawn, data):
    """Every vector linalg returns is a sparse row that equals its dense
    reference, and a basis once taken does not change."""
    fld, rows, ncols = drawn
    nrows = len(rows)
    m = Matrix(rows, ncols=ncols, fld=fld)
    for j in range(ncols):
        col = m.column(j)
        _check_vec(col, nrows)
        assert _densify(col, nrows, fld) == tuple(r[j] for r in rows)
    x = tuple(map(fld.scalar, data.draw(st.lists(_ints, min_size=ncols, max_size=ncols))))
    image = m.apply(_sparsify(x))
    _check_vec(image, nrows)
    assert _densify(image, nrows, fld) == _dense_apply(rows, x, fld)
    sol = m.solve(image)
    _check_vec(sol, ncols)
    assert _densify(sol, ncols, fld) == _ref_solve(rows, _dense_apply(rows, x, fld), ncols, fld)
    ker = m.nullspace().basis
    for v in ker:
        _check_vec(v, ncols)
    assert [_densify(v, ncols, fld) for v in ker] == _ref_nullspace(rows, ncols, fld)

    sub = Subspace(ncols, [_sparsify(r) for r in rows[:-1]], fld=fld)
    ref_basis, ref_pivots = _dense_rref(rows[:-1], ncols)
    basis = sub.basis
    for v in basis:
        _check_vec(v, ncols)
    assert [_densify(v, ncols, fld) for v in basis] == ref_basis
    res = sub.reduce(_sparsify(rows[-1]))
    _check_vec(res, ncols)
    assert _densify(res, ncols, fld) == _dense_residue(ref_basis, ref_pivots, rows[-1])
    snapshot = [dict(v) for v in basis]
    sub.add_vector(_sparsify(rows[-1]))
    assert basis == snapshot

    y = tuple(map(fld.scalar, data.draw(st.lists(_ints, min_size=2, max_size=2))))
    kron = kron_vector(fld, [ncols, 2], [_sparsify(x), _sparsify(y)])
    _check_vec(kron, 2 * ncols)
    assert _densify(kron, 2 * ncols, fld) == tuple(a * b for a in x for b in y)


def test_entries_that_cancel_are_dropped():
    m = _mat([[1, 2], [0, 3]])
    zero = _mat([[0, 0], [0, 0]])
    for z in (
        Matrix.from_triples(QQ, 2, 2, [(0, 0, QQ.one), (0, 0, -QQ.one)]),
        Matrix.combination(QQ, 2, 2, [(QQ.one, m), (-QQ.one, m)]),
    ):
        assert z.is_zero()
        assert z == zero
        assert list(z.nonzeros()) == []


def test_rref_known():
    rows, pivots = rref(_mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]]).entries, 3)
    assert pivots == [0, 2]
    assert len(rows) == 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_ints, min_size=3, max_size=3), min_size=1, max_size=4))
def test_nullspace_annihilates(rows):
    m = _mat(rows)
    ns = m.nullspace()
    assert ns.dim == 3 - m.rank()
    for b in ns.basis:
        assert m.apply(b) == {}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(_ints, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(_ints, min_size=3, max_size=3),
)
def test_solve_consistent(rows, x):
    m = _mat(rows)
    rhs = m.apply(_vec(x))
    sol = m.solve(rhs)
    assert sol is not None
    assert m.apply(sol) == rhs


def test_inverse():
    m = _mat([[1, 2], [3, 5]])
    inv = m.inverse()
    assert m.matmul(inv) == Matrix.identity(QQ, 2)
    assert _mat([[1, 2], [2, 4]]).inverse() is None


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(_ints, min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(_ints, min_size=4, max_size=4),
)
def test_subspace_reduce_membership(vectors, probe):
    s = Subspace(4, [_vec(v) for v in vectors], fld=QQ)
    for b in s.basis:
        assert s.contains(b)
    res = s.reduce(_vec(probe))
    # residue reduces to itself
    assert s.reduce(res) == res
    grew = s.add_vector(_vec(probe))
    assert grew == (res != {})
    assert s.contains(_vec(probe))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(_ints, min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(st.lists(_ints, min_size=4, max_size=4), min_size=1, max_size=3),
)
def test_intersect_is_contained_in_both(v1, v2):
    s1 = Subspace(4, [_vec(v) for v in v1], fld=QQ)
    s2 = Subspace(4, [_vec(v) for v in v2], fld=QQ)
    cap = intersect(s1, s2)
    for b in cap.basis:
        assert s1.contains(b) and s2.contains(b)
    # dimension formula against the sum
    union = s1.copy()
    for b in s2.basis:
        union.add_vector(b)
    assert cap.dim == s1.dim + s2.dim - union.dim


def test_saturate_cyclic():
    # nilpotent shift on QQ^3: closure of e_0 under the shift is everything
    shift = _mat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    seed = Subspace(3, [_vec([1, 0, 0])], fld=QQ)
    assert saturate(seed, [shift]).dim == 3


def test_restrict_operator_and_eigenspaces():
    d = _mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    sub = Subspace(3, [_vec([1, 0, 0]), _vec([0, 0, 1])], fld=QQ)
    r = restrict_operator(d, sub)
    assert r.entries[0][0] == QQ.one and r.entries[1][1] == QQ.scalar(2)
    assert joint_eigenspaces([r], 2) == {(QQ.one,): [0], (QQ.scalar(2),): [1]}
    # keys follow the first coordinate that carries them; an absent diagonal
    # entry is zero
    assert list(joint_eigenspaces([d, _mat([[0, 0, 0], [0, 3, 0], [0, 0, 0]])], 3)) == [
        (QQ.one, QQ.zero), (QQ.one, QQ.scalar(3)), (QQ.scalar(2), QQ.zero)
    ]


def test_eigenspaces_cyclotomic():
    F = field(4)
    d = Matrix([[F.zeta, F.zero], [F.zero, -F.zeta]], ncols=2, fld=F)
    assert joint_eigenspaces([d], 2) == {(F.zeta,): [0], (-F.zeta,): [1]}
    # the rotation has the eigenvalues +-i too, but not on the basis
    rot = Matrix([[F.zero, -F.one], [F.one, F.zero]], ncols=2, fld=F)
    with pytest.raises(ValueError, match="not diagonal"):
        joint_eigenspaces([rot], 2)


def test_eigenspaces_rational_non_diagonal():
    # semisimple (eigenvalues 1 and 2) or nilpotent: neither is diagonal on
    # the basis, so neither is a weight read
    for m in (_mat([[1, 1], [0, 2]]), _mat([[0, 1], [0, 0]])):
        with pytest.raises(ValueError, match="not diagonal"):
            joint_eigenspaces([m], 2)
        with pytest.raises(ValueError, match="not diagonal"):
            weight_spaces([m], 2)


def test_off_diagonal_cartan_action_raises():
    # the natural sl2-module in the basis e0, e0 + e1: h is not diagonal
    g = build_sl(2)
    nat = natural_module(g)
    p = _mat([[1, 1], [0, 1]])
    p_inv = p.inverse()
    moved = FiniteModule(g, [p.matmul(a).matmul(p_inv) for a in nat.actions])
    moved.check_bracket()
    with pytest.raises(ValueError, match="not diagonal"):
        moved.character()


def _weight_candidates(fld, n):
    """The integer weights possible on a module of dimension n."""
    return [fld.scalar(c) for c in range(1 - n, n)]


def _scan_reference(ops, n, eigenvalues):
    """The joint eigenspaces of commuting semisimple operators on the
    coordinate space of dimension n, by one nullspace per piece and candidate
    eigenvalue: a reference that needs no diagonal, keys in candidate
    order."""
    one = ops[0].field.one
    pieces = {(): Subspace(n, [{i: one} for i in range(n)], fld=ops[0].field)}
    for op in ops:
        new = {}
        for key, sp in pieces.items():
            m = restrict_operator(op, sp)
            fld, basis = sp.field, sp.basis
            ident = Matrix.identity(fld, sp.dim)
            for ev in eigenvalues:
                ker = Matrix.combination(
                    fld, sp.dim, sp.dim, [(fld.one, m), (-ev, ident)]
                ).nullspace()
                if ker.dim:
                    vecs = [
                        linear_combination((c, basis[k]) for k, c in v.items())
                        for v in ker.basis
                    ]
                    new[key + (ev,)] = Subspace(n, vecs, fld=fld)
        pieces = new
    return pieces


def _coordinate_spaces(fld, n, groups):
    """Each group of coordinate indices as the Subspace it spans."""
    return {
        key: Subspace(n, [{i: fld.one} for i in idx], fld=fld) for key, idx in groups.items()
    }


def _is_diagonal(m):
    return all(r == c for r, c, _ in m.nonzeros())


@st.composite
def _diagonals_and_conjugator(draw):
    """(n, [D1, D2], P): two diagonal n x n matrices over QQ with integer
    entries in [1 - n, n - 1], and a unitriangular P."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=1 - n, max_value=n - 1)
    diags = [
        _mat([[draw(entry) if i == j else 0 for j in range(n)] for i in range(n)])
        for _ in range(2)
    ]
    p = _mat([[draw(_ints) if i < j else int(i == j) for j in range(n)] for i in range(n)])
    return n, diags, p


@settings(max_examples=80, deadline=None)
@given(_diagonals_and_conjugator(), st.integers(min_value=1, max_value=2))
def test_diagonal_read_equals_the_scan(drawn, nops):
    n, diags, p = drawn
    diags = diags[:nops]
    p_inv = p.inverse()
    conjugates = [p.matmul(d).matmul(p_inv) for d in diags]
    read = joint_eigenspaces(diags, n)
    # the same eigenspaces as the scan; with two operators the second is
    # scanned on proper pieces
    scanned = _scan_reference(diags, n, _weight_candidates(QQ, n))
    assert _coordinate_spaces(QQ, n, read) == scanned
    assert sum(len(idx) for idx in read.values()) == n
    assert weight_spaces([lower(d) for d in diags], n) == {
        tuple(int(x.as_rational()) for x in key): idx for key, idx in read.items()
    }
    # a unitriangular conjugate of a diagonal matrix is either that matrix or
    # not diagonal, and then it is refused
    if all(_is_diagonal(c) for c in conjugates):
        assert conjugates == diags
    else:
        with pytest.raises(ValueError, match="not diagonal"):
            joint_eigenspaces(conjugates, n)


def test_diagonal_read_keeps_the_coverage_check():
    # every diagonal entry must be an integer weight: not 1/2, not zeta, and
    # not 2 on a module of dimension 2 (outside [1 - dim, dim - 1])
    half = QQ.one / QQ.scalar(2)
    F = field(4)
    for d in (
        Matrix([[half, QQ.zero], [QQ.zero, QQ.one]], ncols=2, fld=QQ),
        Matrix([[F.zeta, F.zero], [F.zero, F.one]], ncols=2, fld=F),
        _mat([[2, 0], [0, 0]]),
    ):
        with pytest.raises(ValueError, match="not an integer weight"):
            weight_spaces([d], 2)


def _square(n):
    return st.lists(st.lists(_ints, min_size=n, max_size=n), min_size=n, max_size=n)


def _delta(i, j):
    return 1 if i == j else 0


@settings(max_examples=30, deadline=None)
@given(_square(2), _square(3), _ints)
def test_kron_slots_entrywise(a, b, c):
    # A x I + I x B on Q^2 x Q^3, index (i, j) -> 3 i + j, written out
    m = kron_slots(QQ, [2, 3], [(QQ.one, 0, _mat(a)), (QQ.one, 1, _mat(b))])
    expect = [
        [
            a[i][k] * _delta(j, l) + _delta(i, k) * b[j][l]
            for k in range(2)
            for l in range(3)
        ]
        for i in range(2)
        for j in range(3)
    ]
    assert m == _mat(expect)
    # middle slot of three, with a coefficient: 1 x cA x 1 on Q^2 x Q^2 x Q^2
    m = kron_slots(QQ, [2, 2, 2], [(QQ.scalar(c), 1, _mat(a))])
    expect = [
        [
            _delta(i, k) * c * a[j][l] * _delta(p, q)
            for k in range(2)
            for l in range(2)
            for q in range(2)
        ]
        for i in range(2)
        for j in range(2)
        for p in range(2)
    ]
    assert m == _mat(expect)
    assert kron_vector(QQ, [2, 3], [_vec(a[0]), _vec(b[0])]) == _vec(
        [x * y for x in a[0] for y in b[0]]
    )


@settings(max_examples=30, deadline=None)
@given(_square(2), _square(3), st.lists(_ints, min_size=6, max_size=6))
def test_hom_action_is_commutator_on_row_major_matrices(a1, a2, t):
    # T is 3 x 2, flattened row-major
    tm = _mat([t[0:2], t[2:4], t[4:6]])
    image = _mat(a2).matmul(tm)
    image = Matrix.combination(
        QQ, 3, 2, [(QQ.one, image), (-QQ.one, tm.matmul(_mat(a1)))]
    )
    flat = {2 * r + c: x for r, c, x in image.nonzeros()}
    assert hom_action(_mat(a1), _mat(a2)).apply(_vec(t)) == flat


def test_from_triples_accumulates_duplicates():
    m = Matrix.from_triples(
        QQ,
        2,
        3,
        [(0, 1, QQ.one), (1, 2, QQ.scalar(3)), (0, 1, QQ.scalar(4)), (1, 2, QQ.scalar(-3))],
    )
    assert m == _mat([[0, 5, 0], [0, 0, 0]])
    assert list(m.nonzeros()) == [(0, 1, QQ.scalar(5))]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(_ints, min_size=3, max_size=3), min_size=1, max_size=4), _ints)
def test_column_nonzeros_and_combination(rows, c):
    m = _mat(rows)
    assert Matrix.from_triples(QQ, m.nrows, m.ncols, m.nonzeros()) == m
    for j in range(m.ncols):
        unit = _vec([_delta(i, j) for i in range(m.ncols)])
        assert m.column(j) == m.apply(unit)
    assert Matrix.from_columns(QQ, m.nrows, [m.column(j) for j in range(m.ncols)]) == m
    assert linear_combination(
        [(QQ.scalar(c), m.column(0)), (QQ.one, m.column(0)), (QQ.zero, m.column(1))]
    ) == {r: QQ.scalar((c + 1) * row[0]) for r, row in enumerate(rows) if (c + 1) * row[0]}
    twice = Matrix.combination(
        QQ, m.nrows, m.ncols, [(QQ.scalar(c), m), (QQ.one, m), (QQ.zero, m)]
    )
    assert twice == _mat([[(c + 1) * x for x in r] for r in rows])


def test_combination_refuses_a_mixed_scalar_kind():
    # a term over another kind, or a field coefficient over RAW, is refused
    # and named, not labelled with the requested kind
    raw = Matrix.from_triples(RAW, 2, 2, [(0, 1, 1)])
    over_qq = Matrix.from_triples(QQ, 2, 2, [(0, 1, QQ.one)])
    with pytest.raises(ValueError, match="over RAW of a matrix over CyclotomicField"):
        Matrix.combination(RAW, 2, 2, [(1, raw), (1, over_qq)])
    with pytest.raises(ValueError, match="over CyclotomicField.* of a matrix over RAW"):
        Matrix.combination(QQ, 2, 2, [(QQ.one, raw)])
    with pytest.raises(ValueError, match="over RAW with a coefficient in CyclotomicField"):
        Matrix.combination(RAW, 2, 2, [(QQ.scalar(2), raw)])
    assert Matrix.combination(RAW, 2, 2, [(2, raw)]) == Matrix.from_triples(RAW, 2, 2, [(0, 1, 2)])


def test_only_linalg_knows_matrix_storage():
    """No module but linalg reads the sparse rows of a Matrix or a Subspace,
    their pivot layout or a private constructor, or imports a private linalg
    name."""
    src = Path(emapalg.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        text = path.read_text()
        offenders += [
            (path.name, token)
            for token in (
                ".entries", "._rows", "._image(", "._pivot_set", "._basis", "._of(",
                "._matrix(", "._residue(",
            )
            if token in text
        ]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "linalg":
                offenders += [
                    (path.name, alias.name) for alias in node.names if alias.name.startswith("_")
                ]
    assert offenders == []


def test_no_bare_assert_in_package():
    """Checks on computed results raise explicitly: `python -O` strips assert
    statements."""
    src = Path(emapalg.__file__).parent
    offenders = [
        (path.name, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _lift(vec):
    return {c: QQ.scalar(x) for c, x in vec.items()}


def _assert_raw(vec):
    """Every value of a raw sparse vector is canonical: a nonzero int, or a
    rational whose denominator is not 1; never a float."""
    for x in vec.values():
        assert x and type(x) is not float
        assert type(x) is int or (type(x) is _Q and x.denominator != 1)


@st.composite
def _int_problems(draw):
    """(rows, ncols, probes, square operators): small integer matrices, about
    half of their entries zero, as dense rows of ints."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(st.just(0), st.integers(min_value=-4, max_value=4))
    vec = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(vec, min_size=1, max_size=5))
    probes = draw(st.lists(vec, min_size=1, max_size=3))
    ops = draw(st.lists(st.lists(vec, min_size=ncols, max_size=ncols), max_size=2))
    return rows, ncols, probes, ops


@settings(max_examples=150, deadline=None)
@given(_int_problems())
def test_raw_rationals_give_the_field_answers(problem):
    # the row kernel on ints and fractions, lifted with QQ.scalar, equals the
    # same kernel on FieldElements, and keeps every raw value canonical
    rows, ncols, probes, ops = problem
    raw = [{c: x for c, x in enumerate(r) if x} for r in rows]
    lifted = [_lift(r) for r in raw]

    raw_rows, raw_pivots = rref(raw, ncols)
    fe_rows, fe_pivots = rref(lifted, ncols)
    assert raw_pivots == fe_pivots
    assert [_lift(r) for r in raw_rows] == fe_rows
    for r, p in zip(raw_rows, raw_pivots):
        _assert_raw(r)
        assert type(r[p]) is int and r[p] == 1

    raw_sub = Subspace(ncols, raw, fld=QQ)
    fe_sub = Subspace(ncols, lifted, fld=QQ)
    for probe in probes:
        v = {c: x for c, x in enumerate(probe) if x}
        residue = raw_sub.reduce(v)
        _assert_raw(residue)
        assert _lift(residue) == fe_sub.reduce(_lift(v))
        assert raw_sub.contains(v) == fe_sub.contains(_lift(v))

    def matrix(op, scalar):
        triples = [(r, c, scalar(x)) for r, row in enumerate(op) for c, x in enumerate(row)]
        return Matrix.from_triples(QQ, ncols, ncols, triples)

    raw_ops = [matrix(op, int) for op in ops]
    fe_ops = [matrix(op, QQ.scalar) for op in ops]
    for m, fm in zip(raw_ops, fe_ops):
        for row, frow in zip(m.entries, fm.entries):
            _assert_raw(row)
            assert _lift(row) == frow
        for v in raw:
            image = m.apply(v)
            _assert_raw(image)
            assert _lift(image) == fm.apply(_lift(v))

    raw_sat = saturate(raw_sub, raw_ops)
    fe_sat = saturate(fe_sub, fe_ops)
    assert raw_sat.pivots == fe_sat.pivots
    assert [_lift(b) for b in raw_sat.basis] == fe_sat.basis
    for b in raw_sat.basis:
        _assert_raw(b)


# -- structured matrices built in their final layout ------------------------


def _kron_slots_by_triples(fld, dims, terms):
    """Reference: kron_slots as (row, col, value) triples fed to from_triples."""
    n = prod(dims)
    strides = tensor_strides(dims)
    triples = []
    for c, slot, m in terms:
        s = strides[slot]
        block = dims[slot] * s
        for r, j, x in m.nonzeros():
            for lo in range(0, n, block):
                for k in range(lo, lo + s):
                    triples.append((k + r * s, k + j * s, c * x))
    return Matrix.from_triples(fld, n, n, triples)


def _block_diagonal_by_triples(fld, blocks):
    """Reference: the block diagonal as offset triples fed to from_triples."""
    offsets = list(itertools.accumulate((b.ncols for b in blocks), initial=0))
    triples = [
        (r + o, c + o, x) for b, o in zip(blocks, offsets) for r, c, x in b.nonzeros()
    ]
    return Matrix.from_triples(fld, offsets[-1], offsets[-1], triples)


def _no_stored_zeros(m):
    """Every stored entry is nonzero, and a raw one is canonical."""
    for row in m.entries:
        if m.field is RAW:
            _assert_raw(row)
        assert all(row.values())


@st.composite
def _scalar_kinds(draw):
    """(kind, scalar strategy): raw rationals (ints and halves) or elements of
    Q(zeta_3)."""
    if draw(st.booleans()):
        halves = st.sampled_from([1, 2])
        return RAW, st.builds(lambda a, b: RAW.scalar(Fraction(a, b)), _ints, halves)
    fld = field(3)
    return fld, st.builds(lambda a, b: fld.element([a, b]), _ints, _ints)


def _draw_square(draw, fld, scalar, n, diagonal=False):
    """A sparse n x n matrix, about half of its entries zero; with diagonal,
    only diagonal entries, drawn from {-1, 1} so that sums cancel often."""
    if diagonal:
        triples = [(i, i, fld.scalar(draw(st.sampled_from([-1, 1])))) for i in range(n)]
    else:
        triples = [(i, j, draw(scalar)) for i in range(n) for j in range(n) if draw(st.booleans())]
    return Matrix.from_triples(fld, n, n, triples)


@st.composite
def _kron_problems(draw):
    """(kind, dims, terms): 1 to 3 slots of dimension 1 to 3 and up to three
    terms, sometimes none, sometimes two terms on one slot, and sometimes
    diag(lam) on slot 0 against -diag(lam) on slot 1 of the same dimension,
    whose sum cancels on the diagonal."""
    fld, scalar = draw(_scalar_kinds())
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    cancel = len(dims) > 1 and draw(st.booleans())
    if cancel:
        dims[1] = dims[0]
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        slot = draw(st.integers(0, len(dims) - 1))
        diagonal = draw(st.booleans())
        terms.append((draw(scalar), slot, _draw_square(draw, fld, scalar, dims[slot], diagonal)))
    if cancel:
        lam = _draw_square(draw, fld, scalar, dims[0], diagonal=True)
        terms += [(fld.one, 0, lam), (-fld.one, 1, lam)]
    return fld, dims, terms


@settings(max_examples=200, deadline=None)
@given(_kron_problems())
def test_kron_slots_equals_the_triple_construction(problem):
    fld, dims, terms = problem
    got = kron_slots(fld, dims, terms)
    assert got == _kron_slots_by_triples(fld, dims, terms)
    assert got.nrows == got.ncols == prod(dims)
    _no_stored_zeros(got)


@settings(max_examples=100, deadline=None)
@given(_scalar_kinds(), st.lists(st.integers(0, 3), min_size=1, max_size=3), st.data())
def test_block_diagonal_equals_the_triple_construction(kind, sizes, data):
    fld, scalar = kind
    blocks = [_draw_square(data.draw, fld, scalar, n) for n in sizes]
    got = Matrix.block_diagonal(fld, blocks)
    assert got == _block_diagonal_by_triples(fld, blocks)
    assert got.nrows == got.ncols == sum(sizes)
    _no_stored_zeros(got)


@settings(max_examples=100, deadline=None)
@given(_scalar_kinds(), st.integers(1, 4), st.integers(0, 4), st.data())
def test_from_columns_keeps_its_columns(kind, nrows, ncols, data):
    fld, scalar = kind
    columns = _draw_columns(data, scalar, nrows, ncols)
    m = Matrix.from_columns(fld, nrows, columns)
    assert (m.nrows, m.ncols) == (nrows, ncols)
    for j, col in enumerate(columns):
        got = m.column(j)
        assert got == col and got is not col
        got[nrows] = fld.one  # a copy: the matrix does not change
        assert m.column(j) == col
    # the column view is the transpose of the rows
    assert [m.column(j) for j in range(ncols)] == m.transpose().entries
    assert m == Matrix.from_triples(
        fld, nrows, ncols, [(r, j, x) for j, col in enumerate(columns) for r, x in col.items()]
    )
    _assert_rows_built_on_first_read(fld, scalar, nrows, columns, data)


def _draw_columns(data, scalar, nrows, ncols):
    """ncols sparse columns of length nrows, about half of their entries
    drawn and the zeros among those dropped."""
    columns = []
    for _ in range(ncols):
        col = {i: data.draw(scalar) for i in range(nrows) if data.draw(st.booleans())}
        columns.append({i: x for i, x in col.items() if x})
    return columns


def _by_columns_and_triples(fld, nrows, columns):
    """A maker of fresh matrices built from the columns, whose rows are
    never read, and the same matrix built from its triples."""

    def fresh():
        m = Matrix.from_columns(fld, nrows, columns)
        assert m._rows is None
        return m

    triples = [(r, j, x) for j, col in enumerate(columns) for r, x in col.items()]
    return fresh, Matrix.from_triples(fld, nrows, len(columns), triples)


def _assert_rows_built_on_first_read(fld, scalar, nrows, columns, data):
    """Every reader agrees between a column-built matrix whose rows were
    never read and the same matrix built from its triples; a transpose
    leaves the rows unbuilt, and building them changes no column."""
    ncols = len(columns)
    fresh, ref = _by_columns_and_triples(fld, nrows, columns)
    assert fresh() == ref and ref == fresh()
    k = data.draw(st.integers(0, 3))
    right = Matrix.from_triples(
        fld, ncols, k, [(r, c, data.draw(scalar)) for r in range(ncols) for c in range(k)]
    )
    left = Matrix.from_triples(
        fld, k, nrows, [(r, c, data.draw(scalar)) for r in range(k) for c in range(nrows)]
    )
    assert fresh().matmul(right) == ref.matmul(right)
    assert left.matmul(fresh()) == left.matmul(ref)
    m = fresh()
    t = m.transpose()
    assert t == ref.transpose()
    assert m._rows is None
    for r in range(nrows):
        assert t.column(r) == ref.transpose().column(r) == ref.entries[r]
    assert list(fresh().nonzeros()) == list(ref.nonzeros())
    assert fresh().rank() == ref.rank()
    sq, sq_ref = _by_columns_and_triples(fld, nrows, _draw_columns(data, scalar, nrows, nrows))
    b = _draw_square(data.draw, fld, scalar, nrows)
    terms = [(fld.one, sq_ref.matmul(b)), (-fld.one, b.matmul(sq_ref))]
    assert commutator_matches(sq(), b, terms)
    assert commutator_matches(b, sq(), terms) == commutator_matches(b, sq_ref, terms)
    m = fresh()
    assert m.entries == ref.entries
    assert [m.column(j) for j in range(ncols)] == columns


def _saturate_by_copies(seed, operators):
    """Reference: the closure that copies every vector, applying each
    operator through apply and inserting through add_vector."""
    space = seed.copy()
    frontier = space.basis
    while frontier:
        new = []
        for v in frontier:
            for op in operators:
                w = op.apply(dict(v))
                if space.add_vector(dict(w)):
                    new.append(dict(w))
        frontier = new
    return space


@settings(max_examples=150, deadline=None)
@given(_scalar_kinds(), st.integers(1, 6), st.integers(0, 3), st.integers(0, 3), st.data())
def test_saturate_matches_the_copying_closure(kind, n, nseeds, nops, data):
    # saturate inserts each image without a copy and keeps the residues as
    # its frontier; the reduced echelon basis of the closure is unique
    fld, scalar = kind
    seed = Subspace(n, _draw_columns(data, scalar, n, nseeds), fld=fld)
    before = seed.copy()
    ops, op_columns = [], []
    for _ in range(nops):
        columns = _draw_columns(data, scalar, n, n)
        fresh, by_triples = _by_columns_and_triples(fld, n, columns)
        ops.append(fresh() if data.draw(st.booleans()) else by_triples)
        op_columns.append(columns)
    got = saturate(seed, ops)
    want = _saturate_by_copies(seed, ops)
    assert got == want and got.pivots == want.pivots
    assert seed == before and seed.pivots == before.pivots
    for op, columns in zip(ops, op_columns):
        assert [op.column(j) for j in range(n)] == columns


def _pair_fails(algebra, actions, i, j):
    """Reference: the products a b - b a differ from the combination of the
    bracket [x_i, x_j], built as matrices."""
    dim = actions[0].nrows
    fld = actions[0].field
    a, b = actions[i], actions[j]
    lhs = Matrix.combination(fld, dim, dim, [(1, a.matmul(b)), (-1, b.matmul(a))])
    rhs = Matrix.combination(
        fld, dim, dim, [(c, actions[k]) for k, c in algebra.bracket_terms(i, j)]
    )
    return lhs != rhs


def _first_failing_pair(algebra, actions):
    """Reference: the first basis pair i < j at which _pair_fails."""
    for i, j in itertools.combinations(range(algebra.dim), 2):
        if _pair_fails(algebra, actions, i, j):
            return i, j
    return None


def _first_failing_generator_pair(algebra, actions):
    """The first pair (x, y) at which _pair_fails in generators-then-basis
    order: x over algebra.generators(), y over every other basis index but
    the generators before x."""
    gens = algebra.generators()
    for n, x in enumerate(gens):
        for y in range(algebra.dim):
            if y != x and y not in gens[:n] and _pair_fails(algebra, actions, x, y):
                return x, y
    return None


def _perturbed(actions, t, r, c, delta):
    """The actions with delta added at entry (r, c) of action t."""
    m = actions[t]
    bumped = Matrix.from_triples(m.field, m.nrows, m.ncols, [(r, c, delta)])
    out = list(actions)
    out[t] = Matrix.combination(m.field, m.nrows, m.ncols, [(1, m), (1, bumped)])
    return out


def _commutator_first_failing_pair(algebra, actions):
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            terms = [(c, actions[k]) for k, c in algebra.bracket_terms(i, j)]
            if not commutator_matches(actions[i], actions[j], terms):
                return i, j
    return None


def _natural_actions(n, lifted):
    g = build_sl(n)
    actions = list(natural_module(g).actions)
    if lifted:
        actions = [lift(field(3), a) for a in actions]
    return g, actions


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.booleans(), st.data())
def test_commutator_matches_finds_the_reference_pair(n, lifted, data):
    g, actions = _natural_actions(n, lifted)
    assert _commutator_first_failing_pair(g, actions) is None
    t = data.draw(st.integers(0, g.dim - 1))
    r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    delta = data.draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
    delta = actions[0].field.scalar(delta)
    bad = _perturbed(actions, t, r, c, delta)
    expected = _first_failing_pair(g, bad)
    assert expected is not None
    assert _commutator_first_failing_pair(g, bad) == expected


@functools.cache
def _bracket_modules():
    """W(2 omega) at the point 1 of sl2 (raw), and its twist by Z/2 (over
    Q(zeta_4))."""
    g, group = z2_setup()
    fld = g.field
    psi = PsiFunction.of({pt(fld, 1): Weight((2,))})
    tw, w, _ = twisted_weyl(group, psi_gamma(group, psi), [pt(fld, 1)])
    return {"weyl": w.module, "twisted": tw}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["weyl", "twisted"]), st.booleans(), st.data())
def test_check_bracket_raises_at_the_reference_pair(which, conjugate, data):
    # check_bracket walks the generators against the basis only: it raises
    # exactly when the all-pairs reference finds a failing pair, and names
    # the first failing pair in its own order.  A single-entry perturbation
    # breaks the bracket; a conjugation by I + delta E_rc (r != c) keeps it
    mod = _bracket_modules()[which]
    mod.check_bracket()
    t = data.draw(st.integers(0, mod.algebra.dim - 1))
    r, c = data.draw(st.integers(0, mod.dim - 1)), data.draw(st.integers(0, mod.dim - 1))
    delta = mod.field.scalar(data.draw(st.sampled_from([1, -1, Fraction(1, 2)])))
    if conjugate:
        c = c if c != r else (r + 1) % mod.dim
        ident = Matrix.identity(mod.field, mod.dim)
        p, p_inv = (_perturbed([ident], 0, r, c, x)[0] for x in (delta, -delta))
        bad = [p.matmul(a).matmul(p_inv) for a in mod.actions]
    else:
        bad = _perturbed(mod.actions, t, r, c, delta)
    expected = _first_failing_pair(mod.algebra, bad)
    named = _first_failing_generator_pair(mod.algebra, bad)
    assert (expected is None) == conjugate == (named is None)
    if conjugate:
        FiniteModule(mod.algebra, bad).check_bracket()
    else:
        with pytest.raises(ValueError, match=r"basis pair \(%d, %d\)$" % named):
            FiniteModule(mod.algebra, bad).check_bracket()
