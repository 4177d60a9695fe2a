"""Exact linear algebra over cyclotomic fields: row reduction, nullspaces,
subspaces in reduced echelon form, and closure of a subspace under a set of
operators."""

from __future__ import annotations

from math import prod

from .fields import QQ


def zero_vector(fld, n):
    return [fld.zero] * n


def rref(rows, ncols):
    """Reduced row echelon form.  Returns (rows, pivot_columns); zero rows dropped."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                piv = i
                break
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


class Matrix:
    """A dense exact matrix; entries are FieldElement rows."""

    def __init__(self, entries, ncols=None, fld=None):
        self.entries = [tuple(row) for row in entries]
        if self.entries:
            self.ncols = len(self.entries[0])
            self.field = self.entries[0][0].field if self.ncols else (fld or QQ)
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols
            self.field = fld or QQ
        self.nrows = len(self.entries)

    @classmethod
    def identity(cls, fld, n):
        return cls(
            [
                tuple(fld.one if i == j else fld.zero for j in range(n))
                for i in range(n)
            ],
            ncols=n,
            fld=fld,
        )

    @classmethod
    def from_triples(cls, fld, nrows, ncols, triples):
        """The nrows x ncols matrix whose (r, c) entry is the sum of the x over
        the triples (r, c, x); repeated positions accumulate."""
        zero = fld.zero
        rows = [[zero] * ncols for _ in range(nrows)]
        for r, c, x in triples:
            row = rows[r]
            row[c] = x if row[c] is zero else row[c] + x
        return cls(rows, ncols=ncols, fld=fld)

    @classmethod
    def combination(cls, fld, nrows, ncols, terms):
        """The linear combination sum c * m over the pairs (c, m) in terms."""
        return cls.from_triples(
            fld,
            nrows,
            ncols,
            (
                (r, j, c * x)
                for c, m in terms
                if not c.is_zero()
                for r, j, x in m.nonzeros()
            ),
        )

    def column(self, j):
        """Column j, i.e. the image of the j-th unit vector."""
        return tuple(row[j] for row in self.entries)

    def nonzeros(self):
        """Yield (r, c, x) for every nonzero entry x, row by row."""
        for r, row in enumerate(self.entries):
            for c, x in enumerate(row):
                if not x.is_zero():
                    yield r, c, x

    def rank(self):
        _, pivots = rref(self.entries, self.ncols)
        return len(pivots)

    def nullspace(self):
        """Right nullspace as a Subspace of dimension ncols - rank."""
        rows, pivots = rref(self.entries, self.ncols)
        fld = self.field
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = zero_vector(fld, self.ncols)
            v[fc] = fld.one
            for row, pc in zip(rows, pivots):
                v[pc] = -row[fc]
            basis.append(tuple(v))
        return Subspace(self.ncols, basis, fld=fld)

    def solve(self, rhs):
        """A solution of self * x = rhs, or None if inconsistent.

        Free variables are set to zero, so the result is deterministic.
        """
        aug = [tuple(row) + (b,) for row, b in zip(self.entries, rhs)]
        rows, pivots = rref(aug, self.ncols + 1)
        if self.ncols in pivots:
            return None
        fld = self.field
        x = zero_vector(fld, self.ncols)
        for row, pc in zip(rows, pivots):
            x[pc] = row[-1]
        return tuple(x)

    def apply(self, vec):
        return tuple(
            sum((a * v for a, v in zip(row, vec) if not a.is_zero()), self.field.zero)
            for row in self.entries
        )

    def matmul(self, other):
        cols = list(zip(*other.entries)) if other.entries else []
        return Matrix(
            [
                tuple(
                    sum((a * b for a, b in zip(row, col) if not a.is_zero()), self.field.zero)
                    for col in cols
                )
                for row in self.entries
            ],
            ncols=other.ncols,
            fld=self.field,
        )

    def transpose(self):
        return Matrix(list(zip(*self.entries)), ncols=self.nrows, fld=self.field)

    def is_zero(self):
        return all(x.is_zero() for row in self.entries for x in row)

    def inverse(self):
        """Inverse of a square matrix, or None if singular."""
        if self.nrows != self.ncols:
            return None
        fld = self.field
        n = self.nrows
        aug = [
            tuple(row) + tuple(fld.one if i == j else fld.zero for j in range(n))
            for i, row in enumerate(self.entries)
        ]
        rows, pivots = rref(aug, 2 * n)
        if pivots != list(range(n)):
            return None
        return Matrix([row[n:] for row in rows], ncols=n, fld=fld)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return "Matrix(%dx%d)" % (self.nrows, self.ncols)


class Subspace:
    """A subspace of a coordinate space, stored as a reduced-echelon basis."""

    def __init__(self, ambient_dim, vectors=(), fld=None, _reduced=False):
        self.ambient_dim = ambient_dim
        self.field = fld or (vectors[0][0].field if vectors else QQ)
        if _reduced:
            self.basis = [tuple(v) for v in vectors]
            self.pivots = _pivots_of(self.basis)
        else:
            self.basis, self.pivots = rref(vectors, ambient_dim)
        self._pivot_set = set(self.pivots)

    @classmethod
    def full(cls, fld, n):
        """The whole coordinate space of dimension n."""
        return cls(n, Matrix.identity(fld, n).entries, fld=fld, _reduced=True)

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Residue of vec modulo the subspace (eliminate pivot coordinates)."""
        vec = list(vec)
        for row, pc in zip(self.basis, self.pivots):
            c = vec[pc]
            if not c.is_zero():
                vec[pc:] = [
                    x if y.is_zero() else x - c * y
                    for x, y in zip(vec[pc:], row[pc:])
                ]
        return tuple(vec)

    def contains(self, vec):
        return all(x.is_zero() for x in self.reduce(vec))

    def contains_subspace(self, other):
        return all(self.contains(v) for v in other.basis)

    def add_vector(self, vec):
        """Grow the basis by one vector; returns True if the dimension grew."""
        res = self.reduce(vec)
        piv = next((j for j, x in enumerate(res) if not x.is_zero()), None)
        if piv is None:
            return False
        inv = res[piv].inverse()
        res = tuple(x * inv for x in res)
        for i in range(len(self.basis)):
            c = self.basis[i][piv]
            if not c.is_zero():
                self.basis[i] = tuple(
                    x - c * y for x, y in zip(self.basis[i], res)
                )
        k = next(
            (i for i, p in enumerate(self.pivots) if p > piv), len(self.basis)
        )
        self.basis.insert(k, res)
        self.pivots.insert(k, piv)
        self._pivot_set.add(piv)
        return True

    def copy(self):
        return Subspace(
            self.ambient_dim, list(self.basis), fld=self.field, _reduced=True
        )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)


def _pivots_of(rows):
    pivots = []
    for row in rows:
        pivots.append(next(j for j, x in enumerate(row) if not x.is_zero()))
    return pivots


def _sparse_apply(m: Matrix):
    """Column-sparse application closure for a matrix (fast when columns are
    mostly zero)."""
    cols = []
    for j in range(m.ncols):
        cols.append(
            [(i, m.entries[i][j]) for i in range(m.nrows) if not m.entries[i][j].is_zero()]
        )
    fld = m.field
    nr = m.nrows

    def ap(vec):
        out = [fld.zero] * nr
        for j, v in enumerate(vec):
            if not v.is_zero():
                for i, a in cols[j]:
                    out[i] = out[i] + v * a
        return tuple(out)

    return ap


def saturate(seed, operators):
    """Smallest subspace containing `seed` and stable under every operator.

    Operators may be Matrix instances or callables vector -> vector.
    """
    space = seed.copy()
    frontier = list(space.basis)
    ops = [_sparse_apply(op) if isinstance(op, Matrix) else op for op in operators]
    while frontier:
        new = []
        for v in frontier:
            for op in ops:
                w = op(v)
                if space.add_vector(w):
                    new.append(w)
        frontier = new
    return space


def span_of(vectors, ambient_dim, fld=None):
    return Subspace(ambient_dim, vectors, fld=fld)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space.

    Solves sum a_i u_i = sum b_j v_j by a nullspace computation on the
    stacked coefficient matrix.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    fld = s1.field
    if s1.dim == 0 or s2.dim == 0:
        return Subspace(s1.ambient_dim, (), fld=fld)
    cols = [list(b) for b in s1.basis] + [[-x for x in b] for b in s2.basis]
    m = Matrix(list(zip(*cols)), ncols=len(cols), fld=fld)
    vecs = [
        _combine(kv[: s1.dim], s1.basis, s1.ambient_dim, fld)
        for kv in m.nullspace().basis
    ]
    return Subspace(s1.ambient_dim, vecs, fld=fld)


def _combine(coeffs, vectors, n, fld):
    """sum c * v over zip(coeffs, vectors), for vectors of length n."""
    out = [fld.zero] * n
    for c, v in zip(coeffs, vectors):
        if not c.is_zero():
            out = [x + c * y for x, y in zip(out, v)]
    return tuple(out)


def restrict_operator(op, space):
    """Matrix of an operator on an invariant subspace, in basis coordinates.

    The basis rows of `space` are in reduced echelon form, so coordinates can
    be read off at the pivot positions; the residual must vanish.
    """
    apply = op.apply if isinstance(op, Matrix) else op
    fld = space.field
    cols = []
    for b in space.basis:
        w = apply(b)
        coords = tuple(w[p] for p in space.pivots)
        res = list(w)
        for c, row in zip(coords, space.basis):
            if not c.is_zero():
                res = [x - c * y for x, y in zip(res, row)]
        if any(not x.is_zero() for x in res):
            raise ValueError("subspace is not invariant under the operator")
        cols.append(coords)
    return Matrix(list(zip(*cols)) if cols else [], ncols=space.dim, fld=fld)


def joint_eigenspaces(ops, space, eigenvalues):
    """Split an invariant subspace into joint eigenspaces of commuting operators.

    `eigenvalues` is the candidate list (field scalars) scanned per operator.
    Returns a dict mapping eigenvalue tuples to Subspaces of the ambient space.
    Raises if some part of the space is not covered (non-semisimple action).
    """
    fld = space.field
    pieces = {(): space}
    for op in ops:
        new = {}
        for key, sp in pieces.items():
            if sp.dim == 0:
                continue
            m = restrict_operator(op, sp)
            covered = 0
            for ev in eigenvalues:
                shifted = Matrix(
                    [
                        tuple(
                            row[j] - ev if i == j else row[j]
                            for j in range(m.ncols)
                        )
                        for i, row in enumerate(m.entries)
                    ],
                    ncols=m.ncols,
                    fld=fld,
                )
                ker = shifted.nullspace()
                if ker.dim:
                    vecs = [
                        _combine(kv, sp.basis, space.ambient_dim, fld)
                        for kv in ker.basis
                    ]
                    new[key + (ev,)] = Subspace(space.ambient_dim, vecs, fld=fld)
                    covered += ker.dim
            if covered != sp.dim:
                raise ValueError("operator is not semisimple over the candidate eigenvalues")
        pieces = new
    return pieces


def tensor_strides(dims):
    """Strides of the row-major layout of a tensor product of spaces of the
    given dimensions: the last factor varies fastest."""
    strides = [1] * len(dims)
    for k in range(len(dims) - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]
    return strides


def kron_slots(fld, dims, terms):
    """sum c * (1 x ... x m x ... x 1), with m acting on tensor slot `slot`,
    over the triples (c, slot, m) in terms, on the tensor product of spaces of
    dimensions `dims` in the layout of tensor_strides."""
    n = prod(dims)
    strides = tensor_strides(dims)

    def triples():
        for c, slot, m in terms:
            s = strides[slot]
            block = dims[slot] * s
            for r, j, x in m.nonzeros():
                cx = c * x
                for lo in range(0, n, block):
                    for k in range(lo, lo + s):
                        yield k + r * s, k + j * s, cx

    return Matrix.from_triples(fld, n, n, triples())


def kron_vector(fld, vectors):
    """Tensor product of vectors in the layout of tensor_strides."""
    out = (fld.one,)
    for v in vectors:
        out = tuple(a * b for a in out for b in v)
    return out


def hom_action(a1, a2):
    """The operator T -> a2 T - T a1 on matrices T with a2.ncols rows and
    a1.nrows columns, flattened row-major: a2 x 1 - 1 x a1^T."""
    fld = a1.field
    return kron_slots(
        fld,
        [a2.ncols, a1.nrows],
        [(fld.one, 0, a2), (-fld.one, 1, a1.transpose())],
    )


def intertwiners(fld, d1, d2, pairs):
    """Basis of the d2 x d1 matrices T with a2 T = T a1 for every pair
    (a1, a2): the reduced basis of the common kernel of the hom_action
    operators, cut down one pair at a time."""
    basis = list(Matrix.identity(fld, d2 * d1).entries)
    for a1, a2 in pairs:
        if not basis:
            break
        act = _sparse_apply(hom_action(a1, a2))
        images = [act(v) for v in basis]
        kernel = Matrix(list(zip(*images)), ncols=len(images), fld=fld).nullspace()
        basis = [_combine(kv, basis, d2 * d1, fld) for kv in kernel.basis]
    return [
        Matrix([v[r * d1 : (r + 1) * d1] for r in range(d2)], ncols=d1, fld=fld)
        for v in basis
    ]
