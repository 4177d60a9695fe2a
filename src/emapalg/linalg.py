"""Exact linear algebra over cyclotomic fields: row reduction, nullspaces,
subspaces in reduced echelon form, and closure of a subspace under a set of
operators.

Matrices, subspace bases and vectors are sparse rows: dicts from index to a
nonzero scalar, never holding a zero.  Every vector that crosses the
module's interface (columns, images, solutions, bases, residues) is such a
dict; only literal input (the Matrix constructor, rref) may be dense rows.

A matrix holds one scalar kind, its `field`: raw rationals (fields.RAW: an
int, or a rational whose denominator is not 1, never a float) on the
untwisted side, where the modules over g and its truncations are rational,
and FieldElements from twist on; only lift and lower cross between them.
The row kernel (sparse rows, reduction, products with vectors, subspaces and
saturation) takes either: it tests zero by truthiness, it divides only where
it normalises a row at its pivot, through fields._div for a raw pivot, and it
stores every raw value in canonical form, so integral input stays on ints.

Structured matrices are built directly in their final layout: tensor slots
(kron_slots) and block diagonals row by row, operators given by their images
(from_columns) column by column, and the bracket certificate
(commutator_matches) is read row by row without forming a product.
from_triples is for scattered input.

A Matrix keeps whichever view it was built on and builds the other on its
first read: rows (`entries`) for products, ranks and comparisons, columns for
products with a vector and saturation.  The vectors of either view are
shared, not copied, with whoever built them and with a transpose, so they
are read-only: the kernel never writes into a matrix's rows or columns, and
column, apply, basis and reduce return fresh dicts."""

from __future__ import annotations

from bisect import insort
from math import prod

from .fields import QQ, RAW, FieldElement, _canon, _div, _Q


def _sparse(row):
    """A fresh sparse copy of a dense row or of a sparse row."""
    if isinstance(row, dict):
        return dict(row)
    return {c: x for c, x in enumerate(row) if x}


def _axpy(row, c, other):
    """row += c * other for sparse rows, in place; entries that cancel are
    dropped.  c must be nonzero."""
    for j, y in other.items():
        x = row.get(j)
        if x is None:
            x = c * y
        else:
            x = x + c * y
            if not x:
                del row[j]
                continue
        row[j] = _canon(x) if type(x) is _Q else x


def _reduce(echelon, row):
    """Clear from a sparse row, in place, every pivot column of the reduced
    echelon rows {pivot: row}.  Each of those rows is zero at the other
    pivots, so one pass over the pivots the row has is enough."""
    for p in [c for c in row if c in echelon]:
        _axpy(row, -row[p], echelon[p])


def _column_map(echelon):
    """{column: pivots of the reduced echelon rows that hold it}, over the
    non-pivot entries of the rows {pivot: row}."""
    holders = {}
    for p, row in echelon.items():
        for c in row:
            if c != p:
                holders.setdefault(c, set()).add(p)
    return holders


def _insert(echelon, holders, row):
    """Add a sparse row to the reduced echelon rows {pivot: row}, keeping
    them reduced: reduce it, normalise it at its first column, and clear that
    column from the rows that have it.  Returns the new pivot, or None if the
    row lies in their span.

    holders maps a column to the pivots of the rows that may hold it (see
    _column_map), so only those rows are read.  It is a superset: a row is
    added when it gains the column and never removed, except that a new
    pivot's entry is dropped once its column is cleared."""
    _reduce(echelon, row)
    if not row:
        return None
    p = min(row)
    x = row[p]
    if type(x) is FieldElement:
        inv = x.inverse()
        row = {c: y * inv for c, y in row.items()}
    else:
        # an int entry that the pivot divides stays an int
        row = {c: _div(y, x) for c, y in row.items()}
    touched = [p]
    for q in holders.pop(p, ()):
        other = echelon[q]
        c = other.get(p)
        if c is not None:
            _axpy(other, -c, row)
            touched.append(q)
    for c in row:
        if c != p:
            held = holders.get(c)
            if held is None:
                holders[c] = set(touched)
            else:
                held.update(touched)
    echelon[p] = row
    return p


def rref(rows, ncols):
    """Reduced row echelon form of dense rows or of sparse {col: x} rows.

    Returns (rows, pivot_columns): the nonzero rows of the form as sparse
    rows, in pivot order.  The rows are added sparsest first, which limits
    fill-in, and elimination touches only their nonzeros (as in LinBox or
    FLINT's fmpq_mat); the reduced echelon form is unique, so the order does
    not change the result.
    """
    echelon, holders = {}, {}
    for row in sorted(map(_sparse, rows), key=len):
        _insert(echelon, holders, row)
        if len(echelon) == ncols:
            break
    pivots = sorted(echelon)
    return [echelon[p] for p in pivots], pivots


def _transpose(vectors, n):
    """The other view of a matrix given by sparse vectors: n sparse vectors,
    the j-th holding x at i wherever vectors[i] holds x at j."""
    out = [{} for _ in range(n)]
    for i, vec in enumerate(vectors):
        for j, x in vec.items():
            out[j][i] = x
    return out


def linear_combination(terms):
    """The sparse vector sum c * v over the pairs (c, v) in terms."""
    out = {}
    for c, v in terms:
        if c:
            _axpy(out, c, v)
    return out


class Matrix:
    """An exact matrix on sparse rows, sparse columns or both (see the
    module docstring).  `entries` holds one sparse row per matrix row."""

    def __init__(self, entries, ncols=None, fld=None):
        """A matrix from dense rows of FieldElements."""
        rows = [tuple(row) for row in entries]
        if rows:
            ncols = len(rows[0])
            fld = rows[0][0].field if ncols else fld
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self._set(fld or QQ, [_sparse(row) for row in rows], ncols)

    def _set(self, fld, rows, ncols):
        self.field = fld
        self._rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._cols = None  # sparse columns, built by the first product with a vector

    @property
    def entries(self):
        """The sparse rows; a matrix built from its columns builds them here,
        on the first read."""
        if self._rows is None:
            self._rows = _transpose(self._cols, self.nrows)
        return self._rows

    @classmethod
    def _of(cls, fld, rows, ncols):
        """A matrix on sparse rows that hold no zeros; they are not copied."""
        m = cls.__new__(cls)
        m._set(fld, rows, ncols)
        return m

    @classmethod
    def identity(cls, fld, n):
        return cls._of(fld, [{i: fld.one} for i in range(n)], n)

    @classmethod
    def from_triples(cls, fld, nrows, ncols, triples):
        """The nrows x ncols matrix whose (r, c) entry is the sum of the x over
        the triples (r, c, x); repeated positions accumulate."""
        rows = [{} for _ in range(nrows)]
        for r, c, x in triples:
            row = rows[r]
            y = row.get(c)
            row[c] = x if y is None else y + x
        return cls._of(
            fld,
            [{c: x for c, x in row.items() if x} for row in rows],
            ncols,
        )

    @classmethod
    def combination(cls, fld, nrows, ncols, terms):
        """The linear combination sum c * m over the pairs (c, m) in terms.
        Every m must be over fld, and over RAW no c may be a FieldElement."""
        rows = [{} for _ in range(nrows)]
        for c, m in terms:
            if m.field is not fld:
                raise ValueError("combination over %r of a matrix over %r" % (fld, m.field))
            if fld is RAW and type(c) is FieldElement:
                raise ValueError("combination over %r with a coefficient in %r" % (fld, c.field))
            if c:
                for row, mrow in zip(rows, m.entries):
                    _axpy(row, c, mrow)
        return cls._of(fld, rows, ncols)

    @classmethod
    def from_columns(cls, fld, nrows, columns):
        """The matrix with nrows rows whose columns are the given vectors.
        They hold no zeros and are shared, not copied, as its column view, so
        they must not change while the matrix is in use; its rows are built
        on the first read of `entries`."""
        m = cls.__new__(cls)
        m.field = fld
        m._rows = None
        m._cols = list(columns)
        m.nrows = nrows
        m.ncols = len(m._cols)
        return m

    @classmethod
    def block_diagonal(cls, fld, blocks):
        """The square matrix with the given square blocks down its diagonal.
        The first block's rows need no offset and are shared, not copied."""
        rows, offset = [], 0
        for b in blocks:
            if offset:
                rows += [{c + offset: x for c, x in row.items()} for row in b.entries]
            else:
                rows += b.entries
            offset += b.ncols
        return cls._of(fld, rows, offset)

    def _columns(self):
        if self._cols is None:
            self._cols = _transpose(self._rows, self.ncols)
        return self._cols

    def column(self, j):
        """Column j, i.e. the image of the j-th unit vector."""
        return dict(self._columns()[j])

    def nonzeros(self):
        """Yield (r, c, x) for every nonzero entry x, row by row."""
        for r, row in enumerate(self.entries):
            for c in sorted(row):
                yield r, c, row[c]

    def rank(self):
        _, pivots = rref(self.entries, self.ncols)
        return len(pivots)

    def nullspace(self):
        """Right nullspace as a Subspace of dimension ncols - rank."""
        rows, pivots = rref(self.entries, self.ncols)
        pivot_set = set(pivots)
        one = self.field.one
        # one vector per free column; a reduced row is zero at the other pivots
        free = {c: {c: one} for c in range(self.ncols) if c not in pivot_set}
        for row, pc in zip(rows, pivots):
            for c, x in row.items():
                if c != pc:
                    free[c][pc] = -x
        return Subspace(self.ncols, list(free.values()), fld=self.field)

    def solve(self, rhs):
        """A solution of self * x = rhs, or None if inconsistent.

        Free variables are set to zero, so the result is deterministic.
        """
        n = self.ncols
        aug = [
            {**row, n: rhs[r]} if r in rhs else row for r, row in enumerate(self.entries)
        ]
        rows, pivots = rref(aug, n + 1)
        if n in pivots:
            return None
        return {pc: row[n] for row, pc in zip(rows, pivots) if n in row}

    def apply(self, vec):
        """self * vec, scattered over the nonzeros of vec."""
        cols = self._columns()
        out = {}
        for j, v in vec.items():
            _axpy(out, v, cols[j])
        return out

    def matmul(self, other):
        """The product self * other, row by row over the nonzeros."""
        other_rows = other.entries
        rows = []
        for row in self.entries:
            out = {}
            for k, a in row.items():
                _axpy(out, a, other_rows[k])
            rows.append(out)
        return Matrix._of(self.field, rows, other.ncols)

    def transpose(self):
        """The transpose, whose columns are this matrix's rows and whose rows
        are its columns, shared where they are already built."""
        rows = self._cols if self._cols is not None else _transpose(self._rows, self.ncols)
        t = Matrix._of(self.field, rows, self.nrows)
        t._cols = self._rows
        return t

    def is_zero(self):
        return not any(self.entries)

    def inverse(self):
        """Inverse of a square matrix, or None if singular."""
        n = self.nrows
        if n != self.ncols:
            return None
        one = self.field.one
        aug = [{**row, n + i: one} for i, row in enumerate(self.entries)]
        rows, pivots = rref(aug, 2 * n)
        if pivots != list(range(n)):
            return None
        return Matrix._of(
            self.field, [{c - n: x for c, x in row.items() if c >= n} for row in rows], n
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return "Matrix(%dx%d)" % (self.nrows, self.ncols)


def lift(fld, m):
    """A raw matrix as one over the field fld."""
    rows = [{c: fld.scalar(x) for c, x in row.items()} for row in m.entries]
    return Matrix._of(fld, rows, m.ncols)


def lower(m):
    """A matrix over a field as a raw one; raises ValueError on an entry that
    is not rational."""
    rows = [{c: x.as_rational() for c, x in row.items()} for row in m.entries]
    return Matrix._of(RAW, rows, m.ncols)


def commutator_matches(a, b, terms):
    """Whether a b - b a equals sum c * m over the pairs (c, m) in terms, for
    square matrices of one size, read row by row: no product or combination
    matrix is built."""
    a_rows, b_rows = a.entries, b.entries
    terms = [(-c, m.entries) for c, m in terms if c]
    for r in range(a.nrows):
        out = {}
        for k, x in a_rows[r].items():
            _axpy(out, x, b_rows[k])
        for k, x in b_rows[r].items():
            _axpy(out, -x, a_rows[k])
        for c, rows in terms:
            _axpy(out, c, rows[r])
        if out:
            return False
    return True


class Subspace:
    """A subspace of a coordinate space, stored as a reduced-echelon basis."""

    def __init__(self, ambient_dim, vectors=(), *, fld, _rows=None):
        self.ambient_dim = ambient_dim
        self.field = fld
        if _rows is None:
            rows, pivots = rref(vectors, ambient_dim)
            _rows = dict(zip(pivots, rows))
        self._rows = _rows  # pivot column -> sparse basis row
        self._holders = None  # _column_map of _rows, built by the first insertion
        self.pivots = sorted(_rows)

    @property
    def basis(self):
        """The reduced echelon basis, in pivot order.  The vectors are copies,
        so a later add_vector leaves them as they are."""
        return [dict(self._rows[p]) for p in self.pivots]

    @property
    def dim(self):
        return len(self.pivots)

    def _matrix(self):
        """The basis rows as a Matrix (sharing the rows)."""
        return Matrix._of(
            self.field, [self._rows[p] for p in self.pivots], self.ambient_dim
        )

    def reduce(self, vec):
        """Residue of vec modulo the subspace: vec with every pivot coordinate
        eliminated."""
        row = dict(vec)
        _reduce(self._rows, row)
        return row

    def contains(self, vec):
        return not self.reduce(vec)

    def add_vector(self, vec):
        """Grow the basis by one vector; returns True if the dimension grew."""
        if self._holders is None:
            self._holders = _column_map(self._rows)
        p = _insert(self._rows, self._holders, dict(vec))
        if p is None:
            return False
        insort(self.pivots, p)
        return True

    def annihilator(self):
        """The orthogonal complement: the vectors x with sum_i b_i x_i = 0
        for every basis vector b."""
        return self._matrix().nullspace()

    def copy(self):
        return Subspace(
            self.ambient_dim,
            fld=self.field,
            _rows={p: dict(row) for p, row in self._rows.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)


def saturate(seed, operators):
    """Smallest subspace containing `seed` and stable under every operator
    (Matrix instances).

    Each image is formed from the operators' columns and inserted without a
    copy: _insert reduces it in place and stores a normalised copy, so the
    frontier keeps the residue.  The residue differs from the image by a
    vector already in the space, so the frontier still spans what was added,
    and the reduced echelon basis returned is the unique one of the closure."""
    space = seed.copy()
    echelon, pivots = space._rows, space.pivots
    holders = space._holders = _column_map(echelon)
    op_columns = [op._columns() for op in operators]
    frontier = [seed._rows[p] for p in seed.pivots]
    while frontier:
        new = []
        for v in frontier:
            for cols in op_columns:
                w = {}
                for j, x in v.items():
                    _axpy(w, x, cols[j])
                p = _insert(echelon, holders, w)
                if p is not None:
                    insort(pivots, p)
                    new.append(w)
        frontier = new
    return space


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space.

    Solves sum a_i u_i = sum b_j v_j by a nullspace computation on the
    stacked coefficient matrix.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    fld = s1.field
    n = s1.ambient_dim
    if s1.dim == 0 or s2.dim == 0:
        return Subspace(n, (), fld=fld)
    u = s1._matrix().entries
    minus_v = [{c: -x for c, x in row.items()} for row in s2._matrix().entries]
    kernel = Matrix._of(fld, u + minus_v, n).transpose().nullspace()
    # sum a_i u_i for each kernel vector (a, b)
    lhs = Matrix._of(fld, u + [{}] * s2.dim, n)
    return Subspace(n, kernel._matrix().matmul(lhs).entries, fld=fld)


def restrict_operator(op, space):
    """Matrix of an operator (a Matrix) on an invariant subspace, in basis
    coordinates.

    The basis rows of `space` are in reduced echelon form, so coordinates can
    be read off at the pivot positions; the residual must vanish.
    """
    index = {p: k for k, p in enumerate(space.pivots)}
    triples = []
    for i, p in enumerate(space.pivots):
        w = op.apply(space._rows[p])
        if not space.contains(w):
            raise ValueError("subspace is not invariant under the operator")
        triples.extend((index[c], i, x) for c, x in w.items() if c in index)
    return Matrix.from_triples(space.field, space.dim, space.dim, triples)


def joint_eigenspaces(ops, dim):
    """Group the coordinates of a space of dimension dim by their joint
    eigenvalues under operators that are diagonal in the coordinate basis.

    Returns a dict mapping each tuple of diagonal entries (one per operator;
    an absent entry is zero) to the list of coordinate indices that carry it,
    keys in the order of their first coordinate.  Raises ValueError if some
    operator has a nonzero entry off its diagonal."""
    diagonals = []
    for op in ops:
        rows = op.entries
        if any(row.keys() - {i} for i, row in enumerate(rows)):
            raise ValueError("operator is not diagonal on the basis")
        diagonals.append((rows, op.field.zero))
    groups = {}
    for i in range(dim):
        key = tuple(rows[i].get(i, zero) for rows, zero in diagonals)
        groups.setdefault(key, []).append(i)
    return groups


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
    dimensions `dims` in the layout of tensor_strides.

    Row k of a term is row r of m, where r is the slot's index in k, shifted
    to k's position in the other slots: entry (r, j) lands at column
    k + (j - r) * stride.  Entries that two terms put in one place (their
    diagonals, for different slots) are summed, and dropped if they cancel."""
    n = prod(dims)
    strides = tensor_strides(dims)
    rows = [{} for _ in range(n)]
    for c, slot, m in terms:
        if not c:
            continue
        s = strides[slot]
        block = dims[slot] * s
        for r, mrow in enumerate(m.entries):
            if not mrow:
                continue
            shift = []
            for j, x in mrow.items():
                x = c * x
                shift.append(((j - r) * s, _canon(x) if type(x) is _Q else x))
            for lo in range(r * s, n, block):
                for k in range(lo, lo + s):
                    row = rows[k]
                    if not row:
                        rows[k] = {k + d: x for d, x in shift}
                        continue
                    for d, x in shift:
                        y = row.get(k + d)
                        if y is None:
                            row[k + d] = x
                        else:
                            y = y + x
                            if y:
                                row[k + d] = _canon(y) if type(y) is _Q else y
                            else:
                                del row[k + d]
    return Matrix._of(fld, rows, n)


def kron_vector(fld, dims, vectors):
    """Tensor product of vectors in spaces of dimensions `dims`, in the layout
    of tensor_strides."""
    out = {0: fld.one}
    for n, v in zip(dims, vectors):
        out = {i * n + j: a * b for i, a in out.items() for j, b in v.items()}
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
    basis = Matrix.identity(fld, d2 * d1)
    for a1, a2 in pairs:
        if not basis.nrows:
            break
        # column i of this product is the image of basis vector i
        images = hom_action(a1, a2).matmul(basis.transpose())
        basis = images.nullspace()._matrix().matmul(basis)
    return [
        Matrix.from_triples(fld, d2, d1, ((c // d1, c % d1, x) for c, x in row.items()))
        for row in basis.entries
    ]
