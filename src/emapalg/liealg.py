"""The concrete semisimple Lie algebra sl_{n+1} with Chevalley basis and
matrix realization, the matrices of automorphisms of torus-scaling x
diagram form, the one module class (exact action matrices over any of the Lie
algebras, weights read off the diagonal Cartan actions), and the irreducible
highest weight modules, built as local Weyl modules of g."""

from __future__ import annotations

import itertools

from .fields import QQ, RAW
from .linalg import Matrix, Subspace, commutator_matches, joint_eigenspaces, saturate
from .rootdata import RootDatum, Weight


class LieAlgebra:
    """A Lie algebra with a basis, given by its structure constants.

    Subclasses set `field` and `dim` and define bracket_terms(i, j), the
    bracket [x_i, x_j] as a tuple of (basis index, nonzero coefficient).
    Vectors at the interface are sparse coefficient vectors over the basis,
    {basis index: nonzero coefficient}, as in linalg."""

    def basis_vector(self, i):
        return {i: self.field.one}

    def generators(self):
        """Basis indices of a set G that generates the algebra as a Lie
        algebra: here every basis index (ChevalleyAlgebra and
        TruncatedAlgebra return smaller sets).

        The bracket checks walk G x basis only (generator_pairs), and that is
        exact.  For an action rho, the x with [rho x, rho y] = rho [x, y] for
        every y form a subspace S, and S is closed under the bracket: for x1,
        x2 in S, rho [x1, x2] = [rho x1, rho x2], and the Jacobi identity in
        the algebra and in End(V) gives [rho [x1, x2], rho y] = rho [[x1, x2],
        y].  So G in S gives S = L.  The same holds for a linear map phi: L ->
        L' (phi [x, y] = [phi x, phi y]), and a subspace stable under rho(G)
        is stable under rho of all of L once rho represents the bracket."""
        return list(range(self.dim))

    def levi_split(self):
        """(cartan, raising, nil): the basis indices of the Cartan elements and
        of the simple raising elements of a semisimple subalgebra s, and the
        basis of a nilpotent ideal n with L = s + n.  Here s = 0 and n = L."""
        return [], [], list(range(self.dim))

    def bracket(self, u, v):
        """Bracket of two coefficient vectors over the basis."""
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                c = a * b
                # s on the left: an int structure constant scales a field
                # element without being lifted (FieldElement.__rmul__)
                for k, s in self.bracket_terms(i, j):
                    x = out.get(k)
                    out[k] = s * c if x is None else x + s * c
        return {k: x for k, x in out.items() if x}

    def check_jacobi(self, samples=60):
        """Raise unless [x_i, [x_j, x_k]] + [x_j, [x_k, x_i]] + [x_k, [x_i, x_j]]
        vanishes on the first `samples` basis triples i < j < k (on all of
        them if samples is None)."""
        triples = itertools.combinations(range(self.dim), 3)
        for i, j, k in itertools.islice(triples, samples):
            s = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for t, x in self.bracket({a: 1}, dict(self.bracket_terms(b, c))).items():
                    s[t] = s.get(t, 0) + x
            if any(s.values()):
                raise AssertionError(
                    "Jacobi identity failed at basis triple (%d, %d, %d)" % (i, j, k)
                )


def generator_pairs(algebra):
    """The basis pairs (x, y), x in algebra.generators() and y any other basis
    index, a pair inside the generators once: checking a bracket identity on
    them checks it on every pair (see LieAlgebra.generators)."""
    done = set()
    for x in algebra.generators():
        done.add(x)
        for y in range(algebra.dim):
            if y not in done:
                yield x, y


def preserves_bracket(mat, source, target):
    """True iff the matrix of a linear map source -> target carries [x_i, x_j]
    to [mat x_i, mat x_j] for every pair of source basis elements, checked on
    generator_pairs(source)."""
    images = [mat.column(i) for i in range(source.dim)]
    for i, j in generator_pairs(source):
        lhs = mat.apply(source.bracket(source.basis_vector(i), source.basis_vector(j)))
        if lhs != target.bracket(images[i], images[j]):
            return False
    return True


class ChevalleyAlgebra(LieAlgebra):
    """sl_{n+1} with basis {e_beta} + {h_i} + {f_beta} and exact brackets."""

    def __init__(self, n_plus_1, fld=QQ):
        if not 2 <= n_plus_1 <= 4:
            raise ValueError("rank out of supported range (sl_2 .. sl_4)")
        self.n = n_plus_1
        self.field = fld
        self.dim = n_plus_1 * n_plus_1 - 1
        # the structure constants and the basis matrices are integers in a
        # Chevalley basis, so they depend on the rank alone: built and checked once
        shared = _RANKS.get(n_plus_1)
        if shared is None:
            self._build_table()
            shared = _RANKS[n_plus_1] = (
                self.rd, self.labels, self.index, self._table, self._e, self._f, self.basis_matrices
            )
        self.rd, self.labels, self.index, self._table, self._e, self._f, self.basis_matrices = shared
        self._irreducibles = {}  # lam -> V(lam), see irreducible_module

    def _build_table(self):
        self.rd = RootDatum(self.n - 1)
        roots = range(len(self.rd.positive_roots))
        # basis labels: ('e', k) / ('f', k) index into rd.positive_roots, ('h', i)
        self.labels = (
            [("e", k) for k in roots]
            + [("h", i) for i in range(self.rd.rank)]
            + [("f", k) for k in roots]
        )
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        # the basis indices of the simple e_i and f_i
        simple = [
            self.rd.positive_roots.index(tuple(int(j == i) for j in range(self.rd.rank)))
            for i in range(self.rd.rank)
        ]
        self._e = [self.index[("e", k)] for k in simple]
        self._f = [self.index[("f", k)] for k in simple]
        # each basis element as ((matrix unit (r, c), int coefficient), ...);
        # brackets come from those of the units and are read back below
        units = [self._matrix_units(lab) for lab in self.labels]
        # the root vectors and their matrix units, in the order _decompose
        # lists them
        root_units = [
            (i, units[i][0][0])
            for k in roots
            for i in (self.index[("e", k)], self.index[("f", k)])
        ]
        self._table = {
            (i, j): self._decompose(_commutator(a, b), root_units)
            for i, a in enumerate(units)
            for j, b in enumerate(units)
        }
        self._check_axioms()
        self.basis_matrices = [
            Matrix.from_triples(RAW, self.n, self.n, [(r, c, x) for (r, c), x in u]) for u in units
        ]

    def _matrix_units(self, lab):
        """e_beta is the matrix unit E_(lo, hi + 1) and f_beta its transpose,
        for beta = alpha_lo + ... + alpha_hi; h_i is E_(i, i) - E_(i+1, i+1)."""
        if lab[0] == "h":
            i = lab[1]
            return (((i, i), 1), ((i + 1, i + 1), -1))
        rc = self.rd.positive_roots[lab[1]]
        lo = rc.index(1)
        hi = len(rc) - 1 - rc[::-1].index(1)
        return (((lo, hi + 1) if lab[0] == "e" else (hi + 1, lo), 1),)

    def _decompose(self, entry, root_units):
        """Int coefficients in the Chevalley basis (sparse) of the traceless
        matrix with int entries {(r, c): x}, given the (basis index, matrix
        unit) pairs of the root vectors."""
        out = [(i, entry[u]) for i, u in root_units if entry.get(u)]
        acc = 0
        for i in range(self.n - 1):
            acc += entry.get((i, i), 0)
            if acc:
                out.append((self.index[("h", i)], acc))
        return tuple(out)

    def bracket_terms(self, i, j):
        """[x_i, x_j] as a tuple of (basis index, nonzero int coefficient)."""
        return self._table[(i, j)]

    def generators(self):
        """The simple e_i and f_i, as (e_1, f_1, e_2, f_2, ...): they generate
        g, which holds h_i = [e_i, f_i] and every root vector as a bracket
        word in them."""
        return [x for pair in zip(self._e, self._f) for x in pair]

    def levi_split(self):
        """s = g and n = 0."""
        rank = range(self.rd.rank)
        return [self.h(i) for i in rank], [self.e(i) for i in rank], []

    def e(self, i):
        """Chevalley generator e_i (simple root index, 0-based)."""
        return self._e[i]

    def f(self, i):
        return self._f[i]

    def h(self, i):
        return self.index[("h", i)]

    def _check_axioms(self):
        """Raise unless the int table satisfies [e_i, f_i] = h_i,
        [h_i, e_j] = a_ji e_j and the Jacobi identity on every basis triple."""
        rank = self.rd.rank
        for i in range(rank):
            ei, fi, hi = self.e(i), self.f(i), self.h(i)
            if self.bracket({ei: 1}, {fi: 1}) != {hi: 1}:
                raise AssertionError("[e_i, f_i] != h_i")
            for j in range(rank):
                ej = self.e(j)
                a_ji = self.rd.cartan[j][i]
                if self.bracket({hi: 1}, {ej: 1}) != ({ej: a_ji} if a_ji else {}):
                    raise AssertionError("[h_i, e_j] != a_ji e_j")
        self.check_jacobi(samples=None)


_RANKS = {}  # n + 1 -> the field-independent attributes of sl_{n+1}


def _commutator(a, b):
    """[A, B] as {(r, c): int} for A and B given as ((matrix unit, int), ...),
    by [E_pq, E_rs] = delta_qr E_ps - delta_sp E_rq."""
    out = {}
    for (p, q), x in a:
        for (r, s), y in b:
            if q == r:
                out[(p, s)] = out.get((p, s), 0) + x * y
            if s == p:
                out[(r, q)] = out.get((r, q), 0) - x * y
    return out


def build_sl(n_plus_1, fld=QQ):
    return ChevalleyAlgebra(n_plus_1, fld)


def automorphism_matrix(g, tau, exponents, zeta):
    """The matrix of the automorphism of g of torus scaling x diagram form,
    e_i -> zeta^{a_i} e_{tau(i)}, f_i -> zeta^{-a_i} f_{tau(i)},
    h_i -> h_{tau(i)}, extended to the other root vectors by bracket words.
    Raises ValueError when zeta is 0 and some exponent a_i is not (zeta^0 is
    1), or when the map does not preserve the bracket."""
    if zeta.is_zero() and any(exponents):
        raise ValueError("zeta is 0, so zeta^a is not invertible")
    rank = g.rd.rank
    images = {}  # basis index -> image
    for i in range(rank):
        zp = zeta ** exponents[i]
        ti = tau.perm[i]
        images[g.e(i)] = {g.e(ti): zp}
        images[g.f(i)] = {g.f(ti): zp.inverse()}
        images[g.h(i)] = g.basis_vector(g.h(ti))
    # extend to non-simple root vectors by bracket words, in height order
    for k, rc in enumerate(g.rd.positive_roots):
        if sum(rc) == 1:
            continue
        i = rc.index(1)
        rest = tuple(0 if j == i else rc[j] for j in range(len(rc)))
        krest = g.rd.positive_roots.index(rest)
        for kind, simple in (("e", g.e(i)), ("f", g.f(i))):
            b, target = g.index[(kind, krest)], g.index[(kind, k)]
            c = g.bracket(g.basis_vector(simple), g.basis_vector(b)).get(target)
            if c is None:
                raise AssertionError("zero bracket coefficient for root vector %d" % k)
            img = g.bracket(images[simple], images[b])
            inv = c.inverse()
            images[target] = {r: x * inv for r, x in img.items()}
    mat = Matrix.from_columns(g.field, g.dim, [images[j] for j in range(g.dim)])
    if not preserves_bracket(mat, g, g):
        raise ValueError("not an automorphism: bracket not preserved")
    return mat


class FiniteModule:
    """A module over a Lie algebra with a basis (g, a truncation or an
    invariant algebra): one exact action matrix per algebra basis element,
    and optionally a cyclic vector (a sparse vector).  Its scalar kind,
    `field`, is that of its matrices (see linalg): raw over g and the
    truncations, the scenario field over an invariant algebra.

    Every module the system builds has a weight basis: the Cartan elements act
    by diagonal matrices, whose diagonals are the weights.  weights() is the
    one place they are read, and it checks that on every read."""

    def __init__(self, algebra, actions, cyclic=None):
        self.algebra = algebra
        self.actions = actions
        self.field = actions[0].field if actions else RAW
        self.dim = actions[0].ncols if actions else 0
        self.cyclic = cyclic

    def operator(self, coeffs) -> Matrix:
        """The action of the algebra element with sparse coordinates coeffs."""
        return Matrix.combination(
            self.field, self.dim, self.dim, ((c, self.actions[k]) for k, c in coeffs.items())
        )

    def check_bracket(self):
        """Raise unless the action matrices satisfy [rho(x_i), rho(x_j)] =
        rho([x_i, x_j]) for every pair of algebra basis elements, checked on
        generator_pairs(algebra): the x at which it holds against every basis
        element form a subalgebra (LieAlgebra.generators)."""
        actions = self.actions
        for i, j in generator_pairs(self.algebra):
            terms = [(c, actions[k]) for k, c in self.algebra.bracket_terms(i, j)]
            if not commutator_matches(actions[i], actions[j], terms):
                raise ValueError(
                    "action does not represent the bracket at basis pair (%d, %d)" % (i, j)
                )

    def is_cyclic_from(self, vec):
        """True iff vec generates the module, read as its closure under the
        actions of algebra.generators().  Once the actions represent the
        bracket (check_bracket), a subspace stable under rho(x1) and rho(x2)
        is stable under rho([x1, x2]) = [rho(x1), rho(x2)], so that closure is
        stable under every element: it is the submodule vec generates."""
        gens = [self.actions[i] for i in self.algebra.generators()]
        return saturate(Subspace(self.dim, [vec], fld=self.field), gens).dim == self.dim

    def weights(self):
        """The weight spaces: {integer weight: coordinates}, a weight being the
        tuple of diagonal entries of the Cartan actions (the basis elements
        algebra.levi_split()[0], in that order) at each of its coordinates."""
        ops = [self.actions[i] for i in self.algebra.levi_split()[0]]
        return weight_spaces(ops, self.dim)

    def jet_degrees(self):
        """The jet degree of each basis vector, when the actions shift it by
        the jet degrees of the algebra's basis (algebra.jet_degrees(), on a
        truncation); else None.  It is 0 when every positive-degree element
        acts by zero, and otherwise read breadth-first from the cyclic vector
        (degree 0) along the nonzero entries of every action: a clash, an
        unreached vector or no cyclic vector means no grading."""
        read = getattr(self.algebra, "jet_degrees", None)
        shifts = read and read()
        if shifts and not any(a and not act.is_zero() for a, act in zip(shifts, self.actions)):
            return [0] * self.dim
        if not (shifts and self.cyclic):
            return None
        steps = [[] for _ in range(self.dim)]  # b -> (c, shift) over the entries (c, b)
        for a, act in zip(shifts, self.actions):
            for c, b, _ in act.nonzeros():
                steps[b].append((c, a))
        degree = dict.fromkeys(self.cyclic, 0)
        queue = list(degree)
        for b in queue:
            for c, a in steps[b]:
                if c not in degree:
                    degree[c] = degree[b] + a
                    queue.append(c)
                elif degree[c] != degree[b] + a:
                    return None
        return [degree[b] for b in range(self.dim)] if len(degree) == self.dim else None

    def character(self):
        """Weight multiplicities of a module over g."""
        return {Weight(key): len(coords) for key, coords in self.weights().items()}


def transport(module: FiniteModule, phi: Matrix, source_algebra) -> FiniteModule:
    """Pullback of a module along a Lie algebra map phi: source -> owner,
    given by its matrix in basis coordinates, of the module's scalar kind
    (lift a raw module with repmod.lift_module first)."""
    if phi.nrows != module.algebra.dim or phi.ncols != source_algebra.dim:
        raise ValueError("transport matrix shape mismatch")
    if phi.field is not module.field:
        raise ValueError(
            "transport matrix over %r, module over %r" % (phi.field, module.field)
        )
    actions = [module.operator(phi.column(j)) for j in range(source_algebra.dim)]
    return FiniteModule(source_algebra, actions, cyclic=module.cyclic)


def integer_weight(x, dim):
    """x, a raw eigenvalue of an h in an sl2-triple on a module of dimension
    dim; raises ValueError unless x is an int in [1 - dim, dim - 1], the
    range such an eigenvalue must lie in."""
    if type(x) is not int or not 1 - dim <= x <= dim - 1:
        raise ValueError(
            "%r is not an integer weight in [%d, %d]" % (x, 1 - dim, dim - 1)
        )
    return x


def weight_spaces(ops, dim):
    """The joint eigenspaces of commuting Cartan operators on a module of
    dimension `dim`, as {tuple of integer eigenvalues: coordinate indices}.

    The operators must be diagonal on the module's basis (joint_eigenspaces
    raises otherwise), and every diagonal entry must pass integer_weight."""
    return {
        tuple(integer_weight(x, dim) for x in key): coords
        for key, coords in joint_eigenspaces(ops, dim).items()
    }


def trivial_module(algebra):
    """The one-dimensional module on which every element acts by zero."""
    zero = Matrix.from_triples(RAW, 1, 1, ())
    return FiniteModule(algebra, [zero] * algebra.dim, cyclic={0: 1})


def irreducible_module(g, lam):
    """V(lam), the universal finite-dimensional highest weight module of g
    (Chari-Pressley 2001): the local Weyl module of lam at one point over the
    truncation at exponent 1, g tensor A/m = g, read back over g.  It is raw,
    so it does not depend on g's field: each is built once per g, and no
    caller changes the module it is handed.  The build is checked on the
    bracket, and its weight counts, keyed by int tuples as weights() reads
    them, against RootDatum.character(lam.coords)."""
    if not lam.is_dominant():
        raise ValueError("highest weight must be dominant")
    if lam.is_zero():
        return trivial_module(g)
    mod = g._irreducibles.get(lam)
    if mod is not None:
        return mod
    from .weyl import one_point_weyl_module  # weyl imports this module

    w = one_point_weyl_module(g, lam)
    # one point and one jet monomial: the truncation's basis is g's, in order
    mod = FiniteModule(g, w.actions, cyclic=w.cyclic)
    mod.check_bracket()
    counts = {key: len(coords) for key, coords in mod.weights().items()}
    if counts != g.rd.character(lam.coords):
        raise ValueError("constructed module has wrong character")
    g._irreducibles[lam] = mod
    return mod
