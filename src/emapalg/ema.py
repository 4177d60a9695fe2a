"""Truncated map algebras (g tensor A)/(g tensor I_eta), their equivariant
counterparts over orbit-saturated truncations, the invariant subalgebra with
its character grading, the evaluation isomorphism with a constructive lift,
and the ideal identities that drive untwisting."""

from __future__ import annotations

from .coordalg import (
    EtaFunction,
    JetAlgebra,
    LaurentFunction,
    jet_expand,
    interpolate,
)
from .liealg import LieAlgebra, preserves_bracket
from .linalg import Matrix, Subspace, intersect, linear_combination


class TruncatedAlgebra(LieAlgebra):
    """(g tensor A)/(g tensor I_eta) with basis {g-basis x jet monomial}."""

    def __init__(self, g, eta: EtaFunction):
        self.g = g
        self.eta = eta
        self.field = g.field
        self.jets = [JetAlgebra(p, e) for p, e in eta.assignments]
        self.points = [j.point for j in self.jets]
        self.basis = []
        for p_idx, jet in enumerate(self.jets):
            for g_idx in range(g.dim):
                for mono in jet.monomials:
                    self.basis.append((p_idx, g_idx, mono))
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._bracket_cache = {}

    def bracket_terms(self, i, j):
        # [x tensor u^a, y tensor u^b] = [x, y] tensor u^(a + b) at one point,
        # with g's int structure constants
        out = self._bracket_cache.get((i, j))
        if out is None:
            p, gi, ma = self.basis[i]
            q, gj, mb = self.basis[j]
            mono = tuple(a + b for a, b in zip(ma, mb))
            if p != q or sum(mono) >= self.jets[p].order:
                out = ()
            else:
                terms = self.g.bracket_terms(gi, gj)
                out = tuple((self.index[(p, gk, mono)], c) for gk, c in terms)
            self._bracket_cache[(i, j)] = out
        return out

    def jet_degrees(self):
        """The total jet degree |beta| of each basis element x tensor u^beta."""
        return [sum(mono) for _, _, mono in self.basis]

    def levi_split(self):
        """s = g tensor 1 at each point, split as g is; n = the basis elements
        of positive jet degree."""
        cartan, raising, _ = self.g.levi_split()
        at_one = [(k, g_idx) for k, (_, g_idx, mono) in enumerate(self.basis) if not any(mono)]
        return (
            [k for k, g_idx in at_one if g_idx in cartan],
            [k for k, g_idx in at_one if g_idx in raising],
            [k for k, (_, _, mono) in enumerate(self.basis) if any(mono)],
        )


class MapElement:
    """An element of (g tensor A), stored per Laurent monomial as a sparse
    g-vector."""

    def __init__(self, g, terms=None):
        self.g = g
        self.terms = {exp: vec for exp, vec in (terms or {}).items() if vec}

    @classmethod
    def pure(cls, g, g_vec, f: LaurentFunction):
        terms = {}
        for exp, c in f.terms.items():
            terms[exp] = {i: c * x for i, x in g_vec.items()}
        return cls(g, terms)

    def __add__(self, other):
        out = dict(self.terms)
        one = self.g.field.one
        for exp, vec in other.terms.items():
            cur = out.get(exp)
            out[exp] = vec if cur is None else linear_combination([(one, cur), (one, vec)])
        return MapElement(self.g, out)

    def component(self, g_idx) -> LaurentFunction:
        return LaurentFunction(
            self._nvars(),
            {exp: vec[g_idx] for exp, vec in self.terms.items() if g_idx in vec},
            fld=self.g.field,
        )

    def _nvars(self):
        for exp in self.terms:
            return len(exp)
        return 1

    def gamma_apply(self, group, gamma):
        gm = group.g_matrix(gamma)
        pa = group.point_action(gamma)
        out = MapElement(self.g)
        for g_idx in range(self.g.dim):
            f = self.component(g_idx)
            if f.is_zero():
                continue
            gf = pa.act_function(f)
            out = out + MapElement.pure(self.g, gm.column(g_idx), gf)
        return out

    def __eq__(self, other):
        return isinstance(other, MapElement) and self.terms == other.terms


class InvariantAlgebra(LieAlgebra):
    """The group-fixed subalgebra of the truncation over the orbit saturation
    of eta (the ambient algebra), with a character grading label on every
    basis element.

    The group acts freely on the points, so evaluation at one point per orbit
    identifies the invariants with the truncations at those points.  The
    basis is made of the orbit sums sum_gamma gamma.(x, v, u^beta), where x is
    the first point of each orbit, v runs over the reduced basis of the
    eigenspace g_xi of the group on g (characters in order) and u^beta over the
    jet monomials at x.  Each orbit sum equals (x, v, u^beta) at x and is zero
    at the other orbit-first points, so the orbit sums labelled xi are the
    reduced echelon basis of the xi-graded invariants."""

    def __init__(self, g, group, eta: EtaFunction):
        self.g = g
        self.group = group
        self.eta = eta  # representative exponent function (transversal side)
        self.ambient = t = TruncatedAlgebra(g, eta.orbit_saturation(group))
        self.field = fld = g.field

        # the g_xi, from the character projectors on g
        inv_n = fld.one / fld.scalar(group.size)
        eigen = []  # (xi, basis vector of g_xi)
        for xi in group.characters:
            proj = Matrix.combination(
                fld,
                g.dim,
                g.dim,
                [
                    (group.character_value(xi, gamma).inverse() * inv_n, group.g_matrix(gamma))
                    for gamma in group.elements
                ],
            )
            comp = Subspace(g.dim, [proj.column(j) for j in range(g.dim)], fld=fld)
            eigen.extend((xi, v) for v in comp.basis)
        self._eigen = [v for _, v in eigen]
        self._eigen_inv = Matrix.from_columns(fld, g.dim, self._eigen).inverse()
        if self._eigen_inv is None:
            raise AssertionError("the character components g_xi do not form a basis of g")

        self._reps = []  # index of the first point of each orbit
        for orbit in group.orbits(t.points):
            if len(orbit) != group.size:
                raise ValueError("the group does not act freely on the orbit of %r" % (orbit[0],))
            self._reps.append(t.points.index(orbit[0]))

        # column k of `seed` is the k-th (x, v, u^beta)
        self.xi_labels = []
        self._slot = {}  # (point index, eigenvector index, monomial) -> basis index
        self._labels = []  # basis index -> (point index, eigenvector index, monomial)
        triples = []
        for xi in group.characters:
            for p_idx in self._reps:
                for e, (xi_v, v) in enumerate(eigen):
                    if xi_v != xi:
                        continue
                    for mono in t.jets[p_idx].monomials:
                        k = len(self.xi_labels)
                        self.xi_labels.append(xi)
                        self._slot[(p_idx, e, mono)] = k
                        self._labels.append((p_idx, e, mono))
                        triples.extend(
                            (t.index[(p_idx, gi, mono)], k, c) for gi, c in v.items()
                        )
        self.dim = len(self.xi_labels)
        seed = Matrix.from_triples(fld, t.dim, self.dim, triples)
        mats = {gamma: gamma_truncation_matrix(group, gamma, t, t) for gamma in group.elements}
        # column k of `span` is the k-th basis vector, the orbit sum of seed k
        span = Matrix.combination(
            fld, t.dim, self.dim, [(fld.one, m.matmul(seed)) for m in mats.values()]
        )
        for gen_idx in range(len(group.generators)):
            gamma = tuple(int(i == gen_idx) for i in range(len(group.generators)))
            # a generator of order 1 is not among the elements
            m = mats[gamma] if gamma in mats else gamma_truncation_matrix(group, gamma, t, t)
            if m.matmul(span) != span:
                raise AssertionError("an orbit sum is not fixed by generator %r" % (gamma,))
        self._span = span
        self.basis = [span.column(k) for k in range(self.dim)]
        self._bracket_cache = {}
        self._iso_cache = {}

    def coords(self, vec):
        """Coordinates of an ambient vector in the chosen basis: its g-vectors
        at the first points of the orbits, in the eigenbasis of g.  Raises
        ValueError unless the vector is the combination they give."""
        t = self.ambient
        at_reps = {}  # (point index, monomial) -> g-vector
        for r, x in vec.items():
            p_idx, g_idx, mono = t.basis[r]
            if p_idx in self._reps:
                at_reps.setdefault((p_idx, mono), {})[g_idx] = x
        coeffs = {}
        for (p_idx, mono), w in at_reps.items():
            for e, c in self._eigen_inv.apply(w).items():
                coeffs[self._slot[(p_idx, e, mono)]] = c
        if linear_combination((c, self.basis[k]) for k, c in coeffs.items()) != vec:
            raise ValueError("vector is not in the invariant subalgebra")
        return coeffs

    def bracket_terms(self, i, j):
        """[b_i, b_j] in invariant coordinates, read off the basis labels.

        The group acts freely, so the orbit sums of (x, v_a, u^alpha) and
        (y, v_b, u^beta) bracket to zero unless x = y, and then to the orbit
        sum of (x, [v_a, v_b], u^(alpha + beta)), which is zero once
        |alpha + beta| reaches the order at x.  Raises AssertionError unless
        every term carries the character label xi_i + xi_j."""
        key = (i, j)
        out = self._bracket_cache.get(key)
        if out is None:
            p, a, ma = self._labels[i]
            q, b, mb = self._labels[j]
            mono = tuple(s + t for s, t in zip(ma, mb))
            if p != q or sum(mono) >= self.ambient.jets[p].order:
                out = ()
            else:
                # [v_a, v_b] in the eigenbasis of g
                terms = self._eigen_inv.apply(self.g.bracket(self._eigen[a], self._eigen[b]))
                out = tuple(sorted((self._slot[(p, e, mono)], c) for e, c in terms.items()))
                xi = tuple(
                    (s + t) % gen.order
                    for s, t, gen in zip(self.xi_labels[i], self.xi_labels[j], self.group.generators)
                )
                if any(self.xi_labels[k] != xi for k, _ in out):
                    raise AssertionError(
                        "[b_%d, b_%d] leaves the character component %r" % (i, j, xi)
                    )
            self._bracket_cache[key] = out
        return out

    def evaluation_iso(self, eta=None):
        """The map restricting invariants to the summands over Supp eta, as a
        pair (matrix, inverse matrix); eta defaults to the representative."""
        eta = eta or self.eta
        key = eta
        cached = self._iso_cache.get(key)
        if cached is not None:
            return cached
        if eta.orbit_saturation(self.group) != self.ambient.eta:
            raise ValueError("exponent function does not match this invariant algebra")
        points = eta.support()
        if len(self.group.orbits(points)) != len(points):
            raise ValueError("support contains two points of one orbit: %r" % (points,))
        target = TruncatedAlgebra(self.g, eta)
        if target.dim != self.dim:
            raise AssertionError("evaluation map is not square: %d vs %d" % (target.dim, self.dim))
        amb = self.ambient
        row_of = {
            amb.index[(amb.points.index(target.points[p_idx]), g_idx, mono)]: r
            for r, (p_idx, g_idx, mono) in enumerate(target.basis)
        }
        mat = Matrix.from_triples(
            self.field,
            target.dim,
            self.dim,
            ((row_of[r], k, x) for r, k, x in self._span.nonzeros() if r in row_of),
        )
        inv = mat.inverse()
        if inv is None:
            raise AssertionError("evaluation map is not invertible")
        result = (target, mat, inv)
        self._iso_cache[key] = result
        return result

    def check_iso_is_homomorphism(self, eta=None):
        target, mat, _ = self.evaluation_iso(eta)
        return preserves_bracket(mat, self, target)

    def invariant_part_of(self, ambient_subspace: Subspace) -> Subspace:
        """Intersection with the fixed space (the subspace need not be stable)."""
        fixed = Subspace(self.ambient.dim, list(self.basis), fld=self.field)
        return intersect(ambient_subspace, fixed)

    def ideal_subspace(self, exponents: EtaFunction) -> Subspace:
        """Image of g tensor (product ideal) inside the ambient truncation."""
        t = self.ambient
        vecs = []
        for i, (p_idx, g_idx, mono) in enumerate(t.basis):
            if sum(mono) >= exponents[t.points[p_idx]]:
                vecs.append(t.basis_vector(i))
        return Subspace(t.dim, vecs, fld=self.field)


def gamma_truncation_matrix(group, gamma, source: TruncatedAlgebra, target: TruncatedAlgebra):
    """Matrix of the action of a group element as a Lie isomorphism from one
    truncation to another (gamma must carry source points/exponents to target
    points/exponents)."""
    fld = source.field
    gm = group.g_matrix(gamma)
    pa = group.point_action(gamma)
    point_map = {}
    for p_idx, p in enumerate(source.points):
        q = pa.act_point(p)
        if q not in target.points:
            raise ValueError("group element does not carry source points to target points")
        q_idx = target.points.index(q)
        if source.eta[p] != target.eta[q]:
            raise ValueError("exponents do not match along the group element")
        point_map[p_idx] = q_idx
    triples = []
    for j, (p_idx, g_idx, mono) in enumerate(source.basis):
        fac = pa.jet_transport_factor(mono)
        q_idx = point_map[p_idx]
        for g_tgt, c in gm.column(g_idx).items():
            triples.append((target.index[(q_idx, g_tgt, mono)], j, c * fac))
    return Matrix.from_triples(fld, target.dim, source.dim, triples)


def constructive_lift(g, group, a_vec, f: LaurentFunction, x, eta: EtaFunction):
    """The averaging lift from the surjectivity argument: an invariant element
    congruent to (a tensor f) at x and vanishing to the required order at the
    other support points."""
    if eta[x] == 0:
        raise ValueError("x must lie in the support of eta")
    points = eta.support()
    if len(group.orbits(points)) != len(points):
        raise ValueError("support contains two points of one orbit: %r" % (points,))
    fld = g.field
    n = eta.max_exponent()
    # need xi with xi^n = -1
    if n == 1:
        xi = -fld.one
    else:
        if fld.order % (2 * n) != 0:
            raise ValueError(
                "field lacks an n-th root of -1; needs cyclotomic order divisible by %d"
                % (2 * n)
            )
        xi = fld.zeta ** (fld.order // (2 * n))
    if xi**n != -fld.one:
        raise AssertionError("xi^n != -1")

    assignments = [(x, fld.zero)]
    for gamma in group.elements:
        if gamma == group.identity:
            continue
        assignments.append((group.act_point(gamma, x), xi))
    for y in eta.support():
        if y == x:
            continue
        for gamma in group.elements:
            assignments.append((group.act_point(gamma, y), xi))
    f1 = interpolate(assignments, fld=fld)
    one = LaurentFunction.constant(f1.nvars, fld.one)
    f2 = f * (one + f1**n) ** n
    alpha = MapElement(g)
    for gamma in group.elements:
        alpha = alpha + MapElement.pure(g, a_vec, f2).gamma_apply(group, gamma)
    return alpha, f1, f2


def verify_lift(g, group, alpha: MapElement, a_vec, f, x, eta: EtaFunction):
    """Exact checks of the three conditions defining the lift."""
    for gen_idx in range(len(group.generators)):
        gamma = tuple(
            1 if i == gen_idx else 0 for i in range(len(group.generators))
        )
        if alpha.gamma_apply(group, gamma) != alpha:
            return False, "not invariant"
    diff = alpha + MapElement.pure(g, {i: -c for i, c in a_vec.items()}, f)
    for g_idx in range(g.dim):
        comp = jet_expand(diff.component(g_idx), x, eta[x])
        if comp:
            return False, "wrong jet at the distinguished point"
    for y in eta.support():
        if y == x:
            continue
        for g_idx in range(g.dim):
            comp = jet_expand(alpha.component(g_idx), y, eta[y])
            if comp:
                return False, "does not vanish to the required order at %r" % (y,)
    return True, "ok"


def ideal_equality_check(inv: InvariantAlgebra, eta: EtaFunction):
    """Invariant part of (g tensor I_eta) equals that of the orbit-saturated
    ideal, inside inv's ambient truncation."""
    lhs = inv.invariant_part_of(inv.ideal_subspace(eta))
    tilde = eta.orbit_saturation(inv.group)
    rhs = inv.invariant_part_of(inv.ideal_subspace(tilde))
    return lhs == rhs


def power_ideal_check(inv: InvariantAlgebra, ideal: EtaFunction, m: int):
    """Compare the m-th bracket power of the invariant ideal with the
    invariants of the m-th ideal power."""
    if any(m * ideal[p] >= e for p, e in inv.ambient.eta.assignments if ideal[p]):
        raise ValueError("ambient truncation too small for this power check")
    t = inv.ambient
    base = inv.invariant_part_of(inv.ideal_subspace(ideal))
    cur = base
    for _ in range(m - 1):
        vecs = []
        for u in base.basis:
            for v in cur.basis:
                vecs.append(t.bracket(u, v))
        cur = Subspace(t.dim, vecs, fld=inv.field)
    rhs = inv.invariant_part_of(inv.ideal_subspace(ideal.scale(m)))
    return cur == rhs


def annihilator_eta(module):
    """An exponent function with transversal support whose invariant ideal
    annihilates the module, following the composition-series bound."""
    from .repmod import multiplicities, untwist

    if isinstance(module.algebra, InvariantAlgebra):
        table = multiplicities(untwist(module))
    else:
        table = multiplicities(module)
    nu = {}
    length = 0
    for psi, mult in table.items():
        length += mult
        for p in psi.support():
            nu[p] = nu.get(p, 0) + mult
    if not nu:
        return EtaFunction.of({})
    eta = EtaFunction.of({p: length * e for p, e in nu.items()})
    return eta


def verify_annihilation(module, eta: EtaFunction):
    """Every invariant element of the (clipped) ideal acts as zero."""
    alg = module.algebra
    if not isinstance(alg, InvariantAlgebra):
        raise ValueError("expected a module over an invariant algebra")
    tilde = eta.orbit_saturation(alg.group)
    sub = alg.invariant_part_of(alg.ideal_subspace(tilde))
    for v in sub.basis:
        coords = alg.coords(v)
        op = module.operator(coords)
        if not op.is_zero():
            return False
    return True
