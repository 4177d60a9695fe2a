"""Truncated map algebras (g tensor A)/(g tensor I_eta), their equivariant
counterparts over orbit-saturated truncations, the invariant subalgebra with
its character grading, the evaluation isomorphism with a constructive lift,
and the ideal identities that drive untwisting."""

from __future__ import annotations

import itertools

from .coordalg import (
    EtaFunction,
    JetAlgebra,
    LaurentFunction,
    QuotientAlgebra,
    is_transversal_set,
    jet_expand,
    interpolate,
)
from .linalg import Matrix, Subspace, intersect


class TruncatedAlgebra:
    """(g tensor A)/(g tensor I_eta) with basis {g-basis x jet monomial}."""

    def __init__(self, g, eta: EtaFunction):
        self.g = g
        self.eta = eta
        self.field = g.field
        self.quotient = QuotientAlgebra(eta)
        self.points = [j.point for j in self.quotient.summands]
        self.basis = []
        for p_idx, jet in enumerate(self.quotient.summands):
            for g_idx in range(g.dim):
                for mono in jet.monomials:
                    self.basis.append((p_idx, g_idx, mono))
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._bracket_cache = {}

    def zero(self):
        return (self.field.zero,) * self.dim

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return tuple(v)

    def bracket_terms(self, i, j):
        key = (i, j)
        out = self._bracket_cache.get(key)
        if out is None:
            p, gi, ma = self.basis[i]
            q, gj, mb = self.basis[j]
            if p != q:
                out = ()
            else:
                order = self.quotient.summands[p].order
                mono = tuple(a + b for a, b in zip(ma, mb))
                if sum(mono) >= order:
                    out = ()
                else:
                    out = tuple(
                        (self.index[(p, gk, mono)], c)
                        for gk, c in self.g.bracket_terms(gi, gj)
                    )
            self._bracket_cache[key] = out
        return out

    def bracket(self, u, v):
        out = [self.field.zero] * self.dim
        for i, a in enumerate(u):
            if a.is_zero():
                continue
            for j, b in enumerate(v):
                if b.is_zero():
                    continue
                c = a * b
                for k, s in self.bracket_terms(i, j):
                    out[k] = out[k] + c * s
        return tuple(out)

    def adjoint_matrix(self, i):
        return Matrix.from_triples(
            self.field,
            self.dim,
            self.dim,
            ((k, j, s) for j in range(self.dim) for k, s in self.bracket_terms(i, j)),
        )

    def project(self, g_vec, f: LaurentFunction):
        """Image of (g-element tensor function) in the truncation."""
        out = [self.field.zero] * self.dim
        for p_idx, jet in enumerate(self.quotient.summands):
            coeffs = jet_expand(f, jet.point, jet.order)
            for g_idx, c in enumerate(g_vec):
                if c.is_zero():
                    continue
                for mono, jc in coeffs.items():
                    k = self.index[(p_idx, g_idx, mono)]
                    out[k] = out[k] + c * jc
        return tuple(out)

    def check_jacobi(self, samples=60):
        idxs = list(range(self.dim))
        count = 0
        for i, j, k in itertools.combinations(idxs, 3):
            x, y, z = (self.basis_vector(t) for t in (i, j, k))
            s = [
                a + b + c
                for a, b, c in zip(
                    self.bracket(x, self.bracket(y, z)),
                    self.bracket(y, self.bracket(z, x)),
                    self.bracket(z, self.bracket(x, y)),
                )
            ]
            if any(not t.is_zero() for t in s):
                raise AssertionError("Jacobi identity failed in truncation")
            count += 1
            if count >= samples:
                return


class MapElement:
    """An element of (g tensor A), stored per Laurent monomial as a g-vector."""

    def __init__(self, g, terms=None):
        self.g = g
        self.terms = {}
        if terms:
            for exp, vec in terms.items():
                if any(not c.is_zero() for c in vec):
                    self.terms[exp] = tuple(vec)

    @classmethod
    def pure(cls, g, g_vec, f: LaurentFunction):
        terms = {}
        for exp, c in f.terms.items():
            terms[exp] = tuple(c * x for x in g_vec)
        return cls(g, terms)

    def __add__(self, other):
        out = dict(self.terms)
        for exp, vec in other.terms.items():
            cur = out.get(exp)
            out[exp] = vec if cur is None else tuple(a + b for a, b in zip(cur, vec))
        return MapElement(self.g, out)

    def component(self, g_idx) -> LaurentFunction:
        return LaurentFunction(
            self._nvars(),
            {exp: vec[g_idx] for exp, vec in self.terms.items()},
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

    def project(self, trunc: TruncatedAlgebra):
        out = [trunc.field.zero] * trunc.dim
        for g_idx in range(self.g.dim):
            f = self.component(g_idx)
            if f.is_zero():
                continue
            vec = [trunc.field.zero] * self.g.dim
            vec[g_idx] = trunc.field.one
            p = trunc.project(tuple(vec), f)
            out = [a + b for a, b in zip(out, p)]
        return tuple(out)


class OrbitTruncation:
    """A truncated algebra over an orbit-saturated exponent function, carrying
    the group action matrices."""

    def __init__(self, g, group, eta: EtaFunction):
        self.g = g
        self.group = group
        self.eta_tilde = eta.orbit_saturation(group)
        self.trunc = TruncatedAlgebra(g, self.eta_tilde)
        self.field = g.field
        self._gamma_mats = {}
        self._avg = None

    @property
    def dim(self):
        return self.trunc.dim

    def gamma_matrix(self, gamma):
        m = self._gamma_mats.get(gamma)
        if m is None:
            t = self.trunc
            m = gamma_truncation_matrix(self.group, gamma, t, t)
            self._gamma_mats[gamma] = m
        return m

    def averaging_matrix(self):
        if self._avg is None:
            fld = self.field
            inv_n = fld.scalar(1) / fld.scalar(self.group.size)
            self._avg = Matrix.combination(
                fld,
                self.dim,
                self.dim,
                [(inv_n, self.gamma_matrix(gamma)) for gamma in self.group.elements],
            )
        return self._avg

    def g_side_projector(self, xi):
        """Projector onto the xi-isotypic part of the g tensor factor."""
        fld = self.field
        t = self.trunc
        inv_n = fld.scalar(1) / fld.scalar(self.group.size)
        triples = []
        for gamma in self.group.elements:
            chi = self.group.character_value(xi, gamma).inverse() * inv_n
            gm = self.group.g_matrix(gamma)
            for j, (p_idx, g_idx, mono) in enumerate(t.basis):
                for g_tgt, c in enumerate(gm.column(g_idx)):
                    if not c.is_zero():
                        triples.append((t.index[(p_idx, g_tgt, mono)], j, c * chi))
        return Matrix.from_triples(fld, t.dim, t.dim, triples)


class InvariantAlgebra:
    """The group-fixed subalgebra of an orbit truncation, with a character
    grading label on every basis element."""

    def __init__(self, g, group, eta: EtaFunction):
        self.g = g
        self.group = group
        self.eta = eta  # representative exponent function (transversal side)
        self.ambient = OrbitTruncation(g, group, eta)
        self.field = g.field
        avg = self.ambient.averaging_matrix()
        fld = self.field
        t = self.ambient.trunc

        self.basis = []
        self.xi_labels = []
        for xi in group.characters:
            proj = self.ambient.g_side_projector(xi)
            vecs = []
            for j in range(t.dim):
                v = proj.apply(avg.column(j))
                if any(not c.is_zero() for c in v):
                    vecs.append(v)
            comp = Subspace(t.dim, vecs, fld=fld)
            for b in comp.basis:
                self.basis.append(b)
                self.xi_labels.append(xi)
        self.dim = len(self.basis)
        full = Subspace(t.dim, self.basis, fld=fld)
        if full.dim != self.dim:
            raise AssertionError("character components of the invariants overlap")
        # coordinate extractor: invert the basis on a set of pivot columns
        cols = full.pivots
        # columns of sq are the basis vectors restricted to the pivot rows,
        # so coords solve sq * c = restricted
        sq = Matrix(
            [tuple(b[c] for b in self.basis) for c in cols], ncols=self.dim, fld=fld
        )
        inv = sq.inverse()
        assert inv is not None
        self._coord_cols = cols
        self._coord_inv = inv
        self._bracket_cache = {}
        self._iso_cache = {}

    def coords(self, ambient_vec):
        """Coordinates of an ambient invariant vector in the chosen basis."""
        restricted = tuple(ambient_vec[c] for c in self._coord_cols)
        c = self._coord_inv.apply(restricted)
        # verify membership
        rec = [self.field.zero] * self.ambient.dim
        for coef, b in zip(c, self.basis):
            if not coef.is_zero():
                rec = [x + coef * y for x, y in zip(rec, b)]
        if tuple(rec) != tuple(ambient_vec):
            raise ValueError("vector is not in the invariant subalgebra")
        return tuple(c)

    def embed(self, coeffs):
        out = [self.field.zero] * self.ambient.dim
        for c, b in zip(coeffs, self.basis):
            if not c.is_zero():
                out = [x + c * y for x, y in zip(out, b)]
        return tuple(out)

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return tuple(v)

    def bracket_terms(self, i, j):
        key = (i, j)
        out = self._bracket_cache.get(key)
        if out is None:
            amb = self.ambient.trunc.bracket(self.basis[i], self.basis[j])
            c = self.coords(amb)
            out = tuple((k, x) for k, x in enumerate(c) if not x.is_zero())
            self._bracket_cache[key] = out
        return out

    def bracket(self, u, v):
        out = [self.field.zero] * self.dim
        for i, a in enumerate(u):
            if a.is_zero():
                continue
            for j, b in enumerate(v):
                if b.is_zero():
                    continue
                c = a * b
                for k, s in self.bracket_terms(i, j):
                    out[k] = out[k] + c * s
        return tuple(out)

    def evaluation_iso(self, eta=None):
        """The map restricting invariants to the summands over Supp eta, as a
        pair (matrix, inverse matrix); eta defaults to the representative."""
        eta = eta or self.eta
        key = eta
        cached = self._iso_cache.get(key)
        if cached is not None:
            return cached
        if eta.orbit_saturation(self.group) != self.ambient.eta_tilde:
            raise ValueError("exponent function does not match this invariant algebra")
        ok, viol = is_transversal_set(self.group, list(eta.support()))
        if not ok:
            raise ValueError("support contains two points of one orbit: %r" % (viol,))
        target = TruncatedAlgebra(self.g, eta)
        amb = self.ambient.trunc
        rows = []
        for p_idx, g_idx, mono in target.basis:
            src = amb.index[(amb.points.index(target.points[p_idx]), g_idx, mono)]
            rows.append(tuple(b[src] for b in self.basis))
        mat = Matrix(rows, ncols=self.dim, fld=self.field)
        if mat.nrows != mat.ncols:
            raise AssertionError("evaluation map is not square: %d vs %d" % (mat.nrows, self.dim))
        inv = mat.inverse()
        if inv is None:
            raise AssertionError("evaluation map is not invertible")
        result = (target, mat, inv)
        self._iso_cache[key] = result
        return result

    def check_iso_is_homomorphism(self, eta=None):
        target, mat, _ = self.evaluation_iso(eta)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                br = self.bracket(self.basis_vector(i), self.basis_vector(j))
                lhs = mat.apply(br)
                rhs = target.bracket(mat.column(i), mat.column(j))
                if tuple(lhs) != tuple(rhs):
                    return False
        return True

    def invariant_part_of(self, ambient_subspace: Subspace) -> Subspace:
        """Intersection with the fixed space (the subspace need not be stable)."""
        fixed = Subspace(self.ambient.dim, list(self.basis), fld=self.field)
        return intersect(ambient_subspace, fixed)

    def ideal_subspace(self, exponents: EtaFunction) -> Subspace:
        """Image of g tensor (product ideal) inside the ambient truncation."""
        t = self.ambient.trunc
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
    g = source.g
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
        for g_tgt, c in enumerate(gm.column(g_idx)):
            if not c.is_zero():
                triples.append((target.index[(q_idx, g_tgt, mono)], j, c * fac))
    return Matrix.from_triples(fld, target.dim, source.dim, triples)


def ev_gamma_iso(g, group, eta: EtaFunction):
    """Invariant algebra together with its evaluation isomorphism onto the
    plain truncation at eta."""
    inv = InvariantAlgebra(g, group, eta)
    target, mat, matinv = inv.evaluation_iso(eta)
    return inv, target, mat, matinv


def constructive_lift(g, group, a_vec, f: LaurentFunction, x, eta: EtaFunction):
    """The averaging lift from the surjectivity argument: an invariant element
    congruent to (a tensor f) at x and vanishing to the required order at the
    other support points."""
    if eta[x] == 0:
        raise ValueError("x must lie in the support of eta")
    ok, viol = is_transversal_set(group, list(eta.support()))
    if not ok:
        raise ValueError("support contains two points of one orbit: %r" % (viol,))
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
    assert xi**n == -fld.one

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
    diff = alpha + MapElement.pure(g, tuple(-c for c in a_vec), f)
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
    amb_exps = {
        p: inv.ambient.eta_tilde[p] for p in inv.ambient.eta_tilde.support()
    }
    if any(m * ideal[p] >= e for p, e in amb_exps.items() if ideal[p]):
        raise ValueError("ambient truncation too small for this power check")
    t = inv.ambient.trunc
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
