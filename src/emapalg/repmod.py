"""Finite-dimensional modules over truncated and invariant algebras:
evaluation modules, the psi calculus, twisting and untwisting transports,
multiplicity tables, Hom spaces, and isomorphism testing."""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass

from .ema import InvariantAlgebra, TruncatedAlgebra
from .fields import RAW
from .liealg import FiniteModule, irreducible_module, transport
from .linalg import (
    Matrix,
    Subspace,
    intertwiners,
    kron_slots,
    kron_vector,
    lift,
    lower,
)
from .rootdata import Weight

# Schwartz-Zippel trials in is_isomorphic; each misses an existing
# isomorphism with probability below 1/2
_ISO_TRIALS = 20


@dataclass(frozen=True)
class PsiFunction:
    """A finitely supported function from rational points to nonzero dominant
    weights."""

    assignments: tuple  # sorted tuple of (Point, Weight)
    equivariant: bool = False

    @classmethod
    def of(cls, mapping, equivariant=False):
        items = [
            (p, w) for p, w in dict(mapping).items() if not w.is_zero()
        ]
        for _, w in items:
            if not w.is_dominant():
                raise ValueError("psi values must be dominant weights")
        items.sort(key=lambda pw: pw[0].sort_key())
        return cls(tuple(items), equivariant)

    def support(self):
        return tuple(p for p, _ in self.assignments)

    def __getitem__(self, point) -> Weight:
        for p, w in self.assignments:
            if p == point:
                return w
        rank = self.assignments[0][1].rank if self.assignments else 1
        return Weight((0,) * rank)

    def is_zero(self):
        return not self.assignments

    def total_weight(self) -> Weight:
        acc = None
        for _, w in self.assignments:
            acc = w if acc is None else acc + w
        return acc

    def __add__(self, other):
        out = {p: w for p, w in self.assignments}
        for p, w in other.assignments:
            out[p] = out[p] + w if p in out else w
        return PsiFunction.of(out)

    def __repr__(self):
        return "PsiFunction(%s)" % ", ".join(
            "%r -> %s" % (p, w.coords) for p, w in self.assignments
        )


def height_psi(rd, psi: PsiFunction):
    """Sum of the heights of the values over the support points, scaled by
    n + 1 (rd.scaled_height), so an int that orders psi as the height does."""
    return sum(rd.scaled_height(w) for _, w in psi.assignments)


def height_psi_orbits(group, psi: PsiFunction):
    """Height of an equivariant psi: one term per support orbit, read at the
    orbit's leader."""
    leaders = [orbit[0] for orbit in group.orbits(psi.support())]
    return height_psi(group.algebra.rd, PsiFunction.of({p: psi[p] for p in leaders}))


def psi_gamma(group, psi: PsiFunction) -> PsiFunction:
    """Equivariant extension: (psi^Gamma)(x) = sum over gamma of the diagram
    action applied to psi(inverse(gamma) . x).

    It sets psi(gamma . p) = gamma . psi(p) for every gamma and support point
    p, and raises ValueError on a point reached twice with two values.  On a
    group whose axiom_errors() are empty, gamma -> (point scaling, diagram
    symmetry) is a group action: a scaling's declared order n kills it, and
    an automorphism matrix m with m^n = I has tau^n = id.  Then whenever it
    returns, its output psi' has psi'(delta . q) = delta . psi'(q) at every
    point q = gamma . p it set, so it is equivariant: returning is the one
    check of equivariance."""
    points = psi.support()
    if len(group.orbits(points)) != len(points):
        raise ValueError("support contains two points of one orbit: %r" % (points,))
    out = {}
    for p, w in psi.assignments:
        for gamma in group.elements:
            q = group.act_point(gamma, p)
            val = group.act_weight(gamma, w)
            if q in out and out[q] != val:
                raise ValueError("inconsistent orbit values")
            out[q] = val
    return PsiFunction.of(out, equivariant=True)


def psi_restrict(psi: PsiFunction, group, points) -> PsiFunction:
    """Restriction of an equivariant psi to a transversal of its support."""
    orbits = group.orbits(points)
    if len(orbits) != len(points):
        raise ValueError("not a transversal: %r" % (points,))
    covered = {q for orbit in orbits for q in orbit}
    for p in psi.support():
        if p not in covered:
            raise ValueError("transversal misses the support orbit of %r" % (p,))
    return PsiFunction.of({p: psi[p] for p in points}, equivariant=False)


def evaluation_module(psi: PsiFunction, target) -> FiniteModule:
    """The (tensor of) irreducibles evaluated at the support, pulled back to
    the target algebra."""
    if isinstance(target, InvariantAlgebra):
        if not psi.equivariant:
            raise ValueError("invariant targets need an equivariant psi")
        rest = psi_restrict(psi, target.group, target.eta.support())
        return twist(evaluation_module(rest, target.evaluation_iso()[0]), target)

    alg = target
    g = alg.g
    for p in psi.support():
        if alg.eta[p] < 1:
            raise ValueError("truncation does not cover the support point %r" % (p,))
    factors = []  # (point index, module over g)
    for p_idx, p in enumerate(alg.points):
        w = psi[p]
        if not w.is_zero():
            factors.append((p_idx, irreducible_module(g, w)))
    dims = [m.dim for _, m in factors]
    slot_of = {p_idx: s for s, (p_idx, _) in enumerate(factors)}

    zero = kron_slots(RAW, dims, ())  # shared: no action matrix is written into
    actions = []
    for p_idx, g_idx, mono in alg.basis:
        slot = slot_of.get(p_idx)
        if sum(mono) or slot is None:
            actions.append(zero)
        else:
            actions.append(kron_slots(RAW, dims, [(1, slot, factors[slot][1].actions[g_idx])]))
    # highest vector: tensor of the factor highest vectors
    hw = kron_vector(RAW, dims, [m.cyclic for _, m in factors])
    return FiniteModule(alg, actions, cyclic=hw)


def lift_module(module: FiniteModule, fld) -> FiniteModule:
    """A raw module as one over the field fld."""
    cyclic = module.cyclic and {k: fld.scalar(x) for k, x in module.cyclic.items()}
    return FiniteModule(module.algebra, [lift(fld, a) for a in module.actions], cyclic=cyclic)


def twist(module: FiniteModule, inv: InvariantAlgebra) -> FiniteModule:
    """Restriction of a raw truncated-algebra module to the invariants,
    through the stored evaluation isomorphism, over the scenario field."""
    if not isinstance(module.algebra, TruncatedAlgebra):
        raise ValueError("twist expects a module over a truncated algebra")
    target, mat, _ = inv.evaluation_iso(module.algebra.eta)
    if target.basis != module.algebra.basis:
        raise ValueError("module algebra does not match the evaluation target")
    return transport(lift_module(module, inv.field), mat, inv)


def untwist(module: FiniteModule) -> FiniteModule:
    """Inverse transport through the stored inverse of the evaluation iso at
    the algebra's representative points, lowered to a raw module; raises
    ValueError on an entry that is not rational."""
    inv = module.algebra
    if not isinstance(inv, InvariantAlgebra):
        raise ValueError("untwist expects a module over an invariant algebra")
    target, _, matinv = inv.evaluation_iso()
    back = transport(module, matinv, target)
    cyclic = back.cyclic and {k: x.as_rational() for k, x in back.cyclic.items()}
    return FiniteModule(target, [lower(a) for a in back.actions], cyclic=cyclic)


def point_weights(alg: TruncatedAlgebra, key):
    """A weight of a module over the truncation (a key of weights()), split
    into one Weight per truncation point."""
    rank = alg.g.rd.rank
    return tuple(Weight(key[p * rank : (p + 1) * rank]) for p in range(len(alg.points)))


def joint_weights(module: FiniteModule):
    """Joint Cartan weights per support point, as a dict mapping tuples of
    Weights (one per truncation point) to dimensions."""
    alg = module.algebra
    if not isinstance(alg, TruncatedAlgebra):
        raise ValueError("joint weights need a truncated-algebra module")
    return {point_weights(alg, key): len(coords) for key, coords in module.weights().items()}


def multiplicities(module: FiniteModule):
    """Composition multiplicities of evaluation modules, by unitriangular
    character solve against Freudenthal characters on the Levi copy.

    The solve runs on the int weight keys of module.weights(), sliced into
    one int tuple per truncation point, against RootDatum.character; Weight
    objects are built only for the table's PsiFunction keys.  Candidates are
    taken by height, highest first, then by coordinates."""
    alg = module.algebra
    if isinstance(alg, InvariantAlgebra):
        return equivariant_table(alg.group, multiplicities(untwist(module)))

    rd = alg.g.rd
    rank = rd.rank
    cuts = range(0, rank * len(alg.points), rank)
    heights = rd.scaled_heights * len(alg.points)
    counts = {key: len(coords) for key, coords in module.weights().items()}
    candidates = sorted(
        (key for key in counts if min(key, default=0) >= 0),
        key=lambda key: (-sum(map(operator.mul, heights, key)), key),
    )
    table = {}
    chars = {}  # the character of each point weight, computed once per call
    for key in candidates:
        m = counts[key]
        if m <= 0:
            continue
        parts = [key[c : c + rank] for c in cuts]
        psi = PsiFunction.of({p: Weight(w) for p, w in zip(alg.points, parts) if any(w)})
        table[psi] = table.get(psi, 0) + m
        for w in parts:
            if w not in chars:
                chars[w] = rd.character(w)
        for combo in itertools.product(*(chars[w].items() for w in parts)):
            jk = ()
            cm = m
            for w, k in combo:
                jk += w
                cm *= k
            counts[jk] = counts.get(jk, 0) - cm
    if any(v != 0 for v in counts.values()):
        raise ValueError("character solve did not resolve: %r" % (counts,))
    total = sum(
        m * psi_dim(rd, psi) for psi, m in table.items()
    )
    if total != module.dim:
        raise AssertionError("multiplicity table fails the dimension sum")
    return table


def equivariant_table(group, table):
    """A multiplicity table over a truncation at a transversal, keyed by the
    equivariant extensions psi^Gamma of its keys."""
    out = {}
    for psi, m in table.items():
        key = psi_gamma(group, psi)
        out[key] = out.get(key, 0) + m
    return out


def psi_dim(rd, psi: PsiFunction):
    """The dimension of the evaluation module of psi: the product of the Weyl
    dimensions of its values."""
    d = 1
    for _, w in psi.assignments:
        d *= rd.weyl_dim(w)
    return d


def support(module: FiniteModule):
    """Union of support orbits (orbits for invariant modules, points else)."""
    table = multiplicities(module)
    alg = module.algebra
    pts = sorted({p for psi in table for p in psi.support()}, key=lambda q: q.sort_key())
    if isinstance(alg, InvariantAlgebra):
        return tuple(tuple(orbit) for orbit in alg.group.orbits(pts))
    return tuple(pts)


def unique_top(table, height, psi: PsiFunction = None):
    """(True, top) when the multiplicity table has one constituent of
    greatest height, with multiplicity one (and equal to psi, if given);
    (False, top) otherwise, and (False, None) for an empty table."""
    if not table:
        return False, None
    items = sorted(table.items(), key=lambda kv: -height(kv[0]))
    top, mult = items[0]
    if mult != 1:
        return False, top
    if len(items) > 1 and height(items[1][0]) == height(top):
        return False, top
    if psi is not None and top != psi:
        return False, top
    return True, top


def hom_space(m1: FiniteModule, m2: FiniteModule):
    """Basis of intertwiners T with T rho_1(u) = rho_2(u) T, as matrices."""
    if not _same_algebra(m1.algebra, m2.algebra):
        raise ValueError("modules live over different algebras")
    return intertwiners(m1.field, m1.dim, m2.dim, zip(m1.actions, m2.actions))


def _same_algebra(a, b):
    if a is b:
        return True
    if isinstance(a, TruncatedAlgebra) and isinstance(b, TruncatedAlgebra):
        return a.g is b.g and a.eta == b.eta
    if isinstance(a, InvariantAlgebra) and isinstance(b, InvariantAlgebra):
        return (
            a.g is b.g
            and a.group is b.group
            and a.ambient.eta == b.ambient.eta
        )
    return False


def quotient_module(module: FiniteModule, sub: Subspace, check=True) -> FiniteModule:
    """Quotient by an invariant subspace; basis = classes of the non-pivot
    coordinates.  `check=False` skips the invariance check (for subspaces
    stable under a generating set of the algebra, hence invariant)."""
    fld = module.field
    if check:
        for b in sub.basis:
            for op in module.actions:
                if not sub.contains(op.apply(b)):
                    raise ValueError("subspace is not invariant under the action")
    pivots = set(sub.pivots)
    keep = [j for j in range(module.dim) if j not in pivots]
    pos = {j: k for k, j in enumerate(keep)}

    def image(vec):
        # the residue is zero at the pivots, so it lives on the kept coordinates
        return {pos[j]: x for j, x in sub.reduce(vec).items()}

    actions = [
        Matrix.from_columns(fld, len(keep), [image(op.column(j)) for j in keep])
        for op in module.actions
    ]
    qcyc = None if module.cyclic is None else image(module.cyclic)
    return FiniteModule(module.algebra, actions, cyclic=qcyc)


def extend_to(module: FiniteModule, big: TruncatedAlgebra) -> FiniteModule:
    """View a module over a coarser truncation as one over a finer one
    through the quotient map, which keeps x tensor u^beta while |beta| is
    below the coarser exponent at its point and kills it past that: the
    pulled-back actions are the module's own matrices and one zero matrix."""
    small = module.algebra
    if big.g is not small.g:
        raise ValueError("truncations over different Lie algebras")
    if not small.eta <= big.eta:
        raise ValueError("target truncation is not dominated by the source")
    zero = Matrix.from_triples(module.field, module.dim, module.dim, ())
    slot = {p: k for k, p in enumerate(small.points)}
    cut = [small.eta[p] for p in big.points]
    actions = [
        module.actions[small.index[(slot[big.points[p_idx]], g_idx, mono)]]
        if sum(mono) < cut[p_idx] else zero
        for p_idx, g_idx, mono in big.basis
    ]
    return FiniteModule(big, actions, cyclic=module.cyclic)


def is_isomorphic(m1: FiniteModule, m2: FiniteModule):
    """(verdict, witness): an invertible intertwiner m1 -> m2, checked exactly.

    False is exact: the dimensions differ, there is no nonzero intertwiner,
    or the intertwiners are the multiples of one singular map.  Otherwise
    seeded Schwartz-Zippel trials draw the coefficients of sum_k c_k T_k over
    the Hom basis from a set of 2 dim + 1 scalars; det(sum_k c_k T_k) has
    degree dim, so when an isomorphism exists each trial misses it with
    probability below 1/2.  When the trials run out, dim Hom(m1, m2) is
    compared with dim End(m1) and dim End(m2): if they differ the answer is
    an exact False, and otherwise None (inconclusive), never a false "not
    isomorphic"."""
    if m1.dim != m2.dim:
        return False, None
    homs = hom_space(m1, m2)
    if not homs:
        return m1.dim == 0, None
    for t in homs:
        if t.inverse() is not None:
            return True, t
    if len(homs) == 1:
        return False, None
    fld = m1.field
    rng = random.Random(0)
    for _ in range(_ISO_TRIALS):
        coeffs = [fld.scalar(rng.randrange(2 * m1.dim + 1)) for _ in homs]
        acc = Matrix.combination(fld, m2.dim, m1.dim, zip(coeffs, homs))
        if acc.inverse() is not None:
            return True, acc
    # an isomorphism makes Hom(m1, m2), End(m1) and End(m2) of one dimension
    if len(hom_space(m1, m1)) != len(homs) or len(hom_space(m2, m2)) != len(homs):
        return False, None
    return None, None


def direct_sum(m1: FiniteModule, m2: FiniteModule) -> FiniteModule:
    if not _same_algebra(m1.algebra, m2.algebra):
        raise ValueError("modules live over different algebras")
    actions = [
        Matrix.block_diagonal(m1.field, (a1, a2)) for a1, a2 in zip(m1.actions, m2.actions)
    ]
    return FiniteModule(m1.algebra, actions)


def tensor_product(m1: FiniteModule, m2: FiniteModule) -> FiniteModule:
    """Diagonal action u -> u tensor 1 + 1 tensor u."""
    if not _same_algebra(m1.algebra, m2.algebra):
        raise ValueError("modules live over different algebras")
    fld = m1.field
    dims = [m1.dim, m2.dim]
    actions = [
        kron_slots(fld, dims, [(fld.one, 0, a1), (fld.one, 1, a2)])
        for a1, a2 in zip(m1.actions, m2.actions)
    ]
    cyc = None
    if m1.cyclic is not None and m2.cyclic is not None:
        cyc = kron_vector(fld, dims, [m1.cyclic, m2.cyclic])
    return FiniteModule(m1.algebra, actions, cyclic=cyc)
