"""Chevalley-Eilenberg cohomology in degrees 0 and 1, an Ext ladder over
increasing truncations, and the homological characterization battery for
twisted local Weyl modules."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .coordalg import EtaFunction
from .ema import InvariantAlgebra, TruncatedAlgebra
from .fields import RAW
from .liealg import FiniteModule
from .linalg import Matrix, Subspace, hom_action, joint_eigenspaces
from .repmod import (
    PsiFunction,
    equivariant_table,
    evaluation_module,
    extend_to,
    height_psi_orbits,
    hom_space,
    multiplicities,
    psi_gamma,
    psi_restrict,
    unique_top,
    untwist,
)
from .rootdata import Weight


class CEComplex:
    """The bottom of the Chevalley-Eilenberg complex of L = s + n relative to
    its Levi factor s (from L.levi_split()), for L acting on a module V.

    Hochschild-Serre and Whitehead's lemmas give H^1(L, V) = H^1(n, V)^s, and
    s acts semisimply on the cochains, so H^1 is that of the complex
    V^s -> Hom_s(n, V) -> Hom_s(L^2 n, V).  The Cartan elements of s must act
    diagonally on V and on n (ValueError otherwise); Hom_s(n, V) is the
    weight-zero part of Hom(n, V) killed by the simple raising elements.
    With s = 0 this is the full complex.  Only the raw actions at the indices
    of L.levi_split() are read (a dict or a list, read by index only where
    the complex needs them).

    With `degrees` (L a truncation, and d(a) per coordinate a of V, which an
    element of jet degree |beta| maps into degree d(a) + |beta|) the cochain
    (x_j, a) has degree delta = |beta_j| - d(a), kept by the raising, d0 and
    d1.  n is generated in degree 1, so no cocycle has delta > 1 - min d,
    and only the cochains with delta <= 1 - min d are kept; d0(V^s) having
    a component above that bound raises.

    The brackets are read through L.bracket_terms: [h, x_i] for the weights
    and, since only the kept weight-zero cochains phi(x_j) enter the rows,
    [e, x_i] and [x_i, x_i'] (i < i') only onto an x_j that carries such a
    cochain; with no cochain none is read."""

    def __init__(self, L, actions, vdim, *, degrees=None):
        self.L, self.actions, self.vdim = L, actions, vdim
        cartan, self.raising, self.nil = L.levi_split()
        by_weight = joint_eigenspaces([actions[h] for h in cartan], vdim)
        # the weight of each x_i in n, read off [h, x_i] = w_h x_i; every
        # basis index is a target, so that any term off the diagonal is seen
        place = {h: t for t, h in enumerate(cartan)}
        weight = {i: [0] * len(cartan) for i in self.nil}
        for k, terms in _brackets_into(L, range(L.dim), cartan, self.nil).items():
            for h, i, c in terms:
                if i != k:
                    raise ValueError("a Cartan element is not diagonal on n")
                weight[i][place[h]] = c
        # the weight-zero coordinates (i, a) of Hom(n, V), cut at delta <= top
        jet, top = (L.jet_degrees(), 1 - min(degrees)) if degrees else (None, None)
        def kept(i, a):
            return jet is None or jet[i] - degrees[a] <= top
        self.cochains = [
            (i, a) for i in self.nil for a in by_weight.get(tuple(weight[i]), ()) if kept(i, a)
        ]
        index = {key: k for k, key in enumerate(self.cochains)}
        # only brackets landing on an x_j that carries a cochain are read
        carried = {i for i, _ in self.cochains}
        self._e_brackets = _brackets_into(L, carried, self.raising, self.nil)
        self._n_brackets = _brackets_into(L, carried, self.nil, self.nil, upper=True)
        invariants = _kernel(  # V^s
            by_weight.get((0,) * len(cartan), []),
            lambda a: (((e, b), x) for e in self.raising for b, x in actions[e].column(a).items()),
        )
        relative = _kernel(range(len(index)), self._raise)  # Hom_s(n, V)
        self.d1 = _keyed_matrix(len(relative), self._d1_terms(relative))
        c1_rel = Subspace(len(index), relative, fld=RAW)
        d0 = []  # (d0 v)(x_i) = x_i . v on V^s
        for v in invariants:
            image = {(i, b): y for i in self.nil for b, y in actions[i].apply(v).items()}
            d0.append({index[key]: y for key, y in image.items() if key in index})
            if any(not kept(*key) for key in image):
                raise AssertionError("d0(V^s) has a component above the jet-degree bound")
            if len(d0[-1]) < len(image) or not c1_rel.contains(d0[-1]):
                raise AssertionError("d0(V^s) is not inside Hom_s(n, V)")
        if not _keyed_matrix(len(d0), self._d1_terms(d0)).is_zero():
            raise AssertionError("d1 after d0 is not zero")
        self.b1_dim = Subspace(len(index), d0, fld=RAW).dim
        self._h0 = len(invariants) - self.b1_dim

    def _raise(self, k):
        """(key, x) pairs summing to e.phi, over the simple raising e, for phi
        the k-th weight-zero cochain: (e.phi)(y) = e.phi(y) - phi([e, y])."""
        j, a = self.cochains[k]
        for e in self.raising:
            for b, x in self.actions[e].column(a).items():
                yield (e, j, b), x
        for e, i, x in self._e_brackets.get(j, ()):
            yield (e, i, a), -x

    def _d1_terms(self, cochains):
        """(key, column, x) triples summing to d1 of each cochain, where
        (d1 phi)(x_i, x_j) = x_i.phi(x_j) - x_j.phi(x_i) - phi([x_i, x_j])."""
        for col, phi in enumerate(cochains):
            for k, c in phi.items():
                j, a = self.cochains[k]
                for i in self.nil:
                    if i != j:
                        s = c if i < j else -c
                        for b, x in self.actions[i].column(a).items():
                            yield (min(i, j), max(i, j), b), col, s * x
                for i1, i2, x in self._n_brackets.get(j, ()):
                    yield (i1, i2, a), col, -c * x

    def h0_dim(self):
        return self._h0

    def h1(self):
        """dim ker d1 - dim B^1."""
        return self.d1.ncols - self.d1.rank() - self.b1_dim


def _brackets_into(L, targets, xs, ys, upper=False):
    """{k: [(x, y, c), ...]} over k in targets, for the pairs (x, y) of xs
    times ys (only those with x < y when upper) with [x_x, x_y] = c x_k + ...;
    each list keeps the pairs' order, x first.  No target, no bracket read."""
    if not targets:
        return {}
    targets, out = set(targets), {}
    for x in xs:
        for y in ys:
            if not upper or x < y:
                for k, c in L.bracket_terms(x, y):
                    if k in targets:
                        out.setdefault(k, []).append((x, y, c))
    return out


def _keyed_matrix(ncols, triples):
    """The raw matrix summing (row key, column, x) triples, rows numbered by
    the first appearance of their key."""
    rows = {}
    triples = [(rows.setdefault(key, len(rows)), c, x) for key, c, x in triples]
    return Matrix.from_triples(RAW, len(rows), ncols, triples)


def _kernel(coords, image):
    """The kernel of a linear map on the span of the coordinate vectors at
    coords, as sparse vectors; image(a) yields (row key, x) pairs that sum to
    the image of coordinate vector a."""
    triples = ((key, k, x) for k, a in enumerate(coords) for key, x in image(a))
    kernel = _keyed_matrix(len(coords), triples).nullspace()
    return [{coords[k]: c for k, c in z.items()} for z in kernel.basis]


class _HomActions(dict):
    """The actions x.T = rho2(x) T - T rho1(x) on Hom(M1, M2) of a truncation's
    basis elements, from the two modules' action lists; each is built the
    first time it is read."""

    def __init__(self, a1, a2):
        super().__init__()
        self._a1, self._a2 = a1, a2

    def __missing__(self, i):
        self[i] = act = hom_action(self._a1[i], self._a2[i])
        return act


@dataclass
class ExtLadder:
    """The H^1 dimension of each rung, Hom(M1, M2), and e0: every rung from
    e0 on reports the one cut complex built at max(base, e0); None when a
    module has no jet grading, and every rung was built."""

    rungs: list  # (exponent, h1 dimension)
    hom_dim: int
    e0: int | None = None

    @property
    def dims(self):
        return [d for _, d in self.rungs]


def ext1_ladder(m1: FiniteModule, m2: FiniteModule, rungs=3, base=None, algebras=None):
    """H^1 of the truncations at exponents base, base + 1, ... on the support
    of the join of the modules' own truncations (base: one above that join,
    so that genuinely new extensions can appear), and H^0 = Hom(M1, M2).
    Both modules are raw, over truncations (twisted modules are untwisted
    first), and x.T = rho2(x) T - T rho1(x) on Hom(M1, M2).

    When both are graded by jet degree (FiniteModule.jet_degrees), the
    complex is cut at 1 + max deg1 - min deg2 (see CEComplex) and reads only
    the brackets [x u^a, y u^b] with a + b < e0 = 2 + span1 + span2 (span =
    max deg - min deg), so it is one complex on every rung from e0 on: the
    rungs below e0 are built one by one, and the complex at max(base, e0)
    once, for every rung from e0 on.  Without a grading every rung is
    built, uncut."""
    alg1, alg2 = m1.algebra, m2.algebra
    if not (isinstance(alg1, TruncatedAlgebra) and isinstance(alg2, TruncatedAlgebra)):
        raise ValueError("ext1_ladder expects modules over truncations")
    if rungs < 1:
        raise ValueError("the ladder needs at least one rung")
    join = alg1.eta | alg2.eta
    if base is None:
        base = join.max_exponent() + 1
    algebras = {} if algebras is None else algebras
    deg1, deg2 = m1.jet_degrees(), m2.jet_degrees()
    e0 = degrees = None
    if deg1 is not None and deg2 is not None:
        e0 = 2 + max(deg1) - min(deg1) + max(deg2) - min(deg2)
        degrees = [d2 - d1 for d2 in deg2 for d1 in deg1]  # of Hom(M1, M2), row-major
    built, out = {}, []  # built: exponent -> (H^0, H^1)
    for e in range(base, base + rungs):
        at = e if e0 is None else min(e, max(base, e0))
        if at not in built:
            L = algebras.get(at)
            if L is None:
                eta = EtaFunction.of(dict.fromkeys(join.support(), at))
                L = algebras[at] = TruncatedAlgebra(alg1.g, eta)
            actions = _HomActions(extend_to(m1, L).actions, extend_to(m2, L).actions)
            cx = CEComplex(L, actions, m1.dim * m2.dim, degrees=degrees)
            built[at] = cx.h0_dim(), cx.h1()
        out.append((e, built[at][1]))
    # H^0(L, Hom(M1, M2)) = Hom_L(M1, M2) on every rung
    return ExtLadder(out, built[base][0], e0)


def enumerate_phi(group, orbit_reps, rank, bound):
    """All equivariant phi with support inside the given orbits and
    fundamental coordinates at most `bound` (including the zero function)."""
    weights = [Weight(c) for c in itertools.product(range(bound + 1), repeat=rank)]
    return [
        psi_gamma(group, PsiFunction.of(dict(zip(orbit_reps, combo))))
        for combo in itertools.product(weights, repeat=len(orbit_reps))
    ]


@dataclass
class BatteryReport:
    psi: PsiFunction
    candidates: list = dc_field(default_factory=list)  # (phi, hom dim, ladder dims)
    verdict: str = "PASS"
    witness: object = None


def characterization_battery(
    module: FiniteModule, psi: PsiFunction, weight_bound=None, rungs=3
) -> BatteryReport:
    """The Hom/Ext vanishing test against all lower-height candidates: PASS
    exactly when every Hom and every ladder rung vanishes."""
    alg = module.algebra
    if not isinstance(alg, InvariantAlgebra):
        raise ValueError("battery expects a module over an invariant algebra")
    # untwisting is an isomorphism of categories: the module is untwisted
    # once, and both the top constituent and the candidates are read there
    plain = untwist(module)
    ok, top = unique_top(
        equivariant_table(alg.group, multiplicities(plain)),
        lambda ps: height_psi_orbits(alg.group, ps),
        psi,
    )
    if not ok:
        raise ValueError("module is not maximal weight with top %r (found %r)" % (psi, top))
    if weight_bound is None:
        weight_bound = max((c for _, w in psi.assignments for c in w.coords), default=1)
    report = BatteryReport(psi=psi)
    for phi, hd, dims in lower_candidates(plain, alg.group, psi, weight_bound, rungs):
        report.candidates.append((phi, hd, dims))
        if hd != 0 or any(d != 0 for d in dims):
            report.verdict = "FAIL"
            if report.witness is None:
                report.witness = (phi, hd, dims)
    return report


def lower_candidates(plain: FiniteModule, group, psi: PsiFunction, bound, rungs):
    """(phi, hom dim, ladder dims) for every equivariant phi supported on the
    support orbits of psi, with coordinates at most bound and height below
    psi; each Hom dimension is checked against its ladder's H^0.

    `plain` is the untwist of the module under test (untwisting is an
    isomorphism of categories), so its truncation points meeting the support
    of psi are a transversal of those orbits; each candidate is built on that
    truncation from phi restricted to its points."""
    trunc = plain.algebra
    target_h = height_psi_orbits(group, psi)
    reps = [p for p in trunc.points if p in psi.support()]
    cache = {}
    for phi in enumerate_phi(group, reps, trunc.g.rd.rank, bound):
        if height_psi_orbits(group, phi) < target_h:
            n = evaluation_module(psi_restrict(phi, group, trunc.points), trunc)
            hd = len(hom_space(plain, n))
            ladder = ext1_ladder(plain, n, rungs=rungs, algebras=cache)
            if hd != ladder.hom_dim:  # Hom is unchanged by pulling back to a rung
                raise AssertionError("Hom dimension %d differs from H^0 %d of the ladder"
                                     % (hd, ladder.hom_dim))
            yield phi, hd, ladder.dims
