"""Chevalley-Eilenberg cohomology in degrees 0 and 1, an Ext ladder over
increasing truncations, and the homological characterization battery for
twisted local Weyl modules."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .coordalg import EtaFunction
from .ema import InvariantAlgebra, TruncatedAlgebra
from .liealg import FiniteModule, trivial_module
from .linalg import Matrix, Subspace, hom_action
from .repmod import (
    PsiFunction,
    evaluation_module,
    extend_to,
    height_psi_orbits,
    hom_space,
    is_maximal_weight,
    psi_gamma,
)
from .rootdata import Weight


class CEComplex:
    """The bottom of the Chevalley-Eilenberg complex for a finite-dimensional
    Lie algebra acting on a finite-dimensional module."""

    def __init__(self, L, actions, vdim, fld):
        self.L = L
        self.ldim = L.dim
        self.vdim = vdim
        self.field = fld
        self.actions = actions
        l, v = self.ldim, vdim
        # C0 = V; C1 = maps L -> V indexed (i, a); C2 indexed (pair p, a)
        self.pairs = list(itertools.combinations(range(l), 2))
        nonzeros = [list(act.nonzeros()) for act in actions]
        self.d0 = Matrix.from_triples(
            fld,
            l * v,
            v,
            ((i * v + a, b, x) for i in range(l) for a, b, x in nonzeros[i]),
        )
        d1 = []
        for p, (i1, i2) in enumerate(self.pairs):
            row = p * v
            # x1 . f(x2)
            d1.extend((row + a, i2 * v + b, x) for a, b, x in nonzeros[i1])
            # - x2 . f(x1)
            d1.extend((row + a, i1 * v + b, -x) for a, b, x in nonzeros[i2])
            # - f([x1, x2])
            for k, c in L.bracket_terms(i1, i2):
                d1.extend((row + a, k * v + a, -c) for a in range(v))
        self.d1 = Matrix.from_triples(fld, len(self.pairs) * v, l * v, d1)
        if not self.d1.matmul(self.d0).is_zero():
            raise AssertionError("d1 after d0 is not zero")
        # the coboundaries B^1, spanned by the columns of d0
        self.d0_image = Subspace(l * v, [self.d0.column(a) for a in range(v)], fld=fld)

    def h0_dim(self):
        return self.vdim - self.d0_image.dim

    def h1(self):
        """(dimension, representative cocycles as coefficient vectors)."""
        ker = self.d1.nullspace()
        img = self.d0_image.copy()
        reps = []
        for b in ker.basis:
            r = img.reduce(b)
            if r:
                img.add_vector(r)
                reps.append(r)
        return len(reps), reps


def hom_module(L, m1: FiniteModule, m2: FiniteModule):
    """Hom(M1, M2) as an L-module: (x.T) = rho2(x) T - T rho1(x), flattened
    row-major; returns (actions, dim).  Works for any module object carrying
    `actions` and `dim` (including plain g-modules)."""
    actions = [hom_action(a1, a2) for a1, a2 in zip(m1.actions, m2.actions)]
    return actions, m2.dim * m1.dim


def h1(L, m1: FiniteModule, m2: FiniteModule):
    """Ext^1 between modules over L via H^1(L, Hom(M1, M2))."""
    actions, dim = hom_module(L, m1, m2)
    cx = CEComplex(L, actions, dim, m1.field)
    return cx.h1()


@dataclass
class ExtLadder:
    rungs: list  # (exponent, h1 dimension)
    stabilized: bool
    hom_dim: int

    @property
    def dims(self):
        return [d for _, d in self.rungs]


def ext1_ladder(m1: FiniteModule, m2: FiniteModule, rungs=3, base=None, algebras=None) -> ExtLadder:
    """H^1 of truncations with growing exponent; extensions of any pair of
    finite modules live on some rung, so stabilized dims certify vanishing up
    to that depth.  The base exponent sits one above the modules' own
    truncations so that genuinely new extensions can appear on the ladder."""
    alg1, alg2 = m1.algebra, m2.algebra
    if base is None:
        base = max(alg1.eta.max_exponent(), alg2.eta.max_exponent()) + 1
    out = []
    homd = None
    for i in range(rungs):
        if algebras is not None and (base + i) in algebras:
            L = algebras[base + i]
        else:
            L = _rung_algebra_joint(alg1, alg2, base + i)
            if algebras is not None:
                algebras[base + i] = L
        e1 = extend_to(m1, L)
        e2 = extend_to(m2, L)
        actions, vdim = hom_module(L, e1, e2)
        cx = CEComplex(L, actions, vdim, m1.field)
        dim, _ = cx.h1()
        if homd is None:
            # H^0(L, Hom(M1, M2)) = Hom_L(M1, M2), read off the d0 reduction h1 uses
            homd = cx.h0_dim()
        out.append((base + i, dim))
    stable = len(out) >= 2 and out[-1][1] == out[-2][1]
    return ExtLadder(out, stable, homd)


def _rung_algebra_joint(alg1, alg2, exponent):
    if isinstance(alg1, InvariantAlgebra):
        pts = sorted(
            set(alg1.eta.support()) | set(alg2.eta.support()),
            key=lambda p: p.sort_key(),
        )
        eta = EtaFunction.of({p: exponent for p in pts})
        return InvariantAlgebra(alg1.g, alg1.group, eta)
    pts = sorted(set(alg1.points) | set(alg2.points), key=lambda p: p.sort_key())
    eta = EtaFunction.of({p: exponent for p in pts})
    return TruncatedAlgebra(alg1.g, eta)


def enumerate_phi(group, orbit_reps, rank, bound):
    """All equivariant phi with support inside the given orbits and
    fundamental coordinates at most `bound` (including the zero function)."""
    coord_range = range(bound + 1)
    weight_choices = [
        Weight(c) for c in itertools.product(coord_range, repeat=rank)
    ]
    out = []
    for combo in itertools.product(weight_choices, repeat=len(orbit_reps)):
        mapping = {
            p: w for p, w in zip(orbit_reps, combo) if not w.is_zero()
        }
        psi = PsiFunction.of(mapping)
        out.append(psi_gamma(group, psi))
    return out


def check_hom_dim(hom_dim, ladder: ExtLadder):
    """Hom does not change when both modules are pulled back along the
    surjection onto a ladder rung, so the base-algebra Hom dimension must
    equal the rung's H^0."""
    if hom_dim != ladder.hom_dim:
        raise AssertionError(
            "Hom dimension %d differs from H^0 %d of the ladder"
            % (hom_dim, ladder.hom_dim)
        )


@dataclass
class BatteryReport:
    psi: PsiFunction
    candidates: list = dc_field(default_factory=list)  # (phi, hom dim, ladder dims)
    verdict: str = "PASS"
    witness: object = None


def characterization_battery(
    module: FiniteModule,
    psi: PsiFunction,
    weight_bound=None,
    rungs=3,
    early_stop=False,
) -> BatteryReport:
    """The Hom/Ext vanishing test against all lower-height candidates: PASS
    exactly when every Hom and every ladder rung vanishes."""
    alg = module.algebra
    if not isinstance(alg, InvariantAlgebra):
        raise ValueError("battery expects a module over an invariant algebra")
    group = alg.group
    rd = alg.g.rd
    ok, top = is_maximal_weight(module, psi)
    if not ok:
        raise ValueError(
            "module is not maximal weight with top %r (found %r)" % (psi, top)
        )
    if weight_bound is None:
        weight_bound = max(
            (c for _, w in psi.assignments for c in w.coords), default=1
        )
    done = set()
    reps = []
    for p, _ in psi.assignments:
        if p in done:
            continue
        if p not in alg.eta.support():
            # pick the orbit representative that indexes the algebra
            for q in group.orbit(p):
                if q in alg.eta.support():
                    p = q
                    break
        for q in group.orbit(p):
            done.add(q)
        reps.append(p)
    target_h = height_psi_orbits(group, psi)
    report = BatteryReport(psi=psi)
    rung_cache = {}
    for phi in enumerate_phi(group, reps, rd.rank, weight_bound):
        if not height_psi_orbits(group, phi) < target_h:
            continue
        n = evaluation_module(phi, alg) if not phi.is_zero() else trivial_module(alg)
        hd = len(hom_space(module, n))
        ladder = ext1_ladder(module, n, rungs=rungs, algebras=rung_cache)
        check_hom_dim(hd, ladder)
        report.candidates.append((phi, hd, ladder.dims))
        if hd != 0 or any(d != 0 for d in ladder.dims):
            report.verdict = "FAIL"
            if report.witness is None:
                report.witness = (phi, hd, ladder.dims)
            if early_stop:
                return report
    return report

