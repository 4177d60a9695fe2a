"""Local Weyl modules: untwisted construction by PBW straightening and
relation saturation, twisted construction by transport through the
evaluation isomorphism, and the structural checks that come with them
(choice independence, gamma twists, tensor factorization, heads)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from math import comb, prod

from .coordalg import EtaFunction, jet_monomials
from .ema import InvariantAlgebra, TruncatedAlgebra, gamma_truncation_matrix
from .liealg import FiniteModule
from .linalg import Matrix, Subspace, linear_combination, saturate
from .repmod import (
    PsiFunction,
    extend_to,
    hom_space,
    is_isomorphic,
    joint_weights,
    point_weights,
    psi_restrict,
    quotient_module,
    tensor_product,
    transport,
    twist,
)
from .rootdata import Weight


class CertificationError(ValueError):
    """A defining relation or certificate failed; carries the culprit."""

    def __init__(self, message, relation=None):
        super().__init__(message)
        self.relation = relation


@dataclass
class WeylModule:
    module: FiniteModule
    psi: PsiFunction
    lam: Weight
    certificate: dict = dc_field(default_factory=dict)

    @property
    def dim(self):
        return self.module.dim


class _Straightener:
    """Realizes the action of a truncated algebra on the span of normal PBW
    monomials in the negative part, with a drop-height cap."""

    def __init__(self, alg: TruncatedAlgebra, psi: PsiFunction, cap, reverse_order=False):
        self.alg = alg
        self.psi = psi
        self.cap = cap
        g = alg.g
        rd = g.rd
        fld = alg.field
        self.field = fld
        # ordered factor list: lowering basis elements of the truncation
        factors = []
        for k, rc in enumerate(rd.positive_roots):
            for p_idx in range(len(alg.points)):
                order = alg.jets[p_idx].order
                for mono in jet_monomials(alg.points[p_idx].nvars, order):
                    factors.append((sum(rc), k, p_idx, mono))
        factors.sort(key=lambda f: (f[0], f[1], f[2], (sum(f[3]), f[3])))
        if reverse_order:
            factors.reverse()
        self.factors = factors
        self.factor_height = [f[0] for f in factors]
        self.factor_alg_index = [
            alg.index[(p_idx, g.index[("f", k)], mono)]
            for (_, k, p_idx, mono) in factors
        ]
        self.alg_index_to_factor = {
            ai: fi for fi, ai in enumerate(self.factor_alg_index)
        }
        # classify algebra basis elements; act by one of them moves the drop
        # by its shift (+ht alpha for f_alpha, 0 for h, -ht alpha for e_alpha)
        self.kind = []
        self.shift = []
        for p_idx, g_idx, mono in alg.basis:
            kind, k = g.labels[g_idx]
            self.kind.append(kind)
            ht = 0 if kind == "h" else sum(rd.positive_roots[k])
            self.shift.append(-ht if kind == "e" else ht)
        self._memo = {}
        self.monomials = self._enumerate()
        self.mono_index = {m: i for i, m in enumerate(self.monomials)}

    def drop(self, mono):
        return sum(self.factor_height[f] for f in mono)

    def _enumerate(self):
        """All normal (weakly decreasing) factor monomials with drop <= cap,
        sorted by drop then lexicographically."""
        out = []

        def rec(prefix, start, budget):
            out.append(tuple(prefix))
            for f in range(start, -1, -1):
                h = self.factor_height[f]
                if h <= budget:
                    prefix.append(f)
                    rec(prefix, f, budget - h)
                    prefix.pop()

        rec([], len(self.factors) - 1, self.cap)
        out.sort(key=lambda m: (self.drop(m), m))
        return out

    def _char_scalar(self, p_idx, g_idx, mono):
        """Action of h tensor u^beta on the cyclic vector."""
        if sum(mono) != 0:
            return self.field.zero
        i = self.alg.g.labels[g_idx][1]
        w = self.psi[self.alg.points[p_idx]]
        return self.field.scalar(w.coords[i])

    def act(self, alg_idx, mono):
        """Action of an algebra basis element on a normal monomial, as a dict
        {normal monomial: coefficient}."""
        key = (alg_idx, mono)
        out = self._memo.get(key)
        if out is not None:
            return out
        kind = self.kind[alg_idx]
        fld = self.field
        if not mono:
            if kind == "f":
                f = self.alg_index_to_factor[alg_idx]
                out = {} if self.factor_height[f] > self.cap else {(f,): fld.one}
            elif kind == "h":
                p_idx, g_idx, jm = self.alg.basis[alg_idx]
                c = self._char_scalar(p_idx, g_idx, jm)
                out = {} if c.is_zero() else {(): c}
            else:
                out = {}
            self._memo[key] = out
            return out

        if kind == "f":
            f = self.alg_index_to_factor[alg_idx]
            if f >= mono[0]:
                cand = (f,) + mono
                out = {} if self.drop(cand) > self.cap else {cand: fld.one}
                self._memo[key] = out
                return out
        m0 = mono[0]
        rest = mono[1:]
        acc = {}
        inner = self.act(alg_idx, rest)
        m0_alg = self.factor_alg_index[m0]
        for m, c in inner.items():
            for m2, c2 in self.act(m0_alg, m).items():
                _dadd(acc, m2, c * c2)
        for k, s in self.alg.bracket_terms(alg_idx, m0_alg):
            for m2, c2 in self.act(k, rest).items():
                _dadd(acc, m2, s * c2)
        out = {m: c for m, c in acc.items() if not c.is_zero()}
        self._memo[key] = out
        return out

    def operator_matrix(self, alg_idx, n):
        """Matrix of a basis element on the span of the first n normal
        monomials, modulo the span of the others.

        act moves the drop by shift[alg_idx], and the monomials are sorted by
        drop, so from the first monomial whose image would lie past the
        largest drop among the first n, every image lies among the others."""
        triples = []
        limit = self.drop(self.monomials[n - 1]) - self.shift[alg_idx]
        for j, m in enumerate(self.monomials[:n]):
            if self.drop(m) > limit:
                break
            for m2, c in self.act(alg_idx, m).items():
                k = self.mono_index[m2]
                if k < n:
                    triples.append((k, j, c))
        return Matrix.from_triples(self.field, n, n, triples)


def _dadd(d, k, v):
    cur = d.get(k)
    d[k] = v if cur is None else cur + v


def _straighten(g, psi: PsiFunction, buffer_extra=0, n_extra=0, reverse_order=False):
    """The truncation at exponent max(1, lam(h_theta)) + n_extra on the
    support, its straightener with cap D + 1 + buffer_extra, the largest
    drop D = ht(lam - w0 lam) inside the weight interval, and the number of
    normal monomials with drop <= D.

    act(x, m) and every call it makes only produce monomials of drop at most
    max(drop m, drop m + shift x), so the cap cuts nothing off while every
    top-level call stays at drop <= D + 1.  They do: the seeds are
    e_i tensor 1 on drop D + 1, operator_matrix stops where an image would
    pass the prefix, and the Weyl powers f_i^(lam_i + 1) w reach drop
    lam_i + 1 <= D + 1."""
    rd = g.rd
    lam = psi.total_weight()
    n_trunc = max(1, rd.pairing_htheta(lam)) + n_extra
    alg = TruncatedAlgebra(g, EtaFunction.of({p: n_trunc for p in psi.support()}))
    big_d = int(rd.height(lam - rd.w0(lam)))
    st = _Straightener(alg, psi, big_d + 1 + buffer_extra, reverse_order=reverse_order)
    return alg, st, big_d, sum(1 for m in st.monomials if st.drop(m) <= big_d)


def _at_each_point(alg: TruncatedAlgebra, x):
    """Basis indices of x tensor 1 at each truncation point, for a basis
    index x of g."""
    return [alg.index[(p_idx, x, (0,) * p.nvars)] for p_idx, p in enumerate(alg.points)]


def _lowering_indices(alg: TruncatedAlgebra, i):
    """Basis indices of f_i tensor 1 at each truncation point, for the simple
    root i."""
    return _at_each_point(alg, alg.g.f(i))


def _generators(alg: TruncatedAlgebra):
    """Basis indices of a set that generates the truncation as a Lie algebra:
    e_i tensor 1 and f_i tensor 1 at each point for the simple roots i, and
    h_j tensor u^beta for the jet monomials u^beta of degree at most 1 at
    each point.  The brackets [h_j tensor u_k, e_i tensor u^beta] =
    alpha_i(h_j) e_i tensor u^(beta + e_k) (and the same for f_i) give every
    jet of the simple root vectors, and brackets of those give the rest."""
    g = alg.g
    out = []
    for i in range(g.rd.rank):
        out += _at_each_point(alg, g.e(i)) + _lowering_indices(alg, i)
    out += [
        ai for ai, (_, g_idx, mono) in enumerate(alg.basis)
        if g.labels[g_idx][0] == "h" and sum(mono) <= 1
    ]
    return out


def _push_down_seeds(alg: TruncatedAlgebra, st: _Straightener, big_d, n_low):
    """The push-downs into the weight interval (drop <= D) by e_i tensor 1
    at each point, for the simple roots i, of the normal monomials with drop
    D + 1, as sparse rows over the first n_low monomials.

    Together with saturation under _generators these give the same relation
    space as the push-downs of every monomial beyond the interval by every
    basis element.  act is weight-homogeneous and drop is a function of
    weight, so f tensor u and h tensor u never lower the drop, and e_i tensor
    1 lowers it by exactly 1.  Hence R + span(drop > D) is stable under the
    generators once R holds these seeds and is stable under their induced
    operators; the elements that keep a subspace stable form a Lie
    subalgebra, so it is then stable under the whole truncation."""
    g = alg.g
    raising = [ai for i in range(g.rd.rank) for ai in _at_each_point(alg, g.e(i))]
    idx = st.mono_index
    seeds = []
    # monomials are sorted by drop, so those with drop D + 1 come first
    for m in st.monomials[n_low:]:
        if st.drop(m) > big_d + 1:
            break
        for ai in raising:
            # act never returns a zero coefficient, so a nonempty image is a
            # nonzero seed
            state = st.act(ai, m)
            if state:
                seeds.append({idx[m2]: c for m2, c in state.items()})
    return seeds


def _build_once(g, psi: PsiFunction, buffer_extra=0, n_extra=0, reverse_order=False):
    """Straighten, seed and saturate: the truncation, its straightener, the
    number n_low of monomials inside the weight interval, the relation space
    R among them, and the generators' operator matrices {basis index:
    matrix} that R is closed under.  W(psi) is the quotient of the first
    n_low monomials by R, so its dimension is n_low - dim R."""
    fld = g.field
    lam = psi.total_weight()
    alg, st, big_d, n_low = _straighten(g, psi, buffer_extra, n_extra, reverse_order)

    # monomials are sorted by drop, so the weight-interval part is a prefix
    # of n_low monomials; everything beyond drop D is a relation seed, so the
    # whole computation lives in the quotient by the beyond-interval span.
    # The relation seeds inside the low part are the push-downs of the
    # monomials just past the interval (see _push_down_seeds), plus the Weyl
    # powers f_i^(lam_i + 1) w.
    seeds = _push_down_seeds(alg, st, big_d, n_low)
    idx = st.mono_index
    for i in range(g.rd.rank):
        state = {(): fld.one}
        fi_indices = _lowering_indices(alg, i)
        for _ in range(lam.coords[i] + 1):
            nxt = {}
            for m, c in state.items():
                for ai in fi_indices:
                    for m2, c2 in st.act(ai, m).items():
                        _dadd(nxt, m2, c * c2)
            state = {m: c for m, c in nxt.items() if not c.is_zero()}
        seeds.append({idx[m]: c for m, c in state.items() if idx[m] < n_low})

    # induced operators on the low quotient; the relation space only needs
    # closing under the generators
    gen_ops = {ai: st.operator_matrix(ai, n_low) for ai in _generators(alg)}
    rel = saturate(Subspace(n_low, seeds, fld=fld), list(gen_ops.values()))
    if rel.contains({idx[()]: fld.one}):
        raise CertificationError("relations collapse the cyclic vector", relation="w in R")
    return alg, st, n_low, rel, gen_ops


def weyl_dim_bound(g, psi: PsiFunction) -> int:
    """Upper bound on dim W(psi): the number of normal PBW monomials inside
    the weight interval, from the enumeration alone (no matrices built)."""
    return _straighten(g, psi)[3]


def weyl_module(g, psi: PsiFunction) -> WeylModule:
    """The local Weyl module W(psi) over the truncation at exponent
    max(1, lam(h_theta)) on the support.

    Its dimension is certified by three rebuilds (one more buffer degree,
    one more truncation exponent, the reversed factor order), each of which
    only computes its relation space, and, when every point has one
    variable, by the Chari-Loktev closed form: the product over the points
    of prod_i C(r + 1, i) ** lam_i."""
    if psi.is_zero():
        raise ValueError("psi must be nonzero")
    rd = g.rd
    fld = g.field
    lam = psi.total_weight()
    alg, st, n_low, rel, gen_ops = _build_once(g, psi)
    # rel + span(drop > D) is stable under a generating set, hence under every
    # basis element (see _push_down_seeds), so rel is invariant under every
    # induced operator and the check is skipped
    ops = [
        gen_ops[ai] if ai in gen_ops else st.operator_matrix(ai, n_low)
        for ai in range(alg.dim)
    ]
    mod = quotient_module(
        FiniteModule(alg, ops), rel, cyclic={st.mono_index[()]: fld.one}, check=False
    )
    cert = {}

    # defining relations in the quotient
    for idx, (p_idx, g_idx, mono) in enumerate(alg.basis):
        kind = g.labels[g_idx][0]
        v = mod.actions[idx].apply(mod.cyclic)
        if kind == "e":
            if v:
                raise CertificationError(
                    "n+ does not annihilate the cyclic vector",
                    relation=("e", alg.basis[idx]),
                )
        elif kind == "h":
            c = st._char_scalar(p_idx, g_idx, mono)
            if linear_combination([(c, mod.cyclic)]) != v:
                raise CertificationError(
                    "h does not act by the psi character",
                    relation=("h", alg.basis[idx]),
                )
    for i in range(rd.rank):
        # f_i tensor 1 summed over the points
        f_i = Matrix.combination(
            fld, mod.dim, mod.dim, [(fld.one, mod.actions[ai]) for ai in _lowering_indices(alg, i)]
        )
        v = mod.cyclic
        for _ in range(lam.coords[i] + 1):
            v = f_i.apply(v)
        if v:
            raise CertificationError(
                "Weyl power relation fails", relation=("f-power", i)
            )
    cert["relations"] = "verified"

    # g tensor 1_p acts on W(psi) with highest weight psi(p), so the weights
    # at p lie in [w0 psi(p), psi(p)]; summed over p this bounds the total
    # weight by the interval of lam
    for key in joint_weights(mod):
        for p, w in zip(alg.points, key):
            top = psi[p]
            if not (rd.dominance_leq(rd.w0(top), w) and rd.dominance_leq(w, top)):
                raise CertificationError(
                    "weight escapes the interval", relation=("weight", w.coords)
                )
    cert["weights_in_interval"] = True

    mod.check_bracket()
    cert["bracket"] = "verified"

    if not mod.is_cyclic_from(mod.cyclic):
        raise CertificationError("module is not cyclic on w", relation="cyclic")
    cert["cyclic"] = True

    for tag, kwargs in (
        ("buffer+1", {"buffer_extra": 1}),
        ("N+1", {"n_extra": 1}),
        ("reversed", {"reverse_order": True}),
    ):
        _, _, other_low, other_rel, _ = _build_once(g, psi, **kwargs)
        other = other_low - other_rel.dim
        if other != mod.dim:
            raise CertificationError(
                "dimension not stable under recomputation (%s): %d vs %d"
                % (tag, other, mod.dim),
                relation=("recompute", tag),
            )
        cert[tag] = other

    if all(p.nvars == 1 for p in psi.support()):
        want = prod(
            comb(rd.rank + 1, i) ** k
            for _, w in psi.assignments
            for i, k in enumerate(w.coords, start=1)
        )
        if mod.dim != want:
            raise CertificationError(
                "dimension %d is not the Chari-Loktev closed form %d" % (mod.dim, want),
                relation="closed form",
            )
    return WeylModule(mod, psi, lam, cert)


def twisted_weyl(group, psi: PsiFunction, points, inv: InvariantAlgebra = None):
    """W_Gamma(psi) = twist of the untwisted Weyl module at a transversal."""
    if not psi.equivariant:
        raise ValueError("twisted Weyl modules need an equivariant psi")
    g = group.algebra
    rest = psi_restrict(psi, group, points)
    w = weyl_module(g, rest)
    if inv is None:
        inv = InvariantAlgebra(g, group, w.module.algebra.eta)
    else:
        if inv.ambient.eta != w.module.algebra.eta.orbit_saturation(group):
            raise ValueError("supplied invariant algebra does not match")
    return twist(w.module, inv), w, inv


def _isomorphic(m1, m2):
    """is_isomorphic's verdict; raises RuntimeError when it is inconclusive."""
    ok, _ = is_isomorphic(m1, m2)
    if ok is None:
        raise RuntimeError("isomorphism test inconclusive: no invertible intertwiner found")
    return ok


def check_choice_independence(group, psi: PsiFunction):
    """Twisted Weyl modules over all transversals of the support orbits are
    isomorphic."""
    choices = list(itertools.product(*group.orbits(psi.support())))
    first, _, inv = twisted_weyl(group, psi, list(choices[0]))
    for choice in choices[1:]:
        other, _, _ = twisted_weyl(group, psi, list(choice), inv=inv)
        if not _isomorphic(first, other):
            return False
    return True


def check_gamma_twist(group, psi: PsiFunction, points, gamma):
    """rho_{W(psi_x)} composed with gamma^{-1} is isomorphic to
    W(psi_{gamma.x})."""
    g = group.algebra
    w1 = weyl_module(g, psi_restrict(psi, group, points))
    moved = [group.act_point(gamma, p) for p in points]
    w2 = weyl_module(g, psi_restrict(psi, group, moved))
    phi = gamma_truncation_matrix(
        group, group.inverse(gamma), w2.module.algebra, w1.module.algebra
    )
    pulled = transport(w1.module, phi, w2.module.algebra)
    return _isomorphic(pulled, w2.module)


def tensor_check(g, psi1: PsiFunction, psi2: PsiFunction, group=None):
    """W(psi1+psi2) against W(psi1) tensor W(psi2) over a common truncation;
    with a group, also the twisted version."""
    if set(psi1.support()) & set(psi2.support()):
        raise ValueError("supports overlap")
    w12 = weyl_module(g, psi1 + psi2)
    common = w12.module.algebra
    w1 = weyl_module(g, psi1)
    w2 = weyl_module(g, psi2)
    m1 = extend_to(w1.module, common)
    m2 = extend_to(w2.module, common)
    prod = tensor_product(m1, m2)
    result = {
        "untwisted": _isomorphic(w12.module, prod),
        "dim_product": w1.dim * w2.dim,
        "dim_joint": w12.dim,
    }
    if group is not None:
        inv = InvariantAlgebra(g, group, common.eta)
        t12 = twist(w12.module, inv)
        tp = twist(prod, inv)
        result["twisted"] = _isomorphic(t12, tp)
    return result


def head(module: FiniteModule) -> FiniteModule:
    """Quotient by the greatest submodule avoiding the cyclic vector's line."""
    return quotient_module(module, _maximal_submodule(module))


def _top_weight(module: FiniteModule):
    """The cyclic vector's weight (a key of module.weights()) and the
    coordinates of its weight space."""
    for key, coords in module.weights().items():
        if module.cyclic.keys() <= set(coords):
            return key, coords
    raise ValueError("cyclic vector is not a joint weight vector")


def _maximal_submodule(module: FiniteModule):
    """The greatest submodule inside the span of the weight spaces other than
    the cyclic vector's."""
    if module.cyclic is None:
        raise ValueError("head needs a cyclic module")
    if not module.algebra.levi_split()[0]:
        raise ValueError("head needs an algebra that names its Cartan elements")
    # the Cartan actions are diagonal, so the images of the (op - c), c the
    # cyclic vector's eigenvalue, span the unit vectors outside its weight
    # space, whose annihilator is spanned by the unit vectors inside it.  A
    # subspace is a submodule iff its annihilator is stable under the
    # transposed actions, so the greatest submodule inside that span is the
    # annihilator of the smallest such subspace holding those unit vectors
    fld = module.field
    top = Subspace(module.dim, [{j: fld.one} for j in _top_weight(module)[1]], fld=fld)
    return saturate(top, [op.transpose() for op in module.actions]).annihilator()


def hw_quotient_check(module: FiniteModule):
    """Reads psi off the cyclic vector's weight, split per point, rebuilds
    W(psi), and exhibits a surjection onto the module."""
    if module.cyclic is None:
        raise ValueError("needs a cyclic module")
    alg = module.algebra
    if not isinstance(alg, TruncatedAlgebra):
        raise ValueError("expects a truncated-algebra module")
    g = alg.g
    fld = module.field
    psi = PsiFunction.of(dict(zip(alg.points, point_weights(alg, _top_weight(module)[0]))))
    w = weyl_module(g, psi)
    # common truncation
    eta_c = EtaFunction.of(
        {
            p: max(alg.eta[p], w.module.algebra.eta[p])
            for p in set(alg.points) | set(w.module.algebra.points)
        }
    )
    common = TruncatedAlgebra(g, eta_c)
    wc = extend_to(w.module, common)
    mc = extend_to(module, common)
    homs = hom_space(wc, mc)
    cols = [t.apply(wc.cyclic) for t in homs]
    if not cols:
        return psi, None
    sol = Matrix.from_columns(fld, mc.dim, cols).solve(mc.cyclic)
    if sol is None:
        return psi, None
    acc = Matrix.combination(fld, mc.dim, wc.dim, ((c, homs[k]) for k, c in sol.items()))
    if acc.rank() != module.dim:
        return psi, None
    return psi, acc
