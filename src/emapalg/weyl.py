"""Local Weyl modules: untwisted construction by PBW straightening and
relation saturation, twisted construction by transport through the
evaluation isomorphism, and the structural checks that come with them
(choice independence, gamma twists, tensor factorization, heads)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from math import comb, prod

from .coordalg import EtaFunction, Point, jet_monomials
from .ema import InvariantAlgebra, TruncatedAlgebra, gamma_truncation_matrix
from .fields import RAW
from .liealg import FiniteModule
from .linalg import Matrix, Subspace, linear_combination, saturate, tensor_strides
from .repmod import (
    PsiFunction,
    extend_to,
    hom_space,
    is_isomorphic,
    joint_weights,
    lift_module,
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
    monomials in the negative part, with an excess cap.  The content of a
    monomial is the sum of its factors' positive roots, per (simple root,
    point); its weight at p lies in [w0 psi(p), psi(p)] exactly when its
    content is at most top (see _interval_top) there, that is, when its
    excess sum max(0, content - top) is 0.  Those n_low monomials come first.
    At cap 0 they are all there is, and act works modulo the span of the
    monomials outside the interval: a term past it is never formed.  The
    base build of weyl_module runs at cap 1: it seeds from its excess-0
    tails only, as a cap-0 build does, and its buffer+1 check then pushes
    down from the excess-1 tails on the same memo.

    A monomial is read by its id, its place in the sorted list monomials
    (the empty one, the cyclic vector, is 0): content, mono_excess, head (its
    first factor, -1 at 0), tail (its id without the head) and prepend ({f:
    id of (f,) + it}).  act maps ids to {id: int}, memoised per basis index.

    The relations of W(psi) and the structure constants of a Chevalley basis
    are integral, so every coefficient is a Python int: act and
    operator_matrix are raw, whatever the scenario field."""

    def __init__(self, alg: TruncatedAlgebra, psi: PsiFunction, cap, reverse_order=False):
        self.alg = alg
        self.psi = psi
        self.cap = cap
        self.top = _interval_top(alg, psi)
        g = alg.g
        rd = g.rd
        npts = len(alg.points)
        self.field = RAW
        # ordered factor list: lowering basis elements of the truncation
        factors = []
        for k, rc in enumerate(rd.positive_roots):
            for p_idx in range(npts):
                order = alg.jets[p_idx].order
                for mono in jet_monomials(alg.points[p_idx].nvars, order):
                    factors.append((sum(rc), k, p_idx, mono))
        factors.sort(key=lambda f: (f[0], f[1], f[2], (sum(f[3]), f[3])))
        if reverse_order:
            factors.reverse()
        self.factors = factors
        # the content coordinates a factor raises by one (type A roots have
        # simple-root coefficients 0 and 1)
        self.factor_coords = [
            tuple(i * npts + p_idx for i, c in enumerate(rd.positive_roots[k]) if c)
            for (_, k, p_idx, _) in factors
        ]
        self.factor_alg_index = [
            alg.index[(p_idx, g.index[("f", k)], mono)] for (_, k, p_idx, mono) in factors
        ]
        self.alg_index_to_factor = {ai: fi for fi, ai in enumerate(self.factor_alg_index)}
        self.kind = [g.labels[g_idx][0] for _, g_idx, _ in alg.basis]
        self._memo = [{} for _ in range(alg.dim)]
        self._enumerate()
        index = {m: j for j, m in enumerate(self.monomials)}
        self.head = [m[0] if m else -1 for m in self.monomials]
        self.tail = [index[m[1:]] for m in self.monomials]
        self.prepend = [{} for _ in self.monomials]
        for j, m in enumerate(self.monomials[1:], start=1):
            self.prepend[self.tail[j]][m[0]] = j
        self.n_low = self.mono_excess.count(0)

    def _enumerate(self):
        """All normal (weakly decreasing) factor monomials of excess at most
        cap, into monomials: inside the interval first, each part sorted by
        drop (the sum of root heights) then lexicographically; excess only
        grows as factors are added, by one for each coordinate a factor raises
        past top, so the recursion stops at the first factor past the cap.
        At cap 0 that lists the n_low monomials weyl_dim_bound counts and
        nothing past the interval.  Their contents and excesses go to content
        and mono_excess."""
        content = [0] * len(self.top)
        top = self.top
        found = []

        def rec(prefix, start, ex, drop):
            found.append((ex > 0, drop, tuple(prefix), tuple(content), ex))
            for f in range(start, -1, -1):
                up = ex
                for k in self.factor_coords[f]:
                    content[k] += 1
                    if content[k] > top[k]:
                        up += 1
                if up <= self.cap:
                    prefix.append(f)
                    rec(prefix, f, up, drop + self.factors[f][0])
                    prefix.pop()
                for k in self.factor_coords[f]:
                    content[k] -= 1

        rec([], len(self.factors) - 1, 0, 0)
        found.sort()
        _, _, self.monomials, self.content, self.mono_excess = map(list, zip(*found))

    def _char_scalar(self, p_idx, g_idx, mono):
        """Action of h tensor u^beta on the cyclic vector, an int."""
        if sum(mono) != 0:
            return 0
        i = self.alg.g.labels[g_idx][1]
        return self.psi[self.alg.points[p_idx]].coords[i]

    def act(self, alg_idx, j):
        """Action of a basis element on the monomial of id j, as {id: nonzero
        int}: the memo's own dict, which operator_matrix shares as a column,
        so it is read-only."""
        memo = self._memo[alg_idx]
        out = memo.get(j)
        if out is not None:
            return out
        kind = self.kind[alg_idx]
        f = self.alg_index_to_factor.get(alg_idx)
        if kind == "f" and f >= self.head[j]:
            k = self.prepend[j].get(f)
            out = {} if k is None else {k: 1}
        elif not j:
            c = self._char_scalar(*self.alg.basis[alg_idx]) if kind == "h" else 0
            out = {0: c} if c else {}
        else:
            out = self.act_prepended(alg_idx, self.head[j], self.tail[j])
        memo[j] = out
        return out

    def act_prepended(self, alg_idx, f, j):
        """Action of a basis element x on h m, h the factor f and m the
        monomial of id j, f at least head(m) so that h m is normal, as {id:
        nonzero int}: x h m = h (x m) + [x, h] m.  h m need not be listed."""
        acc = {}
        h_alg = self.factor_alg_index[f]
        h_memo = self._memo[h_alg]
        for m, c in self.act(alg_idx, j).items():
            image = h_memo.get(m)
            if image is None:
                image = self.act(h_alg, m)
            for m2, c2 in image.items():
                acc[m2] = acc.get(m2, 0) + c * c2
        for k, s in self.alg.bracket_terms(alg_idx, h_alg):
            for m2, c2 in self.act(k, j).items():
                acc[m2] = acc.get(m2, 0) + s * c2
        for m in [m for m, c in acc.items() if not c]:
            del acc[m]
        return acc

    def operator_matrix(self, alg_idx, cols=None):
        """Matrix of a basis element, with int entries, on the span of the
        n_low monomials inside the interval, modulo the span of the others;
        with cols, only those columns are built and the others are left
        zero.  act is homogeneous in content, so only a lowering element can
        push an image past top, and then the whole image lies outside and
        the monomial is skipped.  The columns are act's memo dicts, shared,
        not copied (Matrix.from_columns): the matrix never writes into them."""
        f = self.alg_index_to_factor.get(alg_idx)
        up = () if f is None else self.factor_coords[f]
        content, top = self.content, self.top
        columns = [{}] * self.n_low  # one shared empty column, read-only too
        for j in range(self.n_low) if cols is None else cols:
            c = content[j]
            for k in up:
                if c[k] >= top[k]:
                    break
            else:
                columns[j] = self.act(alg_idx, j)
        return Matrix.from_columns(self.field, self.n_low, columns)


def _interval_top(alg: TruncatedAlgebra, psi: PsiFunction):
    """The content bound of the weight intervals: the simple-root coordinates
    of psi(p) - w0 psi(p), for (simple root i, point p) at i * #points + p."""
    rd = alg.g.rd
    tops = [rd.root_coords(psi[p] - rd.w0(psi[p])) for p in alg.points]
    return [int(t[i]) for i in range(rd.rank) for t in tops]


def _truncation(g, psi: PsiFunction, n_extra=0):
    """The truncation at exponent max(1, psi(p)(h_theta)) + n_extra at each
    support point p."""
    rd = g.rd
    eta = {p: max(1, rd.pairing_htheta(psi[p])) + n_extra for p in psi.support()}
    return TruncatedAlgebra(g, EtaFunction.of(eta))


def _at_each_point(alg: TruncatedAlgebra, x):
    """Basis indices of x tensor 1 at each truncation point, for a basis
    index x of g."""
    return [alg.index[(p_idx, x, (0,) * p.nvars)] for p_idx, p in enumerate(alg.points)]


def _lowering_indices(alg: TruncatedAlgebra, i):
    """Basis indices of f_i tensor 1 at each truncation point, for the simple
    root i."""
    return _at_each_point(alg, alg.g.f(i))


def _generators(alg: TruncatedAlgebra):
    """Basis indices of a minimal set that generates the truncation as a Lie
    algebra: e_i tensor 1_p and f_i tensor 1_p for the simple roots i, and
    h_1 tensor u_k for each variable u_k, at each point p.  The e_i and f_i
    generate g tensor 1_p, which holds h_j tensor 1_p = [e_j, f_j]; under it
    g tensor u_k is the adjoint module, irreducible, so h_1 tensor u_k
    generates it; and [g tensor u_k, g tensor u^beta] = g tensor
    u^(beta + e_k) gives every higher jet."""
    g = alg.g
    out = []
    for i in range(g.rd.rank):
        out += _at_each_point(alg, g.e(i)) + _lowering_indices(alg, i)
    out += [
        ai for ai, (_, g_idx, mono) in enumerate(alg.basis)
        if g_idx == g.h(0) and sum(mono) == 1
    ]
    return out


def _push_down_seeds(alg: TruncatedAlgebra, st: _Straightener, tails=None):
    """The relation seeds pushed down into the weight interval from one step
    past it, as sparse rows over the first n_low monomials.  There is one per
    pair (t, h): t a tail in tails (by default every enumerated monomial, so
    the full family at st.cap), h a factor at least head(t) such that
    the normal monomial h t has excess exactly 1, one past top at the
    coordinate k of (i, p).  The seed is e_k (h t) = h (e_k t) + [e_k, h] t,
    e_k = e_i tensor 1_p the one raising generator that brings h t back
    inside; h t itself need not be enumerated (act_prepended).

    At cap 1 the tails include the excess-1 monomials, so the pairs are every
    excess-1 monomial split at its head: the push-downs of all monomials one
    step past the interval.  Together with saturation under _generators these
    give the same relation space as the push-downs of every monomial outside
    the interval by every basis element.  act is homogeneous in content;
    f tensor u and h tensor u never lower a coordinate of it, and e_i tensor
    1_p lowers only (i, p), by one.  Hence R + span(excess > 0) is stable
    under the generators once R holds these seeds and is stable under their
    induced operators; the elements that keep a subspace stable form a Lie
    subalgebra, so it is then stable under the whole truncation.

    At cap 0, or with tails the first n_low ids, the tails lie inside the
    interval, and the pairs with a tail t past it are left out.  Such a t is
    already one past top at k, so its head h misses k: h sits at another
    point, or, in type A, its root does not contain alpha_i.  Either way h
    commutes with e_k, so the seed left out, e_k (h t) = h (e_k t), is h's
    induced action on the tail's seed, and down the tails every seed left
    out is a product of lowering elements applied to a kept one.  That lies
    in R once R + span(outside) is stable under the generators.  The
    argument leans on the stability it helps to give, so it is checked, not
    assumed: the seeds left out are relations too, so a build on the inside
    tails can only come out too large, and weyl_module's buffer+1 check
    requires every seed left out to lie in R."""
    g = alg.g
    top = st.top
    # raising[k] is e_i tensor 1_p for the content coordinate k of (i, p)
    raising = [ai for i in range(g.rd.rank) for ai in _at_each_point(alg, g.e(i))]
    coords = [frozenset(c) for c in st.factor_coords]
    seeds = []
    for t in range(len(st.monomials)) if tails is None else tails:
        excess = st.mono_excess[t]
        if excess > 1:
            continue
        content = st.content[t]
        # the coordinates where a factor raises the excess, and the one where
        # t is already past top, if any
        full = frozenset(k for k, c in enumerate(content) if c >= top[k])
        over = [k for k, c in enumerate(content) if c > top[k]]
        for h in range(max(st.head[t], 0), len(st.factors)):
            hits = full & coords[h]
            if excess + len(hits) == 1:
                # act never returns a zero coefficient, so a nonempty image
                # is a nonzero seed
                state = st.act_prepended(raising[min(hits) if hits else over[0]], h, t)
                if state:
                    seeds.append(state)
    return seeds


def _weyl_power_seeds(alg: TruncatedAlgebra, st: _Straightener):
    """The Weyl powers f_i^(lam_i + 1) w, f_i the sum of f_i tensor 1_p over
    the points, as sparse rows over the first n_low monomials.  f never
    lowers the content, so each power only steps from inside the interval;
    the terms a step pushes past it are dropped (at cap 0 act never forms
    them), since they lie in the span of the monomials outside."""
    lam = st.psi.total_weight()
    seeds = []
    for i in range(alg.g.rd.rank):
        state = {0: 1}
        fi_indices = _lowering_indices(alg, i)
        for _ in range(lam.coords[i] + 1):
            nxt = {}
            for m, c in state.items():
                for ai in fi_indices:
                    for m2, c2 in st.act(ai, m).items():
                        nxt[m2] = nxt.get(m2, 0) + c * c2
            state = {m: c for m, c in nxt.items() if m < st.n_low and c}
        seeds.append(state)
    return seeds


def _build_once(
    alg: TruncatedAlgebra, psi: PsiFunction, buffer_extra=0, reverse_order=False, inside_tails=False
):
    """Straighten, seed and saturate over the truncation alg: the
    straightener (excess cap buffer_extra) with its number n_low of
    monomials inside the weight interval, the relation space R among them,
    and the generators' operator matrices {basis index: matrix} that R is
    closed under.  The push-downs come from every enumerated tail, or with
    inside_tails from the tails inside the interval alone, the cap-0 family
    at any cap.  W(psi) is the quotient of the first n_low monomials by R,
    so its dimension is n_low - dim R.  The relations are integral, so all of
    it is raw rationals (see linalg), no field element: ints, and the
    fractions that R's pivots bring in.

    act(x, m) only produces content c(m) + root(x), and every call it makes
    stays coordinatewise below max(c(m), c(m) + root(x)).  At cap 0 every
    call whose result is kept stays inside the interval: the seeds push
    down from inside tails, and operator_matrix skips every image outside.
    Only the Weyl powers step a lowering element past the interval, and
    the terms they push past it are dropped: the build divides out the span
    of the monomials outside.  At cap 1 the seeds may start from excess-1
    tails and every call stays at excess <= 1, so that cap cuts nothing off
    either; inside the interval a cap-1 build forms the same ids, images,
    generator matrices and R as a cap-0 one.  A seed on a monomial past the
    interval (possible only at cap >= 1, from a push-down at the wrong
    coordinate) raises CertificationError."""
    st = _Straightener(alg, psi, buffer_extra, reverse_order=reverse_order)
    n_low = st.n_low

    # every monomial outside the interval is a relation, so the whole
    # computation lives in the quotient by their span.  The relation seeds
    # inside the interval are the push-downs of the monomials just past it
    # (see _push_down_seeds), plus the Weyl powers
    seeds = _push_down_seeds(alg, st, range(n_low) if inside_tails else None)
    if any(m >= n_low for seed in seeds for m in seed):
        raise CertificationError(
            "a relation seed leaves the weight interval", relation="seed outside the interval"
        )
    seeds += _weyl_power_seeds(alg, st)

    # induced operators on the low quotient; the relation space only needs
    # closing under the generators
    gen_ops = {ai: st.operator_matrix(ai) for ai in _generators(alg)}
    rel = saturate(Subspace(n_low, seeds, fld=RAW), list(gen_ops.values()))
    if rel.contains({0: 1}):
        raise CertificationError("relations collapse the cyclic vector", relation="w in R")
    return st, rel, gen_ops


def _quotient(alg: TruncatedAlgebra, psi: PsiFunction, cap=0):
    """W(psi) over the truncation alg, raw, with its straightener (excess
    cap cap, seeded from the tails inside the interval) and relation space.

    R + span(excess > 0) is stable under a generating set, hence under every
    basis element (see _push_down_seeds), so R is invariant under every
    induced operator and the quotient skips the check.  The quotient reads
    only the columns off R's pivots, so the actions other than the
    generators' are built on those alone."""
    st, rel, gen_ops = _build_once(alg, psi, cap, inside_tails=True)
    pivots = set(rel.pivots)
    keep = [j for j in range(st.n_low) if j not in pivots]
    ops = [gen_ops[ai] if ai in gen_ops else st.operator_matrix(ai, keep) for ai in range(alg.dim)]
    mod = FiniteModule(alg, ops, cyclic={0: 1})
    return quotient_module(mod, rel, check=False), st, rel


def one_point_weyl_module(g, lam: Weight) -> FiniteModule:
    """The local Weyl module of lam at the point 1 over the truncation at
    exponent 1, g tensor A/m = g, uncertified: liealg.irreducible_module
    reads it back over g as V(lam) and checks it there."""
    point = Point((g.field.one,))
    alg = TruncatedAlgebra(g, EtaFunction.of({point: 1}))
    return _quotient(alg, PsiFunction.of({point: lam}))[0]


def weyl_dim_bound(g, psi: PsiFunction) -> int:
    """Upper bound on dim W(psi): the number n_low of normal PBW monomials
    whose weight lies in the interval at every point, counted without listing
    them.  Such a monomial is a multiset of lowering factors with content at
    most top, and a factor at p raises only p's coordinates, so n_low is the
    product over the points of the number of multisets at each.  A dynamic
    program counts those: count[c] is the number of multisets of the factors
    passed so far with content c <= top, and the pass of a factor adds
    count[c] into count[c + its content] in increasing order of c, which
    allows the factor every multiplicity."""
    alg = _truncation(g, psi)
    top = _interval_top(alg, psi)
    npts = len(alg.points)
    bound = 1
    for p_idx, jet in enumerate(alg.jets):
        ptop = top[p_idx::npts]
        shape = [t + 1 for t in ptop]
        step = tensor_strides(shape)
        states = list(itertools.product(*map(range, shape)))
        count = [1] + [0] * (len(states) - 1)
        for rc in g.rd.positive_roots:
            up = [i for i, c in enumerate(rc) if c]
            shift = sum(step[i] for i in up)
            inside = [k for k, c in enumerate(states) if all(c[i] < ptop[i] for i in up)]
            for _ in jet.monomials:  # one factor per jet monomial at p
                for k in inside:
                    count[k + shift] += count[k]
        bound *= sum(count)
    return bound


def weyl_module(g, psi: PsiFunction) -> WeylModule:
    """The local Weyl module W(psi) over the truncation at exponent
    max(1, psi(p)(h_theta)) at each support point p, built on the monomials
    whose weight lies in the interval [w0 psi(p), psi(p)] at every point.

    The build runs at excess cap 1 but seeds its relations only from the
    head-tail pairs of _push_down_seeds whose tail lies inside the interval
    (the cap-0 family), so its ids inside the interval, generator matrices,
    R and quotient are those of a cap-0 build.  Its dimension is certified
    by two rebuilds at cap 0 (every truncation exponent one higher, the
    reversed factor order), each of which only computes its relation space;
    by the buffer+1 check; and, when every point has one variable, by the
    Chari-Loktev closed form: the product over the points of
    prod_i C(r + 1, i) ** lam_i.

    buffer+1 straightens, on the build's own straightener, the push-downs
    from the excess-1 tails, the seeds the cap-0 family leaves out, and
    requires each to lie in R (so inside the interval).  The cap-0 family is
    a subset of the full cap-1 family, and R is closed under the generator
    matrices they share, so the closure of the full family is R exactly when
    every extra seed lies in R: the check is as strong as a full cap-1
    rebuild compared by dimension.  Every failed check raises
    CertificationError."""
    if psi.is_zero():
        raise ValueError("psi must be nonzero")
    rd = g.rd
    lam = psi.total_weight()
    alg = _truncation(g, psi)
    mod, st, rel = _quotient(alg, psi, cap=1)
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
        f_i = mod.operator(dict.fromkeys(_lowering_indices(alg, i), 1))
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
    # weight by the interval of lam.  A weight that cannot be read at all (a
    # Cartan action off the diagonal, or an eigenvalue that is no integer
    # weight) fails the same check
    try:
        weights = joint_weights(mod)
    except ValueError as err:
        raise CertificationError(str(err), relation="weight") from err
    for key in weights:
        for p, w in zip(alg.points, key):
            top = psi[p]
            if not (rd.dominance_leq(rd.w0(top), w) and rd.dominance_leq(w, top)):
                raise CertificationError(
                    "weight escapes the interval", relation=("weight", w.coords)
                )
    cert["weights_in_interval"] = True

    try:
        mod.check_bracket()
    except ValueError as err:
        raise CertificationError(str(err), relation="bracket") from err
    cert["bracket"] = "verified"

    if not mod.is_cyclic_from(mod.cyclic):
        raise CertificationError("module is not cyclic on w", relation="cyclic")
    cert["cyclic"] = True

    # R lies in the span of the interval's monomials, so a seed that leaves
    # the interval fails too
    for seed in _push_down_seeds(alg, st, range(st.n_low, len(st.monomials))):
        if not rel.contains(seed):
            raise CertificationError(
                "a push-down from one step past the interval is not a relation (buffer+1)",
                relation=("recompute", "buffer+1"),
            )
    cert["buffer+1"] = st.n_low - rel.dim

    for tag, other_alg, kwargs in (
        ("N+1", _truncation(g, psi, n_extra=1), {}),
        ("reversed", alg, {"reverse_order": True}),
    ):
        other_st, other_rel, _ = _build_once(other_alg, psi, **kwargs)
        other = other_st.n_low - other_rel.dim
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
    W(psi_{gamma.x}).  gamma^{-1} has zeta entries, so the pullback is over
    the field, and W(psi_{gamma.x}) is lifted to it before the comparison."""
    g = group.algebra
    w1 = weyl_module(g, psi_restrict(psi, group, points))
    moved = [group.act_point(gamma, p) for p in points]
    w2 = weyl_module(g, psi_restrict(psi, group, moved))
    phi = gamma_truncation_matrix(
        group, group.inverse(gamma), w2.module.algebra, w1.module.algebra
    )
    pulled = transport(lift_module(w1.module, g.field), phi, w2.module.algebra)
    return _isomorphic(pulled, lift_module(w2.module, g.field))


def tensor_check(g, psi1: PsiFunction, psi2: PsiFunction, group=None):
    """W(psi1+psi2) against W(psi1) tensor W(psi2) over the join of the three
    modules' truncations; with a group, also the twisted version."""
    if set(psi1.support()) & set(psi2.support()):
        raise ValueError("supports overlap")
    w12, w1, w2 = (weyl_module(g, psi) for psi in (psi1 + psi2, psi1, psi2))
    common = TruncatedAlgebra(
        g, w12.module.algebra.eta | w1.module.algebra.eta | w2.module.algebra.eta
    )
    m12, m1, m2 = (extend_to(w.module, common) for w in (w12, w1, w2))
    prod = tensor_product(m1, m2)
    result = {
        "untwisted": _isomorphic(m12, prod),
        "dim_product": w1.dim * w2.dim,
        "dim_joint": w12.dim,
    }
    if group is not None:
        inv = InvariantAlgebra(g, group, common.eta)
        t12 = twist(m12, inv)
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
    common = TruncatedAlgebra(g, alg.eta | w.module.algebra.eta)
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
