"""Local Weyl modules: untwisted construction by PBW straightening and
relation saturation, twisted construction by transport through the
evaluation isomorphism, and the structural checks that come with them
(choice independence, gamma twists, tensor factorization, heads)."""

from __future__ import annotations

import itertools
from bisect import bisect_left
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
    monomials in the negative part.  The content of a monomial is the sum of
    its factors' positive roots, per (simple root, point); its weight at p
    lies in [w0 psi(p), psi(p)] exactly when its content is at most top (see
    _interval_top) there, that is, when its excess sum max(0, content - top)
    is 0.  Its jet degree is the sum of |beta| over its factors g tensor
    u^beta; the jets are centred at their point, so act is homogeneous in
    content and jet degree.

    The n_low monomials inside the interval come first, listed one jet
    degree at a time with the push-down pairs each degree meets (the
    constructor lists degree 0, kept as degree_zero), then, for the buffer+1
    check, those past it up to an excess cap.  act works modulo the
    span of the monomials not listed, which is stable: an image past the
    listed degree or the cap is {} and is not memoised, so a later listing
    never meets a stale entry.  A monomial is read by its id, its place in
    monomials (the empty one, the cyclic vector, is 0): content, mono_excess,
    full (the bit mask of the coordinates at or past top), jet_degree, head
    (its first factor, -1 at 0), tail (its id without the head) and prepend
    ({f: id of (f,) + it}).  act maps ids to {id: int}, memoised per basis
    index; the relations and structure constants are integral, so act and
    operator_matrix are raw ints."""

    def __init__(self, alg: TruncatedAlgebra, psi: PsiFunction, reverse_order=False):
        self.alg = alg
        self.psi = psi
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
        self.factor_mask = [sum(1 << k for k in coords) for coords in self.factor_coords]
        self.factor_degree = degrees = [sum(mono) for (_, _, _, mono) in factors]
        # the factors of each jet degree, in order
        self.heads = {d: [f for f, e in enumerate(degrees) if e == d] for d in set(degrees)}
        self.factor_alg_index = [
            alg.index[(p_idx, g.index[("f", k)], mono)] for (_, k, p_idx, mono) in factors
        ]
        self.alg_index_to_factor = {ai: fi for fi, ai in enumerate(self.factor_alg_index)}
        self.kind = [g.labels[g_idx][0] for _, g_idx, _ in alg.basis]
        # raising[k] is e_i tensor 1_p for the content coordinate k of (i, p)
        self.raising = [ai for i in range(rd.rank) for ai in _at_each_point(alg, g.e(i))]
        self.alg_degree = alg.jet_degrees()
        self._memo = [{} for _ in range(alg.dim)]
        self.monomials, self.content, self.mono_excess, self.full = [], [], [], []
        self.jet_degree = []
        self.head, self.tail, self.prepend, self._index = [], [], [], {}
        self.n_low = self.cap = 0
        self.degree_zero = self.list_degree(0)

    def list_degree(self, d):
        """List the monomials of jet degree d inside the interval, after
        those of lower degree; returns their ids and the push-down pairs of
        degree d (see _list)."""
        self.degree = d
        ids, pairs = self._list(d, 0, 0)
        self.n_low += len(ids)
        return ids, pairs

    def list_past(self, cap):
        """List the monomials past the interval of excess at most cap and jet
        degree at most the listed one, after all those inside it; returns
        their ids."""
        self.cap = cap
        for d in range(self.degree + 1):
            self._list(d, 1, cap)
        return range(self.n_low, len(self.monomials))

    def _list(self, degree, low, cap):
        """List the normal (weakly decreasing) factor monomials of jet degree
        degree and excess from low to cap, each a head h on a listed tail of
        degree degree - deg(h) or on a shorter new one, sorted by drop (the
        sum of root heights, or of the content) and then lexicographically,
        so that each tail comes first; returns their ids and, at cap 0, the
        build's push-down pairs (see _build_once): each (h, t, k) it meets
        with h t one past top at the content coordinate k alone."""
        top, found, pairs, factors = self.top, [], [], self.factors
        masks, coords = self.factor_mask, self.factor_coords
        if not self.monomials:  # 1, the empty monomial, is id 0; top is 0 where psi is
            full = sum(1 << k for k, t in enumerate(top) if not t)
            found.append((0, (), (0,) * len(top), 0, full))

        def grow(drop, m, c, ex, full, heads):
            for h in heads[bisect_left(heads, m[0]) if m else 0 :]:
                hits = full & masks[h]  # the coordinates where h raises the excess
                up = ex + hits.bit_count()
                if low <= up <= cap:
                    c2, raised = list(c), full
                    for k in coords[h]:
                        c2[k] += 1
                        raised |= (c2[k] >= top[k]) << k
                    found.append((drop + factors[h][0], (h,) + m, tuple(c2), up, raised))
                elif up == 1:  # only at cap 0, where ex is 0 and hits one bit
                    pairs.append((h, m, hits.bit_length() - 1))

        for j, (m, c) in enumerate(zip(self.monomials, self.content)):
            heads = self.heads.get(degree - self.jet_degree[j])
            if heads:
                grow(sum(c), m, c, self.mono_excess[j], self.full[j], heads)
        for item in found:  # the new ones, as they are found
            grow(*item, self.heads.get(0, []))
        start = len(self.monomials)
        for j, (_, m, c, ex, full) in enumerate(sorted(found), start):
            self._index[m] = j
            self.monomials.append(m)
            self.content.append(c)
            self.mono_excess.append(ex)
            self.full.append(full)
            self.jet_degree.append(degree)
            self.head.append(m[0] if m else -1)
            self.tail.append(self._index[m[1:]])
            self.prepend.append({})
            if m:
                self.prepend[self.tail[j]][m[0]] = j
        index = self._index
        return range(start, len(self.monomials)), [(h, index[m], k) for h, m, k in pairs]

    def _char_scalar(self, p_idx, g_idx, mono):
        """Action of h tensor u^beta on the cyclic vector, an int."""
        if sum(mono) != 0:
            return 0
        i = self.alg.g.labels[g_idx][1]
        return self.psi[self.alg.points[p_idx]].coords[i]

    def act(self, alg_idx, j):
        """Action of a basis element on the monomial of id j, as {id: nonzero
        int}: the memo's own dict, which operator_matrix shares as a column,
        so it is read-only.  Only a lowering element raises the excess, by
        one for each coordinate at or past top that it raises."""
        memo = self._memo[alg_idx]
        out = memo.get(j)
        if out is not None:
            return out
        kind = self.kind[alg_idx]
        f = self.alg_index_to_factor.get(alg_idx)
        # an image past the listed degree (only from a positive degree) or the
        # cap (only from a lowering element) is not memoised
        deg, hits = self.alg_degree[alg_idx], kind == "f" and self.full[j] & self.factor_mask[f]
        if (deg and deg + self.jet_degree[j] > self.degree) or (
            hits and self.mono_excess[j] + hits.bit_count() > self.cap
        ):
            return {}
        if kind == "f" and f >= self.head[j]:
            out = {self.prepend[j][f]: 1}
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

    def operator_matrix(self, alg_idx, cols):
        """Matrix of a basis element, with int entries, on the span of the
        n_low monomials inside the interval, modulo the span of the others,
        with only the columns cols built and the others left zero.  Only a
        lowering element can push an image past top, and then the whole
        image lies past it and is skipped, never formed.  The columns are
        act's memo dicts, shared, not copied (Matrix.from_columns): the
        matrix never writes into them."""
        up = self.factor_mask[self.alg_index_to_factor[alg_idx]] if self.kind[alg_idx] == "f" else 0
        full, columns = self.full, [{}] * self.n_low  # one shared empty column, read-only too
        for j in cols:
            if not full[j] & up:
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


def _push_down_seeds(st: _Straightener, pairs):
    """The relation seeds pushed down into the weight interval from one step
    past it, as sparse rows over the listed monomials: for each pair (h, t,
    k), h t normal and one past top at the coordinate k of (i, p) alone, the
    seed e_k (h t) = h (e_k t) + [e_k, h] t, e_k = e_i tensor 1_p the one
    raising generator that brings h t back inside (h t need not be listed),
    where it is nonzero: act never returns a zero coefficient."""
    seeds = (st.act_prepended(st.raising[k], h, t) for h, t, k in pairs)
    return [seed for seed in seeds if seed]


def _weyl_power_seeds(st: _Straightener):
    """The Weyl powers f_i^(lam_i + 1) w, f_i the sum of f_i tensor 1_p over
    the points, as sparse rows over the first n_low monomials, of jet degree
    0.  f never lowers the content, so each power only steps from inside the
    interval; the terms it pushes past it lie in the span of the monomials
    outside and are dropped."""
    alg, lam = st.alg, st.psi.total_weight()
    seeds = []
    for i in range(alg.g.rd.rank):
        state = {0: 1}
        fi_indices = _at_each_point(alg, alg.g.f(i))
        for _ in range(lam.coords[i] + 1):
            nxt = {}
            for m, c in state.items():
                for ai in fi_indices:
                    for m2, c2 in st.act(ai, m).items():
                        nxt[m2] = nxt.get(m2, 0) + c * c2
            state = {m: c for m, c in nxt.items() if m < st.n_low and c}
        seeds.append(state)
    return seeds


def _build_once(alg: TruncatedAlgebra, psi: PsiFunction, reverse_order=False):
    """Straighten, seed and saturate over the truncation alg one jet degree
    at a time: the straightener, listed through its stop degree c, and the
    relation space R among its n_low monomials inside the weight interval.
    W(psi) is their quotient by R, of dimension n_low - dim R.  The
    relations are integral, so R is raw (see linalg): ints, and the
    fractions its pivots bring in.

    The seeds are homogeneous in jet degree and the generators have degree
    0 (e_i, f_i tensor 1_p) or 1 (h_1 tensor u_k), so R_d is the closure
    under the degree-0 generators of the degree-d seeds and of the degree-1
    generators' images of R_{d-1}; no monomial past d is listed for it.  W
    is generated from w in degrees 0 and 1, W_{d+1} = U(g tensor 1) (g
    tensor u) W_d, so the build stops at the first d with R_d = V_d, and its
    quotient is all of W.

    The degree-d seeds push down the pairs that listing degree d meets
    (_Straightener._list): the excess-1 monomials on a tail inside the
    interval.  act is homogeneous in content, f tensor u and h tensor u
    never lower it, and e_i tensor 1_p lowers only (i, p), by one, so R +
    span(excess > 0) is stable under the generators, hence the truncation,
    once R holds the push-downs of every excess-1 monomial and is stable
    under the generators' induced operators.  A tail t past the interval is
    already one past top at k, so h misses k and commutes with e_k: the seed
    left out, h (e_k t), is h's induced action on the tail's seed, and down
    the tails a product of lowering elements on a kept one.  That argument
    leans on the stability it helps to give, so weyl_module's buffer+1
    check requires every seed left out to lie in R."""
    st = _Straightener(alg, psi, reverse_order=reverse_order)
    gens = alg.generators()
    spaces, ids = [], range(0)
    for d in itertools.count():
        (ids, pairs), prev = st.list_degree(d) if d else st.degree_zero, ids
        if not ids:
            break
        seeds = _push_down_seeds(st, pairs)
        if d:
            lifts = [st.operator_matrix(ai, prev) for ai in gens if st.alg_degree[ai]]
            seeds += [op.apply(v) for op in lifts for v in spaces[-1].basis]
        else:
            seeds += _weyl_power_seeds(st)
        if any(m >= st.n_low or st.jet_degree[m] != d for seed in seeds for m in seed):
            raise CertificationError("a relation seed is off the build's degree", "seed degree")
        level = [st.operator_matrix(ai, ids) for ai in gens if not st.alg_degree[ai]]
        spaces.append(saturate(Subspace(st.n_low, seeds, fld=RAW), level))
        if spaces[-1].dim == len(ids):
            break
    rel = Subspace.direct_sum(st.n_low, spaces, fld=RAW)  # the degrees share no column
    if rel.contains({0: 1}):
        raise CertificationError("relations collapse the cyclic vector", relation="w in R")
    return st, rel


def _degree_dims(st: _Straightener, rel: Subspace):
    """dim W_d for each jet degree d through a build's stop degree: the
    monomials of degree d off the pivots of R, which is graded."""
    dims = [0] * (st.degree + 1)
    for j in set(range(st.n_low)).difference(rel.pivots):
        dims[st.jet_degree[j]] += 1
    return dims


def _quotient(alg: TruncatedAlgebra, psi: PsiFunction):
    """W(psi) over the truncation alg, raw, with its straightener and
    relation space.  R + span(excess > 0) is stable under every basis element
    (see _build_once), so the quotient skips the check.  It reads only
    the columns off R's pivots, so the actions are built on those alone."""
    st, rel = _build_once(alg, psi)
    keep = sorted(set(range(st.n_low)).difference(rel.pivots))
    mod = FiniteModule(alg, [st.operator_matrix(ai, keep) for ai in range(alg.dim)], cyclic={0: 1})
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

    The build stops at the first jet degree c with W_c = 0 (_build_once).
    Two rebuilds (every truncation exponent one higher, the reversed factor
    order), each to its own stop degree, must give the same dim W_d at every
    degree d.  buffer+1 lists, on the build's own straightener, the
    monomials one step past the interval through degree c, and requires the
    push-downs of those on a tail past it too, the seeds the builds leave
    out, to lie in R: R is closed under the generators, so that holds
    exactly when the closure of all the seeds is R (those past c lie in
    R_{>c} = V_{>c}).  When every
    point has one variable, the Chari-Loktev closed form, the product over
    the points of prod_i C(r + 1, i) ** lam_i, checks the dimension too.
    Every failed check raises CertificationError."""
    if psi.is_zero():
        raise ValueError("psi must be nonzero")
    rd = g.rd
    lam = psi.total_weight()
    alg = _truncation(g, psi)
    mod, st, rel = _quotient(alg, psi)
    cert = {}

    # defining relations in the quotient
    for idx, (p_idx, g_idx, mono) in enumerate(alg.basis):
        kind = g.labels[g_idx][0]
        v = mod.actions[idx].apply(mod.cyclic)
        if kind == "e" and v:
            raise CertificationError(
                "n+ does not annihilate the cyclic vector", relation=("e", alg.basis[idx])
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
        f_i = mod.operator(dict.fromkeys(_at_each_point(alg, g.f(i)), 1))
        v = mod.cyclic
        for _ in range(lam.coords[i] + 1):
            v = f_i.apply(v)
        if v:
            raise CertificationError("Weyl power relation fails", relation=("f-power", i))
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

    # the pairs the builds leave out: the excess-1 monomials h t with the
    # tail t past the interval too, at its one coordinate k past top
    pairs = []
    for m in st.list_past(1):
        t = st.tail[m]
        if t >= st.n_low:
            k = next(k for k, (c, b) in enumerate(zip(st.content[t], st.top)) if c > b)
            pairs.append((st.head[m], t, k))
    for seed in _push_down_seeds(st, pairs):
        if max(seed) >= st.n_low:
            raise CertificationError(
                "a relation seed leaves the weight interval",
                relation="seed outside the interval",
            )
        if not rel.contains(seed):
            raise CertificationError(
                "a push-down from one step past the interval is not a relation (buffer+1)",
                relation=("recompute", "buffer+1"),
            )
    cert["buffer+1"] = st.n_low - rel.dim

    dims = _degree_dims(st, rel)
    for tag, other_alg, kwargs in (
        ("N+1", _truncation(g, psi, n_extra=1), {}),
        ("reversed", alg, {"reverse_order": True}),
    ):
        other = _degree_dims(*_build_once(other_alg, psi, **kwargs))
        if other != dims:
            raise CertificationError(
                "dimension by jet degree not stable under recomputation (%s): %s vs %s"
                % (tag, other, dims),
                relation=("recompute", tag),
            )
        cert[tag] = sum(other)

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
    elif inv.ambient.eta != w.module.algebra.eta.orbit_saturation(group):
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
        result["twisted"] = _isomorphic(twist(m12, inv), twist(prod, inv))
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
