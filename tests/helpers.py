"""Helpers that only tests call: the Weight-keyed character of V(lam), the
natural module of sl_{n+1}, the maximal-weight test, the equivariance
reference, a fault for the buffer+1 check of local Weyl modules, and the
uncut Weyl build that the build by jet degree is checked against."""

from emapalg import weyl
from emapalg.ema import InvariantAlgebra
from emapalg.fields import RAW
from emapalg.liealg import FiniteModule
from emapalg.linalg import Subspace, saturate
from emapalg.repmod import height_psi, height_psi_orbits, multiplicities, unique_top
from emapalg.rootdata import Weight


def freudenthal_mults(rd, lam):
    """Weight multiplicities of the irreducible module V(lam): the
    Weight-keyed view of rd.character(lam.coords)."""
    return {Weight(mu): m for mu, m in rd.character(lam.coords).items()}


def natural_module(g):
    """The natural (n+1)-dimensional representation of sl_{n+1}."""
    return FiniteModule(g, list(g.basis_matrices), cyclic={0: 1})


def is_maximal_weight(module, psi=None):
    """Unique top constituent by height, with multiplicity one."""
    alg = module.algebra

    def h(ps):
        if isinstance(alg, InvariantAlgebra):
            return height_psi_orbits(alg.group, ps)
        return height_psi(alg.g.rd, ps)

    return unique_top(multiplicities(module), h, psi)


def is_equivariant(group, psi):
    """Reference: psi(gamma . p) = gamma . psi(p) for every group element
    gamma and support point p, checked point by point."""
    for p, w in psi.assignments:
        for gamma in group.elements:
            q = group.act_point(gamma, p)
            if psi[q] != group.act_weight(gamma, w):
                return False
    return True


def one_more_seed_past_the_interval(push_down_seeds):
    """weyl._push_down_seeds with one relation too many, (f_1 x t) w = 0, of
    jet degree 1, among the push-downs from the tails one step past the
    interval only: buffer+1's, the one call made once monomials past the
    interval are listed (there may be no such pairs)."""

    def seeds(st, pairs):
        out = push_down_seeds(st, pairs)
        if len(st.monomials) > st.n_low:
            ai = st.alg.index[(0, st.alg.g.f(0), (1,))]
            out.append(dict(st.act(ai, 0)))  # on the empty monomial, id 0
        return out

    return seeds


def full_straightener(alg, psi, cap=0, reverse_order=False):
    """A straightener with every monomial listed: those inside the weight
    interval degree by degree, up to the first degree that has none, then
    those past it of excess at most cap and no higher jet degree."""
    st = weyl._Straightener(alg, psi, reverse_order=reverse_order)
    d = 1
    while st.list_degree(d)[0]:
        d += 1
    st.list_past(cap)
    return st


def every_push_down_pair(st, tails=None):
    """The reference loop over (tail, head) pairs: (h, t, k) for every tail
    t of excess at most 1, by default every listed one, and every factor h
    at least head(t) such that h t has excess exactly 1, one past top at
    the coordinate k."""
    pairs = []
    for t in range(len(st.monomials)) if tails is None else tails:
        excess = st.mono_excess[t]
        if excess > 1:
            continue
        # the coordinate where t is already past top, if any
        over = [k for k, c in enumerate(st.content[t]) if c > st.top[k]]
        for h in range(max(st.head[t], 0), len(st.factors)):
            # the coordinates where h raises the excess
            hits = st.full[t] & st.factor_mask[h]
            if excess + hits.bit_count() == 1:
                pairs.append((h, t, (hits & -hits).bit_length() - 1 if hits else over[0]))
    return pairs


def every_push_down_seed(st, tails=None):
    """weyl._push_down_seeds on every_push_down_pair: the full family at the
    straightener's cap."""
    return weyl._push_down_seeds(st, every_push_down_pair(st, tails))


def uncut_build(alg, psi, cap=0, reverse_order=False, inside_tails=True):
    """The build on every monomial of the weight interval, saturated at once
    under the generators: the straightener (full_straightener at cap), the
    relation space R, as weyl._build_once returns them, and the generators'
    operator matrices.  The push-downs come from the tails inside the
    interval, or with inside_tails False from every listed tail, the full
    family at cap.  The reference for the build by jet degree."""
    st = full_straightener(alg, psi, cap, reverse_order)
    n_low = st.n_low
    seeds = every_push_down_seed(st, range(n_low) if inside_tails else None)
    assert all(m < n_low for seed in seeds for m in seed)
    seeds += weyl._weyl_power_seeds(st)
    gen_ops = {ai: st.operator_matrix(ai, range(n_low)) for ai in alg.generators()}
    rel = saturate(Subspace(n_low, seeds, fld=RAW), list(gen_ops.values()))
    return st, rel, gen_ops
