"""Helpers that only tests call: the Weight-keyed character of V(lam), the
natural module of sl_{n+1}, the maximal-weight test and a fault for the
buffer+1 check of local Weyl modules."""

from emapalg.ema import InvariantAlgebra
from emapalg.liealg import FiniteModule
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


def one_more_seed_past_the_interval(push_down_seeds):
    """weyl._push_down_seeds with one relation too many, (f_1 x t) w = 0,
    among the push-downs from the tails one step past the interval only."""

    def seeds(alg, st, tails=None):
        out = push_down_seeds(alg, st, tails)
        if any(st.mono_excess[t] for t in (range(len(st.monomials)) if tails is None else tails)):
            ai = alg.index[(0, alg.g.f(0), (1,))]
            out.append(dict(st.act(ai, 0)))  # on the empty monomial, id 0
        return out

    return seeds
