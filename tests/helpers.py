"""Helpers that only tests call: the Weight-keyed character of V(lam), the
natural module of sl_{n+1} and the maximal-weight test."""

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
