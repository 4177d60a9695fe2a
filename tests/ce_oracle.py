"""The full Chevalley-Eilenberg complex in degrees 0 and 1, as an oracle for
the Levi-relative complex of emapalg.homology.

C^0 = V, C^1 = Hom(L, V) indexed (i, a), C^2 = Hom(L^2 L, V) indexed
(pair, a), with d0 and d1 written out over every basis element and every
pair of L; no weights, no Levi factor.  H^0 = dim V - rank d0 and
H^1 = dim ker d1 - rank d0.  Like the relative complex, it is over the raw
rationals.
"""

import itertools

from emapalg.fields import RAW
from emapalg.linalg import Matrix, Subspace, hom_action


def full_hom_actions(m1, m2):
    """The action of every basis element of the two modules' algebra on
    Hom(M1, M2); the Ext ladder builds only those the relative complex reads."""
    return [hom_action(a1, a2) for a1, a2 in zip(m1.actions, m2.actions, strict=True)]


class FullComplex:
    def __init__(self, L, actions, vdim):
        fld = RAW
        l, v = L.dim, vdim
        pairs = list(itertools.combinations(range(l), 2))
        nonzeros = [list(act.nonzeros()) for act in actions]
        self.vdim = vdim
        self.d0 = Matrix.from_triples(
            fld,
            l * v,
            v,
            ((i * v + a, b, x) for i in range(l) for a, b, x in nonzeros[i]),
        )
        d1 = []
        for p, (i1, i2) in enumerate(pairs):
            row = p * v
            # x1 . f(x2)
            d1.extend((row + a, i2 * v + b, x) for a, b, x in nonzeros[i1])
            # - x2 . f(x1)
            d1.extend((row + a, i1 * v + b, -x) for a, b, x in nonzeros[i2])
            # - f([x1, x2])
            for k, c in L.bracket_terms(i1, i2):
                d1.extend((row + a, k * v + a, -c) for a in range(v))
        self.d1 = Matrix.from_triples(fld, len(pairs) * v, l * v, d1)
        if not self.d1.matmul(self.d0).is_zero():
            raise AssertionError("d1 after d0 is not zero")
        # the coboundaries B^1, spanned by the columns of d0
        self.d0_image = Subspace(l * v, [self.d0.column(a) for a in range(v)], fld=fld)

    def h0_dim(self):
        return self.vdim - self.d0_image.dim

    def h1(self):
        return self.d1.nullspace().dim - self.d0_image.dim
