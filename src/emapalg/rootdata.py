"""Root and weight combinatorics for type A_n: dominance order, height,
longest-element action, diagram symmetries, and Freudenthal weight
multiplicities of irreducible highest weight modules."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fields import rational


@dataclass(frozen=True)
class Weight:
    """An integral weight in fundamental-weight coordinates."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    @property
    def rank(self):
        return len(self.coords)

    def is_dominant(self):
        return all(c >= 0 for c in self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Weight(tuple(-a for a in self.coords))

    def __repr__(self):
        return "Weight%s" % (self.coords,)


@dataclass(frozen=True)
class DiagramSymmetry:
    """A Dynkin-diagram symmetry of A_n: the identity or the flip i -> n+1-i."""

    perm: tuple

    @classmethod
    def identity(cls, rank):
        return cls(tuple(range(rank)))

    @classmethod
    def flip(cls, rank):
        return cls(tuple(range(rank - 1, -1, -1)))

    def __post_init__(self):
        n = len(self.perm)
        if self.perm not in (tuple(range(n)), tuple(range(n - 1, -1, -1))):
            raise ValueError("not a diagram symmetry of A_%d" % n)

    @property
    def is_identity(self):
        return self.perm == tuple(range(len(self.perm)))

    def compose(self, other):
        return DiagramSymmetry(tuple(self.perm[other.perm[i]] for i in range(len(self.perm))))

    def __call__(self, w: Weight) -> Weight:
        return Weight(tuple(w.coords[self.perm[i]] for i in range(len(self.perm))))


class RootDatum:
    """Lattice data of type A_n: Cartan matrix, positive roots, theta, w0."""

    def __init__(self, rank):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        n = rank
        self.cartan = [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)
        ]
        # (C^-1)_ij = min(i, j)(n + 1 - max(i, j)) / (n + 1), 1-based i, j
        self.cartan_inverse = [
            [rational((min(i, j) + 1) * (n - max(i, j)), n + 1) for j in range(n)]
            for i in range(n)
        ]
        # positive roots alpha_i + ... + alpha_j in simple-root coordinates
        self.positive_roots = []
        for i in range(n):
            for j in range(i, n):
                self.positive_roots.append(
                    tuple(1 if i <= k <= j else 0 for k in range(n))
                )
        self.positive_roots.sort(key=lambda r: (sum(r), r))
        self.theta = Weight(self._root_to_fundamental(tuple([1] * n)))
        self.rho = Weight(tuple([1] * n))
        self.fundamental = [
            Weight(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)
        ]
        self.simple_roots = [
            Weight(self._root_to_fundamental(tuple(1 if j == i else 0 for j in range(n))))
            for i in range(n)
        ]

    def _root_to_fundamental(self, rc):
        return tuple(
            sum(self.cartan[i][j] * rc[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def root_coords(self, w: Weight):
        """Simple-root coordinates of a weight, as exact rationals."""
        return tuple(
            sum(
                self.cartan_inverse[i][j] * w.coords[j] for j in range(self.rank)
            )
            for i in range(self.rank)
        )

    def height(self, w: Weight):
        """Sum of the simple-root coefficients of w."""
        return sum(self.root_coords(w), rational(0))

    def pairing_htheta(self, w: Weight):
        """w(h_theta); for type A this is the sum of fundamental coordinates."""
        return sum(w.coords)

    def inner(self, v: Weight, w: Weight):
        """Invariant form with (alpha, alpha) = 2 on all roots."""
        rc = self.root_coords(w)
        return sum((rational(c) * k for c, k in zip(v.coords, rc)), rational(0))

    def w0(self, w: Weight) -> Weight:
        """Action of the longest Weyl group element: w0(w) = -flip(w)."""
        return Weight(tuple(-c for c in reversed(w.coords)))

    def dominance_leq(self, mu: Weight, lam: Weight) -> bool:
        """mu <= lam iff lam - mu is a nonnegative integer root combination."""
        rc = self.root_coords(lam - mu)
        return all(k >= 0 and k.denominator == 1 for k in rc)

    def weight_interval(self, lam: Weight):
        """All mu with w0(lam) <= mu <= lam in dominance order."""
        if not lam.is_dominant():
            raise ValueError("weight_interval requires a dominant weight")
        d = self.root_coords(lam - self.w0(lam))
        if any(k.denominator != 1 for k in d):
            raise AssertionError("lam - w0(lam) is not in the root lattice")
        box = [range(int(k) + 1) for k in d]
        out = []
        for drops in itertools.product(*box):
            mu = lam
            for i, c in enumerate(drops):
                if c:
                    mu = mu - Weight(
                        tuple(c * x for x in self.simple_roots[i].coords)
                    )
            out.append(mu)
        return set(out)

    def dominant_representative(self, w: Weight) -> Weight:
        coords = list(w.coords)
        while True:
            i = next((k for k, c in enumerate(coords) if c < 0), None)
            if i is None:
                return Weight(tuple(coords))
            # simple reflection s_i
            ci = coords[i]
            for j in range(self.rank):
                coords[j] -= ci * self.cartan[i][j]

    def freudenthal_mults(self, lam: Weight):
        """Weight multiplicities of the irreducible module V(lam)."""
        if not lam.is_dominant():
            raise ValueError("freudenthal_mults requires a dominant weight")
        interval = self.weight_interval(lam)
        dominants = sorted(
            (mu for mu in interval if mu.is_dominant()),
            key=lambda mu: -self.height(mu),
        )
        lam_rho = lam + self.rho
        nlr = self.inner(lam_rho, lam_rho)
        mults = {}
        for mu in dominants:
            if mu == lam:
                mults[lam] = 1
                continue
            num = rational(0)
            for rc in self.positive_roots:
                alpha = Weight(self._root_to_fundamental(rc))
                j = 1
                while True:
                    nu = mu + Weight(tuple(j * c for c in alpha.coords))
                    if not self.dominance_leq(nu, lam):
                        break
                    m = mults.get(self.dominant_representative(nu), 0)
                    if m:
                        num += 2 * m * self.inner(nu, alpha)
                    j += 1
            mu_rho = mu + self.rho
            den = nlr - self.inner(mu_rho, mu_rho)
            if num == 0:
                mults[mu] = 0
                continue
            val = num / den
            if val.denominator != 1 or val < 0:
                raise AssertionError("Freudenthal multiplicity is not a nonnegative integer")
            mults[mu] = int(val)
        out = {}
        for mu in interval:
            m = mults.get(self.dominant_representative(mu), 0)
            if m:
                out[mu] = m
        return out

    def weyl_dim(self, lam: Weight):
        """Dimension of V(lam) by the Weyl dimension formula."""
        num = 1
        den = 1
        lr = lam + self.rho
        for rc in self.positive_roots:
            alpha = Weight(self._root_to_fundamental(rc))
            num *= self.inner(lr, alpha)
            den *= self.inner(self.rho, alpha)
        val = num / den
        if val.denominator != 1:
            raise AssertionError("Weyl dimension is not an integer")
        return int(val)
