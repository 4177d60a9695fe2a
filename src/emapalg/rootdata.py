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
        # (n + 1) C^-1 = [min(i, j)(n + 1 - max(i, j))], 1-based i, j: the
        # root lattice is worked in ints, scaled by n + 1
        self._scale = n + 1
        self._cinv = [[(min(i, j) + 1) * (n - max(i, j)) for j in range(n)] for i in range(n)]
        self.cartan_inverse = [[rational(c, self._scale) for c in row] for row in self._cinv]
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

    def _scaled_coords(self, w: Weight):
        """(n + 1) times the simple-root coordinates of a weight, as ints."""
        return tuple(sum(c * k for c, k in zip(row, w.coords)) for row in self._cinv)

    def root_coords(self, w: Weight):
        """Simple-root coordinates of a weight, as exact rationals."""
        return tuple(rational(k, self._scale) for k in self._scaled_coords(w))

    def height(self, w: Weight):
        """Sum of the simple-root coefficients of w."""
        return rational(self.scaled_height(w), self._scale)

    def scaled_height(self, w: Weight):
        """(n + 1) times the height of w, an int: it orders weights as the
        height does."""
        return sum(self._scaled_coords(w))

    def pairing_htheta(self, w: Weight):
        """w(h_theta); for type A this is the sum of fundamental coordinates."""
        return sum(w.coords)

    def inner(self, v: Weight, w: Weight):
        """Invariant form with (alpha, alpha) = 2 on all roots."""
        return rational(_pair(v, self._scaled_coords(w)), self._scale)

    def w0(self, w: Weight) -> Weight:
        """Action of the longest Weyl group element: w0(w) = -flip(w)."""
        return Weight(tuple(-c for c in reversed(w.coords)))

    def dominance_leq(self, mu: Weight, lam: Weight) -> bool:
        """mu <= lam iff lam - mu is a nonnegative integer root combination."""
        return all(k >= 0 and k % self._scale == 0 for k in self._scaled_coords(lam - mu))

    def weight_interval(self, lam: Weight):
        """All mu with w0(lam) <= mu <= lam in dominance order."""
        if not lam.is_dominant():
            raise ValueError("weight_interval requires a dominant weight")
        d = self._scaled_coords(lam - self.w0(lam))
        if any(k % self._scale for k in d):
            raise AssertionError("lam - w0(lam) is not in the root lattice")
        box = [range(k // self._scale + 1) for k in d]
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
        """Weight multiplicities of the irreducible module V(lam), by
        Freudenthal's formula with the form scaled by n + 1, all in ints."""
        if not lam.is_dominant():
            raise ValueError("freudenthal_mults requires a dominant weight")
        interval = self.weight_interval(lam)
        dominants = sorted(
            (mu for mu in interval if mu.is_dominant()),
            key=lambda mu: -self.scaled_height(mu),
        )
        roots = [(rc, Weight(self._root_to_fundamental(rc))) for rc in self.positive_roots]
        lam_rho = lam + self.rho
        nlr = _pair(lam_rho, self._scaled_coords(lam_rho))
        mults = {}
        for mu in dominants:
            if mu == lam:
                mults[lam] = 1
                continue
            num = 0
            for rc, alpha in roots:
                nu = mu + alpha
                while self.dominance_leq(nu, lam):
                    num += 2 * mults.get(self.dominant_representative(nu), 0) * _pair(nu, rc)
                    nu = nu + alpha
            mu_rho = mu + self.rho
            val, rem = divmod(self._scale * num, nlr - _pair(mu_rho, self._scaled_coords(mu_rho)))
            if rem or val < 0:
                raise AssertionError("Freudenthal multiplicity is not a nonnegative integer")
            mults[mu] = val
        out = {}
        for mu in interval:
            m = mults.get(self.dominant_representative(mu), 0)
            if m:
                out[mu] = m
        return out

    def weyl_dim(self, lam: Weight):
        """Dimension of V(lam) by the Weyl dimension formula; (v, alpha) of a
        positive root alpha is the int pairing of v with its root coordinates."""
        num = 1
        den = 1
        lr = lam + self.rho
        for rc in self.positive_roots:
            num *= _pair(lr, rc)
            den *= _pair(self.rho, rc)
        val, rem = divmod(num, den)
        if rem:
            raise AssertionError("Weyl dimension is not an integer")
        return val


def _pair(v: Weight, rc):
    """The invariant form of v with the element of simple-root coordinates rc."""
    return sum(c * k for c, k in zip(v.coords, rc))
