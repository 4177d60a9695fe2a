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
        coords = tuple(self.coords)
        for c in coords:
            if type(c) is not int:
                raise ValueError("weight coordinate %r is not an int" % (c,))
        object.__setattr__(self, "coords", coords)

    @property
    def rank(self):
        return len(self.coords)

    def is_dominant(self):
        return all(c >= 0 for c in self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def _check_rank(self, other):
        if len(other.coords) != len(self.coords):
            raise ValueError(
                "weights of ranks %d and %d do not combine" % (self.rank, other.rank)
            )

    def __add__(self, other):
        self._check_rank(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check_rank(other)
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
        # (n + 1) times the height of each fundamental weight
        self.scaled_heights = tuple(sum(row) for row in self._cinv)
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
        return sum(c * h for c, h in zip(w.coords, self.scaled_heights))

    def pairing_htheta(self, w: Weight):
        """w(h_theta); for type A this is the sum of fundamental coordinates."""
        return sum(w.coords)

    def w0(self, w: Weight) -> Weight:
        """Action of the longest Weyl group element: w0(w) = -flip(w)."""
        return Weight(tuple(-c for c in reversed(w.coords)))

    def dominance_leq(self, mu: Weight, lam: Weight) -> bool:
        """mu <= lam iff lam - mu is a nonnegative integer root combination."""
        return all(k >= 0 and k % self._scale == 0 for k in self._scaled_coords(lam - mu))

    def character(self, lam):
        """The character of V(lam), lam a dominant weight given as its int
        tuple of fundamental coordinates, as {int tuple of fundamental
        coordinates: multiplicity}, by Freudenthal's formula in ints.

        Each weight mu of the box [w0(lam), lam] is indexed by its drop d,
        the simple-root coordinates of lam - mu, so the alpha-string mu + k
        alpha (alpha of root coordinates rc) stays below lam exactly while
        d - k rc >= 0.  With beta = lam - mu, the Freudenthal denominator is
        |lam + rho|^2 - |mu + rho|^2 = 2 (lam + rho, beta) - (beta, beta).
        Coordinates and dominant representatives are computed once per call,
        and nothing outlives it."""
        n = self.rank
        if len(lam) != n or not all(type(c) is int and c >= 0 for c in lam):
            raise ValueError("V(lam) needs a dominant weight of rank %d: %r" % (n, lam))
        # lam - w0(lam) = lam + flip(lam), in simple-root coordinates
        scaled = [
            sum(c * (a + b) for c, a, b in zip(row, lam, reversed(lam))) for row in self._cinv
        ]
        if any(k % self._scale for k in scaled):
            raise AssertionError("lam - w0(lam) is not in the root lattice")
        sizes = [k // self._scale + 1 for k in scaled]
        # the flat index of a drop, in itertools.product order
        strides = [1] * n
        for i in range(n - 2, -1, -1):
            strides[i] = strides[i + 1] * sizes[i + 1]
        drops = list(itertools.product(*map(range, sizes)))
        weights = [
            tuple(c - sum(a * k for a, k in zip(row, drop)) for c, row in zip(lam, self.cartan))
            for drop in drops
        ]
        dominant = [_dominant(mu) for mu in weights]
        # (root support, flat index step) of each positive root
        roots = []
        for rc in self.positive_roots:
            support = [i for i, x in enumerate(rc) if x]
            roots.append((support, sum(strides[i] for i in support)))
        lam_rho = [c + 1 for c in lam]
        mults = {}
        # the dominant weights by height, highest first: the drop sum grows
        for idx in sorted(
            (idx for idx, mu in enumerate(weights) if min(mu) >= 0),
            key=lambda idx: sum(drops[idx]),
        ):
            mu, drop = weights[idx], drops[idx]
            if not idx:
                mults[mu] = 1
                continue
            num = 0
            for support, step in roots:
                # (mu + k alpha, alpha) = (mu, alpha) + 2k
                pair = sum(mu[i] for i in support)
                for k in range(1, min(drop[i] for i in support) + 1):
                    m = mults.get(dominant[idx - k * step])
                    if m:
                        num += m * (pair + 2 * k)
            beta_sq = sum(
                d * sum(a * e for a, e in zip(row, drop)) for d, row in zip(drop, self.cartan)
            )
            den = 2 * sum(d * c for d, c in zip(drop, lam_rho)) - beta_sq
            val, rem = divmod(2 * num, den)
            if rem or val < 0:
                raise AssertionError("Freudenthal multiplicity is not a nonnegative integer")
            mults[mu] = val
        out = {}
        for mu, top in zip(weights, dominant):
            m = mults.get(top)
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


def _dominant(mu):
    """The dominant weight in the Weyl group orbit of mu (fundamental
    coordinates): in type A_n the group permutes the n + 1 coordinates
    e_k = mu_k + ... + mu_n (e_{n+1} = 0), and the dominant one lists them
    in decreasing order."""
    e = sorted(itertools.accumulate(reversed(mu), initial=0), reverse=True)
    return tuple(a - b for a, b in zip(e, e[1:]))
