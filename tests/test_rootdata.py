"""Type A root data: Cartan data, weight combinatorics, Freudenthal, Weyl dim."""

import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emapalg.fields import rational
from emapalg.rootdata import DiagramSymmetry, RootDatum, Weight, _pair

from helpers import freudenthal_mults

_coords = st.integers(min_value=0, max_value=3)



def _inner(rd, v, w):
    """Invariant form with (alpha, alpha) = 2 on all roots."""
    return rational(_pair(v, rd._scaled_coords(w)), rd._scale)

def _wdim_a(rank, coords):
    """Weyl dimension for A_rank from the hook-style product, written
    independently of the RootDatum implementation."""
    a = list(coords)
    num = 1
    den = 1
    for i in range(rank):
        for j in range(i, rank):
            num *= sum(a[i : j + 1]) + (j - i + 1)
            den *= j - i + 1
    return num // den


def test_cartan_matrices():
    assert [list(r) for r in RootDatum(1).cartan] == [[2]]
    assert [list(r) for r in RootDatum(2).cartan] == [[2, -1], [-1, 2]]
    a3 = RootDatum(3).cartan
    assert list(a3[0]) == [2, -1, 0] and list(a3[1]) == [-1, 2, -1]


def test_cartan_inverse():
    for rank in (1, 2, 3):
        rd = RootDatum(rank)
        for i in range(rank):
            for j in range(rank):
                entry = sum(rd.cartan[i][k] * rd.cartan_inverse[k][j] for k in range(rank))
                assert entry == (1 if i == j else 0)


def test_positive_roots_count_and_theta():
    for rank in (1, 2, 3):
        rd = RootDatum(rank)
        assert len(rd.positive_roots) == rank * (rank + 1) // 2
        # theta is the all-ones root vector
        assert rd.theta == Weight(rd._root_to_fundamental((1,) * rank))


def test_height_and_rho():
    rd = RootDatum(2)
    assert rd.height(rd.theta) == 2
    lam = Weight((1, 1))
    assert rd.height(lam - rd.w0(lam)) == 4


def test_w0_is_negative_flip():
    rd = RootDatum(2)
    assert rd.w0(Weight((2, 1))) == Weight((-1, -2))
    rd1 = RootDatum(1)
    assert rd1.w0(Weight((3,))) == Weight((-3,))


def test_pairing_htheta():
    rd = RootDatum(2)
    # <lam, h_theta> = sum of fundamental coordinates in type A
    assert rd.pairing_htheta(Weight((2, 1))) == 3


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.tuples(_coords, _coords, _coords))
def test_weyl_dim_formula(rank, coords):
    rd = RootDatum(rank)
    lam = Weight(coords[:rank])
    assert rd.weyl_dim(lam) == _wdim_a(rank, coords[:rank])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.tuples(_coords, _coords, _coords))
def test_freudenthal_sums_to_weyl_dim(rank, coords):
    rd = RootDatum(rank)
    lam = Weight(coords[:rank])
    mults = freudenthal_mults(rd, lam)
    assert sum(mults.values()) == rd.weyl_dim(lam)
    assert mults[lam] == 1


class _RationalReference:
    """The root-lattice formulas of RootDatum on Fractions, through the
    closed-form Cartan inverse (C^-1)_ij = min(i, j)(n + 1 - max(i, j)) / (n + 1);
    the int parts (roots, rho, w0) are read off rd.  The interval is listed
    weight by weight and the dominant representative is found by simple
    reflections, independently of RootDatum.character."""

    def __init__(self, rd):
        n = rd.rank
        self.rd = rd
        self.cinv = [
            [Fraction((min(i, j) + 1) * (n - max(i, j)), n + 1) for j in range(n)]
            for i in range(n)
        ]
        self.roots = [Weight(rd._root_to_fundamental(rc)) for rc in rd.positive_roots]

    def root_coords(self, w):
        return tuple(sum((x * c for x, c in zip(row, w.coords)), Fraction(0)) for row in self.cinv)

    def height(self, w):
        return sum(self.root_coords(w), Fraction(0))

    def inner(self, v, w):
        return sum((c * k for c, k in zip(v.coords, self.root_coords(w))), Fraction(0))

    def dominance_leq(self, mu, lam):
        return all(k >= 0 and k.denominator == 1 for k in self.root_coords(lam - mu))

    def weight_interval(self, lam):
        rd = self.rd
        box = [range(int(k) + 1) for k in self.root_coords(lam - rd.w0(lam))]
        out = set()
        for drops in itertools.product(*box):
            mu = lam
            for c, alpha in zip(drops, rd.simple_roots):
                mu = mu - Weight(tuple(c * x for x in alpha.coords))
            out.add(mu)
        return out

    def dominant_representative(self, w):
        coords = list(w.coords)
        while True:
            i = next((k for k, c in enumerate(coords) if c < 0), None)
            if i is None:
                return Weight(tuple(coords))
            # simple reflection s_i
            ci = coords[i]
            for j in range(self.rd.rank):
                coords[j] -= ci * self.rd.cartan[i][j]

    def freudenthal_mults(self, lam):
        rd = self.rd
        interval = self.weight_interval(lam)
        dominants = sorted((mu for mu in interval if mu.is_dominant()), key=self.height, reverse=True)
        norm = lambda w: self.inner(w + rd.rho, w + rd.rho)  # noqa: E731
        mults = {}
        for mu in dominants:
            num = Fraction(0)
            for alpha in self.roots:
                nu = mu + alpha
                while self.dominance_leq(nu, lam):
                    rep = self.dominant_representative(nu)
                    num += 2 * mults.get(rep, 0) * self.inner(nu, alpha)
                    nu = nu + alpha
            mults[mu] = Fraction(1) if mu == lam else num / (norm(lam) - norm(mu))
        out = {mu: mults.get(self.dominant_representative(mu), 0) for mu in interval}
        return {mu: m for mu, m in out.items() if m}

    def weyl_dim(self, lam):
        num = den = Fraction(1)
        for alpha in self.roots:
            num *= self.inner(lam + self.rd.rho, alpha)
            den *= self.inner(self.rd.rho, alpha)
        return num / den


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.tuples(_coords, _coords, _coords, _coords),
    st.tuples(*[st.integers(min_value=-3, max_value=3)] * 4),
)
def test_integer_root_datum_matches_a_rational_reference(rank, coords, other):
    rd = RootDatum(rank)
    ref = _RationalReference(rd)
    lam, v = Weight(coords[:rank]), Weight(other[:rank])
    for w in (lam, v, lam - v, rd.w0(v)):
        assert rd.root_coords(w) == ref.root_coords(w)
        assert rd.height(w) == ref.height(w)
        assert _inner(rd, v, w) == ref.inner(v, w) and _inner(rd, w, lam) == ref.inner(w, lam)
        assert rd.dominance_leq(w, lam) == ref.dominance_leq(w, lam)
        assert rd.dominance_leq(lam, w) == ref.dominance_leq(lam, w)
    interval = ref.weight_interval(lam)
    for mu in sorted(interval, key=lambda w: w.coords)[:40]:
        assert rd.dominance_leq(mu, v) == ref.dominance_leq(mu, v)
    mults = freudenthal_mults(rd, lam)
    assert set(mults) <= interval
    assert mults == ref.freudenthal_mults(lam)
    assert all(type(m) is int for m in mults.values())
    dim = rd.weyl_dim(lam)
    assert type(dim) is int and dim == ref.weyl_dim(lam) == sum(mults.values())


def test_freudenthal_adjoint():
    rd = RootDatum(2)
    mults = freudenthal_mults(rd, Weight((1, 1)))
    assert sum(mults.values()) == 8
    assert mults[Weight((0, 0))] == 2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_int_character_matches_the_reference_and_is_reflection_invariant(data):
    # A1-A3: the int-keyed character is the rational reference's Freudenthal
    # character key for key, sums to the Weyl dimension, and is invariant
    # under each simple reflection s_i(mu) = mu - mu_i alpha_i, written here
    # from the Cartan matrix of A_n alone
    rank = data.draw(st.integers(min_value=1, max_value=3), label="rank")
    top = {1: 8, 2: 4, 3: 2}[rank]
    lam = data.draw(st.tuples(*[st.integers(min_value=0, max_value=top)] * rank), label="lam")
    rd = RootDatum(rank)
    char = rd.character(lam)
    assert all(type(c) is int for mu in char for c in mu)
    assert all(type(m) is int and m > 0 for m in char.values())
    ref = _RationalReference(rd).freudenthal_mults(Weight(lam))
    assert char == {mu.coords: m for mu, m in ref.items()}
    assert char[lam] == 1
    assert sum(char.values()) == rd.weyl_dim(Weight(lam)) == _wdim_a(rank, lam)
    for i in range(rank):
        alpha = [2 if j == i else -1 if abs(j - i) == 1 else 0 for j in range(rank)]
        for mu, m in char.items():
            assert char.get(tuple(c - mu[i] * a for c, a in zip(mu, alpha))) == m


@pytest.mark.parametrize("lam", [(-1,), (1, -1), (1,), (1, 0, 0, 0)])
def test_character_refuses_a_weight_that_is_not_dominant_of_its_rank(lam):
    with pytest.raises(ValueError, match="dominant weight of rank 3"):
        RootDatum(3).character(lam)


def test_weight_interval_a2():
    ref = _RationalReference(RootDatum(2))
    # dominance interval [w0 lam, lam] for the adjoint weight
    interval = ref.weight_interval(Weight((1, 1)))
    assert len(interval) == 9


def test_weight_interval_contains_freudenthal_support():
    rd = RootDatum(2)
    lam = Weight((2, 1))
    interval = set(_RationalReference(rd).weight_interval(lam))
    for mu in freudenthal_mults(rd, lam):
        assert mu in interval


def test_dominance():
    rd = RootDatum(2)
    lam = Weight((1, 1))
    assert rd.dominance_leq(Weight((0, 0)), lam)
    assert not rd.dominance_leq(Weight((2, 0)), Weight((0, 0)))


def test_dominant_representative():
    ref = _RationalReference(RootDatum(2))
    for w in (Weight((-1, 2)), Weight((3, -2)), Weight((0, 0))):
        d = ref.dominant_representative(w)
        assert d.is_dominant()
    assert ref.dominant_representative(Weight((1, 1))) == Weight((1, 1))


def test_inner_normalization():
    rd = RootDatum(2)
    alpha = Weight(rd._root_to_fundamental((1, 0)))
    assert _inner(rd, alpha, alpha) == Fraction(2)


def test_diagram_symmetry():
    tau = DiagramSymmetry.flip(2)
    assert tau(Weight((1, 0))) == Weight((0, 1))
    assert tau.compose(tau) == DiagramSymmetry.identity(2)
    assert DiagramSymmetry.identity(3)(Weight((1, 2, 3))) == Weight((1, 2, 3))


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 2.7, 2.0, True, "1", None])
def test_weight_refuses_a_coordinate_that_is_not_an_int(bad):
    with pytest.raises(ValueError, match="is not an int"):
        Weight((1, bad))


def test_weight_arithmetic_refuses_another_rank():
    two, one = Weight((1, 2)), Weight((1,))
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError, match="ranks 2 and 1"):
            op(two, one)
        with pytest.raises(ValueError, match="ranks 1 and 2"):
            op(one, two)
    assert two + Weight((0, 1)) == Weight((1, 3)) and two - two == Weight((0, 0))


def test_bad_rank():
    with pytest.raises(ValueError):
        RootDatum(0)
