"""Type A root data: Cartan data, weight combinatorics, Freudenthal, Weyl dim."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emapalg.rootdata import DiagramSymmetry, RootDatum, Weight

_coords = st.integers(min_value=0, max_value=3)


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
@given(st.sampled_from([1, 2]), st.tuples(_coords, _coords))
def test_freudenthal_sums_to_weyl_dim(rank, coords):
    rd = RootDatum(rank)
    lam = Weight(coords[:rank])
    mults = rd.freudenthal_mults(lam)
    assert sum(mults.values()) == rd.weyl_dim(lam)
    assert mults[lam] == 1


def test_freudenthal_adjoint():
    rd = RootDatum(2)
    mults = rd.freudenthal_mults(Weight((1, 1)))
    assert sum(mults.values()) == 8
    assert mults[Weight((0, 0))] == 2


def test_weight_interval_a2():
    rd = RootDatum(2)
    # dominance interval [w0 lam, lam] for the adjoint weight
    interval = rd.weight_interval(Weight((1, 1)))
    assert len(interval) == 9


def test_weight_interval_contains_freudenthal_support():
    rd = RootDatum(2)
    lam = Weight((2, 1))
    interval = set(rd.weight_interval(lam))
    for mu in rd.freudenthal_mults(lam):
        assert mu in interval


def test_dominance():
    rd = RootDatum(2)
    lam = Weight((1, 1))
    assert rd.dominance_leq(Weight((0, 0)), lam)
    assert not rd.dominance_leq(Weight((2, 0)), Weight((0, 0)))


def test_dominant_representative():
    rd = RootDatum(2)
    for w in (Weight((-1, 2)), Weight((3, -2)), Weight((0, 0))):
        d = rd.dominant_representative(w)
        assert d.is_dominant()
    assert rd.dominant_representative(Weight((1, 1))) == Weight((1, 1))


def test_inner_normalization():
    rd = RootDatum(2)
    alpha = Weight(rd._root_to_fundamental((1, 0)))
    assert rd.inner(alpha, alpha) == Fraction(2)


def test_diagram_symmetry():
    tau = DiagramSymmetry.flip(2)
    assert tau(Weight((1, 0))) == Weight((0, 1))
    assert tau.compose(tau).is_identity
    assert DiagramSymmetry.identity(3)(Weight((1, 2, 3))) == Weight((1, 2, 3))


def test_bad_rank():
    with pytest.raises(ValueError):
        RootDatum(0)
