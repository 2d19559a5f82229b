"""Arithmetic in the cohomology ring of a product of projective spaces."""

import itertools
from fractions import Fraction as Rat

import pytest
from hypothesis import given, strategies as st

from concavex.cohomology import (
    CohClass,
    _ring,
    hyperplane,
    linear,
    monomial,
    one,
    scalar,
    zero,
)

DIMS = (2, 1)


def classes(dims=DIMS):
    box = 1
    for n in dims:
        box *= n + 1
    return st.lists(
        st.integers(min_value=-9, max_value=9), min_size=box, max_size=box
    ).map(lambda cs: CohClass(dims, tuple(Rat(c) for c in cs)))


def test_truncation():
    h1 = hyperplane(DIMS, 0)
    h2 = hyperplane(DIMS, 1)
    assert (h1**3).is_zero()
    assert (h2**2).is_zero()
    assert not (h1**2 * h2).is_zero()


def test_integrate_normalizes_top_cell():
    top = monomial(DIMS, (2, 1), Rat(7))
    assert top.integrate() == 7
    assert hyperplane(DIMS, 0).integrate() == 0
    assert one(DIMS).integrate() == 0


def test_scalar_ring_over_empty_product():
    a = scalar((), Rat(3, 2))
    assert (a * a).coefficient(()) == Rat(9, 4)
    assert a.integrate() == Rat(3, 2)


def test_linear_combination():
    c = linear(DIMS, [2, -3])
    assert c.coefficient((1, 0)) == 2
    assert c.coefficient((0, 1)) == -3
    assert c.coefficient((0, 0)) == 0


def test_an_exponent_tuple_of_another_length_reads_zero():
    # zipped against dims, a short tuple would read another slot, a long one its head's
    c = monomial((1, 1), (1, 1), 3)
    assert c.coefficient((1, 1)) == 3
    assert c.coefficient((1, 1, 7)) == 0
    assert c.coefficient((1,)) == 0
    assert monomial((1, 1), (1, 0), 3).coefficient((1,)) == 0
    assert scalar((), 2).coefficient((0,)) == 0


def test_the_constructors_refuse_a_shape_the_ring_does_not_have():
    # zipped against dims, a short tuple built H1 alone and a long one dropped its tail
    for exps in [(1,), (1, 1, 7), ()]:
        with pytest.raises(ValueError, match="exponents in the ring of"):
            monomial((1, 1), exps, 3)
    for i in [2, 5, -1]:
        with pytest.raises(ValueError, match=f"no factor {i} in the ring of"):
            hyperplane((1, 1), i)
    with pytest.raises(ValueError, match="no factor 2"):
        linear((1, 1), [1, 2, 3])
    # an exponent outside 0 .. n_i is still the zero class, not an error
    assert monomial((1, 1), (2, 0), 3) == zero((1, 1))
    assert monomial((1, 1), (0, -1), 3) == zero((1, 1))
    assert linear((1, 1), [1, 2]) == monomial((1, 1), (1, 0)) + monomial((1, 1), (0, 1), 2)


@given(classes(), classes(), classes())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (-a) == zero(DIMS)


@given(classes())
def test_one_is_identity(a):
    assert a * one(DIMS) == a


@given(classes(), st.integers(min_value=-5, max_value=5))
def test_scaling_matches_scalar_multiplication(a, k):
    assert a.scale(k) == a * scalar(DIMS, k)


def test_mismatched_dims_rejected():
    with pytest.raises(ValueError):
        one((1,)) * one((2,))


@pytest.mark.parametrize("dims", [(), (1,), (4,), (7,), (2, 2), (1, 1, 1, 1), (2, 2, 1)])
def test_the_ring_record_numbers_the_box_in_c_order(dims):
    """Every field of _ring, rebuilt here from the exponents alone."""
    box = list(itertools.product(*(range(n + 1) for n in dims)))
    slot = {h: i for i, h in enumerate(box)}
    pairs = [
        [slot[s] if (s := tuple(u + v for u, v in zip(h, e))) in slot else -1 for e in box]
        for h in box
    ]
    partners = [[k for k, p in enumerate(row) if p != -1] for row in pairs]
    ring = _ring(dims)
    assert list(ring.box) == box and ring.slot == slot
    assert list(ring.weight) == [sum(h) for h in box]
    assert [list(row) for row in ring.pairs] == pairs
    assert [list(row) for row in ring.partners] == partners
    assert _ring(dims) is ring  # built once per dims
    # C order, last axis fastest, makes the slot linear in the exponents:
    # the kernel adds slots where it multiplies monomials
    for i, j in itertools.product(range(len(box)), repeat=2):
        if pairs[i][j] != -1:
            assert pairs[i][j] == i + j
