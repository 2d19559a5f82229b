"""Truncated multi-degree series over Laurent blocks and over rationals."""

import math
from fractions import Fraction as Rat

import pytest
from hypothesis import given, settings, strategies as st

from concavex.cohomology import monomial
from concavex.laurent import alpha_power, block_one, block_scalar, from_class
from concavex.qseries import (
    QSeries,
    degree_total,
    degrees_upto,
    qseries_one,
    scalar_exp,
    series_exp,
    series_inverse,
)

DIMS = (1,)


def test_degree_enumeration_order():
    ds = degrees_upto(2, 2)
    assert ds[0] == (0, 0)
    assert ds.index((0, 1)) < ds.index((1, 0)) < ds.index((0, 2))
    assert all(degree_total(d) <= 2 for d in ds)


def _series(coeffs: dict, bound=4) -> QSeries:
    s = QSeries(1, bound, DIMS)
    for d, c in coeffs.items():
        s.set(d, block_scalar(DIMS, c))
    return s


def test_exp_inverse_roundtrip():
    s = _series({(1,): Rat(3), (2,): Rat(-1, 2)})
    e = series_exp(s)
    n = _series({(1,): Rat(-3), (2,): Rat(1, 2)})
    assert e * series_exp(n) == qseries_one(1, 4, DIMS)
    inv = series_inverse(e)
    assert e * inv == qseries_one(1, 4, DIMS)


def test_exp_requires_no_constant_term():
    with pytest.raises(ValueError):
        series_exp(qseries_one(1, 3, DIMS))
    with pytest.raises(ValueError):
        series_inverse(_series({(1,): Rat(1)}))


def test_block_coefficients_flow_through_products():
    s = QSeries(1, 2, DIMS)
    s.set((1,), alpha_power(DIMS, -1))
    sq = s * s
    assert sq.coefficient((2,)) == alpha_power(DIMS, -2)
    assert sq.coefficient((1,)).is_zero()


def scalar_series():
    return st.dictionaries(
        st.tuples(st.integers(min_value=1, max_value=3)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=3,
    )


@settings(max_examples=50)
@given(scalar_series())
def test_scalar_exp_matches_block_exp(coeffs):
    bound = 4
    blocks = QSeries(1, bound, DIMS)
    for d, c in coeffs.items():
        if c:
            blocks.set(d, block_scalar(DIMS, c))
    be = series_exp(blocks)
    se = scalar_exp({d: Rat(c) for d, c in coeffs.items() if c}, 1, bound)
    for d in degrees_upto(1, bound):
        assert be.coefficient(d) == block_scalar(DIMS, se.get(d, Rat(0)))



def _power_chain_exp(s: QSeries) -> QSeries:
    """exp(s) as sum_k s^k / k!, the powers multiplied out."""
    out = qseries_one(s.m, s.bound, s.dims)
    power = qseries_one(s.m, s.bound, s.dims)
    for k in range(1, s.bound + 1):
        power = power * s
        for d, b in power.coeffs.items():
            out.set(d, out.coefficient(d) + b.scale(Rat(1, math.factorial(k))))
    return out


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([((1,), 1), ((1, 2), 2)]),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.integers(1, 6),
)
def test_series_exp_matches_the_power_chain(shape, numerators, den):
    dims, m = shape
    bound = 3
    s = QSeries(m, bound, dims)
    h = tuple(1 if i == m - 1 else 0 for i in range(m))
    degrees = degrees_upto(m, bound)[1:]
    for k, (d, c) in enumerate(zip(degrees, numerators)):
        # alternate x/alpha-like scalars with hyperplane classes over alpha
        blk = alpha_power(dims, -1) * block_scalar(dims, Rat(c, den))
        if k % 2:
            blk = blk * from_class(monomial(dims, h))
        s.set(d, blk)
    assert series_exp(s) == _power_chain_exp(s)
