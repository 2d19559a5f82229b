"""Truncated multi-degree series over Laurent blocks and over rationals."""

import math
from fractions import Fraction as Rat

import pytest
from hypothesis import given, settings, strategies as st

from concavex.laurent import LaurentBlock, block_one, block_scalar
from concavex.qseries import (
    degree_pairs,
    degrees_upto,
    egf_exp,
    egf_mul,
    egf_numerators,
    series_exp,
    series_inverse,
    series_mul,
)
from fraction_series import fraction_exp, fraction_mul

DIMS = (1,)


def _alpha(dims, k):
    """alpha^k."""
    return LaurentBlock(dims, {(k, 0, (0,) * len(dims)): 1})


def test_degree_enumeration_order():
    ds = degrees_upto(2, 2)
    assert ds[0] == (0, 0)
    assert ds.index((0, 1)) < ds.index((1, 0)) < ds.index((0, 2))
    assert all(sum(d) <= 2 for d in ds)


def _compositions(m, total):
    """The degrees of one total degree in lex order, first axis outermost."""
    if m == 0:
        return [()] if total == 0 else []
    return [(k,) + rest for k in range(total + 1) for rest in _compositions(m - 1, total - k)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_degree_enumeration_matches_the_compositions_by_total(m):
    for bound in range(6):
        want = [d for total in range(bound + 1) for d in _compositions(m, total)]
        assert degrees_upto(m, bound) == want


@pytest.mark.parametrize("m", range(5))
def test_degree_pairs_lists_every_split_of_every_degree(m):
    for bound in range(7):
        degrees = degrees_upto(m, bound)
        table = degree_pairs(m, bound)
        assert list(table) == degrees
        for d, splits in table.items():
            # every d' <= d componentwise, by brute force over all degrees
            want = [
                (dp, tuple(a - b for a, b in zip(d, dp)))
                for dp in degrees
                if all(b <= a for a, b in zip(d, dp))
            ]
            assert splits == want


def test_the_empty_product_has_only_the_zero_degree():
    assert degrees_upto(0, 3) == [()]
    unit = {(): block_one(())}
    pairs = degree_pairs(0, 2)
    assert series_exp((), {}, pairs) == unit
    assert series_inverse((), unit, pairs) == unit


def _series(coeffs: dict) -> dict:
    return {d: block_scalar(DIMS, c) for d, c in coeffs.items()}


def _nonzero(s: dict) -> dict:
    return {d: b for d, b in s.items() if not b.is_zero()}


def test_exp_inverse_roundtrip():
    one = {(0,): block_one(DIMS)}
    pairs = degree_pairs(1, 4)
    e = series_exp(DIMS, _series({(1,): Rat(3), (2,): Rat(-1, 2)}), pairs)
    assert set(e) == set(degrees_upto(1, 4))
    minus = series_exp(DIMS, _series({(1,): Rat(-3), (2,): Rat(1, 2)}), pairs)
    assert _nonzero(series_mul(DIMS, e, minus, pairs)) == one
    inv = series_inverse(DIMS, e, pairs)
    assert set(inv) == set(degrees_upto(1, 4))
    assert _nonzero(series_mul(DIMS, e, inv, pairs)) == one


def test_exp_requires_no_constant_term():
    pairs = degree_pairs(1, 3)
    with pytest.raises(ValueError):
        series_exp(DIMS, {(0,): block_one(DIMS)}, pairs)
    with pytest.raises(ValueError):
        series_inverse(DIMS, _series({(1,): Rat(1)}), pairs)


def test_block_coefficients_flow_through_products():
    s = {(1,): _alpha(DIMS, -1)}
    sq = series_mul(DIMS, s, s, degree_pairs(1, 2))
    assert sq == {(2,): _alpha(DIMS, -2)}


def test_series_mul_truncates_at_the_bound():
    dims = (1, 1)
    a = {(0, 0): block_one(dims), (1, 0): _alpha(dims, -1), (0, 2): block_scalar(dims, 3)}
    b = {(0, 1): block_scalar(dims, 2), (2, 0): _alpha(dims, -2)}
    got = series_mul(dims, a, b, degree_pairs(2, 2))
    # (1, 0) + (2, 0), (0, 2) + (0, 1) and (0, 2) + (2, 0) exceed the bound
    assert got == {
        (0, 1): block_scalar(dims, 2),
        (2, 0): _alpha(dims, -2),
        (1, 1): _alpha(dims, -1) * block_scalar(dims, 2),
    }
    assert series_mul(dims, a, b, degree_pairs(2, 0)) == {}
    assert set(series_mul(dims, a, b, degree_pairs(2, 4))) == {
        (0, 1), (2, 0), (1, 1), (3, 0), (0, 3), (2, 2)
    }


def _egf_values(s, scale):
    """The Fraction coefficients s_d / scale[|d|] of EGF numerators."""
    return {d: Rat(v, scale[sum(d)]) for d, v in s.items()}


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.data())
def test_scalar_exp_matches_block_exp(m, data):
    """The block exp, the scalar exp and the power chain agree on one table."""
    dims = (1,) * m
    bound = 4 if m < 3 else 3
    pairs = degree_pairs(m, bound)
    coeffs = data.draw(
        st.dictionaries(
            st.sampled_from(list(pairs)[1:]),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            max_size=3,
        )
    )
    kept = {d: c for d, c in coeffs.items() if c}
    be = series_exp(dims, {d: block_scalar(dims, c) for d, c in kept.items()}, pairs)
    (egf,), scale = egf_numerators((kept,), bound)
    se = _egf_values(egf_exp(egf, pairs), scale)
    want = fraction_exp(kept, m, bound)
    assert se == want
    for d in pairs:
        assert be[d] == block_scalar(dims, want.get(d, Rat(0)))


def _power_chain_exp(dims, s, bound):
    """exp(s) as sum_k s^k / k!, the powers multiplied out."""
    one = {(0,) * len(dims): block_one(dims)}
    pairs = degree_pairs(len(dims), bound)
    out, power = dict(one), one
    for k in range(1, bound + 1):
        power = series_mul(dims, power, s, pairs)
        for d, b in power.items():
            out[d] = out.get(d, block_scalar(dims, 0)) + b.scale(Rat(1, math.factorial(k)))
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
    s = {}
    h = tuple(1 if i == m - 1 else 0 for i in range(m))
    degrees = degrees_upto(m, bound)[1:]
    for k, (d, c) in enumerate(zip(degrees, numerators)):
        # alternate x/alpha with hyperplane classes over alpha, both of degree 0
        s[d] = LaurentBlock(dims, {(-1, 0, h) if k % 2 else (-1, 1, (0,) * m): Rat(c, den)})
    got = series_exp(dims, s, degree_pairs(m, bound))
    assert _nonzero(got) == _nonzero(_power_chain_exp(dims, s, bound))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_egf_product_and_exp_match_the_fraction_reference(m, data):
    bound = 4 if m < 3 else 3
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    degrees = st.sampled_from(degrees_upto(m, bound)[1:])
    a = data.draw(st.dictionaries(degrees, coeff, max_size=6))
    b = data.draw(st.dictionaries(degrees, coeff, max_size=6))
    (ea, eb), scale = egf_numerators((a, b), bound)
    delta = math.lcm(*(c.denominator for s in (a, b) for c in s.values() if c))
    assert scale == [delta**n * math.factorial(n) for n in range(bound + 1)]
    assert _egf_values(ea, scale) == {d: c for d, c in a.items() if c}
    # an integer constant term enters as itself, as 2 does in the matching series
    const = data.draw(st.integers(-3, 3))
    eb[(0,) * m] = const
    b[(0,) * m] = Rat(const)
    cut = data.draw(st.integers(0, bound))
    pairs = degree_pairs(m, bound)
    assert _egf_values(egf_mul(ea, eb, pairs, cut), scale) == fraction_mul(a, b, cut)
    assert _egf_values(egf_exp(ea, pairs), scale) == fraction_exp(a, m, bound)


def test_egf_numerators_and_exp_need_no_constant_term():
    with pytest.raises(ValueError):
        egf_numerators(({(0,): Rat(1, 2)},), 2)
    with pytest.raises(ValueError):
        egf_exp({(0, 0): 1}, degree_pairs(2, 2))
