"""Laurent blocks: strata bookkeeping, exact inverses, the Kahler factor."""

from fractions import Fraction as Rat

import pytest
from hypothesis import given, strategies as st

from concavex.cohomology import hyperplane, monomial, one, scalar
from concavex.laurent import (
    LaurentBlock,
    _invert_x_factor,
    alpha_power,
    block_one,
    block_scalar,
    from_class,
    invert_linear_factor,
    kahler_factor,
    variable_x,
)

P1 = (1,)
P2 = (2,)


def test_invert_linear_factor_back_multiplies_to_one():
    for dims in (P1, P2, (2, 1)):
        for i in range(len(dims)):
            for k in (1, 2, -3):
                h = hyperplane(dims, i)
                factor = from_class(h) - alpha_power(dims, 1).scale(k)
                assert factor * invert_linear_factor(h, k) == block_one(dims)
            x_plus_h = variable_x(dims) + from_class(h)
            assert x_plus_h * _invert_x_factor(h) == block_one(dims)


def test_invert_linear_factor_known_expansion():
    # (H - alpha)^{-1} on the line: -1/alpha - H/alpha^2
    inv = invert_linear_factor(hyperplane(P1, 0), 1)
    want = LaurentBlock(P1)
    want._put((-1, 0, (0,)), scalar(P1, -1))
    want._put((-2, 0, (0,)), hyperplane(P1, 0).scale(-1))
    assert inv == want


def test_invert_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        invert_linear_factor(one(P1), 1)
    with pytest.raises(ZeroDivisionError):
        invert_linear_factor(hyperplane(P1, 0), 0)


def test_kahler_factor_on_the_line():
    eht = kahler_factor(P1)
    assert eht.coefficient((0, 0, (0,))) == one(P1)
    assert eht.coefficient((-1, 0, (1,))) == hyperplane(P1, 0).scale(-1)
    assert eht.t_degree() == 1


def test_kahler_factor_two_factors_cross_term():
    eht = kahler_factor((1, 1))
    c = eht.coefficient((-2, 0, (1, 1)))
    assert c == monomial((1, 1), (1, 1), Rat(1))


def test_alpha_strata_partition():
    b = kahler_factor(P2)
    total = LaurentBlock(P2)
    lo, hi = b.alpha_support()
    for a in range(lo, hi + 1):
        total = total + b.alpha_stratum(a)
    assert total == b


def test_substitute_x_and_drop_x():
    b = variable_x(P1, 2) + block_one(P1)
    assert b.substitute_x(3) == block_scalar(P1, 10)
    pole = variable_x(P1, -1)
    with pytest.raises(ValueError):
        pole.substitute_x(0)


def test_substitute_alpha_with_poles():
    b = alpha_power(P1, -2).scale(4) + block_one(P1)
    assert b.substitute_alpha(2) == block_scalar(P1, 2)
    with pytest.raises(ZeroDivisionError):
        b.substitute_alpha(0)


def test_integrate_fibrewise_keeps_strata():
    b = from_class(monomial(P2, (2,), Rat(5))) * alpha_power(P2, -3)
    out = b.integrate_fibrewise()
    assert out.dims == ()
    # the t-tuple keeps the arity of the original factor count
    assert out.coefficient((-3, 0, (0,))) == scalar((), 5)


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
def test_alpha_powers_multiply(a, b):
    assert alpha_power(P1, a) * alpha_power(P1, b) == alpha_power(P1, a + b)


@given(st.integers(min_value=0, max_value=3))
def test_power_matches_repeated_product(k):
    b = variable_x(P1) + from_class(hyperplane(P1, 0)) - alpha_power(P1, 1)
    expect = block_one(P1)
    for _ in range(k):
        expect = expect * b
    assert b**k == expect
