"""The equivariant tangent blocks of P^n at sampled weights.

The blocks live in ``tests/tangent_blocks.py`` as plain (alpha, x)
polynomials over Fraction; acceptance criterion 9 checks the same
identities at n = 4.
"""

from fractions import Fraction as Rat

import pytest

from concavex.localization import WeightSample
from tangent_blocks import (
    ONE,
    X,
    EquivariantRestrictions,
    Poly,
    linking_product,
    tangent_block_restrictions,
)

SAMPLES = [
    WeightSample((Rat(0), Rat(1), Rat(3), Rat(9)), seed=-1),
    WeightSample((Rat(2), Rat(-3), Rat(5), Rat(-7)), seed=-1),
]


@pytest.mark.parametrize("sample", SAMPLES, ids=["geometric", "mixed"])
def test_tangent_degree_zero_product_identity(sample):
    n = len(sample.weights) - 1
    rest = tangent_block_restrictions(n, 0, sample)
    for j, b in enumerate(rest.blocks):
        prod = ONE
        for lam_i in sample.weights:
            prod = prod * (X + Poly({(0, 0): sample.weights[j] - lam_i}))
        assert X * b == prod


@pytest.mark.parametrize("sample", SAMPLES, ids=["geometric", "mixed"])
def test_degree_zero_integral_is_euler_characteristic(sample):
    n = len(sample.weights) - 1
    total = tangent_block_restrictions(n, 0, sample).integrate()
    assert total.substitute(1, 0).terms == {(0, 0): n + 1}


@pytest.mark.parametrize("sample", SAMPLES, ids=["geometric", "mixed"])
@pytest.mark.parametrize("d", [1, 2])
def test_linking_matches_specialized_restriction(sample, d):
    n = len(sample.weights) - 1
    rest = tangent_block_restrictions(n, d, sample)
    for j in range(n + 1):
        for l in range(n + 1):
            if j == l:
                continue
            w = Rat(sample.weights[j] - sample.weights[l], d)
            left = rest.blocks[j].substitute(0, w) * X
            assert left == linking_product(n, d, j, l, sample)


def test_residue_sum_vanishes():
    # the fixed-point sum of the constant class 1 is zero whenever n >= 1
    for sample in SAMPLES:
        n = len(sample.weights) - 1
        ones = tuple(ONE for _ in range(n + 1))
        assert EquivariantRestrictions(sample, ones).integrate() == Poly({})


def test_equivariant_error_paths():
    sample = SAMPLES[0]
    with pytest.raises(ValueError):
        tangent_block_restrictions(3, -1, sample)
    with pytest.raises(ValueError):
        linking_product(3, 1, 2, 2, sample)
    with pytest.raises(ValueError):
        linking_product(3, 0, 0, 1, sample)

