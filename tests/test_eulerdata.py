"""Closed-form block construction, checked against hand expansions.

The quintic degree-1 anchor is recomputed here with a plain dict-based
bivariate convolution so the block arithmetic is not trusted to check
itself.
"""

import itertools
from fractions import Fraction as Rat

import pytest

from concavex import eulerdata
from concavex.cohomology import hyperplane, scalar
from concavex.eulerdata import (
    EquivariantRestrictions,
    _euler_inverse,
    _raise_degree,
    chern_ratio,
    hyper_block,
    linking_product,
    reduced_block,
    tangent_block_restrictions,
)
from concavex.geometry import first_chern, pairing, parse_spec
from concavex.laurent import (
    alpha_power,
    block_one,
    from_class,
    invert_linear_factor,
    variable_x,
)
from concavex.localization import WeightSample
from concavex.qseries import degrees_upto

QUINTIC = parse_spec("space 4\nbundle convex 5\n")
PAIR = parse_spec("space 1\nbundle concave 1\nbundle concave 1\n")
LOCAL_P2 = parse_spec("space 2\nbundle concave 3\n")
P3_QUARTIC = parse_spec("space 3\nbundle convex 4\n")
TWO_FACTOR = parse_spec(
    "space 1\nspace 1\nbundle convex 1 1\nbundle convex 1 1\n"
)

# the concave summand pairs to 0 with every degree (0, k)
ZERO_ENTRY = parse_spec(
    "name zero-entry\nspace 1\nspace 2\nbundle convex 1 3\nbundle concave 1 0\n"
)
SPECS = [QUINTIC, PAIR, LOCAL_P2, P3_QUARTIC, TWO_FACTOR, ZERO_ENTRY]


def _euler_factor(dims, d):
    """prod_i prod_{k=1}^{d_i} (H_i - k*alpha)^{n_i+1}, built from generators."""
    factor = block_one(dims)
    for i, n in enumerate(dims):
        for k in range(1, d[i] + 1):
            lin = from_class(hyperplane(dims, i)) - alpha_power(dims, 1).scale(k)
            factor = factor * lin ** (n + 1)
    return factor


def _shifted(spec, b, k):
    """x + c1(b) + k*alpha, built from generators."""
    dims = spec.factors
    return (
        variable_x(dims)
        + from_class(first_chern(spec, b))
        + alpha_power(dims, 1).scale(k)
    )


def test_chern_ratio_quintic_is_linear():
    x = variable_x((4,))
    h = from_class(hyperplane((4,), 0))
    assert chern_ratio(QUINTIC) == x + h.scale(5)


def test_chern_ratio_pair_expansion():
    b = chern_ratio(PAIR)
    h = hyperplane((1,), 0)
    assert b.coefficient((0, -2, (0,))) == scalar((1,), 1)
    assert b.coefficient((0, -3, (0,))) == h.scale(2)
    assert b.coefficient((0, -1, (0,))).is_zero()
    # multiplying back by (x - H)^2 recovers 1
    lin = variable_x((1,)) - from_class(h)
    assert b * lin * lin == block_one((1,))


def test_chern_ratio_local_p2_expansion():
    b = chern_ratio(LOCAL_P2)
    h = hyperplane((2,), 0)
    assert b.coefficient((0, -1, (0,))) == scalar((2,), 1)
    assert b.coefficient((0, -2, (0,))) == h.scale(3)
    assert b.coefficient((0, -3, (0,))) == (h * h).scale(9)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name or "two-factor")
def test_degree_zero_blocks(spec):
    z = (0,) * spec.m
    assert hyper_block(spec, z) == chern_ratio(spec)
    assert reduced_block(spec, z) == block_one(spec.factors)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name or "two-factor")
def test_normal_euler_inverse(spec):
    dims = spec.factors
    for d in degrees_upto(spec.m, 2):
        inverse = block_one(dims)
        for i, di in enumerate(d):
            for k in range(1, di + 1):
                inverse = inverse * _euler_inverse(dims, i, k)
        assert _euler_factor(dims, d) * inverse == block_one(dims)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name or "two-factor")
def test_each_block_is_built_once(monkeypatch, spec):
    built = []  # the degree of each block a step makes

    def counted(s, r, e, i, _real=_raise_degree):
        built.append(e[:i] + (e[i] + 1,) + e[i + 1:])
        return _real(s, r, e, i)

    monkeypatch.setattr(eulerdata, "_raise_degree", counted)
    top = (3,) * spec.m
    cold = reduced_block(spec, top)
    assert len(built) == 3 * spec.m  # one step per level, down to 1
    box = list(itertools.product(range(4), repeat=spec.m))
    for d in box:
        reduced_block(spec, d)
        hyper_block(spec, d)
    # every nonzero degree of the box is made by exactly one step
    assert sorted(built) == [d for d in sorted(box) if any(d)]
    assert reduced_block(spec, top) is cold
    assert chern_ratio(spec) is chern_ratio(spec)


@pytest.mark.parametrize("spec", [TWO_FACTOR, ZERO_ENTRY], ids=["two-factor", "zero-entry"])
def test_recurrence_is_path_independent(spec):
    via_01 = _raise_degree(spec, reduced_block(spec, (0, 1)), (0, 1), 0)
    via_10 = _raise_degree(spec, reduced_block(spec, (1, 0)), (1, 0), 1)
    assert via_01 == via_10 == reduced_block(spec, (1, 1))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name or "two-factor")
def test_reduced_times_ratio_is_hyper(spec):
    # Cleared of every denominator, each block is a plain product of the
    # shifted factors x + c1 - k*alpha (convex) and x + c1 + k*alpha
    # (concave); the three identities together give ratio * reduced = hyper.
    dims = spec.factors
    cleared_ratio = chern_ratio(spec)
    for b in spec.concave():
        cleared_ratio = cleared_ratio * _shifted(spec, b, 0)
    convex_x = block_one(dims)
    for b in spec.convex():
        convex_x = convex_x * _shifted(spec, b, 0)
    assert cleared_ratio == convex_x
    for d in degrees_upto(spec.m, 2):
        red = reduced_block(spec, d)
        lo_x, _ = red.x_support() or (0, 0)
        assert lo_x >= 0  # reduced blocks are polynomial in x
        want_red = block_one(dims)
        for b in spec.convex():
            for k in range(1, pairing(b, d) + 1):
                want_red = want_red * _shifted(spec, b, -k)
        for b in spec.concave():
            for k in range(0, -pairing(b, d)):
                want_red = want_red * _shifted(spec, b, k)
        assert _euler_factor(dims, d) * red == want_red
        cleared_hyper = _euler_factor(dims, d) * hyper_block(spec, d)
        for b in spec.concave():
            cleared_hyper = cleared_hyper * _shifted(spec, b, 0)
        assert cleared_hyper == convex_x * want_red


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name or "two-factor")
def test_alpha_support_bounds(spec):
    for d in degrees_upto(spec.m, 3):
        if not any(d):
            continue
        # a concave summand pairing to 0 with d contributes (x + c1)^-1, at alpha^0
        rk_concave = sum(1 for b in spec.concave() if pairing(b, d))
        lo, hi = hyper_block(spec, d).alpha_support()
        assert hi == -rk_concave
        assert lo >= -sum(di * (n + 1) for di, n in zip(d, spec.factors)) - spec.dim


def test_pair_block_is_inverse_square():
    h = hyperplane((1,), 0)
    for d in (1, 2, 3):
        want = invert_linear_factor(h, d) ** 2
        assert hyper_block(PAIR, (d,)).substitute_x(0) == want


def test_quintic_degree_one_block_against_dict_convolution():
    # Independent expansion of prod_{k=0}^{5}(5H - k*alpha) / (H - alpha)^5
    # over keys (H power, alpha power), H truncated past degree 4.
    def mul(p, q):
        out = {}
        for (h1, a1), c1 in p.items():
            for (h2, a2), c2 in q.items():
                if h1 + h2 > 4:
                    continue
                k = (h1 + h2, a1 + a2)
                out[k] = out.get(k, Rat(0)) + c1 * c2
        return {k: c for k, c in out.items() if c}

    numer = {(0, 0): Rat(1)}
    for k in range(6):
        numer = mul(numer, {(1, 0): Rat(5), (0, 1): Rat(-k)})
    # (H - alpha)^{-1} = -sum_j H^j alpha^{-1-j}
    inv = {(j, -1 - j): Rat(-1) for j in range(5)}
    expect = numer
    for _ in range(5):
        expect = mul(expect, inv)

    block = hyper_block(QUINTIC, (1,)).substitute_x(0)
    got = {}
    for (a, j, _t), c in block.terms.items():
        assert j == 0
        for hpow in range(5):
            coef = c.coefficient((hpow,))
            if coef:
                got[(hpow, a)] = coef
    assert got == expect
    # and the headline coefficients stay frozen
    assert got[(1, 0)] == 600
    assert got[(2, -1)] == -3850
    assert got[(3, -2)] == 2875
    assert got[(4, -3)] == 5750


# -- equivariant tangent blocks --------------------------------------------

SAMPLES = [
    WeightSample((Rat(0), Rat(1), Rat(3), Rat(9)), seed=-1),
    WeightSample((Rat(2), Rat(-3), Rat(5), Rat(-7)), seed=-1),
]


@pytest.mark.parametrize("sample", SAMPLES, ids=["geometric", "mixed"])
def test_tangent_degree_zero_product_identity(sample):
    n = len(sample.weights) - 1
    rest = tangent_block_restrictions(n, 0, sample)
    x = variable_x(())
    for j, b in enumerate(rest.blocks):
        prod = block_one(())
        for lam_i in sample.weights:
            prod = prod * (x + from_class(scalar((), sample.weights[j] - lam_i)))
        assert x * b == prod


@pytest.mark.parametrize("sample", SAMPLES, ids=["geometric", "mixed"])
def test_degree_zero_integral_is_euler_characteristic(sample):
    n = len(sample.weights) - 1
    total = tangent_block_restrictions(n, 0, sample).integrate()
    assert total.substitute_x(0).as_scalar() == n + 1


@pytest.mark.parametrize("sample", SAMPLES, ids=["geometric", "mixed"])
@pytest.mark.parametrize("d", [1, 2])
def test_linking_matches_specialized_restriction(sample, d):
    n = len(sample.weights) - 1
    rest = tangent_block_restrictions(n, d, sample)
    x = variable_x(())
    for j in range(n + 1):
        for l in range(n + 1):
            if j == l:
                continue
            w = Rat(sample.weights[j] - sample.weights[l], d)
            left = rest.blocks[j].substitute_alpha(w) * x
            assert left == linking_product(n, d, j, l, sample)


def test_residue_sum_vanishes():
    # the fixed-point sum of the constant class 1 is zero whenever n >= 1
    for sample in SAMPLES:
        n = len(sample.weights) - 1
        ones = tuple(block_one(()) for _ in range(n + 1))
        assert EquivariantRestrictions(sample, ones).integrate().is_zero()


def test_equivariant_error_paths():
    sample = SAMPLES[0]
    with pytest.raises(ValueError):
        tangent_block_restrictions(3, -1, sample)
    with pytest.raises(ValueError):
        linking_product(3, 1, 2, 2, sample)
    with pytest.raises(ValueError):
        linking_product(3, 0, 0, 1, sample)
