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
    _inverse_power,
    _power,
    _raise_degree,
    chern_ratio,
    hyper_block,
    reduced_block,
)
from concavex.geometry import pairing, parse_spec
from concavex.laurent import LaurentBlock, block_one
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
    """prod_i prod_{k=1}^{d_i} (H_i - k*alpha)^{n_i+1}, built from monomials."""
    t0 = (0,) * len(dims)
    factor = block_one(dims)
    for i, n in enumerate(dims):
        for k in range(1, d[i] + 1):
            lin = LaurentBlock(dims, {(0, 0, _power(len(dims), i, 1)): 1, (1, 0, t0): -k})
            for _ in range(n + 1):
                factor = factor * lin
    return factor


def _euler_inverse(dims, i, k):
    """(H_i - k*alpha)^{-(n_i+1)}, one factor of the inverted Euler class."""
    return _inverse_power(dims, _power(len(dims), i, 1), -k, dims[i] + 1)


def _shifted(spec, b, k):
    """x + c1(b) + k*alpha, built from monomials."""
    dims = spec.factors
    t0 = (0,) * len(dims)
    c1 = {(0, 0, _power(len(dims), i, 1)): c for i, c in enumerate(b.multidegree)}
    return LaurentBlock(dims, {(0, 1, t0): 1, (1, 0, t0): k} | c1)


def test_chern_ratio_quintic_is_linear():
    x_plus_5h = LaurentBlock((4,), {(0, 1, (0,)): 1, (0, 0, (1,)): 5})
    assert chern_ratio(QUINTIC) == x_plus_5h


def test_chern_ratio_pair_expansion():
    b = chern_ratio(PAIR)
    h = hyperplane((1,), 0)
    assert b.terms[(0, -2, (0,))] == scalar((1,), 1)
    assert b.terms[(0, -3, (0,))] == h.scale(2)
    assert (0, -1, (0,)) not in b.terms
    # multiplying back by (x - H)^2 recovers 1
    lin = LaurentBlock((1,), {(0, 1, (0,)): 1, (0, 0, (1,)): -1})
    assert b * lin * lin == block_one((1,))


def test_chern_ratio_local_p2_expansion():
    b = chern_ratio(LOCAL_P2)
    h = hyperplane((2,), 0)
    assert b.terms[(0, -1, (0,))] == scalar((2,), 1)
    assert b.terms[(0, -2, (0,))] == h.scale(3)
    assert b.terms[(0, -3, (0,))] == (h * h).scale(9)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name or "two-factor")
def test_degree_zero_blocks(spec):
    z = (0,) * spec.m
    assert hyper_block(spec, z, {}, chern_ratio(spec)) == chern_ratio(spec)
    assert reduced_block(spec, z, {}) == block_one(spec.factors)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name or "two-factor")
def test_normal_euler_inverse(spec):
    dims = spec.factors
    for d in degrees_upto(spec.m, 2):
        inverse = block_one(dims)
        for i, di in enumerate(d):
            for k in range(1, di + 1):
                inverse = inverse * _euler_inverse(dims, i, k)
        assert _euler_factor(dims, d) * inverse == block_one(dims)


def test_euler_inverse_on_the_line():
    # (H - alpha)^{-2} = alpha^{-2} (1 - H/alpha)^{-2} = alpha^{-2} + 2 H alpha^{-3}
    want = LaurentBlock((1,), {(-2, 0, (0,)): 1, (-3, 0, (1,)): 2})
    assert _euler_inverse((1,), 0, 1) == want
    with pytest.raises(ZeroDivisionError):
        _euler_inverse((1,), 0, 0)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name or "two-factor")
def test_each_block_is_built_once(monkeypatch, spec):
    built = []  # the degree of each block a step makes

    def counted(s, r, e, i, _real=_raise_degree):
        built.append(e[:i] + (e[i] + 1,) + e[i + 1:])
        return _real(s, r, e, i)

    monkeypatch.setattr(eulerdata, "_raise_degree", counted)
    table = {}
    top = (3,) * spec.m
    cold = reduced_block(spec, top, table)
    assert len(built) == 3 * spec.m  # one step per level, down to 1
    box = list(itertools.product(range(4), repeat=spec.m))
    for d in box:
        reduced_block(spec, d, table)
        hyper_block(spec, d, table, chern_ratio(spec))
    # every nonzero degree of the box is made by exactly one step
    assert sorted(built) == [d for d in sorted(box) if any(d)]
    assert sorted(table) == sorted(box)
    assert reduced_block(spec, top, table) is cold


@pytest.mark.parametrize("spec", [TWO_FACTOR, ZERO_ENTRY], ids=["two-factor", "zero-entry"])
def test_recurrence_is_path_independent(spec):
    table = {}
    via_01 = _raise_degree(spec, reduced_block(spec, (0, 1), table), (0, 1), 0)
    via_10 = _raise_degree(spec, reduced_block(spec, (1, 0), table), (1, 0), 1)
    assert via_01 == via_10 == reduced_block(spec, (1, 1), table)


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
    table = {}
    for d in degrees_upto(spec.m, 2):
        red = reduced_block(spec, d, table)
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
        hyper = hyper_block(spec, d, table, chern_ratio(spec))
        cleared_hyper = _euler_factor(dims, d) * hyper
        for b in spec.concave():
            cleared_hyper = cleared_hyper * _shifted(spec, b, 0)
        assert cleared_hyper == convex_x * want_red


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name or "two-factor")
def test_alpha_support_bounds(spec):
    table = {}
    for d in degrees_upto(spec.m, 3):
        if not any(d):
            continue
        # a concave summand pairing to 0 with d contributes (x + c1)^-1, at alpha^0
        rk_concave = sum(1 for b in spec.concave() if pairing(b, d))
        lo, hi = hyper_block(spec, d, table, chern_ratio(spec)).alpha_support()
        assert hi == -rk_concave
        assert lo >= -sum(di * (n + 1) for di, n in zip(d, spec.factors)) - spec.dim


def test_pair_block_is_inverse_square():
    # at x = 0 the pair's block is (H - d alpha)^{-2} = 1/(d alpha)^2 + 2 H/(d alpha)^3
    for d in (1, 2, 3):
        want = LaurentBlock((1,), {
            (-2, 0, (0,)): Rat(1, d**2),
            (-3, 0, (1,)): Rat(2, d**3),
        })
        assert hyper_block(PAIR, (d,), {}, chern_ratio(PAIR)).x_stratum(0) == want


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

    block = hyper_block(QUINTIC, (1,), {}, chern_ratio(QUINTIC)).x_stratum(0)
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
