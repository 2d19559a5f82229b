"""Hypergeometric blocks attached to a split concavex bundle.

The engine's raw material: for each curve degree d the bundle data
determines a closed-form Laurent block, assembled from

  * the ratio of Chern polynomials of the convex and concave parts
    (degree zero),
  * per-degree products of shifted linear factors, one factor per
    section index of each line-bundle summand,
  * the inverted Euler factor of the ambient linear model, a product
    of (H_i - k*alpha)^{n_i+1}.

Degree d adds few factors to degree d - e_i, so each block is built once,
from the one below it, into a table {degree: block} that the caller owns:
the solve keeps its table on the MirrorMap.  Nothing is kept here.

Everything is exact; denominators only ever involve nilpotent classes
plus a nonzero multiple of alpha or x, so inverses are finite sums.  Each
factor is encoded in closed form from int and rational monomials.
"""

from __future__ import annotations

import itertools
import math

from .cohomology import Rat
from .geometry import GeometrySpec, pairing
from .laurent import LaurentBlock, block_one
from .qseries import Degree, Series


def _power(m: int, i: int, e: int) -> tuple[int, ...]:
    """The exponents of H_i^e among m factors."""
    return tuple(e if k == i else 0 for k in range(m))


def _affine_block(dims: tuple[int, ...], c: tuple[int, ...], alpha_coeff: int) -> LaurentBlock:
    """x + sum_i c_i H_i + alpha_coeff * alpha as a Laurent block."""
    t0 = (0,) * len(dims)
    terms = {(0, 0, _power(len(dims), i, 1)): ci for i, ci in enumerate(c)}
    terms[(0, 1, t0)] = 1
    terms[(1, 0, t0)] = alpha_coeff
    return LaurentBlock(dims, terms)


def chern_ratio(spec: GeometrySpec) -> LaurentBlock:
    """Ratio of the Chern polynomials of the two bundle parts.

    Product over convex summands of (x + c1), times the inverse of the
    same product over concave summands.  The concave inverses make this
    an x-Laurent block; it is the degree-zero hypergeometric block.
    """
    out = block_one(spec.factors)
    for b in spec.convex():
        out = out * _affine_block(spec.factors, b.multidegree, 0)
    for b in spec.concave():
        out = out * _inverse_power(spec.factors, b.multidegree, 1, 1, x=True)
    return out


def _inverse_power(
    dims: tuple[int, ...], c: tuple[int, ...], w: int, p: int, x: bool = False
) -> LaurentBlock:
    """(w v + sum_i c_i H_i)^{-p}, v = x if `x` is set and alpha otherwise, w != 0.

    The concave factors of the Chern ratio and the Euler factors share it.
    The binomial series in (sum_i c_i H_i) / (w v), cut by nilpotency: by
    the multinomial theorem the sum over exponents h of
    C(p - 1 + |h|, |h|) (|h|! / h!) (-c)^h H^h (w v)^{-p-|h|}, where
    h_i = 0 on every axis with c_i = 0.
    """
    minus_c = [-a for a in c]
    terms = {}
    for h in itertools.product(*(range(n + 1 if a else 1) for n, a in zip(dims, c))):
        k = sum(h)
        r = math.comb(p - 1 + k, k) * math.factorial(k) // math.prod(map(math.factorial, h))
        r *= math.prod(map(pow, minus_c, h))
        terms[((0, -p - k) if x else (-p - k, 0)) + (h,)] = Rat(r, w ** (p + k))
    return LaurentBlock(dims, terms)


def _raise_degree(spec: GeometrySpec, r: LaurentBlock, e: Degree, i: int) -> LaurentBlock:
    """R_{e+e_i} from r = R_e, multiplying in one new factor at a time.

    The new factors are the Euler inverse at k = e_i + 1 and the shifted
    linear factors whose k lies between the pairings with e and e + e_i.
    """
    d = e[:i] + (e[i] + 1,) + e[i + 1:]
    out = r * _inverse_power(spec.factors, _power(spec.m, i, 1), -d[i], spec.factors[i] + 1)
    for b in spec.convex():
        for k in range(pairing(b, e) + 1, pairing(b, d) + 1):
            out = out * _affine_block(spec.factors, b.multidegree, -k)
    for b in spec.concave():
        for k in range(-pairing(b, e), -pairing(b, d)):
            out = out * _affine_block(spec.factors, b.multidegree, k)
    return out


def reduced_block(spec: GeometrySpec, d: Degree, table: Series) -> LaurentBlock:
    """Degree-d hypergeometric block with the Chern-polynomial ratio divided out.

    Inverted Euler factor times, per convex summand, the factors
    (x + c1 - k*alpha) for k = 1..<c1,d>, and per concave summand the
    factors (x + c1 + k*alpha) for k = 0..-<c1,d>-1.  The result is
    polynomial in x and equals 1 at d = 0.  It is R_{d-e_i}, i the first
    axis with d_i > 0, times the factors d adds.  `table` holds the blocks
    of `spec` built so far: a block found there is returned as it is, and
    each block built on the way down is stored there.
    """
    if d not in table:
        if any(d):
            i = next(i for i, di in enumerate(d) if di)
            below = d[:i] + (d[i] - 1,) + d[i + 1:]
            table[d] = _raise_degree(spec, reduced_block(spec, below, table), below, i)
        else:
            table[d] = block_one(spec.factors)
    return table[d]


def hyper_block(spec: GeometrySpec, d: Degree, table: Series, ratio: LaurentBlock) -> LaurentBlock:
    """Degree-d hypergeometric block of the bundle data.

    The reduced block times `ratio`, the caller's chern_ratio(spec): this
    restores the k = 0 factor (x + c1) of each convex product and divides
    out the k = 0 factor of each concave product.  At d = 0 it is the ratio.
    """
    return ratio * reduced_block(spec, d, table)
