"""Hypergeometric blocks attached to a split concavex bundle.

The engine's raw material: for each curve degree d the bundle data
determines a closed-form Laurent block, assembled from

  * the ratio of Chern polynomials of the convex and concave parts
    (degree zero),
  * per-degree products of shifted linear factors, one factor per
    section index of each line-bundle summand,
  * the inverted Euler factor of the ambient linear model, a product
    of (H_i - k*alpha)^{n_i+1}.

Degree d adds few factors to degree d - e_i, so the blocks are built
degree by degree, each from the one below it.

Everything is exact; denominators only ever involve nilpotent classes
plus a nonzero multiple of alpha or x, so inverses are finite sums.

The module also carries the equivariant variant for the tangent bundle
of a single projective space, restricted to torus fixed points at
rational weight samples, together with the fixed-point integrator and
linking products used to cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import CohClass, Rat, hyperplane, one, scalar
from .geometry import GeometrySpec, first_chern, pairing
from .laurent import (
    LaurentBlock,
    _invert_x_factor,
    block_one,
    invert_linear_factor,
)
from .localization import SamplingError, WeightSample
from .qseries import Degree


def _affine_block(c: CohClass, alpha_coeff: int) -> LaurentBlock:
    """x + c + alpha_coeff * alpha as a Laurent block."""
    t0 = (0,) * len(c.dims)
    return LaurentBlock(c.dims, {
        (0, 1, t0): one(c.dims),
        (0, 0, t0): c,
        (1, 0, t0): scalar(c.dims, alpha_coeff),
    })


def chern_ratio(spec: GeometrySpec) -> LaurentBlock:
    """Ratio of the Chern polynomials of the two bundle parts.

    Product over convex summands of (x + c1), times the inverse of the
    same product over concave summands.  The concave inverses make this
    an x-Laurent block; it is the degree-zero hypergeometric block.
    """
    out = block_one(spec.factors)
    for b in spec.convex():
        out = out * _affine_block(first_chern(spec, b), 0)
    for b in spec.concave():
        out = out * _invert_x_factor(first_chern(spec, b))
    return out


def _euler_inverse(dims: tuple[int, ...], i: int, k: int) -> LaurentBlock:
    """(H_i - k*alpha)^{-(n_i+1)}, one factor of the inverted Euler class."""
    return invert_linear_factor(hyperplane(dims, i), k) ** (dims[i] + 1)


def _raise_degree(spec: GeometrySpec, r: LaurentBlock, e: Degree, i: int) -> LaurentBlock:
    """R_{e+e_i} from r = R_e, multiplying in one new factor at a time.

    The new factors are the Euler inverse at k = e_i + 1 and the shifted
    linear factors whose k lies between the pairings with e and e + e_i.
    """
    d = e[:i] + (e[i] + 1,) + e[i + 1:]
    out = r * _euler_inverse(spec.factors, i, d[i])
    for b in spec.convex():
        c = first_chern(spec, b)
        for k in range(pairing(b, e) + 1, pairing(b, d) + 1):
            out = out * _affine_block(c, -k)
    for b in spec.concave():
        c = first_chern(spec, b)
        for k in range(-pairing(b, e), -pairing(b, d)):
            out = out * _affine_block(c, k)
    return out


def reduced_block(
    spec: GeometrySpec, d: Degree, lower: dict[Degree, LaurentBlock] | None = None
) -> LaurentBlock:
    """Degree-d hypergeometric block with the Chern-polynomial ratio divided out.

    Inverted Euler factor times, per convex summand, the factors
    (x + c1 - k*alpha) for k = 1..<c1,d>, and per concave summand the
    factors (x + c1 + k*alpha) for k = 0..-<c1,d>-1.  The result is
    polynomial in x and equals 1 at d = 0.  It is R_{d-e_i}, i the first
    axis with d_i > 0, times the factors d adds: one step if `lower` holds
    R_{d-e_i}, else the same steps from 1, raising the last axis first.
    """
    i = next((i for i, di in enumerate(d) if di), 0)
    below = d[:i] + (d[i] - 1,) + d[i + 1:]  # never a key at d = 0
    out, e = block_one(spec.factors), [0] * len(d)
    if lower and below in lower:
        out, e = lower[below], list(below)
    for j in reversed(range(len(d))):
        while e[j] < d[j]:
            out = _raise_degree(spec, out, tuple(e), j)
            e[j] += 1
    return out


def hyper_block(spec: GeometrySpec, d: Degree) -> LaurentBlock:
    """Degree-d hypergeometric block of the bundle data.

    The reduced block times the Chern-polynomial ratio: this restores the
    k = 0 factor (x + c1) of each convex product and divides out the k = 0
    factor of each concave product.  At d = 0 it is chern_ratio(spec).
    """
    return chern_ratio(spec) * reduced_block(spec, d)


# ---------------------------------------------------------------------------
# Equivariant blocks for the tangent bundle of P^n at sampled weights

@dataclass(frozen=True)
class EquivariantRestrictions:
    """Fixed-point restrictions of an equivariant block on P^n.

    One scalar-coefficient Laurent block per fixed point, in the order
    of the weight sample.  Integration is the fixed-point sum with the
    tangent Euler class prod_{k != j}(lam_j - lam_k) in the denominator.
    """

    sample: WeightSample
    blocks: tuple[LaurentBlock, ...]

    def integrate(self) -> LaurentBlock:
        lam = self.sample.weights
        total = LaurentBlock(())
        for j, b in enumerate(self.blocks):
            e = Rat(1)
            for k in range(len(lam)):
                if k != j:
                    e *= lam[j] - lam[k]
            total = total + b.scale(1 / e)
        return total


def tangent_block_restrictions(
    n: int, d: int, sample: WeightSample
) -> EquivariantRestrictions:
    """Degree-d tangent-bundle block of P^n at the torus fixed points.

    The block is (1/x) prod_i prod_{k=0}^{d} (x + H - lam_i - k*alpha);
    restricting to the fixed point p_j sets H to lam_j, where the
    (i = j, k = 0) factor is exactly x and cancels the 1/x.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    lam = sample.weights
    if len(lam) != n + 1:
        raise SamplingError("weight sample has wrong length")
    blocks = []
    for j in range(n + 1):
        b = block_one(())
        for i in range(n + 1):
            for k in range(d + 1):
                if i == j and k == 0:
                    continue
                b = b * _affine_block(scalar((), lam[j] - lam[i]), -k)
        blocks.append(b)
    return EquivariantRestrictions(sample, tuple(blocks))


def linking_product(
    n: int, d: int, j: int, l: int, sample: WeightSample
) -> LaurentBlock:
    """Edge-restriction product prod_i prod_{k=0}^d (x + lam_j - lam_i - k*w/d).

    Here w = lam_j - lam_l is the isotropy weight of the coordinate line
    joining the two fixed points.  Keeps x symbolic; equals x times the
    p_j tangent restriction with alpha specialized to w/d.
    """
    if j == l:
        raise ValueError("fixed points must differ")
    if d < 1:
        raise ValueError("degree must be positive")
    lam = sample.weights
    if len(lam) != n + 1:
        raise SamplingError("weight sample has wrong length")
    w = Rat(lam[j] - lam[l], d)
    out = block_one(())
    for i in range(n + 1):
        for k in range(d + 1):
            out = out * _affine_block(scalar((), lam[j] - lam[i] - k * w), 0)
    return out
