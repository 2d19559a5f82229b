"""Equivariant tangent blocks of P^n at the torus fixed points.

The tangent-bundle block of P^n restricted to a fixed point has scalar
coefficients, so it is a Laurent polynomial in the weight alpha and the
Chern variable x.  ``Poly`` holds one as a plain dict over ``Fraction``;
it shares no code with the engine's ``LaurentBlock``, so the identities the
tests check here rest on nothing but this file and the weight sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from concavex.localization import SamplingError, WeightSample


class Poly:
    """{(alpha exponent, x exponent): Fraction}, zero coefficients dropped."""

    def __init__(self, terms: dict[tuple[int, int], Fraction | int]) -> None:
        self.terms = {k: Fraction(c) for k, c in terms.items() if c}

    def __add__(self, other: Poly) -> Poly:
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return Poly(out)

    def __mul__(self, other: Poly) -> Poly:
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, j1), c1 in self.terms.items():
            for (a2, j2), c2 in other.terms.items():
                k = (a1 + a2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return Poly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def scale(self, r: Fraction) -> Poly:
        return Poly({k: r * c for k, c in self.terms.items()})

    def substitute(self, slot: int, value: Fraction | int) -> Poly:
        """Set alpha (slot 0) or x (slot 1) to value."""
        out: dict[tuple[int, int], Fraction] = {}
        for key, c in self.terms.items():
            rest = (0, key[1]) if slot == 0 else (key[0], 0)
            out[rest] = out.get(rest, 0) + c * Fraction(value) ** key[slot]
        return Poly(out)


ONE = Poly({(0, 0): 1})
X = Poly({(0, 1): 1})


def affine(c: Fraction, alpha_coeff: Fraction | int = 0) -> Poly:
    """x + c + alpha_coeff * alpha."""
    return Poly({(0, 1): 1, (0, 0): c, (1, 0): alpha_coeff})


@dataclass(frozen=True)
class EquivariantRestrictions:
    """One block per fixed point of P^n, in the order of the weight sample.

    Integration is the fixed-point sum with the tangent Euler class
    prod_{k != j}(lam_j - lam_k) in the denominator.
    """

    sample: WeightSample
    blocks: tuple[Poly, ...]

    def integrate(self) -> Poly:
        lam = self.sample.weights
        total = Poly({})
        for j, b in enumerate(self.blocks):
            e = Fraction(1)
            for k in range(len(lam)):
                if k != j:
                    e *= lam[j] - lam[k]
            total = total + b.scale(1 / e)
        return total


def _weights(n: int, sample: WeightSample) -> tuple[Fraction, ...]:
    if len(sample.weights) != n + 1:
        raise SamplingError("weight sample has wrong length")
    return sample.weights


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
    lam = _weights(n, sample)
    blocks = []
    for j in range(n + 1):
        b = ONE
        for i in range(n + 1):
            for k in range(d + 1):
                if (i, k) != (j, 0):
                    b = b * affine(lam[j] - lam[i], -k)
        blocks.append(b)
    return EquivariantRestrictions(sample, tuple(blocks))


def linking_product(n: int, d: int, j: int, l: int, sample: WeightSample) -> Poly:
    """Edge-restriction product prod_i prod_{k=0}^d (x + lam_j - lam_i - k*w/d).

    Here w = lam_j - lam_l is the isotropy weight of the coordinate line
    joining the two fixed points.  Keeps x symbolic; equals x times the
    p_j tangent restriction with alpha specialized to w/d.
    """
    if j == l:
        raise ValueError("fixed points must differ")
    if d < 1:
        raise ValueError("degree must be positive")
    lam = _weights(n, sample)
    w = Fraction(lam[j] - lam[l], d)
    out = ONE
    for i in range(n + 1):
        for k in range(d + 1):
            out = out * affine(lam[j] - lam[i] - k * w)
    return out
