"""The weight-0 and weight-1 parts of each block R_d, and the N, f and g they fix.

Set alpha = 1.  A block R_d is homogeneous of degree 0 and polynomial in x,
so its weight-0 part R^(0) is a constant and its weight-1 part R^(1) lies in
span{x, H_1 .. H_m}.  The mirror theorem (Givental; Lian-Liu-Yau) asks that
U * sum R q^d - G keep nothing of weight 0 or 1, which fixes

    N = 1 + sum_d R^(0)_d q^d,   f = -[x] R^(1) / N,   g_i = -[H_i] R^(1) / N.

This file reads both parts straight off the bundle data in ``Fraction``s and
shares no code with the engine: from the package it takes only the spec.
With H_n = sum_{k <= n} 1/k, L_b = |<l_b, d>| and y_b = x + l_b.H for each
summand b (l_b signed), to weight 1:

  * a convex summand gives prod_{k=1..L} (y - k) = (-1)^L L! (1 - H_L y + ...);
  * a concave one with L >= 1 gives prod_{k=0..L-1} (y + k) = (L - 1)! y + ...;
  * the Euler factor gives prod_i ((-1)^d_i d_i!)^-(n_i+1) (1 + sum_i (n_i+1) H_{d_i} H_i + ...).

So with c the product of the constants: if no concave summand has L >= 1,
R^(0) = c and R^(1) = c (sum_i (n_i+1) H_{d_i} H_i - sum_convex H_L y_b); if
exactly one does, R^(0) = 0 and R^(1) = c y_b; otherwise both are 0.
"""

import math
from fractions import Fraction

from concavex.geometry import GeometrySpec


def _harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def degrees(m: int, bound: int) -> list[tuple[int, ...]]:
    """Every degree of m factors with total degree at most `bound`, by total degree."""
    out = [()]
    for _ in range(m):
        out = [d + (k,) for d in out for k in range(bound + 1 - sum(d))]
    return sorted(out, key=sum)


def window(spec: GeometrySpec, d: tuple[int, ...]) -> tuple[Fraction, list[Fraction]]:
    """R^(0) of R_d, and R^(1) as its coefficients of x, H_1, ..., H_m."""
    c = Fraction(1)
    linear = [Fraction(0)]  # the weight-1 part over c, while no concave summand has L >= 1
    for n, k in zip(spec.factors, d):
        c /= ((-1) ** k * math.factorial(k)) ** (n + 1)
        linear.append((n + 1) * _harmonic(k))
    lifted = []
    for b in spec.bundles:
        size = abs(sum(l * k for l, k in zip(b.multidegree, d)))
        y = [1, *b.multidegree]
        if b.kind == "convex":
            c *= (-1) ** size * math.factorial(size)
            linear = [v - _harmonic(size) * w for v, w in zip(linear, y)]
        elif size:
            c *= math.factorial(size - 1)
            lifted.append(y)
    if not lifted:
        return c, [c * v for v in linear]
    if len(lifted) == 1:
        return Fraction(0), [c * v for v in lifted[0]]
    return Fraction(0), [Fraction(0)] * len(linear)


def mirror_map(spec: GeometrySpec, bound: int) -> tuple[dict, dict, tuple[dict, ...]]:
    """N, f and (g_1, ..., g_m), each {degree: Fraction} at every degree 0 < |d| <= bound."""
    ds = degrees(spec.m, bound)
    parts = {d: window(spec, d) for d in ds}  # at d = 0: R_0 = 1
    below = {d: [(e, tuple(a - b for a, b in zip(d, e))) for e in ds
                 if all(b <= a for a, b in zip(d, e))] for d in ds}
    inverse = {}  # 1/N: sum over d' <= d of N_d' (1/N)_{d - d'} is 0 at d != 0
    for d in ds:
        inverse[d] = -sum(parts[e][0] * inverse[r] for e, r in below[d] if any(e)) if any(d) else 1
    minus = {d: [-sum(parts[e][1][k] * inverse[r] for e, r in below[d])
                 for k in range(spec.m + 1)] for d in ds[1:]}
    normalization = {d: parts[d][0] for d in ds[1:]}
    prefactor = {d: v[0] for d, v in minus.items()}
    return normalization, prefactor, tuple({d: v[i] for d, v in minus.items()}
                                           for i in range(1, spec.m + 1))
