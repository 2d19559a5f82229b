"""Truncated scalar series on plain {degree: Fraction} dicts, for reference.

A double loop for the product and the power chain sum_k s^k / k! for exp:
they share no code with the engine's integer EGF helpers in qseries.
"""

import math
from fractions import Fraction as Rat


def fraction_mul(a, b, cut):
    """The product of two series, every degree with total degree <= cut."""
    out = {}
    for d1, x in a.items():
        for d2, y in b.items():
            d = tuple(u + v for u, v in zip(d1, d2))
            if sum(d) <= cut:
                out[d] = out.get(d, Rat(0)) + x * y
    return {d: c for d, c in out.items() if c}


def fraction_exp(s, m, bound):
    """exp of a series with no constant term, to total degree `bound`."""
    one = {(0,) * m: Rat(1)}
    out, power = dict(one), one
    for k in range(1, bound + 1):
        power = fraction_mul(power, s, bound)
        for d, c in power.items():
            out[d] = out.get(d, Rat(0)) + c / math.factorial(k)
    return {d: c for d, c in out.items() if c}
