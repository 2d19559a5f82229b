"""The Kahler factor exp(-(sum_i H_i t_i) / alpha), the reference for extraction.

Extraction reads the fibre integral of kahler * X_d off X_d's own terms,
relabelled, and never forms this factor.  The tests build it here, multiply
it through the engine's kernel and take the top class of the product, so
the relabel is checked against the product it stands for.
"""

import itertools
import math
from fractions import Fraction as Rat

from concavex.laurent import LaurentBlock


def kahler_factor(dims):
    """exp(-(sum_i H_i t_i) / alpha), a finite sum by nilpotency.

    The closed form is sum over multi-exponents beta of
    (-1)^{|beta|} / beta! * H^beta * t^beta * alpha^{-|beta|}.
    """
    return LaurentBlock(dims, {
        (-sum(beta), 0, beta, beta): Rat((-1) ** sum(beta), math.prod(map(math.factorial, beta)))
        for beta in itertools.product(*(range(n + 1) for n in dims))
    })


def top_class(blk):
    """{key: value} of the top-class coefficients of blk, its fibre integral, read off its view."""
    return {key: c.coeffs[-1] for key, c in blk.terms.items() if c.coeffs[-1]}
