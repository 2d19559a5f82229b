"""The Kahler factor exp(-(sum_i H_i t_i) / alpha), the reference for extraction.

Extraction reads the fibre integral of kahler * X_d off X_d's own terms,
relabelled, and never forms this factor; nor can a block hold it, since t
is no variable of a block.  The tests multiply it out here, term by term
in Fractions from X's monomials, and take the top class of the product, so
the relabel is checked against the product it stands for by code that
shares nothing with the engine's kernel.
"""

import itertools
import math
from fractions import Fraction as Rat


def kahler_terms(dims):
    """{(a, beta): value} of exp(-(sum_i H_i t_i) / alpha), beta the exponent of both t and H.

    A finite sum by nilpotency: (-1)^{|beta|} / beta! * H^beta * t^beta *
    alpha^{-|beta|} over the multi-exponents beta of the box.
    """
    return {
        (-sum(beta), beta): Rat((-1) ** sum(beta), math.prod(map(math.factorial, beta)))
        for beta in itertools.product(*(range(n + 1) for n in dims))
    }


def top_class(x):
    """{(a, j, tau): value} of the top class of kahler * x, the block x's fibre integral."""
    dims = x.dims
    nums, den = x.monomials()
    product = {}
    for (a, j, h), v in nums.items():
        for (b, beta), w in kahler_terms(dims).items():
            g = tuple(e + f for e, f in zip(h, beta))
            if all(e <= n for e, n in zip(g, dims)):  # H_i^(n_i + 1) = 0
                key = (a + b, j, beta, g)
                product[key] = product.get(key, 0) + Rat(v, den) * w
    return {(a, j, tau): r for (a, j, tau, g), r in product.items() if g == dims and r}
