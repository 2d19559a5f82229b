"""Truncated formal series over effective curve degrees.

A degree is a tuple of m non-negative integers, one per projective factor.
The series variable q_i stands for exp(t_i); only coefficients with total
degree |d| <= D are ever stored.  A block series is a plain dict
{degree: LaurentBlock}, the same dicts the mirror solve extends; a degree
missing from it was never formed.  A scalar series, the bookkeeping where
no cohomology is involved, is held as the int numerators s_d of a truncated
exponential generating function, S_d = s_d / (delta^|d| |d|!) with delta a
common denominator: products are binomial convolutions, exp needs no division.

Every convolution sum_{d' <= d} X_{d'} Y_{d-d'}, block or scalar, and both
exps read their splits (d', d - d') from one table that the caller passes:
`degree_pairs`, the one place that enumerates them, built once per solve.
The table's degrees are the truncation.  Both exponentials come from one
recurrence, one degree at a time: the Euler operator sum_i q_i d/dq_i turns
exp(L)' = L' exp(L) into |d| E_d = sum_{0 < d' <= d} |d'| L_{d'} E_{d-d'}.
The mirror solve extends its series with the same per-degree step,
`_exp_coefficient`.
"""
from __future__ import annotations

import itertools
import math
from operator import add

from .cohomology import Rat
from .laurent import LaurentBlock, _mul_sum, block_one

Degree = tuple[int, ...]
Series = dict[Degree, LaurentBlock]
Splits = list[tuple[Degree, Degree]]
Table = dict[Degree, Splits]

__all__ = [
    "Degree",
    "Series",
    "degrees_upto",
    "degree_pairs",
    "series_mul",
    "series_exp",
    "series_inverse",
    "egf_numerators",
    "egf_mul",
    "egf_exp",
]


def degrees_upto(m: int, bound: int) -> list[Degree]:
    """All effective degrees with total degree <= bound, sorted by (|d|, lex)."""
    return sorted(
        (d for d in itertools.product(range(bound + 1), repeat=m) if sum(d) <= bound),
        key=lambda d: (sum(d), d),
    )


def degree_pairs(m: int, bound: int) -> Table:
    """Each degree d with |d| <= bound mapped to its splits (d', d - d'), 0 <= d' <= d.

    Both d and d' run in `degrees_upto` order: (0, d) comes first, (d, 0) last.
    """
    degrees = degrees_upto(m, bound)
    out: Table = {d: [] for d in degrees}
    for dp in degrees:
        for e in degrees:
            if sum(dp) + sum(e) > bound:
                break
            out[tuple(map(add, dp, e))].append((dp, e))
    return out


def series_mul(dims: tuple[int, ...], a: Series, b: Series, pairs: Table) -> Series:
    """Graded convolution over the degrees of `pairs`, one kernel call per output degree."""
    sums = {d: [(a[d1], b[d2]) for d1, d2 in ps if d1 in a and d2 in b] for d, ps in pairs.items()}
    return {d: _mul_sum(dims, ps) for d, ps in sums.items() if ps}


def _exp_coefficient(
    dims: tuple[int, ...], log: Series, exp: Series, splits: Splits
) -> LaurentBlock:
    """Coefficient of E = exp(L) at the degree d split by `splits`, from those of E below d.

    The Euler operator sum_i q_i d/dq_i turns E' = L' E into
    |d| E_d = sum_{0 < d' <= d} |d'| L_{d'} E_{d-d'}; a degree missing
    from `log` or `exp` is a zero coefficient, and L_d, if present,
    enters as L_d E_0.
    """
    n = sum(splits[-1][0])
    pairs = [(log[dp].scale(Rat(sum(dp), n)), exp[e]) for dp, e in splits if dp in log and e in exp]
    return _mul_sum(dims, pairs)


def series_exp(dims: tuple[int, ...], s: Series, pairs: Table) -> Series:
    """exp of a series with no constant term, every degree of `pairs`."""
    z = (0,) * len(dims)
    if z in s and not s[z].is_zero():
        raise ValueError("exp needs a series with zero constant term")
    out = {z: block_one(dims)}
    for d, splits in list(pairs.items())[1:]:
        out[d] = _exp_coefficient(dims, s, out, splits)
    return out


def series_inverse(dims: tuple[int, ...], s: Series, pairs: Table) -> Series:
    """Inverse of a series whose constant term is the unit block, every degree of `pairs`."""
    z = (0,) * len(dims)
    if s.get(z) != block_one(dims):
        raise ValueError("inverse needs constant term equal to one")
    out = {z: block_one(dims)}
    for d, splits in list(pairs.items())[1:]:
        # coefficient of q^d in s * out must vanish
        out[d] = -_mul_sum(dims, [(s[dp], out[e]) for dp, e in splits[1:] if dp in s])
    return out


# -- scalar series: integer numerators of a truncated EGF -----------------


def egf_numerators(
    series: tuple[dict[Degree, Rat], ...], bound: int
) -> tuple[list[dict[Degree, int]], list[int]]:
    """The EGF numerators of series with no constant term, and scale[n] = delta^n n!.

    delta is the lcm of their denominators; every degree has |d| <= bound.
    """
    if any(c for s in series for d, c in s.items() if not any(d)):
        raise ValueError("EGF numerators need series with zero constant term")
    kept = [{d: c for d, c in s.items() if c} for s in series]
    delta = math.lcm(*(c.denominator for s in kept for c in s.values()))
    scale = list(itertools.accumulate(range(1, bound + 1), lambda x, n: x * delta * n, initial=1))
    egf = [{d: c.numerator * (scale[sum(d)] // c.denominator) for d, c in s.items()} for s in kept]
    return egf, scale


def egf_mul(
    a: dict[Degree, int], b: dict[Degree, int], pairs: Table, cut: int
) -> dict[Degree, int]:
    """Product of two EGF series over one delta, every degree of `pairs` with |d| <= cut."""
    out: dict[Degree, int] = {}
    for d, splits in pairs.items():
        n = sum(d)
        if n > cut:
            break
        terms = [math.comb(n, sum(d1)) * a[d1] * b[d2] for d1, d2 in splits if d1 in a and d2 in b]
        if v := sum(terms):
            out[d] = v
    return out


def egf_exp(s: dict[Degree, int], pairs: Table) -> dict[Degree, int]:
    """exp of an EGF series with no constant term, every degree of `pairs`.

    The block exp's recurrence in EGF numerators: e_d = sum C(|d|-1, |d'|-1) s_{d'} e_{d-d'}.
    """
    (z, _), *rows = pairs.items()
    if s.get(z):
        raise ValueError("exp needs zero constant term")
    out: dict[Degree, int] = {z: 1}
    for d, splits in rows:
        n = sum(d)
        if v := sum(
            math.comb(n - 1, sum(dp) - 1) * s[dp] * out[e]
            for dp, e in splits[1:]
            if dp in s and e in out
        ):
            out[d] = v
    return out
