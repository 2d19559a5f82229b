"""Truncated formal series over effective curve degrees.

A degree is a tuple of m non-negative integers, one per projective factor.
The series variable q_i stands for exp(t_i); only coefficients with total
degree |d| <= D are ever stored.  A block series is a plain dict
{degree: LaurentBlock}, the same dicts the mirror solve extends; a degree
missing from it was never formed.  A scalar variant with plain Fraction
coefficients serves the generating function bookkeeping where no
cohomology is involved.

Both exponentials, block and scalar, come from one recurrence, one degree
at a time: the Euler operator sum_i q_i d/dq_i turns exp(L)' = L' exp(L)
into |d| E_d = sum_{0 < d' <= d} |d'| L_{d'} E_{d-d'}.  The mirror solve
extends its series with the same per-degree step, `_exp_coefficient`.
"""
from __future__ import annotations

import itertools

from .cohomology import Rat
from .laurent import LaurentBlock, _mul_sum, _tzero, block_one

Degree = tuple[int, ...]
Series = dict[Degree, LaurentBlock]

__all__ = [
    "Degree",
    "Series",
    "degrees_upto",
    "series_mul",
    "series_exp",
    "series_inverse",
    "scalar_mul",
    "scalar_exp",
]


def degrees_upto(m: int, bound: int) -> list[Degree]:
    """All effective degrees with total degree <= bound, sorted by (|d|, lex)."""
    return sorted(
        (d for d in itertools.product(range(bound + 1), repeat=m) if sum(d) <= bound),
        key=lambda d: (sum(d), d),
    )


def _sub(d: Degree, e: Degree) -> Degree | None:
    """d - e, or None if that is not an effective degree."""
    out = tuple(a - b for a, b in zip(d, e))
    return None if any(c < 0 for c in out) else out


def series_mul(dims: tuple[int, ...], a: Series, b: Series, bound: int) -> Series:
    """Graded convolution truncated at total degree `bound`.

    Each output degree is one kernel call over all its pairs.
    """
    pairs: dict[Degree, list[tuple[LaurentBlock, LaurentBlock]]] = {}
    for d1, b1 in a.items():
        for d2, b2 in b.items():
            d = tuple(u + v for u, v in zip(d1, d2))
            if sum(d) <= bound:
                pairs.setdefault(d, []).append((b1, b2))
    return {d: _mul_sum(dims, ps) for d, ps in pairs.items()}


def _exp_coefficient(
    dims: tuple[int, ...], log: Series, exp: Series, d: Degree
) -> LaurentBlock:
    """Degree-d coefficient of E = exp(L), from the coefficients of E below d.

    The Euler operator sum_i q_i d/dq_i turns E' = L' E into
    |d| E_d = sum_{0 < d' <= d} |d'| L_{d'} E_{d-d'}; a degree missing
    from `log` or `exp` is a zero coefficient, and L_d, if present,
    enters as L_d E_0.
    """
    n = sum(d)
    pairs = [
        (blk.scale(Rat(sum(dp), n)), exp[diff])
        for dp, blk in log.items()
        if (diff := _sub(d, dp)) is not None and diff in exp
    ]
    return _mul_sum(dims, pairs)


def series_exp(dims: tuple[int, ...], s: Series, bound: int) -> Series:
    """exp of a series with no constant term, every degree up to `bound`."""
    z = _tzero(len(dims))
    if z in s and not s[z].is_zero():
        raise ValueError("exp needs a series with zero constant term")
    out = {z: block_one(dims)}
    for d in degrees_upto(len(dims), bound)[1:]:
        out[d] = _exp_coefficient(dims, s, out, d)
    return out


def series_inverse(dims: tuple[int, ...], s: Series, bound: int) -> Series:
    """Inverse of a series whose constant term is the unit block, every degree up to `bound`."""
    z = _tzero(len(dims))
    if s.get(z) != block_one(dims):
        raise ValueError("inverse needs constant term equal to one")
    out = {z: block_one(dims)}
    for d in degrees_upto(len(dims), bound)[1:]:
        # coefficient of q^d in s * out must vanish
        out[d] = -_mul_sum(dims, [
            (b, out[diff])
            for dp, b in s.items()
            if dp != z and (diff := _sub(d, dp)) is not None
        ])
    return out


# -- scalar series helpers (plain Fraction coefficients) -------------------


def scalar_mul(a: dict[Degree, Rat], b: dict[Degree, Rat], bound: int) -> dict[Degree, Rat]:
    out: dict[Degree, Rat] = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = tuple(u + v for u, v in zip(d1, d2))
            if sum(d) > bound:
                continue
            out[d] = out.get(d, Rat(0)) + c1 * c2
    return {d: c for d, c in out.items() if c}


def scalar_exp(s: dict[Degree, Rat], m: int, bound: int) -> dict[Degree, Rat]:
    """exp of a scalar series with no constant term, by the recurrence of `series_exp`."""
    z = (0,) * m
    if s.get(z):
        raise ValueError("exp needs zero constant term")
    out: dict[Degree, Rat] = {z: Rat(1)}
    for d in degrees_upto(m, bound)[1:]:
        acc = sum(
            sum(dp) * c * out[diff]
            for dp, c in s.items()
            if (diff := _sub(d, dp)) is not None and diff in out
        )
        if acc:
            out[d] = acc / sum(d)
    return out
