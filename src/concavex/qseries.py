"""Truncated formal series over effective curve degrees.

A degree is a tuple of m non-negative integers, one per projective factor.
The series variable q_i stands for exp(t_i); only coefficients with total
degree |d| <= D are ever stored.  Coefficients are Laurent blocks; a scalar
variant with plain Fraction coefficients is provided for the generating
function bookkeeping where no cohomology is involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cohomology import Rat
from .laurent import LaurentBlock, _mul_sum, block_one

Degree = tuple[int, ...]

__all__ = [
    "Degree",
    "degrees_upto",
    "degree_total",
    "QSeries",
    "qseries_one",
    "series_exp",
    "series_inverse",
    "scalar_mul",
    "scalar_exp",
]


def degree_total(d: Degree) -> int:
    return sum(d)


def degrees_upto(m: int, bound: int) -> list[Degree]:
    """All effective degrees with total degree <= bound, sorted by (|d|, lex)."""
    out: list[Degree] = []
    for total in range(bound + 1):
        out.extend(_degrees_exact(m, total))
    return out


def _degrees_exact(m: int, total: int) -> list[Degree]:
    if m == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _degrees_exact(m - 1, total - first):
            out.append((first,) + rest)
    return out


@dataclass
class QSeries:
    """Series sum_d C_d q^d truncated at total degree D, C_d Laurent blocks."""

    m: int
    bound: int
    dims: tuple[int, ...]
    coeffs: dict[Degree, LaurentBlock] = field(default_factory=dict)

    def coefficient(self, d: Degree) -> LaurentBlock:
        return self.coeffs.get(d, LaurentBlock(self.dims))

    def set(self, d: Degree, b: LaurentBlock) -> None:
        if degree_total(d) > self.bound:
            return
        if b.is_zero():
            self.coeffs.pop(d, None)
        else:
            self.coeffs[d] = b

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        bound = min(self.bound, other.bound)
        out = QSeries(self.m, bound, self.dims)
        for d in degrees_upto(self.m, bound):
            s = self.coefficient(d) + other.coefficient(d)
            out.set(d, s)
        return out

    def __sub__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        bound = min(self.bound, other.bound)
        out = QSeries(self.m, bound, self.dims)
        for d in degrees_upto(self.m, bound):
            out.set(d, self.coefficient(d) - other.coefficient(d))
        return out

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Graded convolution, truncated at the smaller bound."""
        self._check(other)
        bound = min(self.bound, other.bound)
        pairs: dict[Degree, list[tuple[LaurentBlock, LaurentBlock]]] = {}
        for d1, b1 in self.coeffs.items():
            for d2, b2 in other.coeffs.items():
                d = tuple(a + b for a, b in zip(d1, d2))
                if degree_total(d) <= bound:
                    pairs.setdefault(d, []).append((b1, b2))
        out = QSeries(self.m, bound, self.dims)
        for d, ps in pairs.items():
            out.set(d, _mul_sum(self.dims, ps))
        return out

    def _check(self, other: "QSeries") -> None:
        if self.m != other.m or self.dims != other.dims:
            raise ValueError("series shape mismatch")


def qseries_one(m: int, bound: int, dims: tuple[int, ...]) -> QSeries:
    s = QSeries(m, bound, dims)
    s.set((0,) * m, block_one(dims))
    return s


def series_exp(s: QSeries) -> QSeries:
    """exp of a series with no constant term; finite by degree truncation."""
    z = (0,) * s.m
    if not s.coefficient(z).is_zero():
        raise ValueError("exp needs a series with zero constant term")
    out = qseries_one(s.m, s.bound, s.dims)
    power = qseries_one(s.m, s.bound, s.dims)
    for k in range(1, s.bound + 1):
        power = power * s
        if all(b.is_zero() for b in power.coeffs.values()):
            break
        scaled = QSeries(s.m, s.bound, s.dims)
        inv = Rat(1, math.factorial(k))
        for d, b in power.coeffs.items():
            scaled.set(d, b.scale(inv))
        out = out + scaled
    return out


def series_inverse(s: QSeries) -> QSeries:
    """Inverse of a series whose constant term is the unit block."""
    z = (0,) * s.m
    if s.coefficient(z) != block_one(s.dims):
        raise ValueError("inverse needs constant term equal to one")
    out = QSeries(s.m, s.bound, s.dims)
    out.set(z, block_one(s.dims))
    for d in degrees_upto(s.m, s.bound):
        if d == z:
            continue
        # coefficient of q^d in s * out must vanish
        pairs = []
        for d1, b1 in s.coeffs.items():
            d2 = tuple(a - b for a, b in zip(d, d1))
            if d1 != z and all(c >= 0 for c in d2):
                pairs.append((b1, out.coefficient(d2)))
        acc = _mul_sum(s.dims, pairs)
        out.set(d, -acc)
    return out


# -- scalar series helpers (plain Fraction coefficients) -------------------


def scalar_mul(a: dict[Degree, Rat], b: dict[Degree, Rat], bound: int) -> dict[Degree, Rat]:
    out: dict[Degree, Rat] = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = tuple(u + v for u, v in zip(d1, d2))
            if degree_total(d) > bound:
                continue
            out[d] = out.get(d, Rat(0)) + c1 * c2
    return {d: c for d, c in out.items() if c}


def scalar_exp(s: dict[Degree, Rat], m: int, bound: int) -> dict[Degree, Rat]:
    z = (0,) * m
    if s.get(z):
        raise ValueError("exp needs zero constant term")
    out: dict[Degree, Rat] = {z: Rat(1)}
    power: dict[Degree, Rat] = {z: Rat(1)}
    for k in range(1, bound + 1):
        power = scalar_mul(power, s, bound)
        if not power:
            break
        inv = Rat(1, math.factorial(k))
        for d, c in power.items():
            out[d] = out.get(d, Rat(0)) + c * inv
    return {d: c for d, c in out.items() if c}
