"""Truncated formal series over effective curve degrees.

A degree is a tuple of m non-negative integers, one per projective factor.
The series variable q_i stands for exp(t_i); only coefficients with total
degree |d| <= D are ever stored.  Coefficients are Laurent blocks; a scalar
variant with plain Fraction coefficients is provided for the generating
function bookkeeping where no cohomology is involved.

Both exponentials, block and scalar, come from one recurrence, one degree
at a time: the Euler operator sum_i q_i d/dq_i turns exp(L)' = L' exp(L)
into |d| E_d = sum_{0 < d' <= d} |d'| L_{d'} E_{d-d'}.  The mirror solve
extends its series with the same per-degree step, `_exp_coefficient`.
"""
from __future__ import annotations

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


def _sub(d: Degree, e: Degree) -> Degree | None:
    """d - e, or None if that is not an effective degree."""
    out = tuple(a - b for a, b in zip(d, e))
    return None if any(c < 0 for c in out) else out


def _exp_coefficient(
    dims: tuple[int, ...],
    log: dict[Degree, LaurentBlock],
    exp: dict[Degree, LaurentBlock],
    d: Degree,
) -> LaurentBlock:
    """Degree-d coefficient of E = exp(L), from the coefficients of E below d.

    The Euler operator sum_i q_i d/dq_i turns E' = L' E into
    |d| E_d = sum_{0 < d' <= d} |d'| L_{d'} E_{d-d'}; a degree missing
    from `log` or `exp` is a zero coefficient, and L_d, if present,
    enters as L_d E_0.
    """
    n = degree_total(d)
    pairs = [
        (blk.scale(Rat(degree_total(dp), n)), exp[diff])
        for dp, blk in log.items()
        if (diff := _sub(d, dp)) is not None and diff in exp
    ]
    return _mul_sum(dims, pairs)


def series_exp(s: QSeries) -> QSeries:
    """exp of a series with no constant term, one degree at a time by recurrence."""
    z = (0,) * s.m
    if not s.coefficient(z).is_zero():
        raise ValueError("exp needs a series with zero constant term")
    out = qseries_one(s.m, s.bound, s.dims)
    for d in degrees_upto(s.m, s.bound)[1:]:
        out.set(d, _exp_coefficient(s.dims, s.coeffs, out.coeffs, d))
    return out


def series_inverse(s: QSeries) -> QSeries:
    """Inverse of a series whose constant term is the unit block."""
    z = (0,) * s.m
    if s.coefficient(z) != block_one(s.dims):
        raise ValueError("inverse needs constant term equal to one")
    out = QSeries(s.m, s.bound, s.dims)
    out.set(z, block_one(s.dims))
    for d in degrees_upto(s.m, s.bound)[1:]:
        # coefficient of q^d in s * out must vanish
        pairs = [
            (b1, out.coefficient(d2))
            for d1, b1 in s.coeffs.items()
            if d1 != z and (d2 := _sub(d, d1)) is not None
        ]
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
    """exp of a scalar series with no constant term, by the recurrence of `series_exp`."""
    z = (0,) * m
    if s.get(z):
        raise ValueError("exp needs zero constant term")
    out: dict[Degree, Rat] = {z: Rat(1)}
    for d in degrees_upto(m, bound)[1:]:
        acc = sum(
            degree_total(dp) * c * out[diff]
            for dp, c in s.items()
            if (diff := _sub(d, dp)) is not None and diff in out
        )
        if acc:
            out[d] = acc / degree_total(d)
    return out
