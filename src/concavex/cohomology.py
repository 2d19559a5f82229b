"""Exact arithmetic in the cohomology ring of a product of projective spaces.

The ring for dimensions ``(n_1, ..., n_m)`` is ``Q[H_1, ..., H_m]`` modulo
the relations ``H_i ** (n_i + 1) == 0``, with ``H_i`` the hyperplane class
pulled back from the i-th factor.  A class is stored densely as a flat tuple
of ``Fraction`` coefficients over the exponent box ``prod(n_i + 1)``.  All
coefficients are exact rationals; floats never appear.

One cached record per ``dims``, ``_ring(dims)``, numbers the box for every
reader, here and in ``laurent``: ``box`` lists the exponents h of each slot
in C order (last axis fastest), ``slot`` maps h back to its slot, ``weight``
gives |h| per slot, ``pairs[i][k]`` the slot of monomial i times monomial k
(-1 past the box) and ``partners[i]`` the k whose product with i stays in
the box.  An h past the box, or of another length than dims, is a miss in
``slot``.  In C order the slot is linear in h: the slot of h + h' is the sum
of the slots whenever h + h' lies in the box.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from operator import add

Rat = Fraction

__all__ = [
    "Rat",
    "CohClass",
    "zero",
    "one",
    "scalar",
    "hyperplane",
    "monomial",
    "linear",
]


_Ring = namedtuple("_Ring", "box slot weight pairs partners")


@functools.cache
def _ring(dims: tuple[int, ...]) -> _Ring:
    """The numbering of the exponent box of the ring of ``dims``, built once per dims."""
    box = tuple(itertools.product(*(range(n + 1) for n in dims)))
    slot = {h: i for i, h in enumerate(box)}
    pairs = tuple(tuple(slot.get(tuple(map(add, h, e)), -1) for e in box) for h in box)
    partners = tuple(tuple(k for k, p in enumerate(row) if p >= 0) for row in pairs)
    return _Ring(box, slot, tuple(map(sum, box)), pairs, partners)


class CohClass:
    """A cohomology class on ``P^{n_1} x ... x P^{n_m}``.

    ``dims`` lists the projective dimensions, ``coeffs`` the flat coefficient
    tuple.  Instances are immutable values; arithmetic returns new objects.
    """

    __slots__ = ("dims", "coeffs")

    def __init__(self, dims: tuple[int, ...], coeffs: tuple[Rat, ...]) -> None:
        expected = math.prod(n + 1 for n in dims)
        if len(coeffs) != expected:
            raise ValueError(f"coefficient tuple has length {len(coeffs)}, expected {expected}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable CohClass")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohClass):
            return NotImplemented
        return (self.dims, self.coeffs) == (other.dims, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.dims, self.coeffs))

    def __reduce__(self) -> tuple:
        return CohClass, (self.dims, self.coeffs)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def coefficient(self, exps: tuple[int, ...]) -> Rat:
        """Coefficient of ``prod H_i ** exps[i]``; 0 past the box or at another length."""
        i = _ring(self.dims).slot.get(exps)
        return Rat(0) if i is None else self.coeffs[i]

    def terms(self) -> Iterator[tuple[tuple[int, ...], Rat]]:
        """Yield ``(exponents, coefficient)`` for every nonzero monomial."""
        for exps, c in zip(_ring(self.dims).box, self.coeffs):
            if c:
                yield exps, c

    def integrate(self) -> Rat:
        """Integral over the product, i.e. the top-monomial coefficient.

        Each factor satisfies the normalization ``integral(H ** n) == 1``.
        """
        return self.coeffs[-1]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        return CohClass(self.dims, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        return CohClass(self.dims, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CohClass":
        return CohClass(self.dims, tuple(-a for a in self.coeffs))

    def scale(self, c: Rat | int) -> "CohClass":
        c = Rat(c)
        return CohClass(self.dims, tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "CohClass") -> "CohClass":
        """Cup product; monomials past the box are zero by the ring relations."""
        self._check(other)
        table = _ring(self.dims).pairs
        acc = [Rat(0)] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            for j, d in enumerate(other.coeffs):
                k = table[i][j]
                if k >= 0:
                    acc[k] += c * d
        return CohClass(self.dims, tuple(acc))

    def __pow__(self, k: int) -> "CohClass":
        if k < 0:
            raise ValueError("negative power of a cohomology class")
        out = one(self.dims)
        for _ in range(k):
            out = out * self
        return out

    def _check(self, other: "CohClass") -> None:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")

    def __repr__(self) -> str:
        parts = []
        for exps, c in self.terms():
            mono = "*".join(
                f"H{i+1}" if e == 1 else f"H{i+1}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"


def zero(dims: tuple[int, ...]) -> CohClass:
    return CohClass(dims, (Rat(0),) * math.prod(n + 1 for n in dims))


def scalar(dims: tuple[int, ...], c: Rat | int) -> CohClass:
    return monomial(dims, (0,) * len(dims), c)


def one(dims: tuple[int, ...]) -> CohClass:
    return scalar(dims, 1)


def monomial(dims: tuple[int, ...], exps: tuple[int, ...], c: Rat | int = 1) -> CohClass:
    """c * H^exps, zero past the box; ValueError for exponents of another length."""
    if len(exps) != len(dims):
        raise ValueError(f"H^{exps} has {len(exps)} exponents in the ring of {dims}")
    z = list(zero(dims).coeffs)
    if (i := _ring(dims).slot.get(exps)) is not None:
        z[i] = Rat(c)
    return CohClass(dims, tuple(z))


def hyperplane(dims: tuple[int, ...], i: int) -> CohClass:
    """The hyperplane class of the i-th factor (0-based); ValueError past the last."""
    if not 0 <= i < len(dims):
        raise ValueError(f"no factor {i} in the ring of {dims}")
    exps = tuple(1 if j == i else 0 for j in range(len(dims)))
    return monomial(dims, exps)


def linear(dims: tuple[int, ...], coeffs: Iterable[Rat | int]) -> CohClass:
    """The divisor class ``sum(coeffs[i] * H_i)``."""
    out = zero(dims)
    for i, a in enumerate(coeffs):
        out = out + hyperplane(dims, i).scale(Rat(a))
    return out
