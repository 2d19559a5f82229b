"""Finite Laurent polynomials in an equivariant weight and a Chern variable.

A block is a finitely supported map from keys ``(a, j, tau)`` to cohomology
classes, where ``a`` is the exponent of the equivariant weight ``alpha``
(may be negative), ``j`` the exponent of the Chern variable ``x`` (may be
negative), and ``tau`` a multi-exponent for the Kahler parameters ``t_i``,
one slot per projective factor.  Coefficients live in the cohomology ring of
the underlying product of projective spaces, so denominators of the form
(divisor - k*alpha) expand to finite sums by nilpotency.

Every product, and every sum of products, goes through one kernel,
``_mul_sum``.  It flattens each operand once to integer numerators over
the operand's own common denominator, accumulates all pairs in Python ints
over one denominator for the whole sum, truncates at the box edge through
the ring's cached slot-pair table, and forms Fractions only once, per
output slot.  A product that is integrated over the fibre at once goes
through ``_mul_integrate`` instead, which computes only the top slot.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import add

from .cohomology import CohClass, Rat, _slot_pairs, monomial, one, scalar, zero

Key = tuple[int, int, tuple[int, ...]]

__all__ = [
    "Key",
    "LaurentBlock",
    "block_one",
    "block_scalar",
    "from_class",
    "variable_x",
    "alpha_power",
    "invert_linear_factor",
    "kahler_factor",
]


def _tzero(m: int) -> tuple[int, ...]:
    return (0,) * m


@dataclass
class LaurentBlock:
    """Sparse Laurent block with CohClass coefficients.

    ``dims`` fixes both the cohomology ring and the number of t slots.
    Zero coefficients are never stored.
    """

    dims: tuple[int, ...]
    terms: dict[Key, CohClass] = field(default_factory=dict)

    # -- construction helpers ---------------------------------------------

    def copy(self) -> "LaurentBlock":
        return LaurentBlock(self.dims, dict(self.terms))

    def _put(self, key: Key, c: CohClass) -> None:
        if key in self.terms:
            s = self.terms[key] + c
            if s.is_zero():
                del self.terms[key]
            else:
                self.terms[key] = s
        elif not c.is_zero():
            self.terms[key] = c

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key: Key) -> CohClass:
        return self.terms.get(key, zero(self.dims))

    def alpha_support(self) -> tuple[int, int] | None:
        """(min, max) alpha exponent over the support, or None if zero."""
        if not self.terms:
            return None
        exps = [k[0] for k in self.terms]
        return min(exps), max(exps)

    def x_support(self) -> tuple[int, int] | None:
        if not self.terms:
            return None
        exps = [k[1] for k in self.terms]
        return min(exps), max(exps)

    def alpha_stratum(self, a: int) -> "LaurentBlock":
        """The sub-block of terms with alpha exponent exactly a."""
        out = LaurentBlock(self.dims)
        for k, c in self.terms.items():
            if k[0] == a:
                out.terms[k] = c
        return out

    def x_stratum(self, j: int) -> "LaurentBlock":
        out = LaurentBlock(self.dims)
        for k, c in self.terms.items():
            if k[1] == j:
                out.terms[k] = c
        return out

    def t_degree(self) -> int:
        """Maximal total t-degree over the support (-1 if zero)."""
        if not self.terms:
            return -1
        return max(sum(k[2]) for k in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentBlock") -> "LaurentBlock":
        self._check(other)
        out = self.copy()
        for k, c in other.terms.items():
            out._put(k, c)
        return out

    def __sub__(self, other: "LaurentBlock") -> "LaurentBlock":
        self._check(other)
        out = self.copy()
        for k, c in other.terms.items():
            out._put(k, -c)
        return out

    def __neg__(self) -> "LaurentBlock":
        return LaurentBlock(self.dims, {k: -c for k, c in self.terms.items()})

    def scale(self, r: Rat | int) -> "LaurentBlock":
        r = Rat(r)
        if r == 0:
            return LaurentBlock(self.dims)
        return LaurentBlock(self.dims, {k: c.scale(r) for k, c in self.terms.items()})

    def __mul__(self, other: "LaurentBlock") -> "LaurentBlock":
        self._check(other)
        return _mul_sum(self.dims, [(self, other)])

    def __pow__(self, k: int) -> "LaurentBlock":
        if k < 0:
            raise ValueError("negative power of a Laurent block")
        out = block_one(self.dims)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentBlock):
            return NotImplemented
        return self.dims == other.dims and self.terms == other.terms

    def _check(self, other: "LaurentBlock") -> None:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")

    # -- specializations ---------------------------------------------------

    def substitute_x(self, value: Rat | int) -> "LaurentBlock":
        """Evaluate the Chern variable at a rational value.

        Requires a polynomial block (no negative x exponents).
        """
        value = Rat(value)
        lo = self.x_support()
        if lo is not None and lo[0] < 0 and value == 0:
            raise ValueError("cannot substitute x=0 into a block with x poles")
        out = LaurentBlock(self.dims)
        for (a, j, t), c in self.terms.items():
            if j < 0:
                raise ValueError("cannot substitute into a block with x poles")
            out._put((a, 0, t), c.scale(value**j))
        return out

    def substitute_alpha(self, value: Rat | int) -> "LaurentBlock":
        """Evaluate the circle-action weight at a rational value.

        Negative exponents require value != 0.
        """
        value = Rat(value)
        out = LaurentBlock(self.dims)
        for (a, j, t), c in self.terms.items():
            if a < 0 and value == 0:
                raise ZeroDivisionError("alpha pole at alpha = 0")
            out._put((0, j, t), c.scale(value**a))
        return out

    def integrate_fibrewise(self) -> "LaurentBlock":
        """Integrate every coefficient over the product of projective spaces.

        The result is a block over the empty product (scalar coefficients)
        with the same alpha, x, t support pattern.
        """
        out = LaurentBlock(())
        for (a, j, t), c in self.terms.items():
            r = c.integrate()
            if r:
                out._put((a, j, t), CohClass((), (r,)))
        return out

    def as_scalar(self) -> Rat:
        """The value of a constant scalar block (dims may be anything)."""
        if not self.terms:
            return Rat(0)
        m = len(self.dims)
        if set(self.terms) != {(0, 0, _tzero(m))}:
            raise ValueError("block is not a constant")
        c = self.terms[(0, 0, _tzero(m))]
        for exps, r in c.terms():
            if any(exps):
                raise ValueError("block is not a scalar")
        return c.coeffs[0]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            a, j, t = key
            mono = []
            if a:
                mono.append(f"alpha^{a}")
            if j:
                mono.append(f"x^{j}")
            for i, e in enumerate(t):
                if e:
                    mono.append(f"t{i+1}^{e}")
            head = "*".join(mono) if mono else "1"
            bits.append(f"({self.terms[key]!r})*{head}")
        return " + ".join(bits)


def _flatten(blk: LaurentBlock) -> tuple[list, int]:
    """[(key, [(slot, numerator), ...])] over the block's lcm denominator, and that lcm."""
    den = math.lcm(*{r.denominator for c in blk.terms.values() for r in c.coeffs if r})
    return [
        (key, [(i, r.numerator * (den // r.denominator)) for i, r in enumerate(c.coeffs) if r])
        for key, c in blk.terms.items()
    ], den


def _mul_sum(dims: tuple[int, ...], pairs: list[tuple[LaurentBlock, LaurentBlock]]) -> LaurentBlock:
    """Sum of a * b over the pairs, accumulated in ints over one denominator."""
    table = _slot_pairs(dims)
    flat = {}
    for pair in pairs:
        for blk in pair:
            if id(blk) not in flat:
                flat[id(blk)] = _flatten(blk)
    den = math.lcm(*{flat[id(a)][1] * flat[id(b)][1] for a, b in pairs})
    sums: dict[Key, list[int]] = {}
    for a, b in pairs:
        (fa, da), (fb, db) = flat[id(a)], flat[id(b)]
        scale = den // (da * db)
        for (a1, j1, t1), xs in fa:
            for (a2, j2, t2), ys in fb:
                key = (a1 + a2, j1 + j2, tuple(map(add, t1, t2)))
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = [0] * len(table)
                for i, x in xs:
                    row, x = table[i], x * scale
                    for j, y in ys:
                        k = row[j]
                        if k >= 0:
                            acc[k] += x * y
    out, nil = LaurentBlock(dims), Rat(0)
    for key, acc in sums.items():
        if any(acc):
            out.terms[key] = CohClass(dims, tuple(Rat(v, den) if v else nil for v in acc))
    return out


def _mul_integrate(a: LaurentBlock, b: LaurentBlock) -> LaurentBlock:
    """(a * b).integrate_fibrewise(), without forming a * b.

    Only the top class survives the integral.  In C order the slot index
    is linear in the exponents, so the one slot that completes slot i to
    the top (the partner _slot_pairs maps to it) is top - i, and each key
    pair costs one dot product, accumulated in ints over one denominator.
    """
    (fa, da), (fb, db) = _flatten(a), _flatten(b)
    top = math.prod(n + 1 for n in a.dims) - 1
    partners = []  # per key of b, its numerators at slot top - i, indexed by i
    for key, ys in fb:
        row = [0] * (top + 1)
        for i, y in ys:
            row[top - i] = y
        partners.append((key, row))
    sums: dict[Key, int] = {}
    for (a1, j1, t1), xs in fa:
        for (a2, j2, t2), row in partners:
            v = 0
            for i, x in xs:
                v += x * row[i]
            key = (a1 + a2, j1 + j2, tuple(map(add, t1, t2)))
            sums[key] = sums.get(key, 0) + v
    return LaurentBlock((), {
        key: CohClass((), (Rat(v, da * db),)) for key, v in sums.items() if v
    })


def block_one(dims: tuple[int, ...]) -> LaurentBlock:
    return from_class(one(dims))


def block_scalar(dims: tuple[int, ...], r: Rat | int) -> LaurentBlock:
    return from_class(scalar(dims, r))


def from_class(c: CohClass) -> LaurentBlock:
    b = LaurentBlock(c.dims)
    if not c.is_zero():
        b.terms[(0, 0, _tzero(len(c.dims)))] = c
    return b


def variable_x(dims: tuple[int, ...], power: int = 1) -> LaurentBlock:
    b = LaurentBlock(dims)
    b.terms[(0, power, _tzero(len(dims)))] = one(dims)
    return b


def alpha_power(dims: tuple[int, ...], power: int) -> LaurentBlock:
    b = LaurentBlock(dims)
    b.terms[(power, 0, _tzero(len(dims)))] = one(dims)
    return b


def _geometric_inverse(c: CohClass, r: Rat | int, v: tuple[int, int]) -> LaurentBlock:
    """Exact inverse of (c + r*v) for nilpotent c and r != 0.

    v is the monomial alpha^v[0] x^v[1].  Expands the finite geometric
    series sum_j (-c)^j (r*v)^{-1-j}, which terminates because c has no
    scalar part.
    """
    if c.coeffs[0] != 0:
        raise ValueError("class must be nilpotent (zero scalar part)")
    dims = c.dims
    t0 = _tzero(len(dims))
    out = LaurentBlock(dims)
    power = one(dims)
    weight = 1 / Rat(r)
    for j in range(sum(dims) + 1):
        out._put(((-1 - j) * v[0], (-1 - j) * v[1], t0), power.scale(weight))
        power = power * c
        if power.is_zero():
            break
        weight /= -r
    return out


def invert_linear_factor(c: CohClass, k: int) -> LaurentBlock:
    """Exact inverse of (c - k*alpha) for nilpotent c and k != 0."""
    if k == 0:
        raise ZeroDivisionError("linear factor with k = 0 is not invertible here")
    return _geometric_inverse(c, -k, (1, 0))


def _invert_x_factor(c: CohClass) -> LaurentBlock:
    """Exact inverse of (x + c) for nilpotent c."""
    return _geometric_inverse(c, 1, (0, 1))


def kahler_factor(dims: tuple[int, ...]) -> LaurentBlock:
    """exp(-(sum_i H_i t_i) / alpha), a finite sum by nilpotency.

    The closed form is sum over multi-exponents beta of
    (-1)^{|beta|} / beta! * H^beta * t^beta * alpha^{-|beta|}.
    """
    out = LaurentBlock(dims)
    ranges = [range(n + 1) for n in dims]
    for beta in itertools.product(*ranges):
        total = sum(beta)
        denom = 1
        for e in beta:
            denom *= math.factorial(e)
        out._put((-total, 0, beta), monomial(dims, beta, Rat((-1) ** total, denom)))
    return out
