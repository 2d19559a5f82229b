"""Finite Laurent polynomials in an equivariant weight and a Chern variable.

A block is a finitely supported map from keys ``(a, j, tau)`` to cohomology
classes, where ``a`` is the exponent of the equivariant weight ``alpha``
(may be negative), ``j`` the exponent of the Chern variable ``x`` (may be
negative), and ``tau`` a multi-exponent for the Kahler parameters ``t_i``,
one slot per projective factor.  Coefficients live in the cohomology ring of
the underlying product of projective spaces, so denominators of the form
(divisor - k*alpha) expand to finite sums by nilpotency.

A block stores integers only: per key a sparse row ``[(slot, numerator),
...]`` over the flat exponent box of the ring, zero slots and all-zero keys
dropped, and one positive denominator for the whole block, kept in lowest
terms (gcd of it and every numerator is 1), so the form is canonical and
equality compares rows.  Blocks are immutable.  The ``terms`` view, the
same map with dense ``CohClass`` coefficients of ``Fraction`` entries, is
built on first read and cached.

Every product, and every sum of products, goes through one kernel,
``_mul_sum``.  It accumulates all pairs of stored rows in Python ints over
one denominator for the whole sum and truncates at the box edge through
the ring's cached slot-pair table.  A product that is integrated over the
fibre at once goes through ``_mul_integrate`` instead, which computes only
the top slot.  Sums, differences, rescalings and substitutions share one
linear-combination step, ``_lincomb``.
"""
from __future__ import annotations

import itertools
import math
from operator import add
from types import MappingProxyType

from .cohomology import CohClass, Rat, _slot_pairs, monomial, one, scalar, zero

Key = tuple[int, int, tuple[int, ...]]
Row = list[tuple[int, int]]

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


class LaurentBlock:
    """Sparse Laurent block: integer rows over one block denominator.

    ``dims`` fixes both the cohomology ring and the number of t slots.
    ``LaurentBlock(dims, terms)`` converts a map of keys to classes once;
    zero classes are dropped.  ``terms`` reads the block back as that map.
    """

    __slots__ = ("dims", "_rows", "_den", "_view")

    def __init__(self, dims: tuple[int, ...], terms: dict[Key, CohClass] | None = None) -> None:
        # the lcm of the denominators is already in lowest terms
        nonzero = [(key, c) for key, c in (terms or {}).items() if not c.is_zero()]
        den = math.lcm(*{r.denominator for _, c in nonzero for r in c.coeffs})
        self.dims = dims
        self._rows: dict[Key, Row] = {
            key: [(i, r.numerator * (den // r.denominator)) for i, r in enumerate(c.coeffs) if r]
            for key, c in nonzero
        }
        self._den = den
        self._view = None

    @property
    def terms(self) -> MappingProxyType[Key, CohClass]:
        """{key: class} with dense Fraction coefficients, built once."""
        if self._view is None:
            nil, den = Rat(0), self._den
            size = math.prod(n + 1 for n in self.dims)
            view = {}
            for key, row in self._rows.items():
                coeffs = [nil] * size
                for i, v in row:
                    coeffs[i] = Rat(v, den)
                view[key] = CohClass(self.dims, tuple(coeffs))
            self._view = MappingProxyType(view)
        return self._view

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._rows

    def coefficient(self, key: Key) -> CohClass:
        return self.terms.get(key, zero(self.dims))

    def alpha_support(self) -> tuple[int, int] | None:
        """(min, max) alpha exponent over the support, or None if zero."""
        if not self._rows:
            return None
        exps = [k[0] for k in self._rows]
        return min(exps), max(exps)

    def x_support(self) -> tuple[int, int] | None:
        if not self._rows:
            return None
        exps = [k[1] for k in self._rows]
        return min(exps), max(exps)

    def alpha_stratum(self, a: int) -> "LaurentBlock":
        """The sub-block of terms with alpha exponent exactly a."""
        return _block(self.dims, {k: r for k, r in self._rows.items() if k[0] == a}, self._den)

    def x_stratum(self, j: int) -> "LaurentBlock":
        return _block(self.dims, {k: r for k, r in self._rows.items() if k[1] == j}, self._den)

    def t_degree(self) -> int:
        """Maximal total t-degree over the support (-1 if zero)."""
        if not self._rows:
            return -1
        return max(sum(k[2]) for k in self._rows)

    # -- arithmetic --------------------------------------------------------

    def _parts(self, r: Rat | int = 1) -> list[tuple[Key, Rat | int, Row, int]]:
        return [(key, r, row, self._den) for key, row in self._rows.items()]

    def __add__(self, other: "LaurentBlock") -> "LaurentBlock":
        self._check(other)
        return _lincomb(self.dims, self._parts() + other._parts())

    def __sub__(self, other: "LaurentBlock") -> "LaurentBlock":
        self._check(other)
        return _lincomb(self.dims, self._parts() + other._parts(-1))

    def __neg__(self) -> "LaurentBlock":
        return self.scale(-1)

    def scale(self, r: Rat | int) -> "LaurentBlock":
        return _lincomb(self.dims, self._parts(r))

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
        return (self.dims, self._den, self._rows) == (other.dims, other._den, other._rows)

    def _check(self, other: "LaurentBlock") -> None:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")

    # -- specializations ---------------------------------------------------

    def substitute_x(self, value: Rat | int) -> "LaurentBlock":
        """Evaluate the Chern variable at a rational value.

        Requires a polynomial block (no negative x exponents).
        """
        lo = self.x_support()
        if lo is not None and lo[0] < 0:
            raise ValueError("cannot substitute into a block with x poles")
        value = Rat(value)
        return _lincomb(self.dims, [
            ((a, 0, t), value**j, row, self._den) for (a, j, t), row in self._rows.items()
        ])

    def substitute_alpha(self, value: Rat | int) -> "LaurentBlock":
        """Evaluate the circle-action weight at a rational value.

        Negative exponents require value != 0.
        """
        value = Rat(value)
        lo = self.alpha_support()
        if lo is not None and lo[0] < 0 and value == 0:
            raise ZeroDivisionError("alpha pole at alpha = 0")
        return _lincomb(self.dims, [
            ((0, j, t), value**a, row, self._den) for (a, j, t), row in self._rows.items()
        ])

    def integrate_fibrewise(self) -> "LaurentBlock":
        """Integrate every coefficient over the product of projective spaces.

        The result is a block over the empty product (scalar coefficients)
        with the same alpha, x, t support pattern.
        """
        top = math.prod(n + 1 for n in self.dims) - 1
        return _block((), {
            key: [(0, row[-1][1])] for key, row in self._rows.items() if row[-1][0] == top
        }, self._den)

    def as_scalar(self) -> Rat:
        """The value of a constant scalar block (dims may be anything)."""
        if not self._rows:
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
        if not self._rows:
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


def _block(dims: tuple[int, ...], rows: dict[Key, Row], den: int) -> LaurentBlock:
    """The block of these sparse nonzero rows over den > 0, put in lowest terms."""
    g = den
    for row in rows.values():
        if g == 1:
            break
        g = math.gcd(g, *[v for _, v in row])
    if g > 1:
        rows = {key: [(i, v // g) for i, v in row] for key, row in rows.items()}
        den //= g
    out = LaurentBlock.__new__(LaurentBlock)
    out.dims, out._rows, out._den, out._view = dims, rows, den, None
    return out


def _sparse(sums: dict[Key, list[int]]) -> dict[Key, Row]:
    """Dense per-key accumulators as sparse rows, zero slots and keys dropped."""
    return {
        key: row for key, acc in sums.items() if (row := [(i, v) for i, v in enumerate(acc) if v])
    }


def _lincomb(
    dims: tuple[int, ...], parts: list[tuple[Key, Rat | int, Row, int]]
) -> LaurentBlock:
    """Sum of r * row / den at key over the parts, in ints over one denominator."""
    den = math.lcm(*{d * r.denominator for _, r, _, d in parts})
    size = math.prod(n + 1 for n in dims)
    sums: dict[Key, list[int]] = {}
    for key, r, row, d in parts:
        f = r.numerator * (den // (d * r.denominator))
        acc = sums.get(key)
        if acc is None:
            acc = sums[key] = [0] * size
        for i, v in row:
            acc[i] += f * v
    return _block(dims, _sparse(sums), den)


def _mul_sum(dims: tuple[int, ...], pairs: list[tuple[LaurentBlock, LaurentBlock]]) -> LaurentBlock:
    """Sum of a * b over the pairs, accumulated in ints over one denominator."""
    table = _slot_pairs(dims)
    den = math.lcm(*{a._den * b._den for a, b in pairs})
    sums: dict[Key, list[int]] = {}
    for a, b in pairs:
        scale = den // (a._den * b._den)
        fb = b._rows.items()
        for (a1, j1, t1), xs in a._rows.items():
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
    return _block(dims, _sparse(sums), den)


def _mul_integrate(a: LaurentBlock, b: LaurentBlock) -> LaurentBlock:
    """(a * b).integrate_fibrewise(), without forming a * b.

    Only the top class survives the integral.  In C order the slot index
    is linear in the exponents, so the one slot that completes slot i to
    the top (the partner _slot_pairs maps to it) is top - i, and each key
    pair costs one dot product, accumulated in ints over one denominator.
    """
    top = math.prod(n + 1 for n in a.dims) - 1
    partners = []  # per key of b, its numerators at slot top - i, indexed by i
    for key, ys in b._rows.items():
        row = [0] * (top + 1)
        for i, y in ys:
            row[top - i] = y
        partners.append((key, row))
    sums: dict[Key, int] = {}
    for (a1, j1, t1), xs in a._rows.items():
        for (a2, j2, t2), row in partners:
            v = 0
            for i, x in xs:
                v += x * row[i]
            if v:  # most key pairs miss the top class: store no zeros for them
                key = (a1 + a2, j1 + j2, tuple(map(add, t1, t2)))
                sums[key] = sums.get(key, 0) + v
    return _block((), {key: [(0, v)] for key, v in sums.items() if v}, a._den * b._den)


def block_one(dims: tuple[int, ...]) -> LaurentBlock:
    return from_class(one(dims))


def block_scalar(dims: tuple[int, ...], r: Rat | int) -> LaurentBlock:
    return from_class(scalar(dims, r))


def from_class(c: CohClass) -> LaurentBlock:
    return LaurentBlock(c.dims, {(0, 0, _tzero(len(c.dims))): c})


def variable_x(dims: tuple[int, ...], power: int = 1) -> LaurentBlock:
    return LaurentBlock(dims, {(0, power, _tzero(len(dims))): one(dims)})


def alpha_power(dims: tuple[int, ...], power: int) -> LaurentBlock:
    return LaurentBlock(dims, {(power, 0, _tzero(len(dims))): one(dims)})


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
    terms = {}
    power = one(dims)
    weight = 1 / Rat(r)
    for j in range(sum(dims) + 1):
        terms[((-1 - j) * v[0], (-1 - j) * v[1], t0)] = power.scale(weight)
        power = power * c
        if power.is_zero():
            break
        weight /= -r
    return LaurentBlock(dims, terms)


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
    terms = {}
    for beta in itertools.product(*(range(n + 1) for n in dims)):
        total = sum(beta)
        denom = math.prod(math.factorial(e) for e in beta)
        terms[(-total, 0, beta)] = monomial(dims, beta, Rat((-1) ** total, denom))
    return LaurentBlock(dims, terms)
