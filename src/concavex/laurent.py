"""Finite Laurent polynomials in an equivariant weight and a Chern variable.

A block is a finitely supported map from keys ``(a, j, tau)`` to cohomology
classes, where ``a`` is the exponent of the equivariant weight ``alpha``
(may be negative), ``j`` the exponent of the Chern variable ``x`` (may be
negative), and ``tau`` a multi-exponent for the Kahler parameters ``t_i``,
one slot per projective factor.  Coefficients live in the cohomology ring of
the underlying product of projective spaces, so denominators of the form
(divisor - k*alpha) expand to finite sums by nilpotency.

A block stores integers only: one flat dict ``{code: numerator}``, zero
numerators dropped, over one positive denominator for the whole block, kept
in lowest terms (gcd of it and every numerator is 1), so the form is
canonical and equality compares dicts.  Blocks are immutable.  The one
encoder is the constructor, which takes int or ``Fraction`` values of the
monomials alpha^a x^j t^tau H^h, ``{(a, j, tau, h): r}``: the unit and the
scalars below are such maps.  An h past the box drops its monomial
(H_i^(n_i + 1) is 0), and an h of another length than dims raises
ValueError.  The ``terms`` view, the same map with dense ``CohClass``
coefficients of ``Fraction`` entries, is built on first read and cached;
``entry`` reads one coefficient from the stored ints, ``monomials`` all.

A code packs a key and a slot of the ring's flat exponent box into one int.
The fields a, j, t_1 .. t_m are 32 bits wide each and signed, a the most
significant: they make the int f = sum of e_k * 2**(32 * (m + 1 - k)) over
the fields e_0 = a, e_1 = j, e_{1+i} = t_i.  The slot is the last digit, in
base the box size: code = f * size + slot.  Once half its range is added to
every field, a field reads back with a shift and a mask.  In C order the slot
is linear in the exponents, so when the ring's slot-pair table keeps the
product of two slots in the box, the product of two terms has code
c1 + c2: a product costs one int addition per pair of terms.  A field that
left its range would carry into its neighbour, so a block records a bound
on its largest |field|; a key from outside, or a product, whose bound would
reach 2**31 raises ValueError instead of wrapping.  Every block over dims
packs len(dims) t fields; a key with any other number raises ValueError.

Every product and every sum of products goes through one kernel,
``_mul_sum``.  It accumulates all pairs of stored terms in Python ints over
one denominator for the whole sum and meets each slot only with the
partners the ring's cached table lists: those that keep the product in the
box.  Sums, differences and rescalings share one linear-combination step,
``_lincomb``.  ``monomials`` is the constructor's inverse: it reads the
stored ints back as ``({(a, j, tau, h): numerator}, den)``, without the view.
"""
from __future__ import annotations

import functools
import itertools
import math
import struct
from collections import defaultdict
from types import MappingProxyType

from .cohomology import CohClass, Rat, _flat_index, _slot_pairs

Key = tuple[int, int, tuple[int, ...]]
Monomial = tuple[int, int, tuple[int, ...], tuple[int, ...]]  # (a, j, tau, h): alpha^a x^j t^tau H^h

__all__ = [
    "Key",
    "LaurentBlock",
    "block_one",
    "block_scalar",
]

_WIDTH = 32  # bits per field of a code
_HALF = 1 << (_WIDTH - 1)  # every |field| stays below this
_MASK = (1 << _WIDTH) - 1


def _tzero(m: int) -> tuple[int, ...]:
    return (0,) * m


@functools.cache
def _bias(m: int) -> int:
    """Half the range in each of the m + 2 fields: added, it makes every field unsigned."""
    return sum(_HALF << (_WIDTH * k) for k in range(m + 2))


@functools.cache
def _slot_partners(dims: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per slot i, the slots j whose product with i stays in the box."""
    return tuple(tuple(j for j, k in enumerate(row) if k >= 0) for row in _slot_pairs(dims))


def _pack(key: Key) -> int:
    """The fields of a key as one int, f in the module docstring."""
    a, j, tau = key
    f = 0
    for e in (a, j, *tau):
        if not -_HALF < e < _HALF:
            raise ValueError(f"exponent {e} does not fit a {_WIDTH}-bit field")
        f = (f << _WIDTH) + e
    return f


def _unpack(f: int, m: int) -> Key:
    """The key of packed fields f with m t fields, read as 32-bit ints in one struct call."""
    u = (f + _bias(m)) ^ _bias(m)  # each field with its top bit flipped: two's complement
    a, j, *tau = struct.unpack(f">{m + 2}i", u.to_bytes(4 * (m + 2), "big"))
    return a, j, tuple(tau)


class LaurentBlock:
    """Sparse Laurent block: packed integer terms over one block denominator.

    ``dims`` fixes the cohomology ring and the number of t slots, one per
    factor.  ``LaurentBlock(dims, terms)`` encodes the sum of r alpha^a x^j
    t^tau H^h over ``{(a, j, tau, h): r}``; zero values are dropped.
    ``terms`` reads the block back with the H exponents gathered into classes.
    """

    __slots__ = ("dims", "_codes", "_den", "_reach", "_view")

    def __init__(self, dims: tuple[int, ...], terms: dict[Monomial, Rat | int]) -> None:
        m, size = len(dims), len(_slot_pairs(dims))
        kept = []
        for (a, j, tau, h), r in terms.items():
            if len(tau) != m:
                raise ValueError(f"a key with {len(tau)} t exponents in a block over {dims}")
            if len(h) != m:
                raise ValueError(f"H^{h} has {len(h)} exponents in a block over {dims}")
            if r and all(0 <= e <= n for e, n in zip(h, dims)):  # H_i^(n_i + 1) = 0
                kept.append(((a, j, tau), h, r))
        # the lcm of the denominators is already in lowest terms
        den = math.lcm(*{r.denominator for _, _, r in kept})
        self.dims, self._den, self._view = dims, den, None
        self._codes = {
            _pack(key) * size + _flat_index(dims, h): r.numerator * (den // r.denominator)
            for key, h, r in kept
        }
        self._reach = max((abs(e) for (a, j, tau), _, _ in kept for e in (a, j, *tau)), default=0)

    @property
    def terms(self) -> MappingProxyType[Key, CohClass]:
        """{key: class} with dense Fraction coefficients, built once."""
        if self._view is None:
            nil, den, size = Rat(0), self._den, len(_slot_pairs(self.dims))
            rows: dict[Key, list[Rat]] = {}
            for code, v in self._codes.items():
                f, slot = divmod(code, size)
                key = _unpack(f, len(self.dims))
                row = rows.get(key)
                if row is None:
                    row = rows[key] = [nil] * size
                row[slot] = Rat(v, den)
            self._view = MappingProxyType(
                {key: CohClass(self.dims, tuple(row)) for key, row in rows.items()}
            )
        return self._view

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._codes

    def entry(self, key: Key, h: tuple[int, ...]) -> Rat:
        """The coefficient of H^h at key, terms[key].coefficient(h), without the view."""
        m = len(self.dims)
        if len(key[2]) != m or len(h) != m or any(e < 0 or e > n for e, n in zip(h, self.dims)):
            return Rat(0)
        code = _pack(key) * len(_slot_pairs(self.dims)) + _flat_index(self.dims, h)
        return Rat(self._codes.get(code, 0), self._den)

    def monomials(self) -> tuple[dict[Monomial, int], int]:
        """The constructor's map back, ({(a, j, tau, h): numerator}, den), without the view."""
        m, hs = len(self.dims), list(itertools.product(*(range(n + 1) for n in self.dims)))
        size = len(hs)  # the slots in C order, as _flat_index numbers them
        terms = {(*_unpack(c // size, m), hs[c % size]): v for c, v in self._codes.items()}
        return terms, self._den

    def _field(self, k: int) -> list[int]:
        """Field k (0 alpha, 1 x, 1 + i the t_i exponent) of every stored code."""
        m = len(self.dims)
        size, bias, shift = len(_slot_pairs(self.dims)), _bias(m), _WIDTH * (m + 1 - k)
        return [(((code // size + bias) >> shift) & _MASK) - _HALF for code in self._codes]

    def alpha_support(self) -> tuple[int, int] | None:
        """(min, max) alpha exponent over the support, or None if zero."""
        exps = self._field(0)
        return (min(exps), max(exps)) if exps else None

    def x_support(self) -> tuple[int, int] | None:
        exps = self._field(1)
        return (min(exps), max(exps)) if exps else None

    def x_stratum(self, j: int) -> "LaurentBlock":
        """The sub-block of terms with x exponent exactly j."""
        codes = {c: v for (c, v), e in zip(self._codes.items(), self._field(1)) if e == j}
        return _block(self.dims, codes, self._den, self._reach)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentBlock") -> "LaurentBlock":
        return _lincomb([(1, self), (1, other)])

    def __sub__(self, other: "LaurentBlock") -> "LaurentBlock":
        return _lincomb([(1, self), (-1, other)])

    def __neg__(self) -> "LaurentBlock":
        return self.scale(-1)

    def scale(self, r: Rat | int) -> "LaurentBlock":
        return _lincomb([(r, self)])

    def __mul__(self, other: "LaurentBlock") -> "LaurentBlock":
        return _mul_sum(self.dims, [(self, other)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentBlock):
            return NotImplemented
        return (self.dims, self._den, self._codes) == (other.dims, other._den, other._codes)

    def __repr__(self) -> str:
        if not self._codes:
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


def _same_ring(dims: tuple[int, ...], blocks: list[LaurentBlock]) -> None:
    for blk in blocks:
        if blk.dims != dims:
            raise ValueError(f"dimension mismatch: {dims} vs {blk.dims}")


def _block(dims: tuple[int, ...], codes: dict[int, int], den: int, reach: int) -> LaurentBlock:
    """The block of these nonzero numerators over den > 0, put in lowest terms."""
    g = math.gcd(den, *codes.values())
    if g > 1:
        codes = {c: v // g for c, v in codes.items()}
        den //= g
    out = LaurentBlock.__new__(LaurentBlock)
    out.dims, out._codes, out._den, out._reach, out._view = dims, codes, den, reach, None
    return out


def _lincomb(parts: list[tuple[Rat | int, LaurentBlock]]) -> LaurentBlock:
    """Sum of r * block over the parts, in ints over one denominator."""
    dims = parts[0][1].dims
    _same_ring(dims, [blk for _, blk in parts])
    den = math.lcm(*{blk._den * r.denominator for r, blk in parts})
    acc: defaultdict[int, int] = defaultdict(int)
    for r, blk in parts:
        f = r.numerator * (den // (blk._den * r.denominator))
        for c, v in blk._codes.items():
            acc[c] += f * v
    reach = max(blk._reach for _, blk in parts)
    return _block(dims, {c: v for c, v in acc.items() if v}, den, reach)


def _product_bounds(dims: tuple[int, ...], pairs: list[tuple[LaurentBlock, LaurentBlock]]) -> int:
    """The field bound of the products; ValueError if one could carry a field past its width."""
    _same_ring(dims, [blk for pair in pairs for blk in pair])
    reach = max((a._reach + b._reach for a, b in pairs if a._codes and b._codes), default=0)
    if reach >= _HALF:
        raise ValueError(f"a product exponent could leave its {_WIDTH}-bit field")
    return reach


def _mul_sum(dims: tuple[int, ...], pairs: list[tuple[LaurentBlock, LaurentBlock]]) -> LaurentBlock:
    """Sum of a * b over the pairs, accumulated in ints over one denominator.

    Each term of a meets only the terms of b whose slots keep the product
    in the box; for those the product's code is the sum of the codes.
    """
    reach = _product_bounds(dims, pairs)
    den = math.lcm(*{a._den * b._den for a, b in pairs})
    partners = _slot_partners(dims)
    size = len(partners)
    acc: defaultdict[int, int] = defaultdict(int)
    for a, b in pairs:
        scale = den // (a._den * b._den)
        by_slot: dict[int, list[tuple[int, int]]] = {}
        for cb, y in b._codes.items():
            by_slot.setdefault(cb % size, []).append((cb, y))
        fits: dict[int, list[tuple[int, int]]] = {}  # per slot of a, the terms of b it meets
        for ca, x in a._codes.items():
            i = ca % size
            ys = fits.get(i)
            if ys is None:
                ys = fits[i] = [t for j in partners[i] if j in by_slot for t in by_slot[j]]
            x *= scale
            for cb, y in ys:
                acc[ca + cb] += x * y
    return _block(dims, {c: v for c, v in acc.items() if v}, den, reach)


def block_one(dims: tuple[int, ...]) -> LaurentBlock:
    return block_scalar(dims, 1)


def block_scalar(dims: tuple[int, ...], r: Rat | int) -> LaurentBlock:
    t0 = _tzero(len(dims))
    return LaurentBlock(dims, {(0, 0, t0, t0): r})

