"""Finite Laurent polynomials in an equivariant weight and a Chern variable.

A block is a finite sum of monomials r alpha^a x^j H^h, where ``a`` is the
exponent of the equivariant weight ``alpha`` and ``j`` that of the Chern
variable ``x`` (either may be negative), and H^h a monomial of the
cohomology ring of the underlying product of projective spaces, so
denominators of the form (divisor - k*alpha) expand to finite sums by
nilpotency.  With alpha, x and every H_i of weight 1, a block is
homogeneous: its monomials share one degree ``deg`` = a + j + |h|, 0 for
the zero block.  The hypergeometric data build only such blocks.

A block stores integers only: its degree and one flat dict
``{code: numerator}``, zero numerators dropped, over one positive
denominator for the whole block, kept in lowest terms (gcd of it and every
numerator is 1), so the form is canonical and equality compares dicts.
Blocks are immutable.  The one encoder is the constructor, which takes int
or ``Fraction`` values of the monomials, ``{(a, j, h): r}``: the unit and
the scalars below are such maps.  An h past the box drops its monomial
(H_i^(n_i + 1) is 0); an h of another length than dims, or monomials of two
degrees, raise ValueError.  ``entry`` reads one coefficient from the stored
ints, ``monomials`` all of them.  The ``terms`` view, the same map with the
H exponents gathered into dense ``CohClass`` coefficients of ``Fraction``
entries, is built on first read and cached.

A code is j * size + slot, where slot numbers h in the ring's exponent box
of ``size`` slots as the one record ``cohomology._ring(dims)`` does; a is
deg - j - |h|, so the code need not hold it.  Floor division gives back j,
negative j included, and the slot.  The record's slots are linear in the
exponents, so when its ``pairs`` table keeps the product of two slots in
the box, the product of two terms has code c1 + c2 and degree deg1 + deg2:
a product costs one int addition per pair of terms.

Every product of two blocks and every sum of such products goes through
one kernel, ``_mul_sum``.  It accumulates all pairs of stored terms in
Python ints over one denominator for the whole sum and meets each slot
only with the slots the record's ``partners`` lists: those that keep the
product in the box.  ``times_poly``, a block times an int polynomial in
x + sum_i c_i H_i, needs no kernel.  Sums, differences and rescalings
share one linear-combination step, ``_lincomb``.  Both raise ValueError
when their nonzero parts have two degrees.  ``relabel`` permutes the H
exponents of a block code by code, ``at_slots`` reads chosen slots of the
box; neither is a product.
"""
from __future__ import annotations

import functools
import math
from collections import defaultdict
from types import MappingProxyType

from .cohomology import CohClass, Rat, _ring

Monomial = tuple[int, int, tuple[int, ...]]  # (a, j, h): alpha^a x^j H^h

__all__ = [
    "LaurentBlock",
    "block_one",
    "block_scalar",
]


@functools.cache
def _slot_perm(dims: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Per slot of h, the slot of h' with h'_k = h_{sigma[k]}; sigma keeps dims."""
    ring = _ring(dims)
    return tuple(ring.slot[tuple(h[i] for i in sigma)] for h in ring.box)


class LaurentBlock:
    """Sparse homogeneous Laurent block: integer terms over one block denominator.

    ``dims`` fixes the cohomology ring.  ``LaurentBlock(dims, terms)``
    encodes the sum of r alpha^a x^j H^h over ``{(a, j, h): r}``; zero values
    are dropped.  ``deg`` is the a + j + |h| every term shares.
    """

    __slots__ = ("dims", "deg", "_codes", "_den", "_view")

    def __init__(self, dims: tuple[int, ...], terms: dict[Monomial, Rat | int]) -> None:
        m, ring = len(dims), _ring(dims)
        size = len(ring.box)
        kept, degs = [], set()
        for (a, j, h), r in terms.items():
            if len(h) != m:
                raise ValueError(f"H^{h} has {len(h)} exponents in a block over {dims}")
            if r and (s := ring.slot.get(h)) is not None:  # H_i^(n_i + 1) = 0
                kept.append((j * size + s, r))
                degs.add(a + j + ring.weight[s])
        # the lcm of the denominators is already in lowest terms
        den = math.lcm(*{r.denominator for _, r in kept})
        self.dims, self.deg, self._den, self._view = dims, _one_degree(degs), den, None
        self._codes = {code: r.numerator * (den // r.denominator) for code, r in kept}

    @property
    def terms(self) -> MappingProxyType[tuple[int, int, tuple[int, ...]], CohClass]:
        """{(a, j, tau): class} with dense Fraction coefficients, built once.

        tau, the exponents of the Kahler parameters, is always zero: the key
        keeps the shape bench/tracer.py unpacks, until ROADMAP item 14
        retires this view.
        """
        if self._view is None:
            (nums, den), t0, slot = self.monomials(), (0,) * len(self.dims), _ring(self.dims).slot
            rows: dict[tuple[int, int, tuple[int, ...]], list[Rat]] = {}
            for (a, j, h), v in nums.items():
                row = rows.setdefault((a, j, t0), [Rat(0)] * len(slot))
                row[slot[h]] = Rat(v, den)
            self._view = MappingProxyType(
                {key: CohClass(self.dims, tuple(row)) for key, row in rows.items()}
            )
        return self._view

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._codes

    def entry(self, a: int, j: int, h: tuple[int, ...]) -> Rat:
        """The coefficient of alpha^a x^j H^h, 0 off the block's degree, without the view."""
        ring = _ring(self.dims)
        if (s := ring.slot.get(h)) is None or a + j + ring.weight[s] != self.deg:
            return Rat(0)
        return Rat(self._codes.get(j * len(ring.box) + s, 0), self._den)

    def monomials(self) -> tuple[dict[Monomial, int], int]:
        """The constructor's map back, ({(a, j, h): numerator}, den), without the view."""
        ring, deg = _ring(self.dims), self.deg
        box, weight = ring.box, ring.weight
        js = [divmod(c, len(box)) for c in self._codes]
        nums = {(deg - j - weight[s], j, box[s]): v for (j, s), v in zip(js, self._codes.values())}
        return nums, self._den

    def at_slots(self, hs: list[tuple[int, ...]]) -> tuple[list[dict[int, int]], int]:
        """Per h of hs, {j: numerator} of the terms at x^j H^h, and the denominator."""
        slot = _ring(self.dims).slot
        size, want = len(slot), {slot[h]: i for i, h in enumerate(hs)}
        out: list[dict[int, int]] = [{} for _ in hs]
        for code, v in self._codes.items():
            if (i := want.get(code % size)) is not None:
                out[i][code // size] = v
        return out, self._den

    def alpha_support(self) -> tuple[int, int] | None:
        """(min, max) alpha exponent over the support, or None if zero."""
        weight = _ring(self.dims).weight
        size = len(weight)
        ws = [c // size + weight[c % size] for c in self._codes]  # j + |h| = deg - a
        return (self.deg - max(ws), self.deg - min(ws)) if ws else None

    def x_support(self) -> tuple[int, int] | None:
        # floor division by the box size is monotone, so the extreme codes hold the extreme j
        size = len(_ring(self.dims).box)
        return (min(self._codes) // size, max(self._codes) // size) if self._codes else None

    def x_stratum(self, j: int) -> "LaurentBlock":
        """The sub-block of terms with x exponent exactly j."""
        size = len(_ring(self.dims).box)
        codes = {c: v for c, v in self._codes.items() if c // size == j}
        return _block(self.dims, self.deg, codes, self._den)

    def relabel(self, sigma: tuple[int, ...]) -> "LaurentBlock":
        """H^h moved to H^h', h'_k = h_{sigma[k]}, sigma keeping dims: only the slots move."""
        perm = _slot_perm(self.dims, sigma)
        size = len(perm)
        codes = {c - c % size + perm[c % size]: v for c, v in self._codes.items()}
        return _block(self.dims, self.deg, codes, self._den)

    # -- arithmetic --------------------------------------------------------

    def times_poly(self, c: tuple[int, ...], poly: list[int], shift: int) -> "LaurentBlock":
        """self * P(x + c.H) x^shift, P(y) = sum_p poly[p] y^p alpha^(len(poly) - 1 - p).

        self lies at one x power j.  By y^p = sum_k C(p, k) x^(p - k) (c.H)^k and
        (c.H)^k = sum_{|h| = k} (k!/h!) c^h H^h, x^(j + shift + q) H^s gets
        sum_k f[s, k] C(q + k, k) poly[q + k], f[s, k] self times (c.H)^k at slot s.
        """
        ring = _ring(self.dims)
        size, top, table = len(ring.box), len(poly) - 1, ring.pairs
        if len(js := {code // size for code in self._codes} or {0}) > 1:
            raise ValueError(f"times_poly needs a block at one x power, not {sorted(js)}")
        f: dict[tuple[int, int], int] = {}
        for slot, (h, k) in enumerate(zip(ring.box, ring.weight)):
            m = math.factorial(k) // math.prod(map(math.factorial, h)) * math.prod(map(pow, c, h))
            for code, v in self._codes.items() if m and k <= top else ():
                if (s := table[code % size][slot]) >= 0:
                    f[s, k] = f.get((s, k), 0) + v * m
        ks = range(min(top, sum(self.dims)) + 1)
        cols = [[math.comb(p, k) * poly[p] for p in range(k, top + 1)] for k in ks]
        rows: defaultdict[int, list[int]] = defaultdict(lambda: [0] * (top + 1))
        for (s, k), fk in f.items():
            rows[s][: top + 1 - k] = [v + fk * b for v, b in zip(rows[s], cols[k])]
        # the top x power first: for a monic P it is self, so _block's gcd drops to 1 at once
        base = (js.pop() + shift) * size
        codes = {base + q * size + s: v for q in range(top, -1, -1)
                 for s, vals in rows.items() if (v := vals[q])}
        return _block(self.dims, self.deg + top + shift, codes, self._den)

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
        return (self.dims, self.deg, self._den, self._codes) == (
            other.dims, other.deg, other._den, other._codes
        )

    def __repr__(self) -> str:
        if not self._codes:
            return "0"
        bits = []
        for key in sorted(self.terms):
            a, j, _ = key
            mono = [f"alpha^{a}"] if a else []
            if j:
                mono.append(f"x^{j}")
            head = "*".join(mono) if mono else "1"
            bits.append(f"({self.terms[key]!r})*{head}")
        return " + ".join(bits)


def _same_ring(dims: tuple[int, ...], blocks: list[LaurentBlock]) -> None:
    for blk in blocks:
        if blk.dims != dims:
            raise ValueError(f"dimension mismatch: {dims} vs {blk.dims}")


def _one_degree(degs: set[int]) -> int:
    """The one degree of a block's nonzero parts, 0 if there are none."""
    if len(degs) > 1:
        raise ValueError(f"terms of degrees {sorted(degs)} in one block")
    return degs.pop() if degs else 0


def _block(dims: tuple[int, ...], deg: int, codes: dict[int, int], den: int) -> LaurentBlock:
    """The block of degree deg of these nonzero numerators over den > 0, put in lowest terms."""
    g = math.gcd(den, *codes.values())
    if g > 1:
        codes = {c: v // g for c, v in codes.items()}
        den //= g
    out = LaurentBlock.__new__(LaurentBlock)
    out.dims, out.deg, out._codes, out._den, out._view = dims, deg if codes else 0, codes, den, None
    return out


def _lincomb(parts: list[tuple[Rat | int, LaurentBlock]]) -> LaurentBlock:
    """Sum of r * block over the parts, in ints over one denominator."""
    dims = parts[0][1].dims
    _same_ring(dims, [blk for _, blk in parts])
    deg = _one_degree({blk.deg for r, blk in parts if r and blk._codes})
    den = math.lcm(*{blk._den * r.denominator for r, blk in parts})
    acc: defaultdict[int, int] = defaultdict(int)
    for r, blk in parts:
        f = r.numerator * (den // (blk._den * r.denominator))
        for c, v in blk._codes.items():
            acc[c] += f * v
    return _block(dims, deg, {c: v for c, v in acc.items() if v}, den)


def _mul_sum(dims: tuple[int, ...], pairs: list[tuple[LaurentBlock, LaurentBlock]]) -> LaurentBlock:
    """Sum of a * b over the pairs, accumulated in ints over one denominator.

    Each term of a meets only the terms of b whose slots keep the product
    in the box; for those the product's code is the sum of the codes.
    """
    _same_ring(dims, [blk for pair in pairs for blk in pair])
    deg = _one_degree({a.deg + b.deg for a, b in pairs if a._codes and b._codes})
    den = math.lcm(*{a._den * b._den for a, b in pairs})
    partners = _ring(dims).partners
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
    return _block(dims, deg, {c: v for c, v in acc.items() if v}, den)


def block_one(dims: tuple[int, ...]) -> LaurentBlock:
    return block_scalar(dims, 1)


def block_scalar(dims: tuple[int, ...], r: Rat | int) -> LaurentBlock:
    return LaurentBlock(dims, {(0, 0, (0,) * len(dims)): r})
