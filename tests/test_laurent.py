"""Laurent blocks: strata bookkeeping, exact inverses, the reader of the stored ints."""

import itertools
import math
import re
from fractions import Fraction as Rat

import pytest
from hypothesis import given, settings, strategies as st

from concavex.cohomology import CohClass, _ring, monomial
from concavex.eulerdata import _inverse_power, _power, chern_ratio, hyper_block, reduced_block
from concavex.geometry import parse_spec
from concavex.laurent import LaurentBlock, _mul_sum, block_one
from kahler import kahler_terms, top_class

P1 = (1,)
P2 = (2,)


def _alpha_x(dims, a=0, j=0):
    """alpha^a x^j."""
    return LaurentBlock(dims, {(a, j, (0,) * len(dims)): 1})


def _invert_x_factor(dims, c):
    """(x + sum_i c_i H_i)^{-1}."""
    return _inverse_power(dims, c, 1, 1, x=True)


def _values(read):
    """{monomial: value} of a read ({monomial: numerator}, den)."""
    nums, den = read
    return {key: Rat(v, den) for key, v in nums.items()}


def _view_monomials(blk):
    """{(a, j, h): value} read off the view, whose keys carry a zero tau."""
    return {(a, j, h): r for (a, j, _), c in blk.terms.items() for h, r in c.terms()}


def test_invert_x_factor_back_multiplies_to_one():
    cases = [(dims, tuple(int(k == i) for k in range(len(dims)))) for dims in (P1, P2, (2, 1))
             for i in range(len(dims))]
    # nonzero entries on two factors: local P1 x P1 and a mixed product
    cases += [((1, 1), (-2, -2)), ((2, 1), (2, 3)), ((2, 1), (-3, 0))]
    for dims, c in cases:
        x_plus_c = LaurentBlock(dims, {(0, 1, (0,) * len(dims)): 1} | {
            (0, 0, _power(len(dims), i, 1)): a for i, a in enumerate(c)
        })
        assert x_plus_c * _invert_x_factor(dims, c) == block_one(dims), (dims, c)


def test_invert_x_factor_known_expansion():
    # (x - 2 H1 - 2 H2)^{-1} on P1 x P1: x^-1 + 2 (H1 + H2) x^-2 + 8 H1 H2 x^-3
    want = LaurentBlock((1, 1), {
        (0, -1, (0, 0)): 1,
        (0, -2, (1, 0)): 2,
        (0, -2, (0, 1)): 2,
        (0, -3, (1, 1)): 8,
    })
    assert _invert_x_factor((1, 1), (-2, -2)) == want


def test_kahler_factor_on_the_line():
    assert kahler_terms(P1) == {(0, (0,)): 1, (-1, (1,)): -1}
    # the fibre integral of the unit is the Kahler factor's t-linear term
    assert top_class(block_one(P1)) == {(-1, 0, (1,)): -1}


def test_kahler_factor_two_factors_cross_term():
    assert kahler_terms((1, 1))[(-2, (1, 1))] == 1
    # only the cross term t1 t2 H1 H2 / alpha^2 reaches the top class
    assert top_class(block_one((1, 1))) == {(-2, 0, (1, 1)): 1}


def test_x_strata_partition():
    b = _inverse_power(P2, (1,), 1, 1) * _invert_x_factor(P2, (3,)) + _alpha_x(P2, a=-4, j=2)
    total = LaurentBlock(P2, {})
    lo, hi = b.x_support()
    assert (lo, hi) == (-3, 2)
    for j in range(lo, hi + 1):
        total = total + b.x_stratum(j)
    assert total == b


def test_the_reader_keeps_strata():
    b = LaurentBlock(P2, {(0, 0, (2,)): Rat(5)})
    assert (b * _alpha_x(P2, a=-3)).monomials() == ({(-3, 0, (2,)): 5}, 1)


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
def test_alpha_powers_multiply(a, b):
    assert _alpha_x(P1, a=a) * _alpha_x(P1, a=b) == _alpha_x(P1, a=a + b)


# -- the integer sum-of-products kernel ------------------------------------


def _box(dims):
    return list(itertools.product(*(range(n + 1) for n in dims)))


def _reference_mul_sum(dims, pairs):
    """{key: {exponents: value}} of sum a * b, by a plain Fraction double loop."""
    out = {}
    for a, b in pairs:
        for (a1, j1, t1), c1 in a.terms.items():
            for (a2, j2, t2), c2 in b.terms.items():
                key = (a1 + a2, j1 + j2, tuple(u + v for u, v in zip(t1, t2)))
                acc = out.setdefault(key, {})
                for e, x in zip(_box(dims), c1.coeffs):
                    for f, y in zip(_box(dims), c2.coeffs):
                        g = tuple(u + v for u, v in zip(e, f))
                        if all(u <= n for u, n in zip(g, dims)):
                            acc[g] = acc.get(g, 0) + x * y
    out = {k: {g: v for g, v in acc.items() if v} for k, acc in out.items()}
    return {k: acc for k, acc in out.items() if acc}


@st.composite
def _blocks(draw, dims, deg=None):
    """Small homogeneous blocks with mixed denominators and negative x exponents.

    A degree is drawn unless given, and each term's alpha exponent follows
    from it: a = deg - j - |h|, negative or not.
    """
    if deg is None:
        deg = draw(st.integers(-3, 3))
    size = len(_box(dims))
    coeff = st.one_of(
        st.just(Rat(0)),
        st.builds(Rat, st.integers(-6, 6), st.integers(1, 12)),
    )
    rows = draw(st.dictionaries(st.integers(-2, 2), st.lists(coeff, min_size=size, max_size=size),
                                max_size=3))
    return LaurentBlock(dims, {
        (deg - j - sum(h), j, h): r for j, c in rows.items() for h, r in zip(_box(dims), c)
    })


@st.composite
def _pair_lists(draw):
    """Pairs (a, b) whose products share one degree: every a has one degree, every b another."""
    dims = draw(st.sampled_from([(), (1,), (2, 2), (7,)]))
    da = draw(st.integers(-3, 3))
    db = draw(st.one_of(st.just(da), st.integers(-3, 3)))
    pairs = draw(st.lists(st.tuples(_blocks(dims, da), _blocks(dims, db)), max_size=3))
    if pairs and draw(st.booleans()):  # a pair that cancels the first one
        a, b = pairs[0]
        pairs.append((-a, b))
    if pairs and draw(st.booleans()):  # one operand in several pairs
        pairs.append((pairs[0][1], pairs[-1][0]))
    return dims, pairs


@settings(max_examples=150, deadline=None)
@given(_pair_lists())
def test_mul_sum_matches_fraction_double_loop(case):
    dims, pairs = case
    reference = _reference_mul_sum(dims, pairs)
    got = _mul_sum(dims, pairs)
    assert got.dims == dims
    assert {
        k: {e: r for e, r in zip(_box(dims), c.coeffs) if r} for k, c in got.terms.items()
    } == reference


@st.composite
def _monomial_maps(draw):
    """Homogeneous {(a, j, h): r} with zero values and h past the box or below 0 mixed in."""
    dims = draw(st.sampled_from([(), (1,), (2, 2), (7,), (1, 2, 1)]))
    deg = draw(st.integers(-3, 3))
    key = st.tuples(st.integers(-2, 2), st.tuples(*[st.integers(-1, 3)] * len(dims)))
    value = st.one_of(st.integers(-9, 9), st.builds(Rat, st.integers(-6, 6), st.integers(1, 12)))
    terms = draw(st.dictionaries(key, value, max_size=8))
    return dims, {(deg - j - sum(h), j, h): r for (j, h), r in terms.items()}


@settings(max_examples=150, deadline=None)
@given(_monomial_maps())
def test_the_reader_gives_back_the_constructors_map(case):
    """monomials() inverts the constructor: ints over one denominator, no view built."""
    dims, terms = case
    blk = LaurentBlock(dims, terms)
    nums, den = got = blk.monomials()
    assert blk._view is None
    in_box = {k: r for k, r in terms.items() if all(0 <= e <= n for e, n in zip(k[2], dims))}
    assert _values(got) == {k: Rat(r) for k, r in in_box.items() if r}
    assert type(den) is int and den > 0 and all(type(v) is int and v for v in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    # and it agrees with the view
    assert _values(got) == _view_monomials(blk)


@settings(max_examples=100, deadline=None)
@given(_pair_lists())
def test_the_kahler_product_relabels_the_terms(case):
    """The top class of kahler * x is x's terms relabelled, beta = top - h, by (-1)^|beta| / beta!.

    Each term of x meets one Kahler term at the top class and no two land on
    the same key: extraction reads the fibre integral off x itself.
    """
    dims, pairs = case
    for x in [blk for pair in pairs for blk in pair]:
        want = {}
        for (a, j, h), r in _values(x.monomials()).items():
            beta = tuple(n - e for n, e in zip(dims, h))
            key = (a - sum(beta), j, beta)
            assert key not in want
            want[key] = r * (-1) ** sum(beta) / math.prod(map(math.factorial, beta))
        assert top_class(x) == want


def test_the_kahler_product_on_two_factors():
    dims = (2, 1)
    x = LaurentBlock(dims, {
        (-2, 1, (1, 1)): Rat(3, 4),
        (-1, 2, (0, 0)): 5,
        (-3, 1, (2, 1)): Rat(-1, 6),
    })
    got = top_class(x)
    # the top class of x pairs with the unit, H1 H2 with t1 H1 / alpha
    assert got[(-3, 1, (0, 0))] == Rat(-1, 6)
    assert got[(-3, 1, (1, 0))] == Rat(-3, 4)


def test_mul_sum_of_nothing_is_zero():
    assert _mul_sum((2, 2), []) == LaurentBlock((2, 2), {})


def test_a_sum_of_two_degrees_raises():
    one, x, nil = block_one(P1), _alpha_x(P1, j=1), LaurentBlock(P1, {})
    for parts in (lambda: one + x, lambda: x - one, lambda: _mul_sum(P1, [(one, one), (x, one)])):
        with pytest.raises(ValueError, match=re.escape("terms of degrees [0, 1] in one block")):
            parts()
    # a zero part has no degree, and a zero result has degree 0
    assert x + nil == x and _mul_sum(P1, [(x, one), (nil, one)]) == x
    assert (x - x).deg == x.x_stratum(0).deg == 0 and x.scale(0).deg == 0


# -- the code layout: one int per (x power, slot) ---------------------------


@st.composite
def _layout_cases(draw):
    m = draw(st.integers(1, 3))
    dims = draw(st.tuples(*[st.integers(1, 2)] * m))
    size = len(_box(dims))
    deg, j = st.integers(-40, 40), st.integers(-40, 40)
    slot = st.integers(0, size - 1)
    return dims, (draw(deg), draw(j), draw(slot)), (draw(deg), draw(j), draw(slot))


@settings(max_examples=200, deadline=None)
@given(_layout_cases())
def test_codes_unpack_and_add_like_keys(case):
    """A code is j * size + slot: floor division gives j back, negative j included."""
    dims, (d1, j1, i1), (d2, j2, i2) = case
    box = _box(dims)
    table = _ring(dims).pairs
    size = len(table)
    h1, h2 = box[i1], box[i2]
    b1 = LaurentBlock(dims, {(d1 - j1 - sum(h1), j1, h1): 1})
    b2 = LaurentBlock(dims, {(d2 - j2 - sum(h2), j2, h2): 1})
    (c1,), (c2,) = b1._codes, b2._codes
    assert c1 == j1 * size + i1 and divmod(c1, size) == (j1, i1)
    assert (b1.deg, b2.deg) == (d1, d2)
    # a product adds the codes and the degrees, or is zero past the box
    product = b1 * b2
    if table[i1][i2] >= 0:
        assert list(product._codes) == [c1 + c2] == [(j1 + j2) * size + table[i1][i2]]
        assert product.deg == d1 + d2
    else:
        assert product.is_zero() and product.deg == 0
    # the strata filters read alpha and x back from the codes
    lo, hi = (0,) * len(dims), dims
    blk = LaurentBlock(dims, {(d1 - j1, j1, lo): 1, (d1 - j2 - sum(hi), j2, hi): 2})
    alphas = (d1 - j1, d1 - j2 - sum(hi))
    assert blk.alpha_support() == (min(alphas), max(alphas))
    assert blk.x_support() == (min(j1, j2), max(j1, j2))
    # the reader gives every monomial back
    assert blk.monomials() == ({(d1 - j1, j1, lo): 1, (d1 - j2 - sum(hi), j2, hi): 2}, 1)
    for j in (j1, j2):
        want = {k: c for k, c in blk.terms.items() if k[1] == j}
        assert blk.x_stratum(j).terms == want
    # the point reads find every coefficient at these x powers and degrees
    for (a, j, _), c in blk.terms.items():
        assert [blk.entry(a, j, e) for e in box] == list(c.coeffs)


def test_a_field_past_its_width_raises_instead_of_wrapping():
    """The slot is the code's last digit, base the box size: it must stay in the box.

    An h of another ring's length would read at a shifted slot, and raises;
    one past the box would spill its slot into the x power, and is zero
    instead.  The x power and the degree are Python ints: they have no width.
    """
    with pytest.raises(ValueError):
        LaurentBlock(P1, {(0, 0, (1, 0)): 1})
    assert LaurentBlock(P1, {(-2, 0, (2,)): 7}) == LaurentBlock(P1, {})


def test_the_constructor_encodes_monomials_and_checks_their_shape():
    dims, t0 = (1, 2), (0, 0)
    # int and Fraction values mix, zero values drop, and the block is in lowest terms
    blk = LaurentBlock(dims, {
        (0, 0, (1, 2)): 3, (1, 1, (0, 1)): Rat(3, 2), (3, 0, t0): Rat(0),
    })
    assert blk.terms == {
        (0, 0, t0): monomial(dims, (1, 2), 3), (1, 1, t0): monomial(dims, (0, 1), Rat(3, 2)),
    }
    assert blk.deg == 3 and blk._den == 2 and _lowest_terms(blk)
    assert _lowest_terms(LaurentBlock(dims, {(0, 0, t0): 2, (-1, 1, t0): Rat(4, 3)}))
    # an H exponent past the box or below 0 drops its monomial: H_i^(n_i + 1) = 0
    for h in [(2, 0), (0, 3), (-1, 0), (0, -1)]:
        assert LaurentBlock(dims, {(-sum(h), 0, h): 5, (0, 0, t0): 1}) == block_one(dims)
    # an h of another length raises
    for h in [(0,), (0, 0, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"in a block over {dims}")):
            LaurentBlock(dims, {(0, 0, h): 1})
    # so do monomials of two degrees
    with pytest.raises(ValueError, match=re.escape("terms of degrees [0, 1] in one block")):
        LaurentBlock(dims, {(0, 0, t0): 1, (0, 0, (1, 0)): 1})


@settings(max_examples=50, deadline=None)
@given(_pair_lists())
def test_numerators_read_the_stored_ints_without_the_view(case):
    """Products and operands are read off the stored ints: none builds its view."""
    dims, pairs = case
    operands = [blk for pair in pairs for blk in pair]
    blocks = [a * b for a, b in pairs] + operands
    got = [blk.monomials() for blk in blocks]
    assert [blk for blk in blocks if blk._view is not None] == []
    # one positive denominator in lowest terms with every numerator
    assert all(den > 0 and math.gcd(den, *nums.values()) == 1 for nums, den in got)
    assert [_values(read) for read in got] == [_view_monomials(blk) for blk in blocks]


# -- the stored integer form against a Fraction reference on the view ------


def _as_dict(blk):
    """{key: {exponents: value}} of a block, read through its Fraction view."""
    return {
        k: {e: r for e, r in zip(_box(blk.dims), c.coeffs) if r} for k, c in blk.terms.items()
    }


def _reference_sum(*parts):
    """sum of r * block over (r, block dict) parts, zero entries dropped."""
    out = {}
    for r, blk in parts:
        for k, c in blk.items():
            acc = out.setdefault(k, {})
            for e, v in c.items():
                acc[e] = acc.get(e, 0) + r * v
    out = {k: {e: v for e, v in acc.items() if v} for k, acc in out.items()}
    return {k: acc for k, acc in out.items() if acc}


def _lowest_terms(blk):
    return math.gcd(blk._den, *blk._codes.values()) == 1


def _rebuilt(blk):
    """The block encoded again from its view's monomials."""
    return LaurentBlock(blk.dims, _view_monomials(blk))


@settings(max_examples=100, deadline=None)
@given(_pair_lists(), st.builds(Rat, st.integers(-4, 4), st.integers(1, 6)))
def test_integer_form_matches_fraction_arithmetic_on_the_view(case, r):
    dims, pairs = case
    for a, b in pairs:
        da, db = _as_dict(a), _as_dict(b)
        results = {
            "neg": (-a, _reference_sum((-1, da))),
            "scale": (a.scale(r), _reference_sum((r, da))),
        }
        if a.is_zero() or b.is_zero() or a.deg == b.deg:
            results["add"] = (a + b, _reference_sum((1, da), (1, db)))
            results["sub"] = (a - b, _reference_sum((1, da), (-1, db)))
            assert a + b - b == a
        else:  # two degrees do not add
            with pytest.raises(ValueError, match="degrees"):
                a + b
        for n in range(-3, 3):
            results[f"x {n}"] = (a.x_stratum(n), {k: c for k, c in da.items() if k[1] == n})
        for name, (got, want) in results.items():
            assert _as_dict(got) == want, name
            assert _lowest_terms(got), name
            assert _rebuilt(got) == got, name
        nums, den = a.monomials()
        assert {k: Rat(v, den) for k, v in nums.items()} == _view_monomials(a)
        assert math.gcd(den, *nums.values()) == 1
        assert (a == b) == (da == db)
        assert (a - a).is_zero()
    for blk in [x for pair in pairs for x in pair] + [_mul_sum(dims, pairs)]:
        assert _lowest_terms(blk)
        assert _rebuilt(blk) == blk
    for nums, den in [(a * b).monomials() for a, b in pairs]:
        assert math.gcd(den, *nums.values()) == 1


@settings(max_examples=50, deadline=None)
@given(_pair_lists())
def test_entry_reads_one_coefficient_without_the_view(case):
    dims, pairs = case
    m = len(dims)
    for a, _ in pairs:
        blk = -(-a)  # equal to a, its view not built yet
        keys = [(k[0], k[1]) for k in a.terms] + [(9, 0)]  # and a key a does not hold
        got = {k: [blk.entry(*k, e) for e in _box(dims)] for k in keys}
        assert blk._view is None
        zero = [0] * len(_box(dims))
        held = {(k[0], k[1]): list(c.coeffs) for k, c in a.terms.items()}
        assert got == {k: held.get(k, zero) for k in keys}
        # a stored (j, h) read at an alpha off the block's degree, an exponent
        # past the box, or an h one exponent short or long, reads as zero
        for (al, j, h), v in _values(a.monomials()).items():
            assert blk.entry(al, j, h) == v
            assert blk.entry(al + 1, j, h) == blk.entry(al - 1, j, h) == 0
            assert blk.entry(al, j, h + (0,)) == 0
            if m:
                assert blk.entry(al, j, h[:-1]) == 0
                assert blk.entry(al, j, tuple(n + 1 for n in dims)) == 0


TRACED_SPECS = [
    parse_spec("space 4\nbundle convex 5\n"),
    parse_spec("space 2\nbundle concave 3\n"),
    parse_spec("space 2\nspace 2\nbundle convex 3 3\n"),
    parse_spec("space 1\nspace 2\nbundle convex 1 3\nbundle concave 1 0\n"),
]


@pytest.mark.parametrize("spec", TRACED_SPECS, ids=["quintic", "local-p2", "bicubic", "zero-entry"])
def test_blocks_keep_the_shape_the_tracer_reads(spec):
    """bench/tracer.py reads (a, j, tau) keys, tau zero, and dense, nonzero Fraction classes."""
    dims = spec.factors
    d = (1,) * spec.m
    table = {}
    blocks = [
        chern_ratio(spec),
        reduced_block(spec, d, table),
        hyper_block(spec, d, table, chern_ratio(spec)),
        _mul_sum(dims, [(reduced_block(spec, d, table), chern_ratio(spec))] * 2),
    ]
    size = len(_box(dims))
    for blk in blocks:
        assert blk.terms
        for key, cls in blk.terms.items():
            a, j, tau = key
            assert type(a) is int and type(j) is int
            assert tau == (0,) * spec.m
            assert isinstance(cls, CohClass) and len(cls.coeffs) == size
            assert all(type(r) is Rat for r in cls.coeffs)
            assert any(cls.coeffs)


# -- relabelling the factors and reading chosen slots ----------------------


def _dims_permutations(dims):
    """The permutations sigma of the factors with dims[sigma[k]] == dims[k]."""
    return [
        sigma for sigma in itertools.permutations(range(len(dims)))
        if all(dims[i] == n for i, n in zip(sigma, dims))
    ]


@st.composite
def _relabel_cases(draw):
    dims = draw(st.sampled_from([(2, 2), (1, 1, 1, 1), (2, 2, 1)]))
    sigma = draw(st.sampled_from(_dims_permutations(dims)))
    a = draw(_blocks(dims, draw(st.integers(-3, 3))))
    return dims, sigma, a, draw(_blocks(dims, draw(st.integers(-3, 3))))


@settings(max_examples=100, deadline=None)
@given(_relabel_cases())
def test_relabel_permutes_the_h_exponents(case):
    """relabel(sigma) moves H^h to H^h', h'_k = h_{sigma[k]}, and nothing else."""
    dims, sigma, a, b = case
    moved = a.relabel(sigma)
    # the Fraction map of monomials(), its exponents permuted
    want = {(al, j, tuple(h[i] for i in sigma)): v for (al, j, h), v in _values(a.monomials()).items()}
    assert _values(moved.monomials()) == want
    assert (moved.deg, moved.monomials()[1]) == (a.deg, a.monomials()[1])
    assert moved._view is None
    # a ring automorphism: it commutes with products and sums
    assert (a * b).relabel(sigma) == moved * b.relabel(sigma)
    assert (a + a).relabel(sigma) == moved + moved
    # and sigma^-1 undoes it
    inverse = tuple(sigma.index(k) for k in range(len(sigma)))
    assert moved.relabel(inverse) == a
    assert a.relabel(tuple(range(len(dims)))) == a


def test_relabel_swaps_the_factors_of_p2xp2():
    blk = LaurentBlock((2, 2), {(0, -1, (2, 1)): Rat(3, 4), (3, -2, (1, 0)): 5})
    want = LaurentBlock((2, 2), {(0, -1, (1, 2)): Rat(3, 4), (3, -2, (0, 1)): 5})
    assert blk.relabel((1, 0)) == want


@settings(max_examples=50, deadline=None)
@given(_pair_lists(), st.data())
def test_at_slots_reads_the_stored_ints_at_chosen_exponents(case, data):
    dims, pairs = case
    for blk in [blk for pair in pairs for blk in pair]:
        hs = data.draw(st.lists(st.sampled_from(_box(dims)), unique=True))
        got, den = blk.at_slots(hs)
        nums, want_den = blk.monomials()
        assert den == want_den and type(den) is int
        assert got == [{j: v for (_, j, e), v in nums.items() if e == h} for h in hs]
        assert blk._view is None


# -- a block times a polynomial in one linear form ---------------------------


def _fraction_product(dims, a, b):
    """{(a, j, h): value} of a * b, both such maps, by a plain double loop cut at the box."""
    out = {}
    for (a1, j1, h1), x in a.items():
        for (a2, j2, h2), y in b.items():
            h = tuple(u + v for u, v in zip(h1, h2))
            if all(e <= n for e, n in zip(h, dims)):
                key = (a1 + a2, j1 + j2, h)
                out[key] = out.get(key, 0) + x * y
    return out


@st.composite
def _poly_cases(draw):
    """A block at one x power, a linear form with zero and negative entries, an int polynomial."""
    dims = draw(st.sampled_from([(1,), (2,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 2, 1)]))
    c = tuple(draw(st.integers(-3, 3)) for _ in dims)
    blk = draw(_blocks(dims)).x_stratum(draw(st.integers(-2, 2)))  # the zero block too
    poly = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=7))
    return blk, c, poly, draw(st.integers(-3, 3))


@settings(max_examples=150, deadline=None)
@given(_poly_cases())
def test_times_poly_matches_a_fraction_expansion(case):
    """blk * P(x + c.H) x^shift, with (x + c.H)^p multiplied out one factor at a time."""
    blk, c, poly, shift = case
    dims, top, h0 = blk.dims, len(poly) - 1, (0,) * len(blk.dims)
    linear = {(0, 1, h0): 1} | {(0, 0, _power(len(dims), i, 1)): a for i, a in enumerate(c)}
    power, expanded = {(0, 0, h0): Rat(1)}, {}
    for p, a in enumerate(poly):  # a y^p alpha^(top - p) x^shift
        for (al, j, h), r in power.items():
            key = (al + top - p, j + shift, h)
            expanded[key] = expanded.get(key, 0) + a * r
        power = _fraction_product(dims, power, linear)
    want = LaurentBlock(dims, _fraction_product(dims, _values(blk.monomials()), expanded))
    got = blk.times_poly(c, poly, shift)
    assert got == want
    assert got.is_zero() or got.deg == blk.deg + top + shift


def test_times_poly_needs_a_block_at_one_x_power():
    two = LaurentBlock(P2, {(0, 0, (0,)): 1, (-1, 1, (0,)): 1})
    with pytest.raises(ValueError, match=re.escape("needs a block at one x power, not [0, 1]")):
        two.times_poly((1,), [1, 1], 0)
