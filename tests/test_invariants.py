"""Whole invariant tables: BPS integrality and the symmetry under permuting factors.

The genus-zero numbers K_d of a Calabi-Yau threefold (or of a local surface)
are multiple-cover sums of integers: K_d = sum over k | gcd(d) of
n_{d/k} / k^3, so Moebius inversion must give integral instanton numbers
n_d.  The values pinned here are the published ones.

Permuting the projective factors of a spec, and the entries of every
multidegree with them, permutes the whole computation: the table K (with
its raw x-tower), the prefactor f and the normalization N are equal at
permuted degrees, and the shift series g_i are permuted too.
"""

import itertools
import math
from fractions import Fraction as Rat

import pytest

from concavex.geometry import parse_spec
from concavex.mirror import extract_invariants, solve_mirror_map


def _solved(text, bound):
    spec = parse_spec(text)
    mm = solve_mirror_map(spec, bound)
    return mm, extract_invariants(mm)


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _instanton_numbers(table):
    """n_d = sum over k | gcd(d) of mu(k) K_{d/k} / k^3."""
    k_of = {e.degree: e.value for e in table.entries}
    out = {}
    for d in k_of:
        g = math.gcd(*d)
        out[d] = sum(
            _mobius(k) * Rat(1, k**3) * k_of[tuple(c // k for c in d)]
            for k in range(1, g + 1)
            if g % k == 0
        )
    return out


# spec text, bound, published n_d
BPS = {
    # Candelas, de la Ossa, Green, Parkes
    "quintic": ("space 4\nbundle convex 5\n", 6, {(5,): 229305888887625}),
    # Chiang, Klemm, Yau, Zaslow
    "local-p2": ("space 2\nbundle concave 3\n", 6, {
        (1,): 3, (2,): -6, (3,): 27, (4,): -192, (5,): 1695, (6,): -17064,
    }),
    "bicubic": ("space 2\nspace 2\nbundle convex 3 3\n", 5, {}),
    # Libgober, Teitelbaum
    "ci2222": ("space 7\n" + "bundle convex 2\n" * 4, 4, {(1,): 512, (2,): 9728, (3,): 416256}),
    "p5-33": ("space 5\nbundle convex 3\nbundle convex 3\n", 4, {
        (1,): 1053, (2,): 52812, (3,): 6424326,
    }),
    "p1-4": ("space 1\n" * 4 + "bundle convex 2 2 2 2\n", 3, {}),
    "local-p1p1": ("space 1\nspace 1\nbundle concave 2 2\n", 5, {}),
}


@pytest.mark.parametrize("name", list(BPS))
def test_instanton_numbers_are_integers(name):
    text, bound, published = BPS[name]
    _, table = _solved(text, bound)
    n = _instanton_numbers(table)
    assert len(n) == len(table.entries)
    assert [d for d, v in n.items() if v.denominator != 1] == []
    assert {d: n[d] for d in published} == published


def test_moebius_function():
    assert [_mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def _assert_permuted(a, b, perm):
    """Spec b's factor k is spec a's factor perm[k]: everything is permuted alike."""
    (mm_a, table_a), (mm_b, table_b) = a, b
    moved = {e.degree: tuple(e.degree[p] for p in perm) for e in table_a.entries}
    entries_b = {e.degree: e for e in table_b.entries}
    assert sorted(moved.values()) == sorted(entries_b)
    for e in table_a.entries:
        d = moved[e.degree]
        assert (entries_b[d].raw, entries_b[d].value) == (e.raw, e.value), e.degree
        assert mm_b.prefactor[d] == mm_a.prefactor[e.degree]
        assert mm_b.normalization[d] == mm_a.normalization[e.degree]
        assert [g.get(d) for g in mm_b.shifts] == [mm_a.shifts[p].get(e.degree) for p in perm]


def test_bicubic_is_symmetric_in_its_factors():
    bicubic = _solved("space 2\nspace 2\nbundle convex 3 3\n", 5)
    _assert_permuted(bicubic, bicubic, (1, 0))
    raw = {e.degree: e.raw for e in bicubic[1].entries}
    assert len(raw[(2, 1)]) > 1  # the raw tower is more than its x^0 entry


def test_four_lines_are_unchanged_by_every_permutation():
    p1_4 = _solved("space 1\n" * 4 + "bundle convex 2 2 2 2\n", 3)
    for perm in itertools.permutations(range(4)):
        _assert_permuted(p1_4, p1_4, perm)


@pytest.mark.parametrize(
    "text,swapped",
    [
        pytest.param(
            "space 2\nspace 3\nbundle convex 0 1\nbundle convex 3 3\n",
            "space 3\nspace 2\nbundle convex 1 0\nbundle convex 3 3\n",
            id="p2xp3-hyperplane-bicubic",
        ),
        pytest.param(
            "space 1\nspace 2\nbundle convex 2 3\n",
            "space 2\nspace 1\nbundle convex 3 2\n",
            id="p1xp2-excess-1",
        ),
    ],
)
def test_swapping_the_factors_swaps_the_computation(text, swapped):
    a, b = _solved(text, 3), _solved(swapped, 3)
    _assert_permuted(a, b, (1, 0))
    _assert_permuted(b, a, (1, 0))


def test_the_bicubic_in_a_hyperplane_of_p3_is_the_bicubic():
    """O(0, 1) cuts P2 x P3 down to P2 x P2, where O(3, 3) is the bicubic."""
    _, cut = _solved("space 2\nspace 3\nbundle convex 0 1\nbundle convex 3 3\n", 3)
    _, bicubic = _solved("space 2\nspace 2\nbundle convex 3 3\n", 3)
    assert [(e.degree, e.value) for e in cut.entries] == [
        (e.degree, e.value) for e in bicubic.entries
    ]
