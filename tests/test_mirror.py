"""Change-of-variables solve and invariant extraction, pinned to anchors.

Every numeric anchor here was computed twice: once by this engine and once
by the fixed-point oracle (or a classical closed form), and frozen only
after the two agreed.
"""

import dataclasses
import re
from collections import Counter
from fractions import Fraction as Rat
from pathlib import Path

import pytest

from concavex import eulerdata, laurent, mirror, qseries
from concavex.cohomology import monomial
from concavex.eulerdata import chern_ratio, hyper_block
from concavex.geometry import parse_spec, validate
from concavex.laurent import LaurentBlock, kahler_factor
from concavex.mirror import (
    ExtractionError,
    InvariantEntry,
    MirrorInconsistencyError,
    extract_invariants,
    integrand_series,
    one_pointed,
    solve_mirror_map,
    two_pointed,
    verify_all,
)
from concavex.qseries import degrees_upto, scalar_exp, scalar_mul

QUINTIC = parse_spec("name quintic\nspace 4\nbundle convex 5\n")
PAIR = parse_spec("name pair\nspace 1\nbundle concave 1\nbundle concave 1\n")
LOCAL_P2 = parse_spec("name kp2\nspace 2\nbundle concave 3\n")
P3_QUARTIC = parse_spec("name p3q\nspace 3\nbundle convex 4\n")
TWO_FACTOR = parse_spec(
    "space 1\nspace 1\nbundle convex 1 1\nbundle convex 1 1\n"
)
BICUBIC = parse_spec("space 2\nspace 2\nbundle convex 3 3\n")
# the concave summand pairs to 0 with every degree (0, k)
ZERO_ENTRY = parse_spec("space 1\nspace 2\nbundle convex 1 3\nbundle concave 1 0\n")
BENCH_SPECS = sorted((Path(__file__).parents[1] / "bench" / "specs").glob("*.cvx"))


def test_pair_map_is_trivial_and_invariants_cubic():
    mm = solve_mirror_map(PAIR, 6)
    for d in degrees_upto(1, 6):
        if not any(d):
            continue
        assert mm.normalization[d] == 0
        assert mm.prefactor[d] == 0
        assert mm.shift_vector(d) == (Rat(0),)
    table = extract_invariants(PAIR, mm, 6)
    for d in range(1, 7):
        assert table.value((d,)) == Rat(1, d**3)


def test_quintic_map_anchors():
    mm = solve_mirror_map(QUINTIC, 2)
    assert mm.normalization[(1,)] == 120
    assert mm.prefactor[(1,)] == 274
    assert mm.shift_vector((1,)) == (Rat(770),)
    assert mm.normalization[(2,)] == 113400  # 10!/(2!)^5


def test_quintic_invariants():
    mm = solve_mirror_map(QUINTIC, 2)
    table = extract_invariants(QUINTIC, mm, 2)
    assert table.excess == 0
    assert table.value((1,)) == 2875
    assert table.value((2,)) == Rat(4876875, 8)


def test_quintic_degree_three_and_four():
    mm = solve_mirror_map(QUINTIC, 4)
    table = extract_invariants(QUINTIC, mm, 4)
    assert table.value((3,)) == Rat(8564575000, 27)
    assert table.value((4,)) == Rat(15517926796875, 64)


def test_local_p2_map_and_invariants():
    mm = solve_mirror_map(LOCAL_P2, 3)
    assert mm.normalization[(1,)] == 0
    assert mm.prefactor[(1,)] == 2
    assert mm.shift_vector((1,)) == (Rat(-6),)
    table = extract_invariants(LOCAL_P2, mm, 3)
    assert table.value((1,)) == 3
    assert table.value((2,)) == Rat(-45, 8)
    assert table.value((3,)) == Rat(244, 9)


def test_positive_excess_spec():
    assert validate(P3_QUARTIC) == 1
    mm = solve_mirror_map(P3_QUARTIC, 2)
    assert mm.normalization[(1,)] == 24
    assert mm.prefactor[(1,)] == 50
    assert mm.shift_vector((1,)) == (Rat(104),)
    table = extract_invariants(P3_QUARTIC, mm, 2)
    assert table.excess == 1
    assert table.value((1,)) == 320
    assert table.value((2,)) == 5056
    # the x^1 reading is the headline value; x^1 must appear in raw
    for entry in table.entries:
        exponents = [j for j, _ in entry.raw]
        assert 1 in exponents
        assert dict(entry.raw)[1] == entry.value


def test_two_factor_invariants():
    mm = solve_mirror_map(TWO_FACTOR, 2)
    table = extract_invariants(TWO_FACTOR, mm, 2)
    assert table.excess == 3
    assert table.value((0, 1)) == 4
    assert table.value((1, 0)) == 4
    assert table.value((1, 1)) == 4
    assert table.value((0, 2)) == Rat(1, 2)
    assert table.value((2, 0)) == Rat(1, 2)


@pytest.mark.parametrize("spec,bound", [(PAIR, 4), (QUINTIC, 2), (LOCAL_P2, 2)])
def test_euler_mode_matches_symbolic_mode(spec, bound):
    mm = solve_mirror_map(spec, bound)
    sym = extract_invariants(spec, mm, bound)
    eul = extract_invariants(spec, mm, bound, euler=True)
    for entry in sym.entries:
        assert eul.value(entry.degree) == entry.value


def test_euler_mode_requires_zero_excess():
    mm = solve_mirror_map(P3_QUARTIC, 1)
    with pytest.raises(ValueError):
        extract_invariants(P3_QUARTIC, mm, 1, euler=True)


@pytest.mark.parametrize("spec,bound", [(PAIR, 3), (QUINTIC, 2), (TWO_FACTOR, 2)])
def test_truncation_stability(spec, bound):
    mm_lo = solve_mirror_map(spec, bound)
    mm_hi = solve_mirror_map(spec, bound + 2)
    lo = extract_invariants(spec, mm_lo, bound)
    hi = extract_invariants(spec, mm_hi, bound + 2)
    for d in degrees_upto(spec.m, bound):
        if not any(d):
            continue
        assert mm_lo.normalization[d] == mm_hi.normalization[d]
        assert mm_lo.prefactor[d] == mm_hi.prefactor[d]
        assert mm_lo.shift_vector(d) == mm_hi.shift_vector(d)
    for entry in lo.entries:
        assert hi.value(entry.degree) == entry.value


def test_integrand_vanishes_at_degree_zero_and_sits_below_alpha():
    for spec, bound in ((PAIR, 3), (QUINTIC, 2), (P3_QUARTIC, 2)):
        mm = solve_mirror_map(spec, bound)
        js = integrand_series(spec, mm, bound)
        # one block per nonzero degree: degree 0 carries no integrand
        assert set(js) == set(degrees_upto(spec.m, bound)[1:])
        for blk in js.values():
            support = blk.alpha_support()
            if support is not None:
                assert support[1] <= -2


def test_pointed_invariants_on_the_pair():
    mm = solve_mirror_map(PAIR, 4)
    table = extract_invariants(PAIR, mm, 4)
    for d in range(1, 5):
        assert one_pointed(table, d) == Rat(1, d**2)
        assert two_pointed(table, d) == Rat(1, d)


def test_pointed_invariants_reject_other_specs():
    mm = solve_mirror_map(QUINTIC, 1)
    table = extract_invariants(QUINTIC, mm, 1)
    with pytest.raises(ValueError):
        one_pointed(table, 1)
    with pytest.raises(ValueError):
        two_pointed(table, 1)


def test_verify_all_passes_on_pair():
    # exactly the checks that ran: extraction's own gates fail solve_and_extract
    oracle = ["oracle_degree_1", "oracle_degree_2"]
    for bound in (1, 4):
        checks = verify_all(PAIR, bound)
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        assert [c.name for c in checks] == [
            "solve_and_extract", "euler_specialization", "truncation_stability",
        ] + oracle[:bound]


def test_verify_all_on_two_factor_skips_oracle():
    checks = verify_all(TWO_FACTOR, 2)
    assert all(c.passed for c in checks)
    assert [c.name for c in checks] == ["solve_and_extract", "truncation_stability"]


@pytest.mark.parametrize(
    "spec",
    [parse_spec(p.read_text(encoding="utf-8")) for p in BENCH_SPECS] + [ZERO_ENTRY],
    ids=[p.stem for p in BENCH_SPECS] + ["zero-entry"],
)
def test_integrand_equals_the_series_rebuilt_from_full_blocks(spec):
    bound = 2
    mm = solve_mirror_map(spec, bound)
    u, g = mirror._transform_series(
        spec.factors, bound, mm.normalization, mm.prefactor, mm.shifts
    )
    omega = chern_ratio(spec)
    eht = kahler_factor(spec.factors)
    js = integrand_series(spec, mm, bound)
    degrees = [d for d in degrees_upto(spec.m, bound) if any(d)]
    blocks = {dp: hyper_block(spec, dp) for dp in degrees}
    assert set(js) == set(degrees)
    for d in degrees:
        want = (u[d] - g[d]) * omega
        for dp in degrees:
            diff = tuple(a - b for a, b in zip(d, dp))
            if min(diff) >= 0:
                want = want + u[diff] * blocks[dp]
        assert js[d] == eht * want, d


def test_integrand_needs_the_map_of_its_spec_at_a_large_enough_bound():
    mm = solve_mirror_map(QUINTIC, 2)
    other = parse_spec("space 4\nbundle convex 2\nbundle convex 3\n")
    for call in (integrand_series, extract_invariants):
        with pytest.raises(ValueError):
            call(other, mm, 2)
        with pytest.raises(ValueError):
            call(QUINTIC, mm, 3)
    assert extract_invariants(QUINTIC, mm, 1).value((1,)) == 2875


@pytest.mark.parametrize(
    "spec,euler,added,message",
    [
        pytest.param(QUINTIC, False, (-1, 0), "integrand stratum at alpha^-1", id="False--1"),
        pytest.param(QUINTIC, True, None, "integrand stratum at alpha^0", id="True-0"),
        pytest.param(
            QUINTIC, False, (-2, 2), "t-linear stratum mismatch on axis 0 (-2880 != -2875)",
            id="t-linear-mismatch",
        ),
        pytest.param(QUINTIC, False, (-2, 3), "stray stratum alpha^-2 x^0", id="stray"),
        pytest.param(QUINTIC, False, (-2, 1), "t-degree 2 at the x^0 stratum", id="t-degree"),
        pytest.param(QUINTIC, False, (-3, 2), "t-linear stratum at alpha^-4", id="t-linear-alpha"),
        pytest.param(
            P3_QUARTIC, False, (-3, 2), "x-degree 0 below the splitting excess", id="below-excess"
        ),
    ],
)
def test_extraction_rejects_an_integrand_stratum_above_alpha_minus_two(spec, euler, added, message):
    """Each row breaks one grading gate of extraction at degree 1.

    The first two put a stratum above alpha^-2 into the integrand; the
    others add alpha^a H^h at x^0 to the residual, which passes that gate
    and fails a later one.
    """
    mm = solve_mirror_map(spec, 2)
    if euler:  # the Euler route rebuilds (U, G) from the map's coefficients
        normalization = dict(mm.normalization)
        normalization[(1,)] += 1
        mm = dataclasses.replace(mm, normalization=normalization)
    else:
        a, h = added
        stray = LaurentBlock(spec.factors, {(a, 0, (0,)): monomial(spec.factors, (h,))})
        mm = dataclasses.replace(mm, residuals={**mm.residuals, (1,): mm.residuals[(1,)] + stray})
    with pytest.raises(ExtractionError, match=rf"degree \(1,\): {re.escape(message)}$"):
        extract_invariants(spec, mm, 2, euler=euler)


def test_blocks_and_transform_series_are_built_once(monkeypatch):
    kernel = [0]

    def counted_kernel(*args, _real=laurent._mul_sum):
        kernel[0] += 1
        return _real(*args)

    for module in (laurent, qseries, mirror):
        monkeypatch.setattr(module, "_mul_sum", counted_kernel)
    calls = Counter()
    kernel_in = Counter()  # kernel calls made inside each counted function
    for name in (
        "reduced_block", "hyper_block", "series_exp", "series_inverse",
        "_transform_series", "_residual", "integrand_series", "scalar_exp",
        "series_mul",
    ):
        def counted(*args, _real=getattr(mirror, name), _name=name, **kwargs):
            calls[_name] += 1
            before = kernel[0]
            out = _real(*args, **kwargs)
            kernel_in[_name] += kernel[0] - before
            return out

        monkeypatch.setattr(mirror, name, counted)
    bound = 3
    mm = solve_mirror_map(TWO_FACTOR, bound)
    # one pass: E, G and U grow by recurrence, never rebuilt from scratch
    for name in ("_transform_series", "series_exp", "series_inverse", "series_mul"):
        assert calls[name] == 0, name
    assert calls["reduced_block"] == len(degrees_upto(2, bound)) == 10
    assert calls["hyper_block"] == 0
    # one U * sum R per nonzero degree: the after-solve check reuses it
    assert calls["_residual"] == len(degrees_upto(2, bound)) - 1 == 9
    # each sum of products is one kernel call per output degree, not one per pair
    assert kernel_in["_residual"] == 9
    # and so is each degree's E_d, G_d and U_d
    assert kernel[0] - kernel_in["reduced_block"] == 4 * 9
    extract_invariants(TWO_FACTOR, mm, bound)
    # extraction integrates kahler * X_d without building J_d or (U, G)
    assert calls["_transform_series"] == calls["integrand_series"] == 0
    # one exp(g_i) per axis; exp(<d', g>) comes from a product per degree
    assert calls["scalar_exp"] == TWO_FACTOR.m == 2
    assert calls["hyper_block"] == 0
    # the Euler route's reference (U, G): one product exp(F) * N^-1 of two
    # series full to the bound, one kernel call per output degree
    mirror._transform_series(
        TWO_FACTOR.factors, bound, mm.normalization, mm.prefactor, mm.shifts
    )
    assert calls["series_exp"] == 2 and calls["series_inverse"] == 1
    assert calls["series_mul"] == 1
    assert kernel_in["series_mul"] == len(degrees_upto(2, bound)) == 10


def test_verify_and_the_euler_route_build_no_block_twice(monkeypatch):
    steps = []

    def counted(*args, _real=eulerdata._raise_degree):
        steps.append(args[2:])
        return _real(*args)

    monkeypatch.setattr(eulerdata, "_raise_degree", counted)
    # the re-solve at D + 2 raises only R_3 and R_4, the Euler route none
    assert all(c.passed for c in verify_all(QUINTIC, 2))
    assert len(steps) == 4
    eulerdata.reduced_block.cache_clear()
    steps.clear()
    mm = solve_mirror_map(QUINTIC, 4)
    assert len(steps) == 4
    # hyper_block reads the blocks the solve built
    extract_invariants(QUINTIC, mm, 4, euler=True)
    assert len(steps) == 4


@pytest.mark.parametrize("spec,bound", [(BICUBIC, 3), (QUINTIC, 4)], ids=["bicubic", "quintic"])
def test_solve_and_extraction_keep_blocks_on_integers(monkeypatch, spec, bound):
    """No R_d, residual or X_d block builds its Fraction view on the way."""
    returned = {"reduced_block": [], "_integrand_factors": []}
    for name, out in returned.items():
        def kept(*args, _real=getattr(mirror, name), _out=out, **kwargs):
            _out.append(_real(*args, **kwargs))
            return _out[-1]

        monkeypatch.setattr(mirror, name, kept)
    mm = solve_mirror_map(spec, bound)
    extract_invariants(spec, mm, bound)
    nonzero = len(degrees_upto(spec.m, bound)) - 1
    (xs,) = returned["_integrand_factors"]
    blocks = returned["reduced_block"] + list(mm.residuals.values()) + list(xs.values())
    assert len(blocks) == 3 * nonzero + 1
    assert [blk for blk in blocks if blk._view is not None] == []


def test_check_after_solving_catches_a_wrong_shift(monkeypatch):
    real = mirror._read_linear_stratum

    def off_by_one(blk, d, dims):
        xcoef, hcoefs = real(blk, d, dims)
        if d == (1, 0):
            hcoefs = (hcoefs[0] + 1,) + hcoefs[1:]
        return xcoef, hcoefs

    monkeypatch.setattr(mirror, "_read_linear_stratum", off_by_one)
    with pytest.raises(MirrorInconsistencyError, match="after solving"):
        solve_mirror_map(TWO_FACTOR, 2)


def _reference_entries(spec, mm, bound, euler):
    """The triangular solve for K written out term by term.

    Per d' it builds exp(<d', g>) and its m products with each g_i at the
    full bound, and recomputes every matching coefficient
    2 exp(<d', g>) - sum_i d'_i g_i exp(<d', g>) for every x-power.
    """
    m = spec.m
    s = validate(spec)
    level = 0 if euler else s
    degrees = [d for d in degrees_upto(m, bound) if any(d)]
    js = integrand_series(spec, mm, bound, euler)
    integrated = {d: js[d].integrate_fibrewise() for d in degrees}
    top = max([level] + [j for ld in integrated.values() for _, j, _ in ld.terms])
    expg, gexp = {}, {}
    for dp in degrees:
        pairing = {}
        for i in range(m):
            for dd, c in mm.shifts[i].items():
                pairing[dd] = pairing.get(dd, Rat(0)) + dp[i] * c
        expg[dp] = scalar_exp(pairing, m, bound)
        gexp[dp] = [scalar_mul(mm.shifts[i], expg[dp], bound) for i in range(m)]
    solved = {}
    for j in range(level, top + 1):
        kj = {}
        for d in degrees:
            cls = integrated[d].coefficient((s - 3 - j, j, (0,) * m))
            acc = Rat(0) if cls.is_zero() else cls.coeffs[0]
            for dp in degrees:
                diff = tuple(a - b for a, b in zip(d, dp))
                if dp == d or min(diff) < 0:
                    continue
                match = 2 * expg[dp].get(diff, Rat(0)) - sum(
                    dp[i] * gexp[dp][i].get(diff, Rat(0)) for i in range(m)
                )
                acc -= kj[dp] * match
            kj[d] = acc / 2
        solved[j] = kj
    return tuple(
        InvariantEntry(
            degree=d,
            raw=tuple(
                (j, solved[j][d])
                for j in range(level, top + 1)
                if solved[j][d] or j == level
            ),
            value=solved[level][d],
        )
        for d in degrees
    )


@pytest.mark.parametrize(
    "spec",
    [pytest.param(parse_spec(p.read_text(encoding="utf-8")), id=p.stem) for p in BENCH_SPECS]
    + [pytest.param(ZERO_ENTRY, id="zero-entry"), pytest.param(TWO_FACTOR, id="two-factor")],
)
def test_extraction_matches_the_term_by_term_solve(spec):
    bound = 4
    mm = solve_mirror_map(spec, bound)
    modes = (False, True) if validate(spec) == 0 else (False,)
    for euler in modes:
        table = extract_invariants(spec, mm, bound, euler=euler)
        assert table.entries == _reference_entries(spec, mm, bound, euler), euler
