"""Change-of-variables solve and invariant extraction, pinned to anchors.

Every numeric anchor here was computed twice: once by this engine and once
by the fixed-point oracle (or a classical closed form), and frozen only
after the two agreed.
"""

import ast
import re
from collections import Counter
from fractions import Fraction as Rat
from pathlib import Path

import pytest

from concavex import eulerdata, laurent, mirror, qseries
from concavex.eulerdata import chern_ratio, hyper_block
from concavex.geometry import pairing, parse_spec, validate
from concavex.laurent import LaurentBlock
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
from concavex.qseries import degrees_upto
from fraction_series import fraction_exp, fraction_mul
from kahler import top_class

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
    table = extract_invariants(mm)
    for d in range(1, 7):
        assert table.value((d,)) == Rat(1, d**3)


def test_quintic_map_anchors():
    mm = solve_mirror_map(QUINTIC, 2)
    assert mm.normalization[(1,)] == 120
    assert mm.prefactor[(1,)] == 274
    assert mm.shift_vector((1,)) == (Rat(770),)
    assert mm.normalization[(2,)] == 113400  # 10!/(2!)^5


def test_readme_library_snippet_shows_the_values_it_computes():
    """Run the README's python block; each `# Fraction(...)` comment is its line's value."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and "Fraction(" in comment:
            assert eval(code, namespace) == eval(comment, {"Fraction": Rat}), code
            shown.append(comment)
        else:
            exec(code, namespace)
    assert shown == [
        "Fraction(120)", "Fraction(274)", "(Fraction(770),)",
        "Fraction(2875)", "Fraction(4876875, 8)",
    ]


def test_quintic_invariants():
    mm = solve_mirror_map(QUINTIC, 2)
    table = extract_invariants(mm)
    assert table.excess == 0
    assert table.value((1,)) == 2875
    assert table.value((2,)) == Rat(4876875, 8)


def test_quintic_degree_three_and_four():
    mm = solve_mirror_map(QUINTIC, 4)
    table = extract_invariants(mm)
    assert table.value((3,)) == Rat(8564575000, 27)
    assert table.value((4,)) == Rat(15517926796875, 64)


def test_local_p2_map_and_invariants():
    mm = solve_mirror_map(LOCAL_P2, 3)
    assert mm.normalization[(1,)] == 0
    assert mm.prefactor[(1,)] == 2
    assert mm.shift_vector((1,)) == (Rat(-6),)
    table = extract_invariants(mm)
    assert table.value((1,)) == 3
    assert table.value((2,)) == Rat(-45, 8)
    assert table.value((3,)) == Rat(244, 9)


def test_positive_excess_spec():
    assert validate(P3_QUARTIC) == 1
    mm = solve_mirror_map(P3_QUARTIC, 2)
    assert mm.normalization[(1,)] == 24
    assert mm.prefactor[(1,)] == 50
    assert mm.shift_vector((1,)) == (Rat(104),)
    table = extract_invariants(mm)
    assert table.excess == 1
    assert table.value((1,)) == 320
    assert table.value((2,)) == 5056
    # the x^1 reading is the headline value; x^1 must appear in raw
    for entry in table.entries:
        exponents = [j for j, _ in entry.raw]
        assert 1 in exponents
        assert dict(entry.raw)[1] == entry.value


# local P1 x P1: O(-2, -2) on P1 x P1, whose two factors both carry the concave
# summand, so the Chern ratio inverts x - 2 H1 - 2 H2.  Genus-zero instanton
# numbers n_(d1, d2) of local F0 from the table of Chiang, Klemm, Yau and
# Zaslow (1999), d1 >= d2; the table is symmetric, and n_(d, 0) = 0 for d >= 2.
LOCAL_P1P1 = parse_spec("name local-p1p1\nspace 1\nspace 1\nbundle concave 2 2\n")
CKYZ_LOCAL_F0 = {
    (1, 0): -2, (2, 0): 0, (3, 0): 0, (4, 0): 0, (5, 0): 0, (6, 0): 0,
    (1, 1): -4, (2, 1): -6, (3, 1): -8, (4, 1): -10, (5, 1): -12,
    (2, 2): -32, (3, 2): -110, (4, 2): -288, (3, 3): -756,
}


def test_local_p1p1_gives_the_published_instanton_numbers():
    bound = 6
    table = extract_invariants(solve_mirror_map(LOCAL_P1P1, bound))
    k = {e.degree: e.value for e in table.entries}
    # Aspinwall-Morrison: K_d = sum of n_(d/j) / j^3 over the j dividing d,
    # inverted degree by degree in order of total degree
    n = {}
    for d in sorted(k, key=sum):
        n[d] = k[d] - sum(
            n[tuple(c // j for c in d)] / Rat(j**3)
            for j in range(2, max(d) + 1)
            if all(c % j == 0 for c in d)
        )
    assert len(n) == 27
    assert {(a, b) for a, b in n} == set(CKYZ_LOCAL_F0) | {(b, a) for a, b in CKYZ_LOCAL_F0}
    for (a, b), value in CKYZ_LOCAL_F0.items():
        assert n[(a, b)] == n[(b, a)] == value, (a, b)


def test_two_factor_invariants():
    mm = solve_mirror_map(TWO_FACTOR, 2)
    table = extract_invariants(mm)
    assert table.excess == 3
    assert table.value((0, 1)) == 4
    assert table.value((1, 0)) == 4
    assert table.value((1, 1)) == 4
    assert table.value((0, 2)) == Rat(1, 2)
    assert table.value((2, 0)) == Rat(1, 2)


@pytest.mark.parametrize("spec,bound", [(PAIR, 4), (QUINTIC, 2), (LOCAL_P2, 2)])
def test_euler_mode_matches_symbolic_mode(spec, bound):
    mm = solve_mirror_map(spec, bound)
    sym = extract_invariants(mm)
    eul = extract_invariants(mm, euler=True)
    for entry in sym.entries:
        assert eul.value(entry.degree) == entry.value


def test_euler_mode_requires_zero_excess():
    mm = solve_mirror_map(P3_QUARTIC, 1)
    with pytest.raises(ValueError):
        extract_invariants(mm, euler=True)


@pytest.mark.parametrize("spec,bound", [(PAIR, 3), (QUINTIC, 2), (TWO_FACTOR, 2)])
def test_truncation_stability(spec, bound):
    mm_lo = solve_mirror_map(spec, bound)
    mm_hi = solve_mirror_map(spec, bound + 2)
    lo = extract_invariants(mm_lo)
    hi = extract_invariants(mm_hi)
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
        js = integrand_series(mm)
        # one block per nonzero degree: degree 0 carries no integrand
        assert set(js) == set(degrees_upto(spec.m, bound)[1:])
        for blk in js.values():
            support = blk.alpha_support()
            if support is not None:
                assert support[1] <= -2


def test_pointed_invariants_on_the_pair():
    mm = solve_mirror_map(PAIR, 4)
    table = extract_invariants(mm)
    for d in range(1, 5):
        assert one_pointed(table, d) == Rat(1, d**2)
        assert two_pointed(table, d) == Rat(1, d)


def test_pointed_invariants_reject_other_specs():
    mm = solve_mirror_map(QUINTIC, 1)
    table = extract_invariants(mm)
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
    u, g = mirror._transform_series(mm)
    omega = chern_ratio(spec)
    js = integrand_series(mm)
    degrees = [d for d in degrees_upto(spec.m, bound) if any(d)]
    table = {}
    blocks = {dp: hyper_block(spec, dp, table, omega) for dp in degrees}
    assert set(js) == set(degrees)
    for d in degrees:
        want = (u[d] - g[d]) * omega
        for dp in degrees:
            diff = tuple(a - b for a, b in zip(d, dp))
            if min(diff) >= 0:
                want = want + u[diff] * blocks[dp]
        assert js[d] == want, d


@pytest.mark.parametrize(
    "spec,euler,stray,replace,message",
    [
        pytest.param(
            QUINTIC, False, (-1, 1), False, "integrand stratum at alpha^-1", id="False--1"
        ),
        pytest.param(QUINTIC, True, None, False, "integrand stratum at alpha^0", id="True-0"),
        pytest.param(
            QUINTIC, False, (-2, 2), False,
            "t-linear stratum mismatch on axis 0 (-2880 != -2875)", id="t-linear-mismatch",
        ),
        pytest.param(
            P3_QUARTIC, False, (-2, 2), False, "x-degree 0 below the splitting excess",
            id="below-excess",
        ),
        # X_d = x H^4 / alpha^3: t-constant at x^1, where grading wants alpha^-4
        pytest.param(QUINTIC, False, (-3, 4), True, "integrand of degree 2, not 1", id="stray"),
        # X_d = x H / alpha^2 + 5 H^2 / alpha^2: t-degree 2 at x^0
        pytest.param(QUINTIC, False, (-2, 1), True, "integrand of degree 0, not 1", id="t-degree"),
        # X_d = x H^2 / alpha^3 + 5 H^3 / alpha^3: t-linear at x^0, off alpha^-2
        pytest.param(
            QUINTIC, False, (-3, 2), True, "integrand of degree 0, not 1", id="t-linear-alpha"
        ),
    ],
)
def test_extraction_rejects_an_integrand_stratum_above_alpha_minus_two(
    spec, euler, stray, replace, message
):
    """Each row breaks one gate of extraction at degree 1.

    The first two put a stratum above alpha^-2 into the integrand.  The next
    two add alpha^a H^h at x^0, of the residual's degree 0, to the residual,
    which passes that gate and fails a later one.  The last three put such a
    monomial of another degree in the residual's place: it passes both
    support gates, and the one degree check, X_d of degree s - 3 + dim,
    catches each stratum off the grading.
    """
    mm = solve_mirror_map(spec, 2)
    if euler:  # the Euler route rebuilds (U, G) from the map's coefficients
        normalization = dict(mm.normalization)
        normalization[(1,)] += 1
        mm = mm._replace(normalization=normalization)
    else:
        a, h = stray
        block = LaurentBlock(spec.factors, {(a, 0, (h,)): 1})
        residual = block if replace else mm.residuals[(1,)] + block
        mm = mm._replace(residuals={**mm.residuals, (1,): residual})
    with pytest.raises(ExtractionError, match=rf"degree \(1,\): {re.escape(message)}$"):
        extract_invariants(mm, euler=euler)


def test_a_stray_of_another_degree_cannot_join_the_residual():
    """The residual has degree 0; a term of degree 1 cannot be added to it."""
    mm = solve_mirror_map(QUINTIC, 2)
    stray = LaurentBlock(QUINTIC.factors, {(-3, 0, (4,)): 1})
    with pytest.raises(ValueError, match=re.escape("terms of degrees [0, 1] in one block")):
        mm.residuals[(1,)] + stray


def test_blocks_and_transform_series_are_built_once(monkeypatch):
    # TWO_FACTOR is symmetric in its factors: 4 of its 9 nonzero degrees at
    # D=3 are relabelled from the first degree of their orbit, so 5 are
    # solved; ZERO_ENTRY has no symmetry and solves all 9
    for spec, reps in [(TWO_FACTOR, 5), (ZERO_ENTRY, 9)]:
        with monkeypatch.context() as mp:
            _assert_built_once(mp, spec, reps)


def _below(d):
    """d - e_i, i the first axis with d_i > 0: the block R_d is raised from."""
    i = next(i for i, c in enumerate(d) if c)
    return d[:i] + (d[i] - 1,) + d[i + 1:]


def _assert_built_once(monkeypatch, spec, reps):
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
        "_transform_series", "_residual", "integrand_series", "egf_exp",
        "series_mul", "degree_pairs", "chern_ratio",
    ):
        def counted(*args, _real=getattr(mirror, name), _name=name, **kwargs):
            calls[_name] += 1
            before = kernel[0]
            out = _real(*args, **kwargs)
            kernel_in[_name] += kernel[0] - before
            return out

        monkeypatch.setattr(mirror, name, counted)
    # the series helpers reach the table builder through qseries itself
    monkeypatch.setattr(qseries, "degree_pairs", mirror.degree_pairs)
    bound = 3
    mm = solve_mirror_map(spec, bound)
    assert len(degrees_upto(2, bound)) - 1 - len(mm.orbits) == reps
    # one degree table per solve, kept on the map
    assert calls["degree_pairs"] == 1
    # one pass: U and G grow by recurrence, never rebuilt from scratch
    for name in ("_transform_series", "series_exp", "series_inverse", "series_mul"):
        assert calls[name] == 0, name
    # R_0, then one R_d per orbit: the others are relabelled, and without a
    # symmetry that is one per degree, len(degrees_upto(2, bound)) == 10
    assert calls["reduced_block"] == 1 + reps
    assert sorted(mm.blocks) == sorted(degrees_upto(2, bound))
    assert calls["hyper_block"] == 0
    # one U * sum R per orbit: the after-solve check reuses it
    assert calls["_residual"] == reps
    # each sum of products is one kernel call per output degree, not one per pair
    assert kernel_in["_residual"] == reps
    # and so is each orbit's U_d and G_d; a relabel is no kernel call
    assert kernel[0] - kernel_in["reduced_block"] == 3 * reps
    # a one-class spec builds each R_d with one kernel call, E x^n times the
    # Euler inverse; with two classes each linear factor is one more call
    built = [d for d in degrees_upto(2, bound) if any(d) and d not in mm.orbits]
    per_block = {d: 1 + sum(abs(pairing(b, d) - pairing(b, _below(d))) for b in spec.bundles)
                 for d in built}
    one_class = len({(b.kind, b.multidegree) for b in spec.bundles}) == 1
    assert kernel_in["reduced_block"] == (reps if one_class else sum(per_block.values()))
    # N = exp(log N), once, after the pass
    assert calls["egf_exp"] == 1
    before = kernel[0]
    extract_invariants(mm)
    # extraction builds X_d = omega * residual once, one kernel call per
    # degree besides omega's own, and reads the integral of kahler * X_d off
    # it: no J_d, no (U, G)
    assert calls["integrand_series"] == calls["chern_ratio"] == 1
    assert calls["_transform_series"] == 0
    assert kernel[0] - before == kernel_in["integrand_series"]
    # per orbit: omega is invariant, so the other X_d are relabelled
    assert kernel_in["integrand_series"] - kernel_in["chern_ratio"] == reps
    # one exp(g_i) per axis; exp(<d', g>) comes from a product per degree
    assert calls["egf_exp"] == 1 + spec.m == 3
    assert calls["hyper_block"] == 0
    # and reads its splits from the map's table
    assert calls["degree_pairs"] == 1
    # the Euler route's reference (U, G): one product exp(F) * N^-1 of two
    # series full to the bound, one kernel call per output degree
    mirror._transform_series(mm)
    assert calls["series_exp"] == 2 and calls["series_inverse"] == 1
    assert calls["series_mul"] == 1
    assert kernel_in["series_mul"] == len(degrees_upto(2, bound)) == 10
    # and all four read the map's table
    assert calls["degree_pairs"] == 1
    # verify solves twice, at D and at D + 2; its three extractions, the Euler
    # route's reference and the re-solve's reused blocks build no table
    calls.clear()
    assert all(c.passed for c in verify_all(BICUBIC, 3))
    assert calls["degree_pairs"] == 2


def test_verify_and_the_euler_route_build_no_block_twice(monkeypatch):
    steps = []

    def counted(*args, _real=eulerdata._raise_degree):
        steps.append(args[2:])
        return _real(*args)

    monkeypatch.setattr(eulerdata, "_raise_degree", counted)
    # the re-solve at D + 2 raises only R_3 and R_4, the Euler route none
    assert all(c.passed for c in verify_all(QUINTIC, 2))
    assert len(steps) == 4
    steps.clear()
    mm = solve_mirror_map(QUINTIC, 4)
    assert len(steps) == 4
    # hyper_block reads the blocks the solve built
    extract_invariants(mm, euler=True)
    assert len(steps) == 4


def test_solves_without_reuse_share_no_blocks(monkeypatch):
    steps = []

    def counted(*args, _real=eulerdata._raise_degree):
        steps.append(args[2:])
        return _real(*args)

    monkeypatch.setattr(eulerdata, "_raise_degree", counted)
    first = solve_mirror_map(QUINTIC, 3)
    second = solve_mirror_map(QUINTIC, 3)
    # nothing outlives a solve: the second builds R_1 .. R_3 again
    assert len(steps) == 6
    assert first.blocks == second.blocks
    assert all(first.blocks[d] is not second.blocks[d] for d in first.blocks if any(d))
    # a reusing solve copies the table: the map it reuses gains no block
    third = solve_mirror_map(QUINTIC, 5, reuse=first)
    assert len(steps) == 8
    assert sorted(first.blocks) == [(0,), (1,), (2,), (3,)]
    assert third.blocks[(3,)] is first.blocks[(3,)]
    assert third == solve_mirror_map(QUINTIC, 5)


def test_a_negative_bound_is_refused_and_bound_zero_gives_an_empty_table(monkeypatch):
    built = []
    monkeypatch.setattr(mirror, "reduced_block", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="degree bound must be at least 0, got -1"):
        solve_mirror_map(QUINTIC, -1)
    assert built == []
    monkeypatch.undo()
    assert extract_invariants(solve_mirror_map(QUINTIC, 0)).entries == ()


@pytest.mark.parametrize("bound", [0, -1])
def test_verify_refuses_a_bound_below_one_before_building_a_block(monkeypatch, bound):
    """At bound 0 every check would compare an empty table."""
    built = []
    monkeypatch.setattr(mirror, "reduced_block", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=f"verify needs a degree bound of at least 1, got {bound}$"):
        verify_all(QUINTIC, bound)
    assert built == []


@pytest.mark.parametrize(
    "spec",
    [QUINTIC, LOCAL_P1P1, BICUBIC, ZERO_ENTRY],
    ids=["quintic", "local-p1p1", "bicubic", "zero-entry"],
)
def test_a_reusing_solve_has_the_blocks_of_a_fresh_one(spec):
    """The blocks past D are raised from the reused map's, in closed form or factor by factor."""
    mm = solve_mirror_map(spec, 2)
    again = solve_mirror_map(spec, 4, reuse=mm)
    fresh = solve_mirror_map(spec, 4)
    assert sorted(again.blocks) == sorted(fresh.blocks) == sorted(degrees_upto(spec.m, 4))
    assert again.blocks == fresh.blocks and again == fresh


def test_reuse_needs_a_map_of_the_same_spec():
    mm = solve_mirror_map(PAIR, 2)
    with pytest.raises(ValueError, match="another spec"):
        solve_mirror_map(LOCAL_P2, 2, reuse=mm)


@pytest.mark.parametrize("spec,bound", [(BICUBIC, 3), (QUINTIC, 4)], ids=["bicubic", "quintic"])
def test_solve_and_extraction_keep_blocks_on_integers(monkeypatch, spec, bound):
    """No R_d, residual or X_d builds its Fraction view; each X_d is read once, in ints.

    Extraction reads X_d at its top slot and the slots top - e_i, by
    LaurentBlock.at_slots, and builds no (a, j, h) map of any block.
    """
    returned = {"integrand_series": [], "at_slots": [], "monomials": []}
    owners = {"integrand_series": mirror, "at_slots": LaurentBlock, "monomials": LaurentBlock}
    for name, out in returned.items():
        def kept(*args, _real=getattr(owners[name], name), _out=out, **kwargs):
            _out.append((args, _real(*args, **kwargs)))
            return _out[-1][1]

        monkeypatch.setattr(owners[name], name, kept)
    mm = solve_mirror_map(spec, bound)
    # building R_d reads R_{d-e_i}'s unit slot: the x-powers of its class polynomial
    unit = [(0,) * spec.m]
    built = [args for args, _ in returned["at_slots"]]
    stored = {id(blk) for blk in mm.blocks.values()}
    assert built and all(id(blk) in stored and hs == unit for blk, hs in built)
    solving = returned["at_slots"][:]
    returned["at_slots"].clear()
    extract_invariants(mm)
    nonzero = len(degrees_upto(spec.m, bound)) - 1
    ((_, xs),) = returned["integrand_series"]
    blocks = list(mm.blocks.values()) + list(mm.residuals.values()) + list(xs.values())
    assert len(blocks) == 3 * nonzero + 1
    assert [blk for blk in blocks if blk._view is not None] == []
    # one read per X_d, of the top slot and the m slots below it
    top = spec.factors
    below = [tuple(n - (k == i) for k, n in enumerate(top)) for i in range(spec.m)]
    assert [args for args, _ in returned["at_slots"]] == [(x, [top] + below) for x in xs.values()]
    assert all(
        type(den) is int and all(type(v) is int for row in rows for v in row.values())
        for _, (rows, den) in solving + returned["at_slots"]
    )
    assert returned["monomials"] == []


def test_check_after_solving_catches_a_wrong_shift(monkeypatch):
    real = mirror._log_terms
    calls = []

    def off_by_one(dims, f, g):
        calls.append(g)
        if len(calls) == 2:  # the second degree the solve reads off
            g = (g[0] + 1,) + g[1:]
        return real(dims, f, g)

    monkeypatch.setattr(mirror, "_log_terms", off_by_one)
    # degrees run (0, 1), (1, 0), (0, 2), ...; TWO_FACTOR is symmetric, so the
    # solve relabels (1, 0) from (0, 1), and its second read-off, at the
    # first degree of the next orbit, is (0, 2)
    with pytest.raises(MirrorInconsistencyError, match=r"degree \(0, 2\): .* after solving"):
        solve_mirror_map(TWO_FACTOR, 2)
    # with the orbit map patched to {}, every degree is read off, (1, 0) second
    calls.clear()
    monkeypatch.setattr(mirror, "_orbits", lambda spec, degrees: {})
    with pytest.raises(MirrorInconsistencyError, match=r"degree \(1, 0\): .* after solving"):
        solve_mirror_map(TWO_FACTOR, 2)


@pytest.mark.parametrize(
    "key,alpha",
    [
        pytest.param((1, -1, (0, 0)), 1, id="alpha^1/x"),
        pytest.param((0, -1, (0, 1)), 0, id="H-at-alpha^0/x"),
        pytest.param((-1, -1, (1, 1)), -1, id="1/alpha*H1*H2/x"),
        pytest.param((0, -2, (1, 1)), 0, id="H1*H2/x^2"),
        pytest.param((1, -2, (1, 0)), 1, id="alpha*H1/x^2"),
        pytest.param((2, -2, (0, 0)), 2, id="alpha^2/x^2"),
    ],
)
@pytest.mark.parametrize("degree", [(0, 1), (1, 1)])
def test_check_after_solving_reports_a_term_outside_the_solvable_span(
    monkeypatch, key, alpha, degree
):
    """Only 1, x/alpha and H_i/alpha are read off; any other low term is left over.

    Each stray has the residual's degree 0 (alpha, x and H_i of weight 1),
    as any term the sum can hold must.
    """
    stray = LaurentBlock(TWO_FACTOR.factors, {key: 3})
    real = mirror._residual

    def with_stray(dims, u, reduced, splits):
        out = real(dims, u, reduced, splits)
        # the splits of d end with (d, 0)
        return out + stray if splits[-1][0] == degree else out

    monkeypatch.setattr(mirror, "_residual", with_stray)
    message = rf"degree {re.escape(str(degree))}: residual stratum at alpha\^{alpha} after solving$"
    with pytest.raises(MirrorInconsistencyError, match=message):
        solve_mirror_map(TWO_FACTOR, 2)


def _reference_entries(spec, mm, bound, euler):
    """The triangular solve for K written out term by term.

    Per d' it builds exp(<d', g>) and its m products with each g_i at the
    full bound, and recomputes every matching coefficient
    2 exp(<d', g>) - sum_i d'_i g_i exp(<d', g>) for every x-power.
    """
    m = spec.m
    s = validate(spec)  # 0 whenever euler is set
    degrees = [d for d in degrees_upto(m, bound) if any(d)]
    # the fibre integrals: the top class of kahler * X_d, multiplied out in Fractions
    js = integrand_series(mm, euler)
    integrated = {d: top_class(js[d]) for d in degrees}
    top = max([s] + [j for nums in integrated.values() for _, j, _ in nums])
    expg, gexp = {}, {}
    for dp in degrees:
        pairing = {}
        for i in range(m):
            for dd, c in mm.shifts[i].items():
                pairing[dd] = pairing.get(dd, Rat(0)) + dp[i] * c
        expg[dp] = fraction_exp(pairing, m, bound)
        gexp[dp] = [fraction_mul(mm.shifts[i], expg[dp], bound) for i in range(m)]
    solved = {}
    for j in range(s, top + 1):
        kj = {}
        for d in degrees:
            acc = integrated[d].get((s - 3 - j, j, (0,) * m), Rat(0))
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
                for j in range(s, top + 1)
                if solved[j][d] or j == s
            ),
            value=solved[s][d],
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
        table = extract_invariants(mm, euler=euler)
        assert table.entries == _reference_entries(spec, mm, bound, euler), euler
