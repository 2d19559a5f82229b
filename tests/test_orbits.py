"""One solve per factor-symmetry orbit: the relabelled degrees equal the solved ones.

A permutation sigma of factors of one dimension that maps the bundle
multiset to itself permutes the whole computation, so the solve and the
integrand run their products only at the first degree of each orbit and
relabel them elsewhere, on the Euler route too.  Each spec here is solved
twice: as it is, and with the orbit map patched to {}, which makes the
engine solve every degree from scratch.  The two runs must agree on every
block, every coefficient, both integrands and the reports, byte for byte.
"""

import itertools
from collections import Counter

import pytest

from concavex import mirror
from concavex.cli import main
from concavex.geometry import parse_spec, validate
from concavex.mirror import extract_invariants, integrand_series, solve_mirror_map
from concavex.qseries import degree_pairs

P1_4 = "space 1\n" * 4 + "bundle convex 2 2 2 2\n"
BICUBIC = "space 2\nspace 2\nbundle convex 3 3\n"
# a partial symmetry: only the two P2 factors swap
P2P2P1 = "space 2\nspace 2\nspace 1\nbundle convex 3 3 1\nbundle convex 0 0 1\n"

# spec text, bound: each has an image degree
SYMMETRIC = {
    "bicubic": (BICUBIC, 5),
    "p1-4": (P1_4, 4),
    "p2xp2xp1": (P2P2P1, 4),
    # the swap maps the two bundles to each other
    "p1xp1-split": ("space 1\nspace 1\nbundle convex 2 0\nbundle convex 0 2\n", 5),
    "local-p1xp1": ("space 1\nspace 1\nbundle concave 2 2\n", 5),
    "p1-3-concave": ("space 1\nspace 1\nspace 1\nbundle convex 2 2 1\nbundle concave 0 0 1\n", 4),
    "p1xp1xp2": ("space 1\nspace 1\nspace 2\nbundle convex 2 2 3\n", 4),
}


def _no_orbits(monkeypatch):
    """The seam: with no orbit map every degree is solved from scratch."""
    monkeypatch.setattr(mirror, "_orbits", lambda spec, degrees: {})


def _run(spec, bound):
    mm = solve_mirror_map(spec, bound)
    return mm, integrand_series(mm), integrand_series(mm, euler=True), extract_invariants(mm)


def _report(path, bound, capsys, *flags):
    rc = main(["compute", "--spec", str(path), "--max-degree", str(bound), *flags])
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("name", list(SYMMETRIC))
def test_the_orbit_solve_equals_the_full_solve(name, monkeypatch, capsys, tmp_path):
    text, bound = SYMMETRIC[name]
    spec = parse_spec(text)
    path = tmp_path / "spec.cvx"
    path.write_text(text)
    # the --euler report needs splitting excess 0
    runs = [(), ("--euler",)] if validate(spec) == 0 else [()]
    mm, xs, euler_xs, table = _run(spec, bound)
    reports = [_report(path, bound, capsys, *flags) for flags in runs]
    assert mm.orbits  # the relabel runs
    _no_orbits(monkeypatch)
    full_mm, full_xs, full_euler_xs, full_table = _run(spec, bound)
    assert full_mm.orbits == {}
    assert mm.blocks == full_mm.blocks  # every R_d of the table
    assert mm.residuals == full_mm.residuals
    assert xs == full_xs
    assert euler_xs == full_euler_xs
    assert mm.prefactor == full_mm.prefactor
    assert mm.shifts == full_mm.shifts
    assert mm.normalization == full_mm.normalization
    assert table == full_table  # K and K_raw at every degree
    assert reports == [_report(path, bound, capsys, *flags) for flags in runs]
    assert all(rc == 0 for rc, _ in reports)


def _group(spec):
    """Every permutation of the factors that keeps dims and the bundle multiset."""
    bundles = Counter((b.kind, b.multidegree) for b in spec.bundles)
    return [
        sigma for sigma in itertools.permutations(range(spec.m))
        if all(spec.factors[i] == n for i, n in zip(sigma, spec.factors))
        and Counter((b.kind, tuple(b.multidegree[i] for i in sigma)) for b in spec.bundles)
        == bundles
    ]


@pytest.mark.parametrize(
    "text,bound,nonzero,orbits",
    [
        pytest.param(P1_4, 5, 125, 17, id="p1-4"),
        pytest.param(BICUBIC, 5, 20, 11, id="bicubic"),
        pytest.param(P2P2P1, 5, 55, 33, id="p2xp2xp1"),
        pytest.param("space 4\nbundle convex 5\n", 8, 8, 8, id="quintic"),
        # equal dims, but the swap moves O(2,1) + O(0,1) to O(1,2) + O(1,0)
        pytest.param("space 1\nspace 1\nbundle convex 2 1\nbundle convex 0 1\n", 4, 14, 14,
                     id="p1xp1-asymmetric"),
        # the zero-entry spec: P1 x P2, no two factors alike
        pytest.param("space 1\nspace 2\nbundle convex 1 3\nbundle concave 1 0\n", 4, 14, 14,
                     id="zero-entry"),
    ],
)
def test_the_orbit_map_names_the_first_degree_of_each_orbit(text, bound, nonzero, orbits):
    spec = parse_spec(text)
    degrees = list(degree_pairs(spec.m, bound))
    got = mirror._orbits(spec, degrees)
    assert (len(degrees) - 1, len(degrees) - 1 - len(got)) == (nonzero, orbits)
    # against the orbits of the whole group, every permutation tried
    group = _group(spec)
    for d in degrees:
        first = min((tuple(d[i] for i in g) for g in group), key=degrees.index)
        if first == d:
            assert d not in got
        else:
            rep, sigma = got[d]
            assert rep == first and sigma in group
            assert tuple(rep[i] for i in sigma) == d


def test_one_factor_has_no_orbit_map():
    spec = parse_spec("space 4\nbundle convex 5\n")
    assert solve_mirror_map(spec, 6).orbits == {}
