"""Correctness gate for the benchmark's runs, sharing no code with concavex.

For a ``compute`` report it reads the invariants K_d, applies the
Aspinwall-Morrison multiple-cover transform

    n_d = sum over k dividing gcd(d) of mu(k) k^-3 K_{d/k}

and demands that every n_d is an integer (Gopakumar-Vafa integrality,
valid for splitting excess s = 0) and that the literature values hold.
For a ``verify`` report, which prints no K values, every check line must
read ``pass`` and the named checks must all be present.

Each function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

Degree = tuple[int, ...]

# n_d from the cited tables, not from the engine.
ANCHORS: dict[str, dict[Degree, int]] = {
    # Candelas, de la Ossa, Green, Parkes 1991
    "quintic": {(1,): 2875, (2,): 609250, (3,): 317206375},
    # Hosono, Klemm, Theisen, Yau 1995; (0,1) equals (1,0) by the swap of
    # the two factors
    "bicubic": {(1, 0): 189, (0, 1): 189, (1, 1): 8262},
    # Libgober, Teitelbaum 1993
    "ci2222": {(1,): 512, (2,): 9728},
    # Aspinwall, Morrison 1993: K_d = 1/d^3, so only n_1 survives
    "conifold-pair": {(1,): 1, (2,): 0, (3,): 0},
    # Chiang, Klemm, Yau, Zaslow 1999
    "local-p2": {(1,): 3, (2,): -6, (3,): 27},
}


def mobius(k: int) -> int:
    sign, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if k > 1 else sign


def bps_numbers(K: dict[Degree, Fraction]) -> dict[Degree, Fraction]:
    """Multiple-cover transform of a table holding every degree it needs."""
    out = {}
    for d in K:
        g = math.gcd(*d)
        out[d] = sum(
            (
                mobius(k) * Fraction(1, k**3) * K[tuple(x // k for x in d)]
                for k in range(1, g + 1)
                if g % k == 0
            ),
            Fraction(0),
        )
    return out


def _degrees(m: int, bound: int) -> set[Degree]:
    return {d for d in itertools.product(range(bound + 1), repeat=m) if 0 < sum(d) <= bound}


def check_compute(stdout: str, geometry: str, bound: int) -> list[str]:
    try:
        report = json.loads(stdout)
        m = len(report["spec"]["spaces"])
        K = {tuple(e["degree"]): Fraction(e["K"]) for e in report["invariants"]}
        checks = report["checks"]
        s = report["s"]
    except (ValueError, KeyError, TypeError) as err:
        return [f"unreadable report: {err!r}"]
    problems = []
    if s != 0:
        problems.append(f"splitting excess {s}; the integrality gate needs 0")
    if set(K) != _degrees(m, bound):
        return problems + [f"degrees {sorted(K)} do not match the bound {bound}"]
    n = bps_numbers(K)
    problems += [f"n_{d} = {v} is not integral" for d, v in n.items() if v.denominator != 1]
    for d, want in ANCHORS[geometry].items():
        if d in n and n[d] != want:
            problems.append(f"n_{d} = {n[d]}, literature {want}")
    problems += [f"check {c.get('name')} failed" for c in checks if c.get("pass") is not True]
    return problems


def check_verify(stdout: str, required: tuple[str, ...]) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "all checks passed":
        return ["verify did not end with 'all checks passed'"]
    seen = set()
    problems = []
    for line in lines[:-1]:
        name, sep, status = line.partition(": ")
        if not sep or status != "pass":
            problems.append(f"check line {line!r} does not read pass")
        seen.add(name)
    problems += [f"check {name} missing" for name in required if name not in seen]
    return problems
