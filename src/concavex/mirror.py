"""Normalization of the hypergeometric series and invariant extraction.

The raw degree-d blocks carry strata at alpha^0 and alpha^{-1} that a
change of variables removes.  Working with the reduced blocks R_d
(reduced_block: the Chern-polynomial ratio divided out), we determine
three families of rational coefficients:

  * nu_d, a scalar normalization, collected into N(q) = 1 + sum nu_d q^d;
  * f_d, weighting x q^d / alpha in an exponential prefactor F;
  * g_{i,d}, one shift series per projective factor.

With U := exp(sum f_d x q^d / alpha) / N(q) and G := exp(-(sum_i g_i(q) H_i)/alpha),
the series U * sum R_d q^d - G must vanish at the alpha^0 and alpha^{-1}
strata (Givental; Lian-Liu-Yau).  Each R_d is homogeneous of degree 0 and
polynomial in x, so set alpha = 1: the weight-0 part R^(0) is a constant,
the weight-1 part R^(1) lies in span{x, H_i}, and as U^(0) = 1/N,
U^(1) = F x/N, G^(0) = 1 and G^(1) = -g.H, the two parts of U * R - G vanish
exactly when N = R^(0) and F x + g.H = -R^(1)/N.  So the solve reads N and
R^(1) off the blocks and builds U and G once from them, with the block
helpers of qseries; the Euler route reads the same U and G off the map.
Anything left at alpha^{-1} or above in the residual is a fault, which the
one check after solving reports.  Every series here is a qseries.Series, a
plain dict {degree: block}, and every sum over the splits (d', d - d') of a
degree, block or scalar, reads them from the solve's one
qseries.degree_pairs table, kept on the map.

The invariants then come out of the integrated series: multiplying back
by the Chern ratio and the Kahler prefactor gives per degree d the block

    J_d = kahler * ratio * ( sum_{d'} U_{d-d'} R_{d'} - G_d ),

the Kahler factor times the Chern ratio times the residual the solve
checked, whose fibrewise integral concentrates, at the x^s stratum (s the
splitting excess), in alpha^{-3} with t-degree at most one.  Only the top
class survives the integral, and with kahler = sum_beta (-1)^|beta| / beta!
alpha^{-|beta|} t^beta H^beta each term alpha^a x^j H^h of X_d meets just
the one Kahler term beta = top - h there: the integral is X_d's own terms
relabelled, nothing adds up or cancels.  So extraction forms neither J_d
nor the Kahler factor and reads the two kinds of coefficient it needs
straight from X_d's stored ints at their slots (LaurentBlock.at_slots), over
X_d's denominator: V_d^(j) = X_d[x^j H^top] and T_{d,i} = -X_d[alpha^-2 x^s
H^(top - e_i)].  Grading puts them there: with alpha, x and each H_i of
weight 1, X_d is homogeneous of degree s - 3 + dim, which extraction checks
once per degree next to its alpha- and x-support gates.  Writing
Phi(t) = sum K_d exp(d.t) for the sought table, matching the t-constant
part of the integrals against 2*Phi - sum_i t_i dPhi/dt_i expressed in
the shifted variables yields a triangular system for the K_d; the
t-linear part is then an overdetermined consistency check.  The series
exp(<d', g>) and (2 - <d', g>) exp(<d', g>) it reads are int EGF
numerators (qseries.egf_mul), and the system and the check run in ints,
K_d times 2^|d| delta^|d| |d|! and the lcm of the X_d denominators:
one Fraction per K_d and x-level comes out at the end.

A permutation sigma of factors of one dimension that maps the bundle multiset
to itself permutes the computation: R, U, G, the residual and X at sigma(d)
are those at d with H exponents permuted, f and N equal, g permuted.  The
solve, the series helpers it calls and the integrand form products only at
the first degree of each orbit (_orbits) and relabel them
(LaurentBlock.relabel) elsewhere; every gate runs at every degree.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .cohomology import Rat
from .eulerdata import _power, chern_ratio, hyper_block, reduced_block
from .geometry import GeometrySpec, validate
from .laurent import LaurentBlock, _mul_sum, block_scalar
from .qseries import (
    Degree,
    Series,
    Splits,
    degree_pairs,
    egf_exp,
    egf_mul,
    egf_numerators,
    series_exp,
    series_inverse,
    series_mul,
)


class MirrorError(Exception):
    """Base class for solver and extraction failures."""


class MirrorInconsistencyError(MirrorError):
    """A low-order stratum cannot be cancelled by any admissible change."""


class ExtractionError(MirrorError):
    """The integrated series violates the expected grading or matching."""


class MirrorMap(namedtuple("MirrorMap", "spec bound normalization prefactor shifts residuals "
                           "blocks pairs orbits u g")):
    """Solved change of variables, truncated at total degree `bound`.

    Past the coefficients, by degree: the residual U * sum R q^d - G the solve
    checked, the reduced blocks R_d it read, qseries.degree_pairs' splits
    (d', d - d'), the orbit map of _orbits, and the series U and G themselves.
    The repr leaves those six out.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        shown = list(self._asdict().items())[:5]
        return f"MirrorMap({', '.join(f'{k}={v!r}' for k, v in shown)})"

    def shift_vector(self, d: Degree) -> tuple[Rat, ...]:
        return tuple(g.get(d, Rat(0)) for g in self.shifts)


# K_d at `degree`: the (x-exponent, value) pairs ascending, and the x^s value
InvariantEntry = namedtuple("InvariantEntry", "degree raw value")


class InvariantTable(namedtuple("InvariantTable", "spec excess entries")):
    __slots__ = ()

    def value(self, d: Degree) -> Rat:
        for e in self.entries:
            if e.degree == d:
                return e.value
        raise KeyError(d)


def _orbits(spec: GeometrySpec, degrees: list[Degree]) -> dict[Degree, tuple]:
    """d -> (rep, sigma), d_k = rep_{sigma[k]}, for each d of `degrees` but the first of its orbit.

    The group keeps dims and the bundle multiset; it is generated by one element per k < i
    that fixes the factors before k and sends k to i, found by a search pruned on prefixes.
    """
    dims, m = spec.factors, spec.m

    def extend(sigma: tuple[int, ...]) -> tuple[int, ...] | None:
        k = len(sigma)
        moved = Counter((b.kind, tuple(b.multidegree[i] for i in sigma)) for b in spec.bundles)
        if moved != Counter((b.kind, b.multidegree[:k]) for b in spec.bundles):
            return None
        if k == m:
            return sigma
        fits = (extend(sigma + (i,)) for i in range(m) if i not in sigma and dims[i] == dims[k])
        return next((g for g in fits if g), None)

    gens = [g for k in range(m) for i in range(k + 1, m) if (g := extend(tuple(range(k)) + (i,)))]
    out: dict[Degree, tuple] = {}
    for rep in degrees:
        todo = [] if rep in out else [(rep, tuple(range(m)))]
        for d, sigma in todo:  # g sends d = rep o sigma to rep o (sigma o g)
            for g in gens:
                image = tuple(d[i] for i in g)
                if image != rep and image not in out:
                    out[image] = rep, tuple(sigma[i] for i in g)
                    todo.append((image, out[image][1]))
    return out


def _residual(
    dims: tuple[int, ...], u: Series, g: Series, reduced: Series, splits: Splits
) -> LaurentBlock:
    """Coefficient of U * sum R q^d - G at the degree d that `splits` splits, one kernel call."""
    minus_g = (g[splits[-1][0]], block_scalar(dims, -1))
    return _mul_sum(dims, [(u[e], reduced[dp]) for dp, e in splits] + [minus_g])


def solve_mirror_map(
    spec: GeometrySpec, bound: int, *, reuse: MirrorMap | None = None
) -> MirrorMap:
    """Read normalization, prefactor and shifts off the blocks, then build U and G once.

    With alpha = 1, U^(0) = 1/N, U^(1) = F x/N, G^(0) = 1 and G^(1) = -g.H, so the
    weight-0 and weight-1 parts of U * R - G vanish exactly when N = R^(0) and
    F x + g.H = -R^(1)/N.  Hence at each orbit representative d the solve reads
    N_d = R_d[1] and the window W_d = -R_d[x/alpha] x/alpha + sum_i R_d[H_i/alpha]
    H_i/alpha; the log terms W N^{-1} are F x/alpha at x^1 and -g.H/alpha at x^0,
    and U = exp(F x/alpha) N^{-1}, G = exp(-g.H/alpha).  The map keeps U and G,
    the residual U * sum R q^d - G, which may keep no stratum at alpha^{-1} or
    above, and the blocks R_d: with `reuse`, a map solved earlier for the same
    spec, the solve starts from a copy of its blocks and builds only those it lacks.
    """
    if bound < 0:
        raise ValueError(f"degree bound must be at least 0, got {bound}")
    validate(spec)
    if reuse is not None and reuse.spec != spec:
        raise ValueError("the mirror map to reuse was solved for another spec")
    table = dict(reuse.blocks) if reuse is not None else {}
    dims = spec.factors
    m = len(dims)
    t0 = (0,) * m
    hs = [_power(m, i, 1) for i in range(m)]
    pairs = degree_pairs(m, bound)
    degrees = list(pairs)
    orbits = _orbits(spec, degrees)
    norm = {t0: reduced_block(spec, t0, table)}  # N_0 = R_0 = 1
    window: Series = {}
    for d in degrees[1:]:
        if d in orbits:  # every block at d is its rep's, relabelled: R_d into the table too
            rep, sigma = orbits[d]
            table[d] = table[rep].relabel(sigma)
            norm[d], window[d] = norm[rep], window[rep].relabel(sigma)
        else:
            r = reduced_block(spec, d, table)  # R_d into the table, from the blocks below d
            norm[d] = block_scalar(dims, r.entry(0, 0, t0))
            terms = {(-1, 0, h): r.entry(-1, 0, h) for h in hs}
            window[d] = LaurentBlock(dims, {(-1, 1, t0): -r.entry(-1, 1, t0), **terms})
    inverse = series_inverse(dims, norm, pairs, orbits)
    logs = series_mul(dims, window, inverse, pairs, orbits)
    f_log = {d: blk.x_stratum(1) for d, blk in logs.items()}
    u = series_mul(dims, series_exp(dims, f_log, pairs, orbits), inverse, pairs, orbits)
    g = series_exp(dims, {d: blk.x_stratum(0) for d, blk in logs.items()}, pairs, orbits)
    normalization: dict[Degree, Rat] = {}
    prefactor: dict[Degree, Rat] = {}
    shifts: tuple[dict[Degree, Rat], ...] = tuple({} for _ in range(m))
    residuals: Series = {}
    for d in degrees[1:]:
        if d in orbits:
            rep, sigma = orbits[d]
            residuals[d] = residuals[rep].relabel(sigma)
            normalization[d], prefactor[d] = normalization[rep], prefactor[rep]
            for i in range(m):
                shifts[i][d] = shifts[sigma[i]][rep]
        else:
            residuals[d] = _residual(dims, u, g, table, pairs[d])
            normalization[d], prefactor[d] = norm[d].entry(0, 0, t0), logs[d].entry(-1, 1, t0)
            for i, h in enumerate(hs):
                shifts[i][d] = -logs[d].entry(-1, 0, h)
        sup = residuals[d].alpha_support()
        if sup is not None and sup[1] >= -1:
            raise MirrorInconsistencyError(
                f"degree {d}: residual stratum at alpha^{sup[1]} after solving"
            )
    return MirrorMap(spec, bound, normalization, prefactor, shifts, residuals, table, pairs,
                     orbits, u, g)


def integrand_series(mm: MirrorMap, euler: bool = False) -> Series:
    """X_d per nonzero degree d of `mm`, such that J_d = kahler * X_d.

    By default X_d is the Chern ratio times the solve's residual.  With
    `euler` set, it is rebuilt from the full blocks and restricted to its
    x^0 stratum.  Full blocks polynomial in x are specialized to x = 0
    (their x^0 stratum) before assembly; the correction term, and any full
    block with x poles, are multiplied out with x symbolic and restricted
    only afterwards, because the Chern ratio of a concave summand is an
    x-Laurent series.  A concave summand pairing to 0 with dp leaves such
    a pole in hyper_block(spec, dp, mm.blocks, omega).  On either route an
    image of the orbit map relabels its representative's X_d, and the Euler
    route its full block too.
    """
    spec = mm.spec
    dims = spec.factors
    omega = chern_ratio(spec)
    if euler:
        blocks: Series = {}
        for dp in mm.residuals:  # the full blocks are invariant too
            blocks[dp] = (blocks[mm.orbits[dp][0]].relabel(mm.orbits[dp][1]) if dp in mm.orbits
                          else hyper_block(spec, dp, mm.blocks, omega))
        at_x0 = {dp for dp, b in blocks.items() if b.x_support()[0] >= 0}
        blocks.update((dp, blocks[dp].x_stratum(0)) for dp in at_x0)
        u0 = {e: b.x_stratum(0) for e, b in mm.u.items()}
    xs: Series = {}
    for d, r in mm.residuals.items():  # omega is invariant: an image relabels its rep's X
        if d in mm.orbits:
            xs[d] = xs[mm.orbits[d][0]].relabel(mm.orbits[d][1])
        elif not euler:
            xs[d] = omega * r
        else:
            pairs = [(u0[e] if dp in at_x0 else mm.u[e], blocks[dp]) for dp, e in mm.pairs[d][1:]]
            pairs.append((mm.u[d] - mm.g[d], omega))
            xs[d] = _mul_sum(dims, pairs).x_stratum(0)
    return xs


def extract_invariants(mm: MirrorMap, euler: bool = False) -> InvariantTable:
    """Integrate the normalized series of `mm` and solve for the invariants to its bound."""
    spec, bound = mm.spec, mm.bound
    s = validate(spec)
    if euler and s != 0:
        raise ValueError(
            "Euler-class specialization needs splitting excess 0; "
            f"this spec has excess {s}"
        )
    m, dims = spec.m, spec.factors
    xs = integrand_series(mm, euler)
    degrees = list(xs)

    # the integral of kahler * X_d read off X_d (module docstring): V_d[j] at
    # x^j H^top (|beta| = 0), T_d[i] at x^s H^(top - e_i) (|beta| = 1), over q_d
    dim = sum(dims)
    slots = [dims] + [tuple(n - (k == i) for k, n in enumerate(dims)) for i in range(m)]
    integrated: dict[Degree, tuple[dict[int, int], list[int], int]] = {}
    top = s
    for d in degrees:
        # kahler's only key with alpha^{>= 0} is the unit, so J_d and X_d
        # share their top alpha stratum
        sup = xs[d].alpha_support()
        if sup is not None and sup[1] > -2:
            raise ExtractionError(f"degree {d}: integrand stratum at alpha^{sup[1]}")
        low, high = xs[d].x_support() or (s, s)
        if low < s:
            raise ExtractionError(f"degree {d}: x-degree {low} below the splitting excess")
        # grading: a + j + |h| = s - 3 + dim puts every t-constant term at
        # alpha^(s-3-j), and with a <= -2 every term at x^s has |beta| <= 1
        if not xs[d].is_zero() and xs[d].deg != s - 3 + dim:
            raise ExtractionError(f"degree {d}: integrand of degree {xs[d].deg}, not {s - 3 + dim}")
        top = max(top, high)
        (v, *below_top), q = xs[d].at_slots(slots)
        integrated[d] = v, [-t.get(s, 0) for t in below_top], q

    # exp(<d', g>) = exp(<d' - e_i, g>) exp(g_i), i the first axis of d', and
    # the matching series (2 - <d', g>) exp(<d', g>), both to total degree
    # D - |d'|, as EGF numerators over the shifts' scale[n] = delta^n n!;
    # below[d] holds (d', exp weight, matching weight) at q^{d - d'} for each
    # d' <= d, d' = d included, each formed before d: the numerators times
    # 2^k C(|d|, k), k = |d - d'|, the matching one halved (0 at k = 0, unread)
    gs, scale = egf_numerators(mm.shifts, bound)
    axis_exp = [egf_exp(g, mm.pairs) for g in gs]
    t0 = (0,) * m
    expg: dict[Degree, dict[Degree, int]] = {t0: {t0: 1}}
    match: dict[Degree, dict[Degree, int]] = {}
    below: dict[Degree, list[tuple[Degree, int, int]]] = {}
    for d in degrees:
        i = next(k for k, c in enumerate(d) if c)
        prev = tuple(c - (k == i) for k, c in enumerate(d))
        expg[d] = egf_mul(expg[prev], axis_exp[i], mm.pairs, bound - sum(d))
        two_minus = {t0: 2}
        for k, g in enumerate(gs):
            for dd, c in g.items():
                two_minus[dd] = two_minus.get(dd, 0) - d[k] * c
        match[d] = egf_mul(two_minus, expg[d], mm.pairs, bound - sum(d))
        w = [math.comb(sum(d), k) << k for k in range(sum(d) + 1)]
        below[d] = [
            (dp, w[sum(e)] * expg[dp].get(e, 0), (w[sum(e)] >> 1) * match[dp].get(e, 0))
            for dp, e in mm.pairs[d][1:]
        ]

    # the system in ints: solved[j][d] holds K_d unit[d], unit[d] being
    # 2^|d| scale[|d|] times the lcm of the denominators q_d; with the
    # weights of below its recurrence has int coefficients, and the only
    # quotients, (unit[d] / 2) / q and unit[d] / q, are exact since q | den
    den = math.lcm(*(q for _, _, q in integrated.values()))
    unit = {d: (scale[sum(d)] << sum(d)) * den for d in degrees}
    solved: dict[int, dict[Degree, int]] = {}
    for j in range(s, top + 1):
        kj: dict[Degree, int] = {}
        for d in degrees:
            v, _, q = integrated[d]
            c0 = (unit[d] >> 1) // q * v.get(j, 0)
            kj[d] = c0 - sum(kj[dp] * c for dp, _, c in below[d] if dp != d)
        solved[j] = kj

    # overdetermination: the t-linear strata are determined by the same K_d
    for d in degrees:
        _, t, q = integrated[d]
        for i, got in enumerate(t):
            want = -sum(solved[s][dp] * dp[i] * e for dp, e, _ in below[d])
            if unit[d] // q * got != want:
                raise ExtractionError(
                    f"degree {d}: t-linear stratum mismatch on axis {i} "
                    f"({Rat(got, q)} != {Rat(want, unit[d])})"
                )

    entries = []
    for d in degrees:
        raw = [(j, Rat(solved[j][d], unit[d])) for j in range(s, top + 1)]
        raw = [(j, v) for j, v in raw if v or j == s]
        entries.append(InvariantEntry(degree=d, raw=tuple(raw), value=raw[0][1]))
    return InvariantTable(spec=spec, excess=s, entries=tuple(entries))


def _is_concave_line_pair(spec: GeometrySpec) -> bool:
    return (
        spec.factors == (1,)
        and len(spec.bundles) == 2
        and all(
            b.kind == "concave" and b.multidegree == (-1,) for b in spec.bundles
        )
    )


def one_pointed(table: InvariantTable, d: int) -> Rat:
    """Degree-d number with one marked point on the concave line pair.

    Fibre integration over the universal curve contributes a factor d;
    derived only for the rigid-curve normal-bundle geometry.
    """
    if not _is_concave_line_pair(table.spec):
        raise ValueError("one-pointed reduction holds only for the concave pair on P^1")
    return Rat(d) * table.value((d,))


def two_pointed(table: InvariantTable, d: int) -> Rat:
    """Two marked points: a second fibre-integration factor of d."""
    return Rat(d) * one_pointed(table, d)


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


def verify_all(spec: GeometrySpec, bound: int) -> list[CheckResult]:
    """Engine run plus every consistency gate, reported check by check."""
    from .localization import (
        OracleInconsistencyError, SamplingError, oracle_degrees, oracle_invariant_checked,
    )

    if bound < 1:
        raise ValueError(f"verify needs a degree bound of at least 1, got {bound}")
    checks: list[CheckResult] = []
    s = validate(spec)
    try:
        mm = solve_mirror_map(spec, bound)
        table = extract_invariants(mm)
    except MirrorError as err:
        checks.append(CheckResult("solve_and_extract", False, str(err)))
        return checks
    checks.append(CheckResult("solve_and_extract", True))

    if s == 0:
        try:
            et = extract_invariants(mm, euler=True)
            same = all(et.value(e.degree) == e.value for e in table.entries)
            detail = "" if same else "x->0 values differ"
            checks.append(CheckResult("euler_specialization", same, detail))
        except MirrorError as err:
            checks.append(CheckResult("euler_specialization", False, str(err)))

    try:
        mm2 = solve_mirror_map(spec, bound + 2, reuse=mm)
        table2 = extract_invariants(mm2)
        stable = all(
            mm2.normalization.get(d, Rat(0)) == mm.normalization.get(d, Rat(0))
            and mm2.prefactor.get(d, Rat(0)) == mm.prefactor.get(d, Rat(0))
            and mm2.shift_vector(d) == mm.shift_vector(d)
            for d in list(mm.pairs)[1:]
        ) and all(table2.value(e.degree) == e.value for e in table.entries)
        detail = "" if stable else f"bound {bound} vs {bound + 2} differ"
        checks.append(CheckResult("truncation_stability", stable, detail))
    except MirrorError as err:
        checks.append(CheckResult("truncation_stability", False, str(err)))

    for d in [k for k in oracle_degrees(spec) if k <= bound]:
        try:
            val, _ = oracle_invariant_checked(spec, d)
            ok = val == table.value((d,))
            detail = "" if ok else f"{val} != {table.value((d,))}"
            checks.append(CheckResult(f"oracle_degree_{d}", ok, detail))
        except (SamplingError, OracleInconsistencyError) as err:
            checks.append(CheckResult(f"oracle_degree_{d}", False, str(err)))
    return checks
