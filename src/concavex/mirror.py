"""Normalization of the hypergeometric series and invariant extraction.

The raw degree-d blocks carry strata at alpha^0 and alpha^{-1} that a
change of variables removes.  Working with the reduced blocks R_d
(reduced_block: the Chern-polynomial ratio divided out), we determine
three families of rational coefficients, degree by degree:

  * nu_d, a scalar normalization, collected into N(q) = 1 + sum nu_d q^d;
  * f_d, weighting x q^d / alpha in an exponential prefactor;
  * g_{i,d}, one shift series per projective factor.

With U := exp(sum f_d x q^d / alpha - log N(q)) and
G := exp(-(sum_i g_i(q) H_i)/alpha), the series U * sum R_d q^d - G
must vanish at the alpha^0 and alpha^{-1} strata.  At each degree the
unknowns (log N)_d, f_d and g_{i,d} enter that residual as
-(log N)_d + f_d x / alpha + sum_i g_{i,d} H_i / alpha, so the solve reads
each off one fixed place: the unit slot of the alpha^0 x^0 key, the unit
slot of the alpha^{-1} x^1 key and the H_i slot of the alpha^{-1} x^0
key.  One pass over the degrees does it: U and G are extended degree by
degree by the exponential recurrence of qseries, first with d's own
coefficients still zero for the read-off, then completed from the
coefficients read off.  Anything outside span{1, x/alpha, H_i/alpha} is
left in the residual, and the one check after solving, that no stratum at
alpha^{-1} or above remains, reports it.  N is the exp of the log N read
off.  Every series here is a qseries.Series, a plain dict {degree: block},
and every sum over the splits (d', d - d') of a degree, block or scalar,
reads them from the solve's one qseries.degree_pairs table, kept on the map:
so do the Euler route's reference exp(F) N^{-1} and the int exps of N and g.

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
straight from X_d's stored ints (LaurentBlock.monomials), over X_d's
denominator: V_d^(j) = X_d[x^j H^top] and T_{d,i} = -X_d[alpha^-2 x^s
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
"""

from __future__ import annotations

import math
from collections import namedtuple

from .cohomology import Rat
from .eulerdata import _power, chern_ratio, hyper_block, reduced_block
from .geometry import GeometrySpec, validate
from .laurent import LaurentBlock, _mul_sum, block_one, block_scalar
from .qseries import (
    Degree,
    Series,
    Splits,
    _exp_coefficient,
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
                           "blocks pairs")):
    """Solved change of variables, truncated at total degree `bound`.

    Past the coefficients, by degree: the residual U * sum R q^d - G the solve
    checked, the reduced blocks R_d it read, and qseries.degree_pairs' splits
    (d', d - d').  The repr leaves those three out.
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


def _log_terms(
    dims: tuple[int, ...], f: Rat, g: tuple[Rat, ...]
) -> tuple[LaurentBlock, LaurentBlock]:
    """The q^d terms f x / alpha of F and -(sum_i g_i H_i) / alpha of log G."""
    return (
        LaurentBlock(dims, {(-1, 1, (0,) * len(dims)): f}),
        LaurentBlock(dims, {(-1, 0, _power(len(dims), i, 1)): -c for i, c in enumerate(g)}),
    )


def _transform_series(mm: MirrorMap) -> tuple[Series, Series]:
    """The pair (U, G) of `mm` built from scratch, the Euler route's reference."""
    dims, pairs = mm.spec.factors, mm.pairs
    f_log: Series = {}
    g_log: Series = {}
    n = {(0,) * len(dims): block_one(dims)}
    for d in list(pairs)[1:]:
        f_log[d], g_log[d] = _log_terms(dims, mm.prefactor.get(d, Rat(0)), mm.shift_vector(d))
        n[d] = block_scalar(dims, mm.normalization.get(d, Rat(0)))
    u = series_mul(dims, series_exp(dims, f_log, pairs), series_inverse(dims, n, pairs), pairs)
    return u, series_exp(dims, g_log, pairs)


def _residual(dims: tuple[int, ...], u: Series, reduced: Series, splits: Splits) -> LaurentBlock:
    """Coefficient of U * sum_{d' != 0} R_d' q^d' at the degree d that `splits` splits.

    It is free of U_d and G_d; adding U_d - G_d (R_0 = 1) gives that of U * sum R q^d - G.
    """
    return _mul_sum(dims, [(u[e], reduced[dp]) for dp, e in splits[1:]])


def solve_mirror_map(
    spec: GeometrySpec, bound: int, *, reuse: MirrorMap | None = None
) -> MirrorMap:
    """Determine normalization, prefactor and shifts in one pass over the degrees.

    U = exp(F - log N) and G are kept per degree and extended by the
    exponential recurrence.  At degree d they are first formed with d's own
    coefficients still zero: the read-off needs only U_d - G_d plus the sum
    over d' != 0 of U_{d-d'} R_{d'}, and it reads (log N)_d, f_d and g_{i,d}
    from three fixed places of that sum, entry by entry.  The coefficients
    read off then complete U_d and G_d, and only then is the sum formed: no
    stratum of U * sum R q^d - G may remain at alpha^{-1} or above, and that
    residual is kept on the map for the integrand.  The map also keeps the
    blocks R_d, for the Euler route and later solves: with `reuse`, a map
    solved earlier for the same spec, the solve starts from a copy of its
    blocks and builds only those it lacks.
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
    pairs = degree_pairs(m, bound)
    degrees = list(pairs)
    reduced: Series = {d: reduced_block(spec, d, table) for d in degrees}

    log_norm: dict[Degree, Rat] = {}
    prefactor: dict[Degree, Rat] = {}
    shifts: tuple[dict[Degree, Rat], ...] = tuple({} for _ in range(m))
    u_log: Series = {}  # q^d terms of log U and log G
    g_log: Series = {}
    u = {t0: block_one(dims)}
    g = {t0: block_one(dims)}
    residuals: Series = {}

    def read(a: int, j: int, h: tuple[int, ...]) -> Rat:
        # the entry of lower + U_d - G_d at the loop's degree d, without forming that sum
        return lower.entry(a, j, h) + u[d].entry(a, j, h) - g[d].entry(a, j, h)

    for d in degrees[1:]:
        u[d] = _exp_coefficient(dims, u_log, u, pairs[d])
        g[d] = _exp_coefficient(dims, g_log, g, pairs[d])
        lower = _residual(dims, u, reduced, pairs[d])
        log_norm[d] = read(0, 0, t0)
        prefactor[d] = -read(-1, 1, t0)
        for i in range(m):
            shifts[i][d] = -read(-1, 0, _power(m, i, 1))

        # complete degree d from the stored coefficients: U_0 = G_0 = 1
        fblk, g_log[d] = _log_terms(dims, prefactor[d], tuple(h[d] for h in shifts))
        u_log[d] = fblk - block_scalar(dims, log_norm[d])
        u[d] = u[d] + u_log[d]
        g[d] = g[d] + g_log[d]
        acc = lower + (u[d] - g[d])
        sup = acc.alpha_support()
        if sup is not None and sup[1] >= -1:
            raise MirrorInconsistencyError(
                f"degree {d}: residual stratum at alpha^{sup[1]} after solving"
            )
        residuals[d] = acc
    (log_egf,), scale = egf_numerators((log_norm,), bound)
    norm = egf_exp(log_egf, pairs)
    normalization = {d: Rat(norm.get(d, 0), scale[sum(d)]) for d in degrees[1:]}
    return MirrorMap(spec, bound, normalization, prefactor, shifts, residuals, table, pairs)


def integrand_series(mm: MirrorMap, euler: bool = False) -> Series:
    """X_d per nonzero degree d of `mm`, such that J_d = kahler * X_d.

    By default X_d is the Chern ratio times the solve's residual.  With
    `euler` set, it is rebuilt from the full blocks and restricted to its
    x^0 stratum.  Full blocks polynomial in x are specialized to x = 0
    (their x^0 stratum) before assembly; the correction term, and any full
    block with x poles, are multiplied out with x symbolic and restricted
    only afterwards, because the Chern ratio of a concave summand is an
    x-Laurent series.  A concave summand pairing to 0 with dp leaves such
    a pole in hyper_block(spec, dp, mm.blocks, omega).
    """
    spec = mm.spec
    dims = spec.factors
    omega = chern_ratio(spec)
    if not euler:
        return {d: omega * r for d, r in mm.residuals.items()}
    degrees = list(mm.residuals)
    u, g = _transform_series(mm)
    blocks = {dp: hyper_block(spec, dp, mm.blocks, omega) for dp in degrees}
    at_x0 = {dp for dp, b in blocks.items() if b.x_support()[0] >= 0}
    blocks.update((dp, blocks[dp].x_stratum(0)) for dp in at_x0)
    u0 = {e: b.x_stratum(0) for e, b in u.items()}
    out = {}
    for d in degrees:
        pairs = [(u0[e] if dp in at_x0 else u[e], blocks[dp]) for dp, e in mm.pairs[d][1:]]
        pairs.append((u[d] - g[d], omega))
        out[d] = _mul_sum(dims, pairs).x_stratum(0)
    return out


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

    # the integral of kahler * X_d, read off X_d: a term alpha^a x^j H^h meets
    # only kahler's t^beta H^beta / alpha^|beta|, beta = dims - h (H^dims the
    # top class), weighted (-1)^|beta| / beta!; V_d[j] is the t-constant
    # integral at x^j, T_d[i] the one linear in t_i at x^s, over X_d's q_d
    dim = sum(dims)
    axis = {tuple(n - (k == i) for k, n in enumerate(dims)): i for i in range(m)}
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
        terms, q = xs[d].monomials()
        v: dict[int, int] = {}
        t = [0] * m
        for (_, j, h), c in terms.items():
            if sum(h) == dim:  # |beta| = 0
                v[j] = c
            elif j == s:  # |beta| = 1, at alpha^-2
                t[axis[h]] = -c
        integrated[d] = v, t, q

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
