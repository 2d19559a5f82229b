"""Normalization of the hypergeometric series and invariant extraction.

The raw degree-d blocks carry strata at alpha^0 and alpha^{-1} that a
change of variables removes.  Working with the reduced blocks R_d
(reduced_block: the Chern-polynomial ratio divided out), we determine
three families of rational coefficients, degree by degree:

  * nu_d, a scalar normalization, collected into N(q) = 1 + sum nu_d q^d;
  * f_d, weighting x q^d / alpha in an exponential prefactor;
  * g_{i,d}, one shift series per projective factor.

With U := exp(sum f_d x q^d / alpha) / N(q) and
G := exp(-(sum_i g_i(q) H_i)/alpha), the series U * sum R_d q^d - G
must vanish at the alpha^0 and alpha^{-1} strata.  Each stratum at the
current degree is an inhomogeneous linear condition whose unknown part
is exactly {scalar} (for nu) or {x, H_1, .., H_m} (for f and g), so the
solve is a read-off; anything outside that span is a hard error.  One
pass over the degrees does it: E = exp(sum f_d x q^d / alpha), G and U
are extended degree by degree by the recurrence of qseries (U from
N U = E), first with d's own coefficients still zero for the read-off,
then completed from the coefficients read off.  Every series here is a
qseries.Series, a plain dict {degree: block}; the Euler route's reference
(U, G) is rebuilt from scratch with series_exp and series_inverse.

The invariants then come out of the integrated series: multiplying back
by the Chern ratio and the Kahler prefactor gives per degree d the block

    J_d = kahler * ratio * ( sum_{d'} U_{d-d'} R_{d'} - G_d ),

the Kahler factor times the Chern ratio times the residual the solve
checked, whose fibrewise integral concentrates, at the x^s stratum (s the
splitting excess), in alpha^{-3} with t-degree at most one.  Only the top
class survives the integral, so extraction integrates kahler * X_d pair
by pair of slots (laurent._mul_integrate) without forming J_d.  Writing
Phi(t) = sum K_d exp(d.t) for the sought table, matching the t-constant
part of the integrals against 2*Phi - sum_i t_i dPhi/dt_i expressed in
the shifted variables yields a triangular system for the K_d; the
t-linear part is then an overdetermined consistency check.  Per d', the
series exp(<d', g>) = exp(<d' - e_i, g>) exp(g_i) and the matching series
(2 - <d', g>) exp(<d', g>) are built once, to the total degree D - |d'|
the system reads; each q^diff coefficient of both is filed under degree
d' + diff, where the triangular solve and the t-linear check read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohomology import Rat, linear, scalar
from .eulerdata import chern_ratio, hyper_block, reduced_block
from .geometry import GeometrySpec, validate
from .laurent import (
    Key,
    LaurentBlock,
    _mul_integrate,
    _mul_sum,
    _tzero,
    block_one,
    block_scalar,
    kahler_factor,
)
from .qseries import (
    Degree,
    Series,
    _exp_coefficient,
    _sub,
    degrees_upto,
    scalar_exp,
    scalar_mul,
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


@dataclass(frozen=True)
class MirrorMap:
    """Solved change of variables, truncated at total degree `bound`."""

    spec: GeometrySpec
    bound: int
    normalization: dict[Degree, Rat]
    prefactor: dict[Degree, Rat]
    shifts: tuple[dict[Degree, Rat], ...]
    # per degree, U * sum R q^d - G: both strata cancelled, as the solve checked
    residuals: Series = field(compare=False, repr=False)

    def shift_vector(self, d: Degree) -> tuple[Rat, ...]:
        return tuple(g.get(d, Rat(0)) for g in self.shifts)


@dataclass(frozen=True)
class InvariantEntry:
    degree: Degree
    raw: tuple[tuple[int, Rat], ...]  # (x-exponent, value), ascending
    value: Rat  # the x^s entry


@dataclass(frozen=True)
class InvariantTable:
    spec: GeometrySpec
    excess: int
    bound: int
    entries: tuple[InvariantEntry, ...]

    def value(self, d: Degree) -> Rat:
        for e in self.entries:
            if e.degree == d:
                return e.value
        raise KeyError(d)


def _log_terms(
    dims: tuple[int, ...], f: Rat, g: tuple[Rat, ...]
) -> tuple[LaurentBlock, LaurentBlock]:
    """The q^d terms f x / alpha of log E and -(sum_i g_i H_i) / alpha of log G."""
    t0 = _tzero(len(dims))
    return (
        LaurentBlock(dims, {(-1, 1, t0): scalar(dims, f)}),
        LaurentBlock(dims, {(-1, 0, t0): linear(dims, [-c for c in g])}),
    )


def _transform_series(
    dims: tuple[int, ...],
    bound: int,
    normalization: dict[Degree, Rat],
    prefactor: dict[Degree, Rat],
    shifts: tuple[dict[Degree, Rat], ...],
) -> tuple[Series, Series]:
    """The pair (U, G) built from scratch, the Euler route's reference."""
    f_log: Series = {}
    g_log: Series = {}
    n = {_tzero(len(dims)): block_one(dims)}
    for d in degrees_upto(len(dims), bound)[1:]:
        f_log[d], g_log[d] = _log_terms(
            dims, prefactor.get(d, Rat(0)), tuple(g.get(d, Rat(0)) for g in shifts)
        )
        n[d] = block_scalar(dims, normalization.get(d, Rat(0)))
    u = series_mul(
        dims, series_exp(dims, f_log, bound), series_inverse(dims, n, bound), bound
    )
    return u, series_exp(dims, g_log, bound)


def _residual(
    dims: tuple[int, ...],
    u: Series,
    reduced: Series,
    d: Degree,
) -> LaurentBlock:
    """Degree-d coefficient of U * sum_{d' != 0} R_d' q^d', free of U_d and G_d.

    Adding U_d - G_d (R_0 = 1) gives that of U * sum_d' R_d' q^d' - G.
    """
    pairs = [
        (u[diff], r)
        for dp, r in reduced.items()
        if any(dp) and (diff := _sub(d, dp)) is not None
    ]
    return _mul_sum(dims, pairs)


def _read_linear_stratum(
    blk: LaurentBlock, d: Degree, dims: tuple[int, ...]
) -> tuple[Rat, tuple[Rat, ...]]:
    """Split an alpha^{-1} stratum into x-part and hyperplane parts.

    The stratum must lie in span{x, H_1, .., H_m}; anything else means
    no choice of prefactor and shifts can cancel it.
    """
    m = len(dims)
    xcoef = Rat(0)
    hcoefs = [Rat(0)] * m
    for (a, j, t), c in blk.terms.items():
        if any(t) or j not in (0, 1):
            raise MirrorInconsistencyError(
                f"degree {d}: alpha^-1 stratum outside the solvable span"
            )
        if j == 1:
            for exps, r in c.terms():
                if any(exps):
                    raise MirrorInconsistencyError(
                        f"degree {d}: x-weighted stratum is not scalar"
                    )
                xcoef = r
        else:
            for exps, r in c.terms():
                if sum(exps) != 1:
                    raise MirrorInconsistencyError(
                        f"degree {d}: alpha^-1 stratum has a non-linear class"
                    )
                hcoefs[exps.index(1)] = r
    return xcoef, tuple(hcoefs)


def solve_mirror_map(spec: GeometrySpec, bound: int) -> MirrorMap:
    """Determine normalization, prefactor and shifts in one pass over the degrees.

    E = exp(F), G and U = E / N are kept per degree and extended by
    recurrence.  At degree d they are first formed with d's own
    coefficients still zero: the read-off needs only U_d - G_d plus the
    sum over d' != 0 of U_{d-d'} R_{d'}.  The stored coefficients then
    complete E_d, G_d and U_d, both strata of U * sum R q^d - G must
    cancel at d, and that residual is kept on the map for the integrand.
    The blocks R_d come from eulerdata's cache, each built once.
    """
    validate(spec)
    dims = spec.factors
    m = len(dims)
    degrees = degrees_upto(m, bound)
    reduced: Series = {d: reduced_block(spec, d) for d in degrees}
    if reduced[_tzero(m)] != block_one(dims):
        raise MirrorInconsistencyError("degree-0 reduced block is not 1")

    normalization: dict[Degree, Rat] = {}
    prefactor: dict[Degree, Rat] = {}
    shifts: tuple[dict[Degree, Rat], ...] = tuple({} for _ in range(m))
    one = block_one(dims)
    f_log: Series = {}  # q^d terms of log E and log G
    g_log: Series = {}
    minus_nu: Series = {}  # -nu_d, for N U = E
    e = {_tzero(m): one}
    g = {_tzero(m): one}
    u = {_tzero(m): one}
    residuals: Series = {}
    for d in degrees[1:]:
        e[d] = _exp_coefficient(dims, f_log, e, d)
        g[d] = _exp_coefficient(dims, g_log, g, d)
        u[d] = _mul_sum(dims, [(one, e[d])] + [
            (c, u[diff])
            for dp, c in minus_nu.items()
            if (diff := _sub(d, dp)) is not None
        ])
        lower = _residual(dims, u, reduced, d)
        acc = lower + (u[d] - g[d])
        try:
            nu = acc.alpha_stratum(0).as_scalar()
        except ValueError:
            raise MirrorInconsistencyError(
                f"degree {d}: alpha^0 stratum is not a pure scalar"
            ) from None
        xcoef, hcoefs = _read_linear_stratum(acc.alpha_stratum(-1), d, dims)
        normalization[d] = nu
        prefactor[d] = -xcoef
        for i in range(m):
            shifts[i][d] = -hcoefs[i]

        # complete degree d from the stored coefficients: E_0 = U_0 = G_0 = 1
        fblk, gblk = _log_terms(dims, prefactor[d], tuple(h[d] for h in shifts))
        nblk = block_scalar(dims, -normalization[d])
        e[d] = e[d] + fblk
        g[d] = g[d] + gblk
        u[d] = u[d] + fblk + nblk
        f_log[d], g_log[d], minus_nu[d] = fblk, gblk, nblk
        acc = lower + (u[d] - g[d])
        sup = acc.alpha_support()
        if sup is not None and sup[1] >= -1:
            raise MirrorInconsistencyError(
                f"degree {d}: residual stratum at alpha^{sup[1]} after solving"
            )
        residuals[d] = acc
    return MirrorMap(spec, bound, normalization, prefactor, shifts, residuals)


def _integrand_factors(
    spec: GeometrySpec, mm: MirrorMap, bound: int, euler: bool
) -> Series:
    """X_d per nonzero degree d, such that J_d = kahler * X_d.

    By default X_d is the Chern ratio times the solve's residual.  With
    `euler` set, it is rebuilt from the full blocks and restricted to its
    x^0 stratum.  Full blocks polynomial in x are specialized to x = 0
    before assembly; the correction term, and any full block with x
    poles, are multiplied out with x symbolic and restricted only
    afterwards, because the Chern ratio of a concave summand is an
    x-Laurent series.  A concave summand pairing to 0 with dp leaves such
    a pole in hyper_block(spec, dp).
    """
    if spec != mm.spec or bound > mm.bound:
        raise ValueError(
            f"the mirror map was solved for another spec or below bound {bound}"
        )
    dims = spec.factors
    omega = chern_ratio(spec)
    degrees = [d for d in degrees_upto(spec.m, bound) if any(d)]
    if not euler:
        return {d: omega * mm.residuals[d] for d in degrees}
    u, g = _transform_series(dims, bound, mm.normalization, mm.prefactor, mm.shifts)
    blocks = {dp: hyper_block(spec, dp) for dp in degrees}
    at_x0 = {dp for dp, b in blocks.items() if b.x_support()[0] >= 0}
    blocks.update((dp, blocks[dp].substitute_x(0)) for dp in at_x0)
    out = {}
    for d in degrees:
        pairs = []
        for dp in degrees:
            diff = _sub(d, dp)
            if diff is None:
                continue
            uc = u[diff]
            if dp in at_x0:
                uc = uc.x_stratum(0)
            pairs.append((uc, blocks[dp]))
        pairs.append((u[d] - g[d], omega))
        out[d] = _mul_sum(dims, pairs).x_stratum(0)
    return out


def integrand_series(
    spec: GeometrySpec, mm: MirrorMap, bound: int, euler: bool = False
) -> Series:
    """The Kahler factor times the Chern ratio times the solve's residuals.

    One block per nonzero degree.  `mm` must be solved for `spec` at a
    bound of at least `bound`.  With `euler` set, the series is rebuilt
    from the full blocks and every degree-d block is restricted to its x^0
    stratum (see `_integrand_factors`).  Extraction integrates the same
    products without forming them; this series is their reference.
    """
    eht = kahler_factor(spec.factors)
    return {d: eht * x for d, x in _integrand_factors(spec, mm, bound, euler).items()}


def extract_invariants(
    spec: GeometrySpec, mm: MirrorMap, bound: int, euler: bool = False
) -> InvariantTable:
    """Integrate the normalized series and solve for the invariants."""
    s = validate(spec)
    if euler and s != 0:
        raise ValueError(
            "Euler-class specialization needs splitting excess 0; "
            f"this spec has excess {s}"
        )
    m = spec.m
    xs = _integrand_factors(spec, mm, bound, euler)
    eht = kahler_factor(spec.factors)
    degrees = list(xs)

    level = 0 if euler else s
    integrated: dict[Degree, dict[Key, Rat]] = {}
    top = level
    for d in degrees:
        # kahler's only key with alpha^{>= 0} is the unit, so J_d and X_d
        # share their top alpha stratum
        sup = xs[d].alpha_support()
        if sup is not None and sup[1] > -2:
            raise ExtractionError(
                f"degree {d}: integrand stratum at alpha^{sup[1]}"
            )
        vals = {key: c.coeffs[0] for key, c in _mul_integrate(eht, xs[d]).terms.items()}
        for a, j, t in vals:
            if j < level:
                raise ExtractionError(
                    f"degree {d}: x-degree {j} below the splitting excess"
                )
            tdeg = sum(t)
            # t-constant strata are forced to alpha^{s-3-j} by grading
            if tdeg == 0 and a != s - 3 - j:
                raise ExtractionError(
                    f"degree {d}: stray stratum alpha^{a} x^{j}"
                )
            if j == level:
                if tdeg > 1:
                    raise ExtractionError(
                        f"degree {d}: t-degree {tdeg} at the x^{level} stratum"
                    )
                if tdeg == 1 and a != -3:
                    raise ExtractionError(
                        f"degree {d}: t-linear stratum at alpha^{a}"
                    )
            top = max(top, j)
        integrated[d] = vals

    # exp(<d', g>) = exp(<d' - e_i, g>) exp(g_i), i the first axis of d', and
    # the matching series (2 - <d', g>) exp(<d', g>), both to total degree
    # D - |d'|; below[d] holds (d', exp coefficient, matching coefficient)
    # at q^{d - d'} for each d' <= d, d' = d included
    axis_exp = [scalar_exp(g, m, bound) for g in mm.shifts]
    expg: dict[Degree, dict[Degree, Rat]] = {_tzero(m): {_tzero(m): Rat(1)}}
    below: dict[Degree, list[tuple[Degree, Rat, Rat]]] = {d: [] for d in degrees}
    for dp in degrees:
        i = next(k for k, c in enumerate(dp) if c)
        prev = tuple(c - (k == i) for k, c in enumerate(dp))
        expg[dp] = scalar_mul(expg[prev], axis_exp[i], bound - sum(dp))
        two_minus = {_tzero(m): Rat(2)}
        for k, g in enumerate(mm.shifts):
            for dd, c in g.items():
                two_minus[dd] = two_minus.get(dd, Rat(0)) - dp[k] * c
        match = scalar_mul(two_minus, expg[dp], bound - sum(dp))
        for diff in expg[dp].keys() | match.keys():
            row = (dp, expg[dp].get(diff, Rat(0)), match.get(diff, Rat(0)))
            below[tuple(a + b for a, b in zip(dp, diff))].append(row)

    solved: dict[int, dict[Degree, Rat]] = {}
    for j in range(level, top + 1):
        kj: dict[Degree, Rat] = {}
        key = (s - 3 - j, j, _tzero(m))
        for d in degrees:
            c0 = integrated[d].get(key, Rat(0))
            kj[d] = (c0 - sum(kj[dp] * c for dp, _, c in below[d] if dp != d)) / 2
        solved[j] = kj

    # overdetermination: the t-linear strata are determined by the same K_d
    for d in degrees:
        for i in range(m):
            ti = tuple(1 if a == i else 0 for a in range(m))
            got = integrated[d].get((-3, level, ti), Rat(0))
            want = -sum(solved[level][dp] * dp[i] * e for dp, e, _ in below[d])
            if got != want:
                raise ExtractionError(
                    f"degree {d}: t-linear stratum mismatch on axis {i} "
                    f"({got} != {want})"
                )

    entries = []
    for d in degrees:
        raw = []
        for j in range(level, top + 1):
            v = solved[j][d]
            if v or j == level:
                raw.append((j, v))
        entries.append(
            InvariantEntry(degree=d, raw=tuple(raw), value=solved[level][d])
        )
    return InvariantTable(spec=spec, excess=s, bound=bound, entries=tuple(entries))


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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def verify_all(spec: GeometrySpec, bound: int) -> list[CheckResult]:
    """Engine run plus every consistency gate, reported check by check."""
    from .localization import (
        ORACLE_DEGREES, OracleInconsistencyError, SamplingError, oracle_invariant_checked,
    )

    checks: list[CheckResult] = []
    s = validate(spec)
    m = len(spec.factors)
    try:
        mm = solve_mirror_map(spec, bound)
        table = extract_invariants(spec, mm, bound)
    except MirrorError as err:
        checks.append(CheckResult("solve_and_extract", False, str(err)))
        return checks
    checks.append(CheckResult("solve_and_extract", True))

    if s == 0:
        try:
            et = extract_invariants(spec, mm, bound, euler=True)
            same = all(
                et.value(e.degree) == e.value for e in table.entries
            )
            checks.append(
                CheckResult("euler_specialization", same,
                            "" if same else "x->0 values differ")
            )
        except MirrorError as err:
            checks.append(CheckResult("euler_specialization", False, str(err)))

    try:
        mm2 = solve_mirror_map(spec, bound + 2)
        table2 = extract_invariants(spec, mm2, bound + 2)
        stable = all(
            mm2.normalization.get(d, Rat(0)) == mm.normalization.get(d, Rat(0))
            and mm2.prefactor.get(d, Rat(0)) == mm.prefactor.get(d, Rat(0))
            and mm2.shift_vector(d) == mm.shift_vector(d)
            for d in degrees_upto(m, bound)
            if any(d)
        ) and all(table2.value(e.degree) == e.value for e in table.entries)
        checks.append(
            CheckResult("truncation_stability", stable,
                        "" if stable else f"bound {bound} vs {bound + 2} differ")
        )
    except MirrorError as err:
        checks.append(CheckResult("truncation_stability", False, str(err)))

    if m == 1:
        for d in [k for k in ORACLE_DEGREES if k <= bound]:
            try:
                val, _ = oracle_invariant_checked(spec, d)
                ok = val == table.value((d,))
                checks.append(
                    CheckResult(f"oracle_degree_{d}", ok,
                                "" if ok else f"{val} != {table.value((d,))}")
                )
            except (SamplingError, OracleInconsistencyError) as err:
                checks.append(CheckResult(f"oracle_degree_{d}", False, str(err)))
    return checks
