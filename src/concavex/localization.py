"""Independent fixed-point oracle for low-degree invariants on one P^n.

Sums Atiyah-Bott style contributions over torus-fixed stable maps of each
degree in ``ORACLE_DEGREES``: delta-fold covers of a coordinate line, at any
delta by one Kontsevich edge term, and at degree 2 two lines glued at a node.
Torus weights are evaluated at random distinct rationals instead of being
carried symbolically; agreement across independent samples certifies that
the weight dependence cancels.  Each sample is scaled once to integer
weights, every graph gives one (numerator, denominator) pair of ints, and
the pairs are summed over their lcm, one division per sample.  A graph
reads T^top of the Chern polynomial prod(1 + w T) of its N weights, which
is U^(N - top) of prod(w + U); N - top is the splitting excess s, so at
s = 0 a numerator is the product of its weights.  Everything
downstream treats these numbers as ground truth, so this module
deliberately shares no code with the series pipeline.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from collections import namedtuple
from collections.abc import Sequence

from .cohomology import Rat
from .geometry import GeometrySpec

__all__ = [
    "ORACLE_DEGREES",
    "ORACLE_SAMPLES",
    "oracle_degrees",
    "WeightSample",
    "SamplingError",
    "OracleInconsistencyError",
    "sample_weights",
    "spell_degrees",
    "oracle_invariant",
    "oracle_draws",
    "oracle_invariant_checked",
    "quintic_lines_schubert",
]

# the degrees the graph sums cover, and weight samples per oracle check,
# for `compute`, `verify` and `oracle`
ORACLE_DEGREES = (1, 2)
ORACLE_SAMPLES = 3


def oracle_degrees(spec: GeometrySpec) -> tuple[int, ...]:
    """The degrees the graph sums cover on `spec`: ORACLE_DEGREES on one factor, none otherwise."""
    return ORACLE_DEGREES if spec.m == 1 else ()


def spell_degrees(degrees: Sequence[int]) -> str:
    """Degrees for a message: "1 and 2", "1, 2 and 3"."""
    *head, last = map(str, degrees)
    return f"{', '.join(head)} and {last}" if head else last


class SamplingError(ValueError):
    """The drawn weights hit a vanishing denominator; redraw."""


class OracleInconsistencyError(AssertionError):
    """Results differ across weight samples, so cancellation failed."""


class WeightSample(namedtuple("WeightSample", "weights seed")):
    __slots__ = ()

    def __new__(cls, weights: tuple[Rat, ...], seed: int) -> "WeightSample":
        if len(set(weights)) != len(weights):
            raise SamplingError("torus weights must be pairwise distinct")
        return super().__new__(cls, weights, seed)

    @classmethod
    def _make(cls, fields) -> "WeightSample":
        return cls(*fields)  # so _replace checks the weights too


def sample_weights(n: int, seed: int) -> WeightSample:
    """n+1 distinct rational weights, deterministic in the seed."""
    rng = random.Random(seed)
    values = rng.sample(range(-6 * (n + 10), 6 * (n + 10) + 1), n + 1)
    return WeightSample(tuple(Rat(v) for v in values), seed)


def _moduli_dim(n: int, d: int) -> int:
    return (n + 1) * d + n - 3


def _integral(lam: tuple[Rat, ...]) -> tuple[int, ...]:
    """The weights times the lcm of their denominators, as ints.

    Every graph contribution is homogeneous of degree 0 in the weights, so
    this scaling leaves each one unchanged.
    """
    scale = math.lcm(*(w.denominator for w in lam))
    return tuple(int(w * scale) for w in lam)


def _top_window(weights: Sequence[int], depth: int) -> list[int]:
    """prod(1 + w T) at T^N, ..., T^(N - depth), for N int weights.

    prod(1 + w T) = T^N prod(w + 1/T), so these are U^0, ..., U^depth of
    prod(w + U): the product of the weights at depth 0, O(N (depth + 1))
    steps beyond.  At depth < 0, [0]: T^(N - depth) lies past the top.
    """
    if depth <= 0:
        return [math.prod(weights) if depth == 0 else 0]
    window = [1] + [0] * depth
    for w in weights:
        for t in range(depth, 0, -1):
            window[t] = w * window[t] + window[t - 1]
        window[0] *= w
    return window


def _edge_section_weights(
    spec: GeometrySpec, li: int, lj: int, delta: int, head: bool = False
) -> list[int]:
    """Bundle cohomology weights along a degree-delta cover of the line ij.

    Convex summand of degree l: sections, weights (a li + b lj)/delta with
    a+b = l*delta, a,b >= 0.  Concave summand of magnitude l: first
    cohomology, weights -(a li + b lj)/delta with a+b = l*delta, a,b >= 1.
    Returns these weights times delta, so integer weights give ints: the
    steps a = 0, 1, ... of l delta lj + a (li - lj), for distinct li, lj.  A
    node graph's head at p_j moves the a = 0 weight l lj of each convex
    summand to the concave ones, as the obstruction -l lj.
    """
    numer: list[int] = []
    step = li - lj
    for b in spec.bundles:
        ld = abs(b.multidegree[0]) * delta
        if b.kind == "convex":
            numer.extend(range(ld * lj + head * step, ld * lj + (ld + 1) * step, step))
        else:
            numer.extend(range(-ld * lj - (1 - head) * step, -ld * lj - ld * step, -step))
    return numer


def _cover_graphs(
    spec: GeometrySpec, lam: tuple[int, ...], delta: int
) -> list[tuple[int, int]]:
    """(numerator, denominator) of the delta-fold cover of each line p_i p_j.

    Kontsevich's edge term times its two valence-1 vertex terms
    +-(lam_i - lam_j)/delta and the deck factor 1/delta, with every weight
    taken times delta as in `_edge_section_weights`, leaves the integer
    normal (-1)^(delta+1) delta (delta!)^2 (lam_i - lam_j)^(2 delta - 2)
    prod_{m != i,j} prod_{a=0..delta} (a lam_i + (delta - a) lam_j - delta lam_m).
    The numerator, T^top of the N edge weights, ends their `_top_window`
    at depth N - top = s: at s = 0 it is their product.
    """
    n = spec.factors[0]
    top = _moduli_dim(n, delta)
    factor = (-1) ** (delta + 1) * delta * math.factorial(delta) ** 2
    graphs = []
    for i, j in itertools.combinations(range(n + 1), 2):
        normal = [
            a * lam[i] + (delta - a) * lam[j] - delta * lam[m]
            for m in range(n + 1) if m not in (i, j) for a in range(delta + 1)
        ]
        if 0 in normal:
            raise SamplingError("degenerate cover normal weight")
        numer = _edge_section_weights(spec, lam[i], lam[j], delta)
        start = factor * (lam[i] - lam[j]) ** (2 * delta - 2)
        graphs.append((_top_window(numer, len(numer) - top)[-1], math.prod(normal, start=start)))
    return graphs


def _node_graphs(spec: GeometrySpec, lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """Two lines glued at a node over p_j; branch swap gives the 1/2.

    Graph i -> j -> k weighs its head (i, j), with the node weights at p_j
    traded for the concave obstructions there, and its outgoing edge
    (j, k).  Each edge's `_top_window` is taken once per sample, at depth
    len(head) + len(outgoing) - top = s, and a graph dots the two: at
    s = 0 the product of all its weights.  Graph k -> j -> i weighs the
    same weights over the same normal, so i < k counts both, and i = k
    itself.  Returns (numerator, denominator) per graph.
    """
    n = spec.factors[0]
    edges = list(itertools.permutations(range(n + 1), 2))
    evals = [
        math.prod(lam[v] - lam[m] for m in range(n + 1) if m != v) for v in range(n + 1)
    ]
    branch = {(i, j): evals[i] // (lam[i] - lam[j]) for i, j in edges}
    heads = {(i, j): _edge_section_weights(spec, lam[i], lam[j], 1, head=True) for i, j in edges}
    depth = len(heads[0, 1]) + len(_edge_section_weights(spec, 0, 1, 1)) - _moduli_dim(n, 2)
    heads = {e: _top_window(w, depth) for e, w in heads.items()}
    # line jk either way round, reversed so that head[t] meets outgoing[depth - t]
    outgoing = {}
    for j, k in itertools.combinations(range(n + 1), 2):
        window = _top_window(_edge_section_weights(spec, lam[j], lam[k], 1), depth)[::-1]
        outgoing[j, k] = outgoing[k, j] = window
    graphs = []  # (numerator, denominator) per graph
    for j in range(n + 1):
        others = [m for m in range(n + 1) if m != j]
        for i, k in itertools.combinations_with_replacement(others, 2):
            # tangent weights at p_j are lam[j] - lam[m], so smoothing
            # the node weighs 2 lam[j] - lam[i] - lam[k]
            smoothing = 2 * lam[j] - lam[i] - lam[k]
            if smoothing == 0:
                raise SamplingError("degenerate node smoothing weight")
            # moving sections of the two branches, divided by the
            # evaluation at the shared point, times the node smoothing,
            # over the surviving reparametrization weights
            normal = branch[i, j] * evals[j] * smoothing * branch[k, j]
            value = sum(map(operator.mul, heads[i, j], outgoing[j, k]))
            graphs.append((value, normal if i < k else 2 * normal))
    return graphs


def oracle_invariant(spec: GeometrySpec, d: int, sample: WeightSample) -> Rat:
    """Fixed-point sum for one weight sample.

    Supports a single projective factor and d in ORACLE_DEGREES.  Raises
    SamplingError when the sample hits a vanishing denominator.
    """
    if spec.m != 1:
        raise ValueError("oracle supports a single projective factor only")
    n = spec.factors[0]
    if len(sample.weights) != n + 1:
        raise ValueError("weight sample arity does not match the factor")
    if d not in ORACLE_DEGREES:
        raise ValueError(f"oracle supports degrees {spell_degrees(ORACLE_DEGREES)}, got {d}")
    lam = _integral(sample.weights)
    graphs = _cover_graphs(spec, lam, d) + (_node_graphs(spec, lam) if d == 2 else [])
    den = math.lcm(*(q for _, q in graphs))
    return Rat(sum(p * (den // q) for p, q in graphs), den)


def oracle_draws(
    spec: GeometrySpec, d: int, samples: int, seed: int = 0
) -> list[tuple[WeightSample, Rat]]:
    """Evaluate at `samples` independent weight samples.

    Draw number k uses seed*1000 + k.  Degenerate draws are skipped
    deterministically; after 100*samples + 1 draws the oracle gives up
    with SamplingError.  Returns each sample with its value.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n = spec.factors[0] if spec.m == 1 else 0
    draws: list[tuple[WeightSample, Rat]] = []
    attempt = 0
    while len(draws) < samples:
        if attempt > 100 * samples:
            raise SamplingError("too many degenerate weight samples")
        sample = sample_weights(n, seed * 1000 + attempt)
        attempt += 1
        try:
            draws.append((sample, oracle_invariant(spec, d, sample)))
        except SamplingError:
            continue
    return draws


def oracle_invariant_checked(
    spec: GeometrySpec, d: int, samples: int = ORACLE_SAMPLES, seed: int = 0
) -> tuple[Rat, list[WeightSample]]:
    """Evaluate at several independent samples and insist on agreement.

    Returns the common value and the samples that produced it.
    """
    draws = oracle_draws(spec, d, samples, seed)
    values = {v for _, v in draws}
    if len(values) != 1:
        raise OracleInconsistencyError(
            f"oracle values disagree across samples: {sorted(values)}"
        )
    return draws[0][1], [sample for sample, _ in draws]


def quintic_lines_schubert() -> Rat:
    """Independent count of lines on a quintic threefold.

    Works in the Grassmannian of lines in P^4: expands the top Chern class
    of Sym^5 of the dual tautological bundle in Chern roots x1, x2 and reads
    off the coefficient of the top Schur class via the alternant trick
    (multiply by x1 - x2, take the coefficient of x1^4 x2^3).
    """
    # prod (a x1 + (5 - a) x2) is homogeneous: coefficients by x1 exponent
    poly = [1]
    for a in range(6):
        poly = [a * lower + (5 - a) * same for lower, same in zip([0] + poly, poly + [0])]
    # times (x1 - x2), at x1^4 x2^3
    return Rat(poly[3] - poly[4])
