"""Input geometry: a product of projective spaces with a split line bundle sum.

The text format is line oriented.  `#` starts a comment, blank lines are
skipped.  Directives:

    space <n>                      one line per projective factor, n >= 1
    bundle convex <d1> ... <dm>    all entries >= 0
    bundle concave <d1> ... <dm>   entries >= 0, applied with a minus sign
    name <free text>               optional label, at most once

Concave bundles are entered by magnitude; the stored multidegree carries the
sign, so a line ``bundle concave 3`` on one factor yields multidegree (-3,).
"""
from __future__ import annotations

from collections import namedtuple

__all__ = [
    "LineBundleSpec",
    "GeometrySpec",
    "SpecError",
    "ParseError",
    "ValidationError",
    "parse_spec",
    "serialize_spec",
    "validate",
    "pairing",
]


class SpecError(ValueError):
    """Base class for geometry input failures."""


class ParseError(SpecError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(SpecError):
    pass


class LineBundleSpec(namedtuple("LineBundleSpec", "multidegree kind")):
    """One split line bundle summand.

    ``multidegree`` holds the actual first Chern coefficients, so concave
    bundles have non-positive entries; ``kind`` is "convex" or "concave".
    """

    __slots__ = ()

    def magnitudes(self) -> tuple[int, ...]:
        return tuple(abs(a) for a in self.multidegree)


class GeometrySpec(namedtuple("GeometrySpec", "factors bundles name", defaults=("",))):
    __slots__ = ()

    @property
    def m(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return sum(self.factors)

    def convex(self) -> tuple[LineBundleSpec, ...]:
        return tuple(b for b in self.bundles if b.kind == "convex")

    def concave(self) -> tuple[LineBundleSpec, ...]:
        return tuple(b for b in self.bundles if b.kind == "concave")

    def splitting_excess(self) -> int:
        """rank(convex part) - rank(concave part) - (dim - 3).

        Degree independent; equals the x-grading exponent of the extracted
        invariants.
        """
        return len(self.convex()) - len(self.concave()) - (self.dim - 3)


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", lineno) from None


def parse_spec(text: str) -> GeometrySpec:
    """Parse the line format; structural checks only, balance comes later."""
    factors: list[int] = []
    raw_bundles: list[tuple[str, list[int], int]] = []  # kind, entries, line no
    name, name_line = "", None
    seen_any = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        seen_any = True
        parts = line.split()
        directive = parts[0]
        if directive == "space":
            if len(parts) != 2:
                raise ParseError("space takes exactly one dimension", lineno)
            n = _int(parts[1], lineno)
            if n < 1:
                raise ParseError(f"projective dimension must be >= 1, got {n}", lineno)
            factors.append(n)
        elif directive == "bundle":
            if len(parts) < 3:
                raise ParseError("bundle needs a kind and at least one degree", lineno)
            kind = parts[1]
            if kind not in ("convex", "concave"):
                raise ParseError(f"unknown bundle kind {kind!r}", lineno)
            entries = [_int(p, lineno) for p in parts[2:]]
            if any(e < 0 for e in entries):
                raise ParseError(f"{kind} degrees must be entered as non-negative magnitudes", lineno)
            if kind == "concave" and not any(entries):
                raise ParseError("concave bundle must have a nonzero degree", lineno)
            raw_bundles.append((kind, entries, lineno))
        elif directive == "name":
            if name_line is not None:
                raise ParseError("name given twice", lineno)
            name, name_line = line[len("name") :].strip(), lineno
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)
    if not seen_any:
        raise ParseError("empty spec")
    if not factors:
        raise ParseError("spec declares no projective factors")
    m = len(factors)
    bundles = []
    for kind, entries, lineno in raw_bundles:
        if len(entries) != m:
            raise ParseError(
                f"bundle has {len(entries)} degrees but there are {m} factors", lineno
            )
        sign = 1 if kind == "convex" else -1
        bundles.append(LineBundleSpec(tuple(sign * e for e in entries), kind))
    return GeometrySpec(tuple(factors), tuple(bundles), name)


def serialize_spec(spec: GeometrySpec) -> str:
    """The line format of spec; ValueError for a name with ``#``, a line break or end space."""
    name = spec.name
    if "#" in name or name != name.strip() or len(name.splitlines()) > 1:
        raise ValueError(f"spec name {name!r} cannot be written in the line format")
    lines = [f"name {name}"] if name else []
    for n in spec.factors:
        lines.append(f"space {n}")
    for b in spec.bundles:
        degs = " ".join(str(a) for a in b.magnitudes())
        lines.append(f"bundle {b.kind} {degs}")
    return "\n".join(lines) + "\n"


def validate(spec: GeometrySpec) -> int:
    """Check the bundles and the two structural hypotheses; return the splitting excess.

    The spec holds what parse_spec would give it: at least one factor, each
    of dimension >= 1, and every bundle with one degree per factor, kind
    convex with degrees >= 0 or concave with degrees <= 0, not all 0.
    Hypotheses: componentwise first-Chern balance
    sum(convex deg) + sum(concave magnitude) = n_i + 1, and a non-negative
    splitting excess.
    """
    if not spec.factors:
        raise ValidationError("spec declares no projective factors")
    for b in spec.bundles:
        degs = b.multidegree
        if len(degs) != spec.m:
            raise ValidationError(f"bundle {degs} has {len(degs)} degrees, not {spec.m}")
        if b.kind not in ("convex", "concave"):
            raise ValidationError(f"unknown bundle kind {b.kind!r}")
        if b.kind == "convex" and any(a < 0 for a in degs):
            raise ValidationError(f"convex bundle {degs} has a negative degree")
        if b.kind == "concave" and (any(a > 0 for a in degs) or not any(degs)):
            raise ValidationError(f"concave bundle {degs} needs degrees <= 0, not all 0")
    for i, n in enumerate(spec.factors):
        if n < 1:
            raise ValidationError(f"factor {i}: projective dimension must be >= 1, got {n}")
        total = sum(b.multidegree[i] for b in spec.convex()) - sum(
            b.multidegree[i] for b in spec.concave()
        )
        if total != n + 1:
            raise ValidationError(
                f"factor {i}: first Chern balance fails ({total} != {n + 1})"
            )
    s = spec.splitting_excess()
    if s < 0:
        raise ValidationError(f"splitting excess {s} is negative")
    return s


def pairing(bundle: LineBundleSpec, d: tuple[int, ...]) -> int:
    """Pairing of the bundle's first Chern class with a curve degree."""
    if len(bundle.multidegree) != len(d):
        raise ValueError("degree arity mismatch")
    return sum(a * b for a, b in zip(bundle.multidegree, d))
