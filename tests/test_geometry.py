"""Spec grammar, validation, and the basic pairing bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from concavex.geometry import (
    GeometrySpec,
    LineBundleSpec,
    ParseError,
    SpecError,
    ValidationError,
    pairing,
    parse_spec,
    serialize_spec,
    validate,
)

QUINTIC = "name quintic\nspace 4\nbundle convex 5\n"
PAIR = "name conifold-pair\nspace 1\nbundle concave 1\nbundle concave 1\n"
LOCAL_P2 = "space 2\nbundle concave 3\n"
P3_QUARTIC = "space 3\nbundle convex 4\n"


def test_parse_quintic():
    spec = parse_spec(QUINTIC)
    assert spec.name == "quintic"
    assert spec.factors == (4,)
    assert spec.bundles == (LineBundleSpec((5,), "convex"),)
    assert validate(spec) == 0


def test_parse_concave_magnitudes_become_negative():
    spec = parse_spec(PAIR)
    assert [b.multidegree for b in spec.bundles] == [(-1,), (-1,)]
    assert [b.magnitudes() for b in spec.bundles] == [(1,), (1,)]
    assert validate(spec) == 0


def test_splitting_excess_values():
    assert validate(parse_spec(LOCAL_P2)) == 0
    assert validate(parse_spec(P3_QUARTIC)) == 1


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nname x # trailing\nspace 1\n  # indented comment\nbundle concave 2\n"
    spec = parse_spec(text)
    assert spec.name == "x"
    assert spec.factors == (1,)
    assert spec.bundles[0].multidegree == (-2,)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_spec("space 1\nbundle convex x\n")
    assert e.value.line == 2
    assert "line 2" in str(e.value)
    with pytest.raises(ParseError):
        parse_spec("space 0\n")
    with pytest.raises(ParseError):
        parse_spec("spase 1\n")
    with pytest.raises(ParseError):
        parse_spec("")
    with pytest.raises(ParseError):
        parse_spec("bundle convex 2\n")
    with pytest.raises(ParseError):
        parse_spec("space 1\nbundle convex -2\n")
    with pytest.raises(ParseError):
        parse_spec("space 1\nbundle concave 0\n")


def test_a_second_name_line_is_refused():
    with pytest.raises(ParseError, match=r"^line 4: name given twice$") as e:
        parse_spec("name a\nspace 4\nbundle convex 5\nname b\n")
    assert e.value.line == 4
    # an empty name still counts as the one name line
    with pytest.raises(ParseError, match=r"^line 2: name given twice$"):
        parse_spec("name\nname b\nspace 1\nbundle concave 1\nbundle concave 1\n")
    assert parse_spec("# name a\nname b\nspace 4\nbundle convex 5\n").name == "b"


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_spec("space 1\nspace 1\nbundle convex 2\n")


def test_balance_error_names_the_factor():
    with pytest.raises(ValidationError) as e:
        validate(parse_spec("space 2\nbundle convex 5\n"))
    assert "factor 0" in str(e.value)


def test_negative_excess_rejected():
    # P^4 with two concave summands: 1 - 2 - 1 < 0 even though balanced.
    text = "space 4\nbundle convex 3\nbundle concave 1\nbundle concave 1\n"
    with pytest.raises(ValidationError) as e:
        validate(parse_spec(text))
    assert "excess" in str(e.value)


def test_validate_rejects_the_bundles_parse_spec_rejects(monkeypatch):
    """A spec built in code gets the checks of the text format, before any block is built."""
    from concavex import mirror

    def engine(*args):
        raise AssertionError("the engine ran on an invalid spec")

    monkeypatch.setattr(mirror, "reduced_block", engine)
    cases = [
        # (3, 0) balances P^2 with a degree too many, (2,) is one short on P^1 x P^1
        ((2,), [((3, 0), "convex")], r"bundle \(3, 0\) has 2 degrees, not 1"),
        ((1, 1), [((2,), "convex")], r"bundle \(2,\) has 1 degrees, not 2"),
        ((4,), [((5,), "flat")], "unknown bundle kind 'flat'"),
        # each balanced, with a positive splitting excess
        ((1,), [((-1,), "convex"), ((3,), "convex")], r"convex bundle \(-1,\) has a negative"),
        ((1,), [((3,), "convex"), ((1,), "concave")], r"concave bundle \(1,\) needs degrees <= 0"),
        ((1,), [((2,), "convex"), ((0,), "concave")], r"concave bundle \(0,\) needs degrees <= 0"),
        # no factor, or a factor of dimension below 1, each balanced
        ((), [], "spec declares no projective factors"),
        ((0,), [((1,), "convex")], "factor 0: projective dimension must be >= 1, got 0"),
        ((-1,), [((0,), "convex")], "factor 0: projective dimension must be >= 1, got -1"),
    ]
    for factors, bundles, message in cases:
        spec = GeometrySpec(factors, tuple(LineBundleSpec(d, k) for d, k in bundles))
        for call in (validate, lambda s: mirror.solve_mirror_map(s, 2)):
            with pytest.raises(ValidationError, match=message):
                call(spec)


def test_error_hierarchy():
    assert issubclass(ParseError, SpecError)
    assert issubclass(ValidationError, SpecError)
    assert issubclass(SpecError, ValueError)


def test_pairing_is_bilinear_in_degree():
    b = LineBundleSpec((2, -3), "convex")
    assert pairing(b, (1, 0)) == 2
    assert pairing(b, (0, 1)) == -3
    assert pairing(b, (2, 5)) == 2 * 2 - 3 * 5
    with pytest.raises(ValueError):
        pairing(b, (1,))


def _specs():
    factor = st.integers(min_value=1, max_value=3)
    return st.builds(_balanced, st.lists(factor, min_size=1, max_size=2))


def _balanced(ns) -> GeometrySpec:
    # one convex bundle absorbing the full balance on every factor
    degs = tuple(n + 1 for n in ns)
    return GeometrySpec(tuple(ns), (LineBundleSpec(degs, "convex"),), name="gen")


@given(_specs(), st.one_of(st.just("gen"), st.text()))
def test_serialize_parse_roundtrip(spec, name):
    """A spec reads back as itself, or serialize_spec refuses its name."""
    spec = GeometrySpec(spec.factors, spec.bundles, name)
    try:
        text = serialize_spec(spec)
    except ValueError:
        return
    assert parse_spec(text) == spec


def test_serialize_refuses_a_name_the_format_cannot_hold():
    base = parse_spec(P3_QUARTIC)
    for name in ["x # y", "  padded ", "two\nlines", "a\x85b", "a\u2028b", "tab\t"]:
        with pytest.raises(ValueError, match="cannot be written in the line format"):
            serialize_spec(GeometrySpec(base.factors, base.bundles, name))
    # inner space and any other character read back
    for name in ["a  b", "P^3 quartic", "x\ty", "é"]:
        spec = GeometrySpec(base.factors, base.bundles, name)
        assert parse_spec(serialize_spec(spec)) == spec


def test_roundtrip_with_concave_and_name():
    for text in (QUINTIC, PAIR):
        spec = parse_spec(text)
        assert serialize_spec(spec) == text
