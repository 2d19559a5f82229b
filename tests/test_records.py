"""The package's records: immutable values that compare, hash and copy by their fields.

Seven are named tuples (fields unpack, equality is tuple equality, and
``_replace`` gives a changed copy); ``CohClass``, whose ``+`` and ``*`` are
the ring's, is a plain class with the same guarantees but ``_replace``.
Each record is built twice, from separate objects, so equality and hashing
are checked on values, not on identity.
"""

import copy
import pickle
from fractions import Fraction as Rat

import pytest

from concavex.cohomology import CohClass
from concavex.geometry import GeometrySpec, LineBundleSpec, parse_spec
from concavex.localization import SamplingError, WeightSample
from concavex.mirror import (
    CheckResult,
    InvariantEntry,
    InvariantTable,
    extract_invariants,
    solve_mirror_map,
)

QUINTIC = "name quintic\nspace 4\nbundle convex 5\n"


def _map():
    return solve_mirror_map(parse_spec(QUINTIC), 2)


# name: (build, a field, a new value for it)
RECORDS = {
    "LineBundleSpec": (lambda: LineBundleSpec((5,), "convex"), "kind", "concave"),
    "GeometrySpec": (lambda: parse_spec(QUINTIC), "name", "other"),
    "WeightSample": (lambda: WeightSample((Rat(1), Rat(-2), Rat(3)), 7), "seed", 8),
    "MirrorMap": (_map, "bound", 3),
    "InvariantEntry": (
        lambda: InvariantEntry((1,), ((0, Rat(2875)),), Rat(2875)), "value", Rat(1)
    ),
    "InvariantTable": (lambda: extract_invariants(_map()), "excess", 1),
    "CheckResult": (lambda: CheckResult("oracle_degree_1", True), "passed", False),
    "CohClass": (lambda: CohClass((1,), (Rat(1), Rat(2))), "coeffs", (Rat(0), Rat(0))),
}


@pytest.mark.parametrize("name", RECORDS)
def test_assigning_or_deleting_a_field_raises(name):
    build, field, value = RECORDS[name]
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either
    assert getattr(record, field) != value


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_equal(name):
    build, _, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if name == "MirrorMap":  # its fields hold dicts, as they always did
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", [n for n in RECORDS if n != "CohClass"])
def test_replace_gives_a_changed_copy(name):
    build, field, value = RECORDS[name]
    record = build()
    changed = record._replace(**{field: value})
    assert type(changed) is type(record)
    assert getattr(changed, field) == value and changed != record
    assert changed._replace(**{field: getattr(record, field)}) == record


@pytest.mark.parametrize("name", [n for n in RECORDS if n != "MirrorMap"])
def test_copies_and_pickles_are_equal(name):
    record = RECORDS[name][0]()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


def test_fields_unpack_and_defaults_hold():
    factors, bundles, name = parse_spec(QUINTIC)
    assert (factors, bundles, name) == ((4,), (LineBundleSpec((5,), "convex"),), "quintic")
    assert GeometrySpec((4,), bundles).name == ""
    assert CheckResult("x", True).detail == ""
    degree, raw, value = extract_invariants(_map()).entries[0]
    assert (degree, raw[0], value) == ((1,), (0, Rat(2875)), Rat(2875))


def test_repeated_weights_still_raise_sampling_error():
    with pytest.raises(SamplingError, match="pairwise distinct"):
        WeightSample((Rat(1), Rat(2), Rat(1)), 0)
    sample = WeightSample((Rat(1), Rat(2)), 0)
    with pytest.raises(SamplingError, match="pairwise distinct"):
        sample._replace(weights=(Rat(3), Rat(3)))


def test_a_wrong_length_class_still_raises_value_error():
    with pytest.raises(ValueError, match="has length 3, expected 2"):
        CohClass((1,), (Rat(1), Rat(0), Rat(0)))
    assert CohClass((1,), (Rat(1), Rat(0))) != (Rat(1), Rat(0))


def test_the_map_repr_shows_the_coefficients_but_not_the_blocks():
    mm = _map()
    text = repr(mm)
    assert text.startswith(f"MirrorMap(spec={mm.spec!r}, bound=2, normalization={{")
    assert text.endswith(f", shifts={mm.shifts!r})")
    for left_out in ("residuals", "blocks", "pairs", "alpha", "LaurentBlock"):
        assert left_out not in text
