"""Command-line driver: exit codes, report formats, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as Rat
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from concavex import cli, localization
from concavex.cli import main
from concavex.cohomology import CohClass
from concavex.geometry import parse_spec
from concavex.localization import SamplingError, oracle_invariant_checked

ROOT = Path(__file__).parents[1]
PAIR = "name pair\nspace 1\nbundle concave 1\nbundle concave 1\n"
QUINTIC = "name quintic\nspace 4\nbundle convex 5\n"
P3_QUARTIC = "space 3\nbundle convex 4\n"
# the concave summand pairs to 0 with every degree (0, k)
ZERO_ENTRY = "space 1\nspace 2\nbundle convex 1 3\nbundle concave 1 0\n"


@pytest.fixture
def spec_file(tmp_path):
    def write(text, name="spec.cvx"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_compute_pair_csv(spec_file, capsys):
    path = spec_file(PAIR)
    rc, out, _ = run(capsys, "compute", "--spec", path, "--max-degree", "3", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "d1,K,oracle,match"
    assert lines[1] == "1,1/1,1/1,yes"
    assert lines[2] == "2,1/8,1/8,yes"
    assert lines[3] == "3,1/27,,"  # oracle stops at degree 2
    assert len(lines) == 4


def test_compute_quintic_json(spec_file, capsys):
    path = spec_file(QUINTIC)
    rc, out, err = run(capsys, "compute", "--spec", path, "--max-degree", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["s"] == 0
    assert report["spec"]["name"] == "quintic"
    assert report["spec"]["spaces"] == [4]
    assert report["spec"]["bundles"] == [{"degrees": [5], "kind": "convex"}]
    mm = report["mirror_map"]
    assert [[1], "274/1"] in mm["f"]
    assert [0, [1], "770/1"] in mm["g"]
    assert [[1], "120/1"] in mm["normalization"]
    assert [[2], "113400/1"] in mm["normalization"]
    inv = {tuple(e["degree"]): e for e in report["invariants"]}
    assert inv[(1,)]["K"] == "2875/1"
    assert inv[(2,)]["K"] == "4876875/8"
    # the headline value is the excess-level raw entry; here s = 0
    assert inv[(1,)]["K_raw"][0] == ["0", "2875/1"]
    assert all(int(level) >= 0 for level, _ in inv[(1,)]["K_raw"])
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    assert checks == {"oracle_degree_1": True, "oracle_degree_2": True}
    # timing information is not allowed to pollute the report stream
    assert "seconds" not in out
    assert out.endswith("}\n")


def test_json_rationals_always_carry_denominator(spec_file, capsys):
    path = spec_file(PAIR)
    _, out, _ = run(capsys, "compute", "--spec", path, "--max-degree", "2")
    report = json.loads(out)
    for entry in report["invariants"]:
        num, den = entry["K"].split("/")
        Rat(int(num), int(den))
    for row in report["mirror_map"]["f"]:
        assert "/" in row[-1]


def test_compute_exits_1_after_reporting_an_oracle_disagreement(
    spec_file, capsys, monkeypatch
):
    def off_by_one(spec, d, *args, **kwargs):
        value, samples = oracle_invariant_checked(spec, d, *args, **kwargs)
        return value + 1, samples

    monkeypatch.setattr(cli, "oracle_invariant_checked", off_by_one)
    path = spec_file(PAIR)
    rc, out, _ = run(capsys, "compute", "--spec", path, "--max-degree", "2")
    assert rc == 1
    checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert checks == {"oracle_degree_1": False, "oracle_degree_2": False}
    rc, out, _ = run(capsys, "compute", "--spec", path, "--max-degree", "3",
                     "--format", "csv")
    assert rc == 1
    assert out.splitlines()[1:] == ["1,1/1,2/1,no", "2,1/8,9/8,no", "3,1/27,,"]


def test_compute_output_is_byte_identical(spec_file, capsys):
    path = spec_file(QUINTIC)
    _, first, _ = run(capsys, "compute", "--spec", path, "--max-degree", "2")
    _, second, _ = run(capsys, "compute", "--spec", path, "--max-degree", "2")
    assert first == second


def test_compute_euler_equals_default_on_pair(spec_file, capsys):
    path = spec_file(PAIR)
    _, chern, _ = run(capsys, "compute", "--spec", path, "--max-degree", "3")
    _, euler, _ = run(capsys, "compute", "--spec", path, "--max-degree", "3", "--euler")
    a = {tuple(e["degree"]): e["K"] for e in json.loads(chern)["invariants"]}
    b = {tuple(e["degree"]): e["K"] for e in json.loads(euler)["invariants"]}
    assert a == b


def test_euler_and_verify_when_concave_summand_pairs_to_zero(spec_file, capsys):
    # the degree-(0, k) blocks keep the x pole of that summand's Chern ratio
    path = spec_file(ZERO_ENTRY)
    rc, chern, _ = run(capsys, "compute", "--spec", path, "--max-degree", "2")
    assert rc == 0
    rc, euler, _ = run(capsys, "compute", "--spec", path, "--max-degree", "2", "--euler")
    assert rc == 0
    a = {tuple(e["degree"]): e["K"] for e in json.loads(chern)["invariants"]}
    b = {tuple(e["degree"]): e["K"] for e in json.loads(euler)["invariants"]}
    assert a == b
    rc, out, _ = run(capsys, "verify", "--spec", path, "--max-degree", "1")
    assert rc == 0
    assert "euler_specialization: pass" in out.splitlines()
    assert out.splitlines()[-1] == "all checks passed"


def test_euler_rejected_when_excess_positive(spec_file, capsys):
    path = spec_file(P3_QUARTIC)
    rc, out, err = run(capsys, "compute", "--spec", path, "--max-degree", "1", "--euler")
    assert rc == 2
    assert out == ""
    assert err != ""


def test_malformed_spec_exits_2_with_empty_stdout(spec_file, capsys):
    path = spec_file("space 2\nbundle convex 5\n")
    rc, out, err = run(capsys, "compute", "--spec", path, "--max-degree", "2")
    assert rc == 2
    assert out == ""
    assert "factor 0" in err


def test_a_spec_with_two_names_exits_2(spec_file, capsys):
    path = spec_file("name a\nname b\nspace 4\nbundle convex 5\n")
    rc, out, err = run(capsys, "compute", "--spec", path, "--max-degree", "1")
    assert (rc, out) == (2, "")
    assert err == "error: line 2: name given twice\n"


def test_non_utf8_spec_exits_2(capsys, tmp_path):
    path = tmp_path / "spec.cvx"
    path.write_bytes(b"\xff\xfespace 4\nbundle convex 5\n")
    rc, out, err = run(capsys, "compute", "--spec", str(path), "--max-degree", "1")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_a_spec_with_a_utf8_byte_order_mark_loads(capsys, tmp_path):
    text = (ROOT / "bench" / "specs" / "quintic.cvx").read_text(encoding="utf-8")
    plain, bom, utf16 = (tmp_path / name for name in ("plain.cvx", "bom.cvx", "utf16.cvx"))
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    utf16.write_bytes(text.encode("utf-16"))  # UTF-16 with its own mark: not UTF-8 text
    csv = ["compute", "--max-degree", "2", "--format", "csv", "--spec"]
    rc, expected, _ = run(capsys, *csv, str(plain))
    assert rc == 0
    assert run(capsys, *csv, str(bom))[:2] == (0, expected)
    rc, out, err = run(capsys, *csv, str(utf16))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_missing_file_exits_2(capsys, tmp_path):
    rc, out, err = run(capsys, "compute", "--spec", str(tmp_path / "nope.cvx"), "--max-degree", "1")
    assert rc == 2
    assert out == ""


def _module_entry_point(*argv):
    """python -m concavex.cli in a child interpreter, a warning the package triggers an error."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    return subprocess.run(
        [sys.executable, "-m", "concavex.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_the_module_entry_point_runs_and_exits_with_main(tmp_path):
    done = _module_entry_point("verify", "--spec", "bench/specs/local-p2.cvx", "--max-degree", "2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "all checks passed"
    done = _module_entry_point("compute", "--spec", str(tmp_path / "nope.cvx"), "--max-degree", "1")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1


def test_oracle_pair_degree_two(spec_file, capsys):
    path = spec_file(PAIR)
    rc, out, _ = run(capsys, "oracle", "--spec", path, "--degree", "2", "--samples", "2", "--seed", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("sample seed=1000: ")
    assert lines[-2] == "agreement: yes"
    assert lines[-1] == "value: 1/8"


def test_oracle_degree_three_exits_2(spec_file, capsys):
    path = spec_file(PAIR)
    rc, out, _ = run(capsys, "oracle", "--spec", path, "--degree", "3")
    assert rc == 2
    assert out == ""


@pytest.mark.parametrize("degrees,words", [((1, 2), "1 and 2"), ((1, 2, 3), "1, 2 and 3")])
def test_oracle_range_messages_name_every_oracle_degree(
    spec_file, capsys, monkeypatch, degrees, words
):
    monkeypatch.setattr(localization, "ORACLE_DEGREES", degrees)
    beyond = max(degrees) + 1
    rc, out, err = run(capsys, "oracle", "--spec", spec_file(PAIR), "--degree", str(beyond))
    assert (rc, out) == (2, "")
    assert err == f"error: the graph sum covers degrees {words} only\n"
    with pytest.raises(ValueError) as lib:
        localization.oracle_invariant(parse_spec(PAIR), beyond, localization.sample_weights(1, 0))
    assert str(lib.value) == f"oracle supports degrees {words}, got {beyond}"


def test_oracle_multi_factor_exits_2(spec_file, capsys):
    path = spec_file("space 1\nspace 1\nbundle convex 1 1\nbundle convex 1 1\n")
    rc, out, _ = run(capsys, "oracle", "--spec", path, "--degree", "1")
    assert rc == 2


def test_verify_pair(spec_file, capsys):
    path = spec_file(PAIR)
    rc, out, _ = run(capsys, "verify", "--spec", path, "--max-degree", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks passed"
    assert "solve_and_extract: pass" in lines
    assert "oracle_degree_2: pass" in lines


def test_verify_quintic(spec_file, capsys):
    path = spec_file(QUINTIC)
    rc, out, _ = run(capsys, "verify", "--spec", path, "--max-degree", "2")
    assert rc == 0
    assert out.splitlines()[-1] == "all checks passed"


@pytest.mark.parametrize("name", ["bicubic", "local-p2", "ci2222"])
def test_compute_and_verify_build_no_cohomology_class(capsys, monkeypatch, name):
    """Blocks are made from int monomials and read as ints: no CohClass on these paths."""
    built = []
    real = CohClass.__init__

    def counted(self, dims, coeffs):
        built.append(dims)
        real(self, dims, coeffs)

    monkeypatch.setattr(CohClass, "__init__", counted)
    path = str(ROOT / "bench" / "specs" / f"{name}.cvx")
    compute = ["compute", "--spec", path, "--max-degree", "3"]
    for argv in (compute, compute + ["--format", "csv"], compute + ["--euler"],
                 ["verify", "--spec", path, "--max-degree", "2"]):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and out, argv
    assert built == []
    CohClass((1,), (Rat(1), Rat(0)))  # the counter does see a class being built
    assert built == [(1,)]


def test_chern_flag_is_rejected(spec_file, capsys):
    path = spec_file(PAIR)
    rc, out, err = run(capsys, "compute", "--spec", path, "--max-degree", "1", "--chern")
    assert rc == 2
    assert out == ""
    assert err.splitlines() == ["error: unrecognized arguments: --chern"]


def test_timing_goes_to_stderr_not_stdout(spec_file, capsys):
    path = spec_file(PAIR)
    _, out, err = run(capsys, "compute", "--spec", path, "--max-degree", "2")
    assert "compute:" not in out
    assert err.startswith("compute:") and err.rstrip().endswith("s")


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--max-degree", "-1"),
        ("compute", "--max-degree", "0"),
        ("verify", "--max-degree", "0"),
        ("oracle", "--degree", "1", "--samples", "0"),
    ],
    ids=["compute-negative", "compute-zero", "verify-zero", "oracle-no-samples"],
)
def test_bound_and_samples_below_one_exit_2(spec_file, capsys, argv):
    path = spec_file(PAIR)
    rc, out, err = run(capsys, argv[0], "--spec", path, *argv[1:])
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: argument ") and "at least 1" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        ((), "the following arguments are required: command"),
        (("compute", "--max-degree", "1"), "the following arguments are required: --spec"),
        (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
        (("oracle", "--spec", "{path}", "--degree", "x"), "argument --degree: invalid int value: 'x'"),
        # the bound's own parser names what it expected, not itself
        (
            ("compute", "--spec", "{path}", "--max-degree", "abc"),
            "argument --max-degree: expected an integer, got 'abc'",
        ),
        (("verify", "--spec", "{path}", "--max-degree", "1", "--bogus"), "unrecognized arguments: --bogus"),
    ],
    ids=["no-command", "missing-flag", "unknown-command", "bad-int", "bad-bound", "unknown-flag"],
)
def test_rejected_command_lines_exit_2_with_one_line(spec_file, capsys, argv, message):
    path = spec_file(PAIR)
    rc, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: " + message)


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["compute", "--help"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("usage: concavex")


def test_oracle_cli_and_library_share_one_draw(spec_file, capsys, monkeypatch):
    path = spec_file(QUINTIC)
    rc, out, _ = run(capsys, "oracle", "--spec", path, "--degree", "1",
                     "--samples", "3", "--seed", "4")
    assert rc == 0
    printed = [int(line.split()[1].split("=")[1].rstrip(":"))
               for line in out.splitlines() if line.startswith("sample seed=")]
    _, used = oracle_invariant_checked(parse_spec(QUINTIC), 1, samples=3, seed=4)
    assert printed == [s.seed for s in used]

    draws = []

    def always_degenerate(spec, d, sample):
        draws.append(sample.seed)
        raise SamplingError("degenerate")

    monkeypatch.setattr(localization, "oracle_invariant", always_degenerate)
    with pytest.raises(SamplingError):
        oracle_invariant_checked(parse_spec(QUINTIC), 1, samples=3, seed=4)
    library = list(draws)
    draws.clear()
    rc, out, _ = run(capsys, "oracle", "--spec", path, "--degree", "1",
                     "--samples", "3", "--seed", "4")
    assert rc == 1
    assert out == ""
    assert draws == library


def test_any_other_internal_error_exits_3_without_a_traceback(
    spec_file, capsys, monkeypatch
):
    def broken(spec, bound):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "solve_mirror_map", broken)
    rc, out, err = run(capsys, "compute", "--spec", spec_file(PAIR), "--max-degree", "2")
    assert rc == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines() == ["internal error: RuntimeError: boom"]


def test_an_oracle_fault_in_verify_exits_3(spec_file, capsys, monkeypatch):
    # only sampling failures and disagreements are verification results
    def broken(spec, d, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(localization, "oracle_invariant_checked", broken)
    rc, out, err = run(capsys, "verify", "--spec", spec_file(PAIR), "--max-degree", "2")
    assert rc == 3
    assert out == ""
    assert err.splitlines() == ["internal error: RuntimeError: boom"]


_GARBAGE = ("", "# comment", "name fuzz", "space", "space x", "space 0",
            "bundle", "bundle convex", "bundle odd 1", "frobnicate 3")
# out-of-grammar degrees: a negative magnitude, or past any balance
_STRAY_DEGREE = st.sampled_from((-1, 4))


@st.composite
def spec_texts(draw):
    """Spec text from a small grammar, with some malformed lines mixed in.

    Most draws keep every degree within the room the first Chern balance
    leaves and then close the balance, so most specs pass validation; a
    stray degree, a wrong arity, an unclosed balance or a junk line each
    turn up in a minority of draws.
    """
    spaces = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    lines = [f"space {n}" for n in spaces]
    room = [n + 1 for n in spaces]
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("convex", "convex", "concave")))
        arity = draw(st.sampled_from((len(spaces),) * 7 + (1, 2)))
        degrees = []
        for i in range(arity):
            if draw(st.integers(0, 19)) == 0:
                degrees.append(draw(_STRAY_DEGREE))
            else:  # a concave bundle needs a nonzero degree: give it one on factor 0
                low = int(kind == "concave" and i == 0)
                high = max(room[i], low) if i < len(room) else 2
                degrees.append(draw(st.integers(low, high)))
        for i, e in enumerate(degrees[: len(room)]):
            room[i] -= e
        lines.append(f"bundle {kind} " + " ".join(map(str, degrees)))
    if draw(st.integers(0, 7)):  # mostly, close the first Chern balance
        lines.append("bundle convex " + " ".join(map(str, room)))
    if draw(st.integers(0, 5)) == 0:
        junk = draw(st.sampled_from(_GARBAGE))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + "\n"


def _argv(data, path):
    """A command line for `path` with numeric flags drawn in and just out of range."""
    command = data.draw(st.sampled_from((
        ["compute"], ["compute", "--euler"], ["compute", "--format", "csv"],
        ["verify"], ["oracle"],
    )))
    if command == ["oracle"]:
        flags = ["--degree", str(data.draw(st.integers(-1, 3))),
                 "--samples", str(data.draw(st.integers(0, 3))),
                 "--seed", str(data.draw(st.integers()))]
    else:
        flags = ["--max-degree", str(data.draw(st.sampled_from((0, 1, 1, 2, 2))))]
    return command + ["--spec", str(path)] + flags


@settings(max_examples=40, deadline=None)
@given(spec_texts(), st.data())
def test_fuzzed_specs_end_in_a_documented_exit_code(text, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.cvx"
        path.write_text(text)
        argv = _argv(data, path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc in (2, 3):
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
