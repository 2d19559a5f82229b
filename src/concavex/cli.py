"""Command-line front end.

Three subcommands:

  compute  solve the change of variables and print the invariant table
  oracle   fixed-point graph sum at degree 1 or 2, several weight samples
  verify   engine + oracle + every consistency gate, pass/fail per check

All rationals are printed as "numerator/denominator" strings, never
floats, in every output format.  Reports are byte-identical across runs
with the same flags; timing goes to stderr only.  `compute` keeps the
Chern variable symbolic; `--euler` specializes it to 0.

Exit codes: 0 success; 1 failed verification or an oracle disagreement
(weight samples that disagree or stay degenerate, or a `compute` oracle
check that disagrees with the table, reported before exiting); 2
unreadable or invalid input (including a rejected command line, a spec
file that is not UTF-8 text, a degree bound or sample count below 1,
unsupported oracle degrees and the Euler-class flag on a spec with
positive splitting excess); 3 a solver inconsistency or any other
internal error.  Exits 2 and 3 are reported as one line on stderr with
stdout left empty.  A spec file may begin with a UTF-8 byte-order mark.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .cohomology import Rat
from .geometry import GeometrySpec, SpecError, parse_spec, validate
from .localization import (
    ORACLE_SAMPLES,
    OracleInconsistencyError,
    SamplingError,
    oracle_degrees,
    oracle_draws,
    oracle_invariant_checked,
    spell_degrees,
)
from .mirror import (
    InvariantTable,
    MirrorError,
    MirrorMap,
    extract_invariants,
    solve_mirror_map,
    verify_all,
)
from .qseries import Degree


def _rat(v: Rat) -> str:
    return f"{v.numerator}/{v.denominator}"


def _load_spec(path: str) -> tuple[GeometrySpec, int]:
    with open(path, encoding="utf-8-sig") as fh:
        spec = parse_spec(fh.read())
    return spec, validate(spec)


def _spec_echo(spec: GeometrySpec) -> dict:
    return {
        "name": spec.name,
        "spaces": list(spec.factors),
        "bundles": [
            {"kind": b.kind, "degrees": list(b.magnitudes())}
            for b in spec.bundles
        ],
    }


def _oracle_checks(table: InvariantTable) -> dict[Degree, tuple[Rat, bool]]:
    """{degree: (oracle value, match)} for the degrees the graph sum covers."""
    degrees = oracle_degrees(table.spec)
    checks = {}
    for e in table.entries:
        if sum(e.degree) in degrees:
            val, _ = oracle_invariant_checked(table.spec, sum(e.degree))
            checks[e.degree] = (val, val == e.value)
    return checks


def _json_report(
    mm: MirrorMap, table: InvariantTable, oracle: dict[Degree, tuple[Rat, bool]]
) -> str:
    m = table.spec.m
    degrees = [e.degree for e in table.entries]
    report = {
        "spec": _spec_echo(table.spec),
        "s": table.excess,
        "mirror_map": {
            "f": [[list(d), _rat(mm.prefactor.get(d, Rat(0)))] for d in degrees],
            "g": [
                [i, list(d), _rat(mm.shifts[i].get(d, Rat(0)))]
                for i in range(m)
                for d in degrees
            ],
            "normalization": [
                [list(d), _rat(mm.normalization.get(d, Rat(0)))] for d in degrees
            ],
        },
        "invariants": [
            {
                "degree": list(e.degree),
                "K": _rat(e.value),
                "K_raw": [[str(j), _rat(v)] for j, v in e.raw],
            }
            for e in table.entries
        ],
        "checks": [
            {"name": f"oracle_degree_{'_'.join(map(str, d))}", "pass": ok}
            for d, (_, ok) in oracle.items()
        ],
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _csv_report(table: InvariantTable, oracle: dict[Degree, tuple[Rat, bool]]) -> str:
    m = table.spec.m
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"d{i + 1}" for i in range(m)] + ["K", "oracle", "match"])
    for e in table.entries:
        val, ok = oracle.get(e.degree, (None, None))
        writer.writerow(
            list(e.degree)
            + [
                _rat(e.value),
                "" if val is None else _rat(val),
                "" if ok is None else ("yes" if ok else "no"),
            ]
        )
    return buf.getvalue()


def cmd_compute(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    spec, s = _load_spec(args.spec)
    if args.euler and s != 0:
        raise SpecError(
            f"--euler needs splitting excess 0; this spec has excess {s}"
        )
    mm = solve_mirror_map(spec, args.max_degree)
    table = extract_invariants(mm, euler=args.euler)
    oracle = _oracle_checks(table)
    if args.format == "json":
        out = _json_report(mm, table, oracle)
    else:
        out = _csv_report(table, oracle)
    sys.stdout.write(out)
    print(f"compute: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return 0 if all(ok for _, ok in oracle.values()) else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    spec, _ = _load_spec(args.spec)
    degrees = oracle_degrees(spec)
    if not degrees:
        raise SpecError("the graph sum covers single-factor specs only")
    if args.degree not in degrees:
        raise SpecError(f"the graph sum covers degrees {spell_degrees(degrees)} only")
    draws = oracle_draws(spec, args.degree, args.samples, args.seed)
    lines = [f"sample seed={sample.seed}: {_rat(v)}" for sample, v in draws]
    agree = len({v for _, v in draws}) == 1
    lines.append(f"agreement: {'yes' if agree else 'NO'}")
    lines.append(f"value: {_rat(draws[0][1])}")
    sys.stdout.write("\n".join(lines) + "\n")
    print(f"oracle: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    if not agree:
        raise OracleInconsistencyError("weight samples disagree")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    spec, _ = _load_spec(args.spec)
    checks = verify_all(spec, args.max_degree)
    lines = [f"{c.name}: {'pass' if c.passed else 'FAIL ' + c.detail}" for c in checks]
    failed = [c for c in checks if not c.passed]
    if failed:
        lines.append(f"verification failed: {failed[0].name}")
    else:
        lines.append("all checks passed")
    sys.stdout.write("\n".join(lines) + "\n")
    print(f"verify: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return 1 if failed else 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises on a rejected command line instead of printing usage and exiting."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="concavex",
        description="Genus-zero characteristic numbers of split bundles "
        "over products of projective spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="solve and print the invariant table")
    p.add_argument("--spec", required=True, help="path to a spec file")
    p.add_argument("--max-degree", type=_positive_int, required=True, metavar="D")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--euler", action="store_true",
                   help="specialize the Chern variable to 0 from the start")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("oracle", help="fixed-point graph sum cross-check")
    p.add_argument("--spec", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--samples", type=_positive_int, default=ORACLE_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run every consistency gate")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-degree", type=_positive_int, required=True, metavar="D")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, OSError, UnicodeDecodeError, SpecError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MirrorError as err:
        print(f"inconsistency: {err}", file=sys.stderr)
        return 3
    except (SamplingError, OracleInconsistencyError) as err:
        print(f"oracle failure: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
