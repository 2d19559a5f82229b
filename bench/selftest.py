"""Self-test of the benchmark itself; takes about half a minute.

    python3 bench/selftest.py

Checks that spans close when the wrapped function raises, that the tracer
patches each name where concavex looks it up, that every workload passes
the gate at D=2, that the concave geometries (the conifold pair and local
P^2) and CI(2,2,2,2) match their literature values, that every metric in
BENCHMARK.json is printed with its unit, and that tampered output counts
as a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run
from tracer import Tracer


class Redraw(Exception):
    pass


def check_spans_close_on_error() -> None:
    tr = Tracer()

    def draw(fail):
        time.sleep(0.02)
        if fail:
            raise Redraw

    draw = tr.span("draw", draw, retry=Redraw)

    def oracle():
        for fail in (True, True, False):
            try:
                draw(fail)
            except Redraw:
                pass

    tr.span("oracle", oracle)()
    assert tr.open_spans() == 0
    assert tr.counts["draw.retries"] == 2 and tr.calls["draw"] == 3
    assert tr.total["draw"] >= 0.06
    assert tr.own["oracle"] < tr.total["draw"] / 3, dict(tr.own)


def check_names_patched_where_looked_up() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from concavex import cli, mirror
    from concavex.cohomology import CohClass
    from concavex.laurent import LaurentBlock

    kernels = (LaurentBlock.__mul__, CohClass.__mul__)
    Tracer().install()
    for mod, names in (
        (mirror, ("reduced_block", "hyper_block", "series_exp", "series_inverse")),
        (cli, ("solve_mirror_map", "extract_invariants", "verify_all", "main")),
    ):
        for name in names:
            assert hasattr(getattr(mod, name), "__wrapped__"), f"{mod.__name__}.{name}"
    assert (LaurentBlock.__mul__, CohClass.__mul__) != kernels


def check_metrics_printed() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        for name in ("quintic-deep", "bicubic-wide"):
            lines, result = run.measure(name, 0, trace, seed=7, bound=2)
            assert result["correct"] and result["failed"] == 0, lines
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, key, set(got) ^ set(want))


def check_gate_passes() -> None:
    cases = [(run.WORKLOADS["verify-oracle"], 2)] + [
        (run.Workload("compute", geometry, 3, geometry), 3)
        for geometry in ("conifold-pair", "local-p2")
    ] + [(run.Workload("compute", "ci2222", 2, "ci2222"), 2)]
    for workload, bound in cases:
        record = run.spawn(workload, bound, False)
        assert run.problems(workload, bound, record, None) == [], workload


def check_tampering_fails() -> None:
    quintic = run.WORKLOADS["quintic-deep"]
    good = run.spawn(quintic, 2, False)
    digest = hashlib.sha256(good["stdout"].encode()).hexdigest()
    assert run.problems(quintic, 2, good, digest) == []
    bad = dict(good, stdout=good["stdout"].replace('"2875/1"', '"2876/1"', 1))
    assert bad["stdout"] != good["stdout"]
    assert run.problems(quintic, 2, bad, None), "wrong K_1 passed the gate"
    assert run.problems(quintic, 2, bad, digest), "changed stdout kept its digest"
    assert run.problems(quintic, 2, dict(good, exit=1), digest), "exit code 1 passed"

    verify = run.WORKLOADS["verify-oracle"]
    lines = "solve_and_extract: pass\noracle_degree_1: pass\nall checks passed\n"
    record = {"status": 0, "exit": 0, "stdout": lines}
    assert run.problems(verify, 2, record, None), "verify without its checks passed"
    lines = "".join(f"{c}: pass\n" for c in run.VERIFY_CHECKS) + "all checks passed\n"
    assert run.problems(verify, 2, dict(record, stdout=lines), None) == []
    failing = lines.replace("oracle_degree_2: pass", "oracle_degree_2: FAIL 1 != 2")
    assert run.problems(verify, 2, dict(record, stdout=failing), None)

    # a tampered run inside measure() counts as failed
    real, seen = run.spawn, []

    def spawn_tampering_second(workload, bound, trace, deadline=None):
        record = real(workload, bound, trace, deadline)
        if bound is not None:
            seen.append(record)
            if len(seen) == 2:
                record["stdout"] = record["stdout"].replace('"2875/1"', '"2876/1"', 1)
        return record

    run.spawn = spawn_tampering_second
    try:
        _, result = run.measure("quintic-deep", 0, False, seed=0, bound=2)
    finally:
        run.spawn = real
    assert not result["correct"] and result["failed"] == 1, result
    assert result["attempted"] == run.SETUP_SAMPLES + len(seen)


def main() -> int:
    for check in (
        check_spans_close_on_error,
        check_gate_passes,
        check_tampering_fails,
        check_metrics_printed,
        check_names_patched_where_looked_up,
    ):
        start = time.monotonic()
        check()
        print(f"ok {check.__name__} ({time.monotonic() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
