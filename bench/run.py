"""Benchmark for the concavex CLI: end-to-end timing and per-layer spans.

    python3 bench/run.py --workload quintic-deep --seed 1 --seconds 40 --trace 0

Each run starts one fresh child process at a time (child.py).  With
``--trace 0`` the children run untraced and the last line of stdout holds
the end-to-end metrics; with ``--trace 1`` untraced and traced children
alternate and the last line holds the per-layer metrics.  Every child's
output passes the correctness gate (gate.py) before its numbers count.
See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPECS = HERE / "specs"
RUN_LIMIT_S = 170  # a whole invocation must end within 180 s
MIN_SAMPLES = 3
SETUP_SAMPLES = 8
CACHE_SETTINGS = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


@dataclass(frozen=True)
class Workload:
    command: str  # "compute" or "verify"
    geometry: str  # spec file stem and gate.ANCHORS key
    bound: int
    what: str

    @property
    def spec(self) -> str:
        return str(SPECS / f"{self.geometry}.cvx")

    def argv(self, bound: int) -> list[str]:
        return [self.command, "--spec", self.spec, "--max-degree", str(bound)]


WORKLOADS = {
    "quintic-deep": Workload("compute", "quintic", 8, "compute, P^4 with O(5)"),
    "bicubic-wide": Workload("compute", "bicubic", 5, "compute, P^2xP^2 with O(3,3)"),
    "verify-oracle": Workload("verify", "ci2222", 2, "verify, P^7 with 4 x O(2)"),
}

# verify checks that must be present, so that a run cannot pass by dropping one
VERIFY_CHECKS = (
    "solve_and_extract",
    "euler_specialization",
    "truncation_stability",
    "oracle_degree_1",
    "oracle_degree_2",
)

def spawn(workload: Workload, bound: int | None, trace: bool, deadline: float | None = None) -> dict:
    """Run one child to completion and return its record.

    `bound` None runs set-up only.  The child is killed at `deadline` on
    the monotonic clock, by default RUN_LIMIT_S from now.  The record carries the child's exit
    status, set-up and wall times, and peak RSS as the child saw them, and
    its CPU time from wait4: RUSAGE_CHILDREN would sum over every child.
    """
    cfg = {
        "root": str(ROOT),
        "spec": workload.spec,
        "argv": None if bound is None else workload.argv(bound),
        "trace": trace,
    }
    # Children byte-compile as an installed package would, and only into
    # the checkout.
    env = {k: v for k, v in os.environ.items() if k not in CACHE_SETTINGS}
    start = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    ) as proc:
        if deadline is None:
            deadline = start + RUN_LIMIT_S
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            data = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"status": proc.returncode}
    if proc.returncode == 0:
        record.update(json.loads(data))
        record["setup_s"] = record.pop("ready") - start
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    return record


def problems(workload: Workload, bound: int, record: dict, digest: str | None) -> list[str]:
    """Why a run's output is wrong; empty when it passes the gate.

    `digest` is the sha256 of the first run's stdout in this invocation:
    reports must be byte-identical across runs.
    """
    if record["status"] != 0 or record.get("exit") != 0:
        return [f"exit status {record['status']}, cli returned {record.get('exit')}"]
    out = record["stdout"]
    if digest is not None and hashlib.sha256(out.encode()).hexdigest() != digest:
        return ["stdout differs from the first run"]
    if workload.command == "verify":
        return gate.check_verify(out, VERIFY_CHECKS)
    return gate.check_compute(out, workload.geometry, bound)


def measure(name: str, seconds: float, trace: bool, seed: int, bound: int | None = None):
    """Run children for about `seconds`; return (summary lines, result).

    The result is None when no measured child of some kind passed the gate.

    Untraced runs start with SETUP_SAMPLES set-up only children.  A
    new measured child starts only while the slowest so far would still
    end inside the budget, and at least MIN_SAMPLES of each kind are made.
    """
    workload = WORKLOADS[name]
    bound = workload.bound if bound is None else bound
    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    spawn(workload, None, False, deadline)  # warm-up: byte-compile, fill the file cache
    runs: list[tuple[str, dict]] = []
    failures: list[str] = []
    for _ in range(0 if trace else SETUP_SAMPLES):
        record = spawn(workload, None, False, deadline)
        record["passed"] = record["status"] == 0
        if not record["passed"]:
            failures.append(f"set-up exit status {record['status']}")
        runs.append(("setup", record))
    # --trace 1 alternates untraced and traced children; the seed picks
    # which kind goes first.
    kinds = ["plain", "traced"] if trace else ["plain"]
    if trace and seed % 2:
        kinds.reverse()
    digest = None
    longest = 0.0
    rounds = 0
    overheads = []  # traced minus untraced wall time, per round
    while rounds < MIN_SAMPLES or time.monotonic() - begin + longest * len(kinds) <= seconds:
        rounds += 1
        walls = {}
        for kind in kinds:
            t0 = time.monotonic()
            record = spawn(workload, bound, kind == "traced", deadline)
            longest = max(longest, time.monotonic() - t0)
            found = problems(workload, bound, record, digest)
            if digest is None and "stdout" in record:
                digest = hashlib.sha256(record["stdout"].encode()).hexdigest()
            record["passed"] = not found
            failures += found
            runs.append((kind, record))
            if record["passed"]:
                walls[kind] = record["wall_s"]
        if len(walls) == 2:
            overheads.append(walls["traced"] - walls["plain"])
    failed = sum(not r["passed"] for _, r in runs)
    good = [(kind, r) for kind, r in runs if r["passed"]]

    def med(kinds, key):
        return statistics.median(r[key] for kind, r in good if kind in kinds)

    lines = [
        f"workload {name} ({workload.what}, D={bound}) seed {seed} trace {int(trace)}",
        f"runs {len(runs)}, failed {failed}, error_rate {failed / len(runs):.3f}",
    ] + [f"failure: {p}" for p in failures[:5]]
    if not all(any(kind == k for k, _ in good) for kind in kinds):
        return lines, None
    if not trace:
        metrics = {
            "setup_s": med(("setup", "plain"), "setup_s"),
            "wall_s": med(("plain",), "wall_s"),
            "cpu_s": med(("plain",), "cpu_s"),
            "peak_rss_mb": med(("plain",), "peak_rss_mb"),
        }
        samples = sum(kind == "plain" for kind, _ in good)
        lines.append(f"wall_s median {metrics['wall_s']:.4f} s over {samples} samples")
    else:
        # median_low keeps the exact counters exact
        traced = [r["layers"] for kind, r in good if kind == "traced"]
        metrics = {key: statistics.median_low(t[key] for t in traced) for key in traced[0]}
        metrics["trace.overhead_s"] = statistics.median(overheads or [0.0])
        lines.append(layer_shares(metrics))
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return lines, result


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bits_max"):
        return "bits"
    return "count"


def layer_shares(layers: dict) -> str:
    """Each layer's share of the traced time, largest first."""
    share = {
        "eulerdata": layers["eulerdata.reduced_block_s"] + layers["eulerdata.hyper_block_s"],
        "mirror": sum(layers[f"mirror.{s}_self_s"] for s in ("solve", "integrand", "extract", "verify")),
        "qseries": layers["qseries.series_exp_s"] + layers["qseries.series_inverse_s"],
        "localization": layers["localization.oracle_s"],
        "geometry": layers["geometry.load_s"],
        "cli": layers["cli.self_s"],
    }
    total = sum(share.values())
    parts = sorted(share.items(), key=lambda kv: -kv[1])
    return "layer shares: " + ", ".join(f"{k} {v / total:.1%}" for k, v in parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "concavex" / "__init__.py").is_file():
        print(f"error: no concavex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    lines, result = measure(args.workload, args.seconds, bool(args.trace), args.seed)
    if result is None:
        print("\n".join(lines + ["error: no measured run passed the gate"]), file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
