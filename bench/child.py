"""One measured concavex run, in a fresh process.

Started by run.py as ``python3 child.py '<json config>'``.  The config names
the repository root, the spec file, the CLI arguments (none for a set-up
only run) and whether to trace.  The child imports concavex from the
root's ``src``, parses and validates the spec (that is set-up), then runs
``concavex.cli.main`` with stdout and stderr captured.  It writes one JSON
line to its own stdout: the moment set-up finished on the monotonic clock
(which run.py shares), the wall time of ``main``, its return code, the
captured stdout, its peak RSS, and the per-layer numbers when traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def peak_rss_mb() -> float:
    """This process's own RSS high-water mark.

    Not ``ru_maxrss``: Linux carries that across ``execve`` from the
    forking parent, so a child smaller than run.py would report run.py.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import concavex
    from concavex import cli
    from concavex.geometry import parse_spec, validate

    if not os.path.realpath(concavex.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"concavex came from {concavex.__file__}, not {src}")
    with open(cfg["spec"], encoding="utf-8") as fh:
        validate(parse_spec(fh.read()))
    ready = time.monotonic()
    record = {"ready": ready}
    if cfg["argv"] is not None:
        tracer = None
        if cfg["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cfg["argv"])
        record["wall_s"] = time.perf_counter() - start
        record["exit"] = code
        record["stdout"] = out.getvalue()
        if tracer is not None:
            if tracer.open_spans():
                raise RuntimeError(f"{tracer.open_spans()} spans left open")
            record["layers"] = tracer.metrics()
    record["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
