"""Benchmark child process: a fresh interpreter that serves one slot of a round.

It imports chainsaw from the checkout's ``src``, makes one tiny warm-up
call per engine through the CLI, and prints ``READY``; the parent times
set-up up to that line. Then it reads its jobs (JSON) from stdin and runs
them one at a time: each request is ``chainsaw.cli.main(argv)`` called
in-process with stdout and stderr captured, timed from the call to its
return, and checked against its expectation after the clock stops. The
last line of stdout is a JSON result.

Every slot runs in its own process: on the machine this was tuned on, the
same small request took 4 to 8 ms depending on the process (address-space
layout is drawn at random for each one), and many processes per run average
that out.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
INITIAL_INT_MAX_STR_DIGITS = sys.get_int_max_str_digits()

WARMUP = (
    ["count", "--family", "path", "--n", "8", "--method", "brute"],
    ["count", "--family", "chainsaw", "--n", "4", "--a", "2", "--b", "1", "--method", "eliminate"],
    ["count", "--family", "broken", "--n", "4", "--a", "2", "--b", "1", "--method", "closed-form"],
    ["poly", "--family", "cycle", "--n", "5"],
    ["seq", "--kind", "V", "--n", "10", "--p", "3", "--q=-2", "--method", "matrix"],
    ["verify", "--n-max", "1", "--a-max", "1", "--brute-cap", "4"],
)


def load_cli():
    """chainsaw.cli from this checkout's src; refuses a copy installed elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import chainsaw.cli

    if Path(chainsaw.__file__).resolve().parent != src / "chainsaw":
        raise ImportError(f"chainsaw imported from {chainsaw.__file__}, not from {src}")
    return chainsaw.cli


def call(cli, argv: list[str], tracer: tracing.Tracer | None = None) -> tuple[int, str, float]:
    """Run one CLI request in-process: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.begin_request()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_request(start, end)
    return code, out.getvalue(), end - start


def run_jobs(jobs: list[dict], execute) -> dict:
    """Run and check each job; `execute(argv)` returns (exit code, stdout, seconds).

    Garbage left by one request is collected before the next starts, outside
    the clock, as if each ran in its own CLI process. Elimination's memo sits
    in a reference cycle, so without this, whether one request's memo is
    still alive when the next one peaks decides `peak_rss_mb`.
    """
    times, failed, output_bytes = [], 0, 0
    for job in jobs:
        gc.collect()
        code, out, took = execute(job["argv"])
        times.append(took)
        failed += not reference.check(job["expect"], code, out)
        output_bytes += len(out.encode())
    return {"times": times, "failed": failed, "output_bytes": output_bytes}


def machine() -> dict:
    from chainsaw import _kernels
    import numpy

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": _kernels.active_backend(),
        "int_max_str_digits": INITIAL_INT_MAX_STR_DIGITS,
        "int_max_str_digits_after_cli": sys.get_int_max_str_digits(),
    }


def main() -> int:
    cli = load_cli()
    for args in WARMUP:
        code, _, _ = call(cli, list(args))
        if code != 0:
            raise RuntimeError(f"warm-up {args} exited {code}")
    print("READY", flush=True)
    task = json.load(sys.stdin)
    tracer = tracing.Tracer() if task["trace"] else None
    if tracer is not None:
        tracer.install()
    result = run_jobs(task["jobs"], lambda argv: call(cli, argv, tracer))
    if tracer is not None:
        tracer.uninstall()
        result["layer_totals"] = tracing.layer_totals(tracer.spans)
        result["self_time_gap_s"] = tracing.request_balance(tracer.spans, tracing.self_times(tracer.spans))
        result["spans"] = tracer.rows()
    result["machine"] = machine()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
