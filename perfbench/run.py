"""Benchmark entry point for the chainsaw CLI.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One run builds the seeded plan of one workload with its reference outputs
(cached by seed under ``.perfbench/cache``), then runs it in rounds until
the next round would overrun ``--seconds`` (at least one round). A round
has SLOTS slots, each served by a fresh interpreter (``worker.py``): in
slot k every light group runs all its requests and every heavy group runs
its requests k, k + SLOTS, ... So each heavy request runs once per round,
and light samples are spread over the round and over many processes.

The last line of stdout is the result: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. The full record
(machine, argv lists, every sample) goes to ``.perfbench/results``.
``--all`` runs every workload untraced and prints each end-to-end metric
by name, unit and workload, then the negative control.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SLOTS = 8
SETUP_TIMEOUT_S = 30
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, for the `end_to_end` or `per_layer` list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _child_env() -> dict:
    # CHAINSAW_* variables change the oracle cap and kernel; runs use the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("CHAINSAW_")}


def _reap(proc: subprocess.Popen) -> None:
    """Kill the process if it still runs, wait for it and close its pipes."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None and not pipe.closed:
            pipe.close()


def launch(jobs: list[dict], traced: bool) -> tuple[dict, float]:
    """Run `jobs` in a fresh worker; returns its result and its set-up seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        cwd=ROOT, env=_child_env(), text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        if not ready or proc.stdout.readline().strip() != "READY":
            raise RuntimeError("worker did not start")
        setup = time.perf_counter() - start
        stdout, _ = proc.communicate(json.dumps({"jobs": jobs, "trace": traced}), timeout=CHILD_TIMEOUT_S)
    finally:
        _reap(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), setup


def slot_jobs(groups: list[dict], slot: int) -> list[dict]:
    """The requests of one slot, each tagged with its group and index."""
    jobs = []
    for g, group in enumerate(groups):
        count = len(group["requests"])
        for i in range(count) if group["light"] else range(slot, count, SLOTS):
            jobs.append({"group": g, "index": i, **group["requests"][i]})
    return jobs


def plan_for(workload: str, seed: int) -> list[dict]:
    """The workload's plan with references, from the cache when this seed was built before."""
    digest = hashlib.sha256()
    for name in ("workloads.py", "reference.py"):
        digest.update((HERE / name).read_bytes())
    path = OUT / "cache" / f"{workload}-{seed}-{digest.hexdigest()[:16]}.json"
    if path.exists():
        return json.loads(path.read_text())
    groups = workloads.build(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(groups))
    return groups


def run_rounds(groups: list[dict], seconds: float, trace: bool) -> dict:
    """Run rounds until the next one would overrun `seconds`; with trace, alternate untraced and traced."""
    samples = [[[] for _ in g["requests"]] for g in groups]
    runs = {False: [], True: []}  # (worker result, set-up seconds) per worker
    start = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            for slot in range(SLOTS):
                jobs = slot_jobs(groups, slot)
                result, setup = launch(jobs, traced)
                runs[traced].append((result, setup))
                if not traced:
                    for job, took in zip(jobs, result["times"]):
                        samples[job["group"]][job["index"]].append(took)
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > seconds:
            return {"samples": samples, "runs": runs, "rounds": len(runs[False]) // SLOTS}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of `workload`; returns the result line and writes the full record."""
    if not (ROOT / "src" / "chainsaw" / "__init__.py").is_file():
        raise FileNotFoundError(f"no chainsaw package under {ROOT / 'src'}")
    groups = plan_for(workload, seed)
    done = run_rounds(groups, seconds, trace)
    every = done["runs"][False] + done["runs"][True]
    attempted = sum(len(r["times"]) for r, _ in every)
    failed = sum(r["failed"] for r, _ in every)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    if trace:
        traced = [r for r, _ in done["runs"][True]]
        totals = {k: sum(r["layer_totals"][k] for r in traced) for k in traced[0]["layer_totals"]}
        values = tracing.layer_metrics(totals, done["rounds"])
        values["cli.output_bytes"] = sum(r["output_bytes"] for r in traced) / done["rounds"]
        wall = {t: sum(sum(r["times"]) for r, _ in done["runs"][t]) for t in (False, True)}
        values["trace.overhead_frac"] = wall[True] / wall[False] - 1
        gap = max(r["self_time_gap_s"] for r in traced)
        correct = failed == 0 and gap <= 1e-6
        with open(OUT / "results" / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
            for k, r in enumerate(traced):
                for row in r["spans"]:
                    fh.write(json.dumps({"worker": k, **row}) + "\n")
    else:
        # One pass over a group: the sum of its requests' mean times. The machine this
        # was tuned on switches between two speeds 1.6x apart for seconds at a time; a
        # mean moves smoothly with the share of time spent at each, a median jumps.
        values = {g["metric"]: sum(map(statistics.fmean, t)) for g, t in zip(groups, done["samples"])}
        values["setup_s"] = statistics.median(s for _, s in done["runs"][False])
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r, _ in done["runs"][False])
        values["ok_frac"] = 1 - failed / attempted
        correct = failed == 0
    units = _declared("per_layer" if trace else "end_to_end")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": every[0][0]["machine"], "rounds": done["rounds"],
        "setup_samples": [s for _, s in done["runs"][False]],
        "argv": {g["metric"]: [r["argv"] for r in g["requests"]] for g in groups},
        "light": {g["metric"]: g["light"] for g in groups},
        "samples": {g["metric"]: times for g, times in zip(groups, done["samples"])},
        "metrics": metrics,
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def negative_control() -> tuple[int, int]:
    """Run three real requests with corrupted results; returns (corrupted, counted as failed).

    One long decimal output gets one digit changed, one exact count is
    reported one too high, and one correct output comes with exit code 1.
    """
    cli = worker.load_cli()
    jobs = [
        workloads.seq_request("V", 30_000, 7, -3, "matrix"),
        workloads.count_request("eliminate", "chainsaw", 40, 3, 2),
        workloads.poly_request("broken", 20, 4, 2),
    ]
    corrupt = iter([
        lambda code, out: (code, out[:100] + str((int(out[100]) + 1) % 10) + out[101:]),
        lambda code, out: (code, f"{int(out) + 1}\n"),
        lambda code, out: (1, out),
    ])

    def execute(argv):
        code, out, took = worker.call(cli, argv)
        return (*next(corrupt)(code, out), took)

    return len(jobs), worker.run_jobs(jobs, execute)["failed"]


def run_all(seed: int, seconds: float) -> int:
    print(f"{'workload':<10} {'metric':<14} {'value':>14}  unit")
    ok = True
    for workload in workloads.WORKLOADS:
        res = run(workload, seed, seconds, trace=False)
        ok &= res["correct"]
        for name, m in res["metrics"].items():
            print(f"{workload:<10} {name:<14} {m['value']:>14.6g}  {m['unit']}")
        print(f"{workload:<10} {'failed_frac':<14} {res['failed'] / res['attempted']:>14.6g}  ratio"
              f"  ({res['failed']} of {res['attempted']} requests)")
    corrupted, caught = negative_control()
    print(f"negative control: {caught} of {corrupted} corrupted requests counted as failed")
    return 0 if ok and caught == corrupted else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload untraced and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
