"""pararadon benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload {extremize,cover,pairing,transform3d} \
        --seed N --seconds S --trace {0,1}

This process is the load generator.  It runs one worker process at a
time (a closed loop of one client) and starts no threads:

1. SETUPS - 1 workers that only set up, then the measuring worker.
   ``setup_s`` is the median, over all of them, of the time from starting
   the worker until it reports its seeded inputs written, less the time
   set-up spent on the benchmark's own work (which it reports), divided
   by the CPU's slowdown during set-up (which it measures, see
   ``speed.py``).  A traced run starts only the measuring worker.
2. The measuring worker runs timed passes for S seconds (at least three),
   checking each pass outside its timed section.

With ``--trace 0`` the result holds the end-to-end metrics ``wall_s``
(median pass time at nominal CPU speed), ``setup_s`` and ``peak_rss_mb``
(the measuring worker's peak resident set after set-up and its first
pass, before any check).
With ``--trace 1`` passes alternate untraced and traced, and the result
holds the per-layer metrics.  ``attempted`` and
``failed`` count passes.  The last stdout line is the JSON result; the
exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 7  # set-up samples per run, the measuring worker's included
TIME_LIMIT = 170.0  # seconds; the whole run must end within 180


class BenchError(Exception):
    pass


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    """Next stdout line of `proc`, or BenchError past the deadline or at EOF."""
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise BenchError("worker timed out")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"worker ended without output (exit {proc.wait()})")
    return line.strip()


def run_worker(args, workdir: Path, deadline: float, setup_only: bool):
    """Start a worker, wait for READY; returns (setup seconds, report or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = _read_line(proc, deadline).split()
        elapsed = time.perf_counter() - t0
        if len(ready) != 3 or ready[0] != "READY":
            raise BenchError("worker did not report READY")
        setup_s = (elapsed - float(ready[1])) / float(ready[2])
        report = None if setup_only else json.loads(_read_line(proc, deadline))
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        if rc != 0:
            raise BenchError(f"worker exited {rc}")
        return setup_s, report
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = [run_worker(args, workdir, deadline, True)[0]
                  for _ in range(0 if args.trace else SETUPS - 1)]
        setup_s, report = run_worker(args, workdir, deadline, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    setups.append(setup_s)
    passes = report["passes"]
    failed = [p for p in passes if p["problems"]]
    for p in failed:
        print(f"failed pass: {p['problems']}", file=sys.stderr)
    if args.trace:
        values = report["layers"]
    else:
        values = {"wall_s": statistics.median(p["wall_s"] for p in passes),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": report["peak_rss_mb"]}
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} are emitted or declared, "
                         "not both")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": not failed, "attempted": len(passes), "failed": len(failed),
            "metrics": metrics}


def declared_units(kind: str) -> dict:
    """{name: unit} of the `kind` metrics declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pararadon benchmark (one run of one workload)")
    ap.add_argument("--workload", required=True,
                    choices=("extremize", "cover", "pairing", "transform3d"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small runs the same code on reduced inputs (benchmark tests)")
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "pararadon" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a pararadon checkout", file=sys.stderr)
            return 2
    try:
        result = measure(args)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
