"""One workload process: set up the seeded inputs, run timed passes, check
every pass, and report as JSON on stdout.

    python3 bench/worker.py --workload NAME --seed N --size full --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]

The worker prints ``READY <seconds> <slowdown>`` once its inputs are
written: the seconds set-up spent on the benchmark's own work (choosing
inputs, speed probes), which the load generator leaves out of the set-up
time it measures up to that line, and the CPU's slowdown during set-up
(see ``speed.py``), by which it divides the rest.  Then, unless
``--setup-only``, it prints one JSON report line.  It imports ``pararadon`` from the checkout's
``src`` directory and refuses to run without it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # so wall_s is the median of at least three passes
PROBE_INTERVAL_S = 0.1  # wall seconds between speed probes during passes
SETUP_PROBES = 3  # speed probes before and after set-up


def import_package():
    """Import pararadon from ROOT/src, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "pararadon" / "__init__.py").is_file():
        raise SystemExit(f"error: no pararadon sources under {src}")
    sys.path.insert(0, str(src))
    import pararadon

    if Path(pararadon.__file__).resolve().parent != src / "pararadon":
        raise SystemExit(f"error: pararadon imported from {pararadon.__file__}, not {src}")
    return pararadon


def run_passes(workload, state, seconds: float, trace: bool, tamper=None) -> dict:
    """Run passes for about `seconds`, and at least MIN_PASSES.

    A speed probe runs right before and after each pass and every
    PROBE_INTERVAL_S within it; a pass's ``wall_s`` is its wall time at
    nominal CPU speed without the probes (``SpeedSampler.normalized``),
    ``raw_wall_s`` its wall time as measured, probes included.  With
    `trace`, passes alternate untraced and traced; span times include the
    probes that ran inside them.  Each pass is
    checked after its timed section; a pass that raises, exits non-zero,
    fails its check, prints other stdout than the first pass, or (traced)
    fails the tracer self-check counts as failed.  `tamper(state)` runs
    between a pass and its check; the tests use it to corrupt outputs.
    """
    passes = []
    summaries = []
    first_stdout = None
    start = time.perf_counter()
    sampler = speed.SpeedSampler(PROBE_INTERVAL_S)
    # start another pass while it would end less than half a pass late
    while len(passes) < MIN_PASSES or (time.perf_counter() - start
                                       + 0.5 * statistics.mean(p["raw_wall_s"] for p in passes)
                                       < seconds):
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        problems = []
        with sampler:
            t0 = sampler.sample()
            c0 = time.process_time()
            try:
                with tracer or contextlib.nullcontext():
                    res = workload.run_pass(state)
            except Exception:
                res = None
                problems.append(traceback.format_exc(limit=3))
            t1, c1 = time.perf_counter(), time.process_time()
            sampler.sample()
        wall = sampler.normalized(t0, t1)
        cpu = c1 - c0 - sampler.probe_time(t0, t1)
        if not passes:
            # set-up plus one pass, before any check allocates (ru_maxrss is in KiB on Linux)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if res is not None:
            if tamper is not None:
                tamper(state)
            try:
                problems += workload.check(state, res)
            except Exception:
                problems.append("check raised: " + traceback.format_exc(limit=3))
            if first_stdout is None:
                first_stdout = res.stdout
            elif res.stdout != first_stdout:
                problems.append("stdout differs from the first pass")
        if tracer is not None:
            summary = tracer.summary()
            summaries.append(summary)
            if res is not None and not problems:
                spans, counters = summary["spans"], summary["counters"]
                calls = lambda name: spans.get(name, {}).get("calls", 0)
                problems += workload.trace_expectations(state, res, calls, counters)
                if not problems:
                    summary["useful"] = workload.useful_work(state, res, calls)
        passes.append({"wall_s": wall, "raw_wall_s": t1 - t0, "cpu_s": cpu,
                       "slowdown": sampler.slowdown(t0, t1), "traced": traced,
                       "problems": problems})
    report = {"passes": passes, "peak_rss_mb": peak_rss_mb}
    if trace:
        report["layers"] = layer_metrics(passes, summaries)
    return report


def layer_metrics(passes, summaries) -> dict:
    """Per-layer metrics per traced pass (averaged over the traced passes)."""
    n = len(summaries)
    traced_wall = statistics.mean(p["raw_wall_s"] for p in passes if p["traced"])
    plain = [p for p in passes if not p["traced"]]
    spans: dict[str, dict] = {}
    layers: dict[str, float] = {}
    counters: dict[str, float] = {}
    useful: dict[str, float] = {}
    for s in summaries:
        for name, rec in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key] / n
        for layer, t in s["layers"].items():
            layers[layer] = layers.get(layer, 0.0) + t / n
        for name, v in s["counters"].items():
            counters[name] = counters.get(name, 0.0) + v / n
        for name, v in s.get("useful", {}).items():
            useful[name] = useful.get(name, 0.0) + v / n

    def calls(name):
        return spans.get(name, {}).get("calls", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {}
    for name in ("operator.forward", "operator.adjoint_discrete", "operator.adjoint_continuum",
                 "operator.plan", "paraball.fit", "norms.lp_norm", "norms.rough_decompose",
                 "norms.entropy_refine", "norms.lorentz_quasinorm", "symmetry.pullback",
                 "symmetry.partner_pullback", "grid.sample_at", "grid.prgf_load",
                 "grid.prgf_save"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["operator.rayleigh_ratio.calls"] = calls("operator.rayleigh_ratio")
    shift_cells = counters.get("operator.shift_cells", 0.0)
    m["operator.shift_cells"] = shift_cells
    m["operator.shift_cells_per_s"] = rate(shift_cells, sum(
        self_s(f"operator.{k}") for k in ("forward", "adjoint_discrete", "adjoint_continuum")))
    iterations = counters.get("extremizer.iterations", 0.0)
    m["extremizer.iterations"] = iterations
    m["extremizer.self_s"] = layers["extremizer"]
    extremize_s = spans.get("extremizer.extremize", {}).get("total_s", 0.0)
    m["extremizer.iter_s"] = rate(extremize_s, iterations)
    evals = counters.get("paraball.evals", 0.0)
    m["paraball.evals"] = evals
    m["paraball.evals_per_s"] = rate(evals, self_s("paraball.fit"))
    m["paraball.kept_ratio"] = useful.get("paraball.kept_ratio", 0.0)
    m["paraball.captured_frac"] = useful.get("paraball.captured_frac", 0.0)
    m["grid.sample_at.points"] = counters.get("grid.sample_at.points", 0.0)
    m["grid.prgf_load.bytes"] = counters.get("grid.prgf_load.bytes", 0.0)
    m["grid.prgf_save.bytes"] = counters.get("grid.prgf_save.bytes", 0.0)
    m["cli.self_s"] = layers["cli"]
    for layer, t in layers.items():
        m[f"{layer}.share"] = t / traced_wall
    m["trace.wall_s"] = traced_wall
    m["trace.layer_frac"] = sum(layers.values()) / traced_wall
    m["trace.overhead_frac"] = (statistics.mean(p["wall_s"] for p in passes if p["traced"])
                                / statistics.mean(p["wall_s"] for p in plain) - 1.0)
    m["cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    m["wall_raw_s"] = statistics.median(p["raw_wall_s"] for p in plain)
    m["speed.slowdown"] = statistics.median(p["slowdown"] for p in passes)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.size)
    os.chdir(args.workdir)
    t0 = time.perf_counter()
    speed.probe()  # warm-up, not a sample
    probes = [speed.probe() for _ in range(SETUP_PROBES)]
    probe_s = time.perf_counter() - t0
    state = workload.setup(args.seed)
    t0 = time.perf_counter()
    probes += [speed.probe() for _ in range(SETUP_PROBES)]
    probe_s += time.perf_counter() - t0
    slowdown = statistics.median(probes) / speed.PROBE_NOMINAL_S
    print(f"READY {state.get('bench_s', 0.0) + probe_s!r} {slowdown!r}", flush=True)
    if args.setup_only:
        return 0
    report = run_passes(workload, state, args.seconds, bool(args.trace))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
