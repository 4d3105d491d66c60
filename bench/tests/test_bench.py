"""Tests of the benchmark itself, on reduced inputs through the same code.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_package()

import pararadon  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """{(workload, seed, trace): result} of small runs, made on first use."""
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = result_of(run_bench(workload, seed, trace))
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(results, name, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    result = results(name, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= worker.MIN_PASSES
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared[kind]}
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_changes_inputs_not_metrics(results, tmp_path, monkeypatch, name):
    digests = []
    for seed in (1, 2):
        work = tmp_path / str(seed)
        work.mkdir()
        monkeypatch.chdir(work)
        state = workloads.WORKLOADS[name]("small").setup(seed)
        h = hashlib.sha256()
        for path in sorted(work.iterdir()):
            h.update(path.read_bytes())
        for el in state.get("elements", ()):
            h.update(el.to_json().encode())
        digests.append(h.hexdigest())
    assert digests[0] != digests[1]
    assert set(results(name, 1, 0)["metrics"]) == set(results(name, 2, 0)["metrics"])


def corrupt_largest(path: str, factor: float) -> None:
    """Multiply the largest value of a PRGF1 file by `factor`, in place."""
    raw = bytearray(Path(path).read_bytes())
    start = raw.index(b"\n") + 1
    values = np.frombuffer(bytes(raw[start:]), dtype="<f8")
    offset = start + 8 * int(np.argmax(values))
    raw[offset:offset + 8] = np.array([factor * values.max()], dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(raw))


@pytest.mark.parametrize("factor", [-1.0, 1.5])
@pytest.mark.parametrize("name, output", [("extremize", "tr.prgf"),
                                          ("transform3d", "Tf.prgf"),
                                          ("transform3d", "TsTf.prgf"),
                                          ("transform3d", "TsTf_c.prgf"),
                                          ("transform3d", "Tf_refined.prgf")])
def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch, name, output, factor):
    monkeypatch.chdir(tmp_path)
    workload = workloads.WORKLOADS[name]("small")
    state = workload.setup(3)
    clean = worker.run_passes(workload, state, 0.0, trace=False)
    assert not any(p["problems"] for p in clean["passes"])
    report = worker.run_passes(workload, state, 0.0, trace=False,
                               tamper=lambda _: corrupt_largest(output, factor))
    assert report["passes"] and all(p["problems"] for p in report["passes"])


def test_tracer_patches_consumers_and_restores(tmp_path):
    from pararadon import extremizer, operator

    original = operator.forward_transform
    with Tracer():
        assert extremizer.forward_transform is operator.forward_transform is not original
        assert pararadon.forward_transform is operator.forward_transform
    assert extremizer.forward_transform is original
    assert pararadon.forward_transform is original
    assert "__post_init__" in vars(pararadon.TransformPlan)
    assert vars(pararadon.TransformPlan)["__post_init__"].__name__ == "__post_init__"


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("pairing", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_speed_normalization_divides_by_local_slowdown():
    n = speed.PROBE_NOMINAL_S
    sampler = speed.SpeedSampler(1.0)
    # probes at twice their nominal time: before the pass, inside it, and
    # after it; the pass does 1 s of its own work between them
    t0 = 2 * n
    t1 = 1.0 + 4 * n
    sampler.samples = [(0.0, 2 * n), (0.5 + 2 * n, 2 * n), (t1, 2 * n)]
    assert sampler.probe_time(t0, t1) == pytest.approx(2 * n)
    assert sampler.slowdown(t0, t1) == pytest.approx(2.0)
    assert sampler.normalized(t0, t1) == pytest.approx(0.5)
    # at nominal speed a pass with no probe inside reads as measured
    sampler.samples = [(0.0, n), (n + 0.25, n)]
    assert sampler.normalized(n, n + 0.25) == pytest.approx(0.25)
