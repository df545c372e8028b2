"""Toy-scale checks of the benchmark itself; not part of the repository's tier-1.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TOY = {
    "street-campaign": {"durations_min": [0.05]},
    "grid-storm": {"duration_ms": 300},
    "indoor-field": {"polls": 3},
}


def toy_pass(name, tmp_path):
    w = workloads.WORKLOADS[name]
    return w.run_pass(workloads.sim_seeds(name, 5), tmp_path, **TOY[name])


def test_definition_matches_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [tuple(m) for m in tracer.PER_LAYER]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] \
        == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_seeds_come_from_pool_and_repeat():
    for name in run.WORKLOAD_NAMES:
        seeds = workloads.sim_seeds(name, 123)
        assert seeds == workloads.sim_seeds(name, 123)
        assert set(seeds) <= set(workloads.POOL)
    pins = workloads.load_pins()
    for name in run.WORKLOAD_NAMES:
        assert sorted(map(int, pins[name])) == list(workloads.POOL)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_corrupted_digest_counts_as_failed_operation(name, tmp_path):
    result = toy_pass(name, tmp_path)
    assert not result.errors and result.frames > 0
    pins = {name: {str(s): d for s, d in result.digests.items()}}
    attempted, failed, problems = workloads.check(name, pins, result)
    assert attempted == sum(result.ops.values()) and failed == 0 and not problems

    seed = min(result.digests)
    pins[name][str(seed)] = "0" * 20
    attempted, failed, problems = workloads.check(name, pins, result)
    assert failed == result.ops[seed] and len(problems) == 1


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_pass_keeps_outputs_and_repeats_counts(name, tmp_path):
    plain = toy_pass(name, tmp_path)
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        with tracer.installed(t):
            traced = toy_pass(name, tmp_path)
        assert traced.digests == plain.digests
        metrics = t.pass_metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith(".self_s")})
    assert counts[0] == counts[1]
    assert counts[0]["simnet.step.calls"] > 0
    names = {n for n, _, _ in tracer.PER_LAYER} - {"trace.overhead_ratio"}
    assert set(metrics) == names
    # the wrappers are gone again
    from meshsim import simnet
    assert not hasattr(simnet.World.step, "__wrapped__")


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-storm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
