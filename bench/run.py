"""meshsim benchmark: host time of three workloads, outputs checked against pins.

Usage, from the repository root::

    python3 bench/run.py --workload grid-storm --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all                 # each workload in turn
    python3 bench/run.py --workload indoor-field --trace 1
    python3 bench/run.py --workload street-campaign --profile

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates traced and untraced passes and reports the per-layer
metrics plus the tracing overhead. ``--profile`` saves a cProfile top-N of one
pass and times nothing. Every mode checks every pass against ``pins.json``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Run records and spans go to
``bench/.out/``. meshsim is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import PER_LAYER, Tracer, installed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"

# (name, unit, better) of every end-to-end metric of an untraced run
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("frames_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
]

WORKLOAD_NAMES = ("street-campaign", "grid-storm", "indoor-field")
DEFAULT_SEED = 1
# Later speed claims must also hold on this seed.
HELD_OUT_SEED = 7919

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 15
PROFILE_TOP = 40

clock = time.perf_counter


class Tally:
    """Operations attempted and failed over every pass of one run."""

    def __init__(self, check):
        # check(result) -> (attempted, failed, problems) against the pins
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.frames: set[int] = set()

    def add(self, result) -> None:
        attempted, failed, problems = self.check(result)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        if not result.errors:
            self.frames.add(result.frames)

    @property
    def correct(self) -> bool:
        # a deterministic pass must simulate the same frames every time
        return self.failed == 0 and len(self.frames) <= 1 and not self.problems


def environment() -> dict:
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "commit": commit()}


def commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seeds: list[int]):
    """Median set-up seconds over fresh processes, after a warm-up one.

    Each process rescales its own time by the probes it runs right after.
    Returns the median, the raw samples and their scales.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
           *map(str, seeds)]
    raw, scales = [], []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, probe_s = map(float, done.stdout.split()[-2:])
        if i:
            raw.append(seconds)
            scales.append(speed.REF_PROBE_S / probe_s)
    return statistics.median(r * s for r, s in zip(raw, scales)), raw, scales


def percentiles(samples: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return deciles[4], deciles[8]


def timed_run(workload, seeds, seconds, tally) -> tuple[dict, dict]:
    setup_s, setup_raw, setup_scale = measure_setup(workload.name, seeds)
    tally.add(workload.run_pass(seeds, OUT_DIR))  # warm-up, checked but not timed
    raw, scales, times, latencies = [], [], [], []
    began = clock()
    while True:
        with speed.Sampler() as sampler:
            start = sampler.clock()
            result = workload.run_pass(seeds, OUT_DIR, sampler.clock)
            took = sampler.clock() - start
        scale = sampler.scale()
        tally.add(result)
        raw.append(took)
        scales.append(scale)
        times.append(took * scale)
        requests = [took] if workload.request == "pass" else result.latencies
        latencies.extend(t * scale for t in requests)
        if len(times) >= MIN_PASSES and clock() - began + took > seconds:
            break
    wall_s = statistics.median(times)
    p50, p90 = percentiles(latencies)
    metrics = {
        "wall_s": wall_s,
        "frames_per_s": result.frames / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latency_p50_ms": p50 * 1000,
        "latency_p90_ms": p90 * 1000,
    }
    record = {"raw_pass_s": raw, "speed_scale": scales, "frames_per_pass": result.frames,
              "latency_samples": len(latencies), "raw_setup_s": setup_raw,
              "setup_speed_scale": setup_scale}
    return metrics, record


def traced_run(workload, seeds, seconds, tally, spans_path) -> tuple[dict, dict]:
    tracer = Tracer()
    tally.add(workload.run_pass(seeds, OUT_DIR))  # warm-up, checked but not timed
    traced, plain, per_pass = [], [], []
    began = clock()
    while True:
        tracer.trace_id += 1
        tracer.reset()
        with installed(tracer):
            start = clock()
            result = workload.run_pass(seeds, OUT_DIR)
            took_traced = clock() - start
        tally.add(result)
        per_pass.append(tracer.pass_metrics())
        start = clock()
        tally.add(workload.run_pass(seeds, OUT_DIR))
        took_plain = clock() - start
        traced.append(took_traced)
        plain.append(took_plain)
        if (len(traced) >= MIN_TRACED_PASSES
                and clock() - began + took_traced + took_plain > seconds):
            break
    tracer.write_spans(spans_path)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) != 1:
                tally.problems.append(f"{name} differs between traced passes: {values}")
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    record = {"traced_pass_s": traced, "untraced_pass_s": plain,
              "kept_spans": len(tracer.spans), "spans": str(spans_path.relative_to(ROOT))}
    return metrics, record


def profile_run(workload, seeds, tally, path) -> None:
    import cProfile
    import io
    import pstats

    tally.add(workload.run_pass(seeds, OUT_DIR))  # warm-up
    profiler = cProfile.Profile()
    profiler.enable()
    tally.add(workload.run_pass(seeds, OUT_DIR))
    profiler.disable()
    text = io.StringIO()
    stats = pstats.Stats(profiler, stream=text)
    for key in ("cumulative", "tottime"):
        stats.sort_stats(key).print_stats(PROFILE_TOP)
    path.write_text(text.getvalue())


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"error: {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELD_OUT_SEED} is held out for checking claims")
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="save a cProfile top-N of one pass; nothing is timed")
    args = parser.parse_args(argv)

    if not (SRC / "meshsim" / "__init__.py").is_file():
        print(f"error: meshsim source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seeds = workloads.sim_seeds(workload.name, args.seed)
    tally = Tally(functools.partial(workloads.check, workload.name, workloads.load_pins()))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    env = environment()
    print(f"workload {workload.name}  seed {args.seed}  sim seeds {seeds}  "
          f"trace {args.trace}")
    print(f"env python {env['python']}  cpus {env['cpus']}  commit {env['commit']}")

    if args.profile:
        path = OUT_DIR / f"{stem}-profile.txt"
        profile_run(workload, seeds, tally, path)
        print(f"profile {path.relative_to(ROOT)}")
        print(f"error_rate {tally.failed / tally.attempted:.6g} "
              f"({tally.failed}/{tally.attempted} operations failed)")
        return 0 if tally.correct else 1

    if args.trace:
        metrics, record = traced_run(workload, seeds, args.seconds, tally,
                                     OUT_DIR / f"{stem}-spans.jsonl")
        table = PER_LAYER
    else:
        metrics, record = timed_run(workload, seeds, args.seconds, tally)
        table = END_TO_END
    units = {name: unit for name, unit, _ in table}
    for name, unit, _ in table:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"error_rate {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted} operations failed)")
    for problem in tally.problems[:20]:
        print(f"problem {problem}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _, _ in table},
    }
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(json.dumps(
        {"env": env, "workload": workload.name, "seed": args.seed, "sim_seeds": seeds,
         "problems": tally.problems, **record, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
