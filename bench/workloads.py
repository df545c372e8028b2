"""The three benchmark workloads, their output digests and the pinned pool.

Each workload pass is a closed loop in one thread: the next simulation run
or session command starts only after the previous one returns. A pass
returns one digest per simulation seed; ``check`` compares them with
``pins.json`` and counts the operations of a mismatching seed as failed.

Every call into meshsim goes through a module attribute
(``experiments.run_plan``, ``commander.check_reachability``, ...), so the
wrappers that ``tracer.py`` installs for a traced run see it.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from meshsim import commander, experiments, scenario, simnet

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"
PLAN_PATH = BENCH_DIR / "street_campaign.plan"
GRID_PATH = BENCH_DIR / "grid_storm.scn"

# Simulation seeds a run draws from. Outputs are pinned for each of them, so
# every run is checked whatever ``--seed`` it was given.
POOL = tuple(range(1, 33))

# indoor-field: the paper's field procedure, once under each algorithm.
# A btmr poll costs about five times a mam poll. With equal phases the p50
# of command latency would sit in the gap between the two modes and jump
# between them from run to run; uneven phases put p50 inside the mam mode
# and p90 inside the btmr mode.
SESSION_POLLS = {"set-btmr": 60, "set-mam": 180}
PROBE_DEADLINE_MS = 2000

# The RunReport fields that exist today. Digests read only these, so keys
# added to the report later do not trip the check.
REPORT_FIELDS = ("algorithm", "duration_ms", "seed", "unique_received",
                 "duplicate_received", "total_received", "tx_total",
                 "rx_total", "tx_data")
NODE_FIELDS = ("generated", "relayed", "tx_dropped", "restarts")


@dataclass
class PassResult:
    """One pass of a workload: what it produced and what the user waited."""

    digests: dict[int, str] = field(default_factory=dict)
    ops: dict[int, int] = field(default_factory=dict)
    errors: dict[int, str] = field(default_factory=dict)
    frames: int = 0
    # seconds per session command; empty where the request is the whole pass
    latencies: list[float] = field(default_factory=list)


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()[:20]


def report_text(report) -> str:
    data = {name: getattr(report, name) for name in REPORT_FIELDS}
    data["per_node"] = {str(node): {name: row[name] for name in NODE_FIELDS}
                        for node, row in sorted(report.per_node.items())}
    return json.dumps(data, sort_keys=True)


def frames_of(report) -> int:
    return report.tx_total + report.rx_total


def sim_seeds(workload: str, seed: int) -> list[int]:
    """The simulation seeds a run with ``seed`` uses (same seed, same inputs)."""
    count = 1 if workload == "grid-storm" else 3
    return sorted(random.Random(seed).sample(POOL, count))


# --- street-campaign ----------------------------------------------------------

def street_plan(seeds, durations_min=None):
    plan = experiments.load_plan(PLAN_PATH)
    plan = replace(plan, seeds=list(seeds), repetitions=len(seeds))
    if durations_min is not None:
        plan = replace(plan, durations_min=list(durations_min))
    return plan


def street_setup(seeds):
    plan = street_plan(seeds)
    return [simnet.World(replace(plan.scenario, algorithm=algorithm,
                                 duration_ms=int(round(minutes * 60_000)),
                                 rng_seed=seed))
            for algorithm in plan.algorithms
            for minutes in plan.durations_min
            for seed in plan.run_seeds()]


def street_pass(seeds, scratch: Path, clock=time.perf_counter,
                durations_min=None) -> PassResult:
    """``run_plan`` over outdoor10 with outputs written to a scratch directory."""
    plan = street_plan(seeds, durations_min)
    runs_per_seed = len(plan.algorithms) * len(plan.durations_min)
    result = PassResult(ops={s: runs_per_seed for s in seeds})
    with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
        try:
            table = experiments.run_plan(plan, out_dir=out_dir)
            table_csv = (Path(out_dir) / "table.csv").read_text()
        except Exception as exc:  # the failure is counted and reported
            result.errors = {s: repr(exc) for s in seeds}
            return result
    for s in seeds:
        reports = [r for key in sorted(table.reports)
                   for r in table.reports[key] if r.seed == s]
        result.digests[s] = digest([table_csv] + [report_text(r) for r in reports])
    result.frames = sum(frames_of(r) for batch in table.reports.values() for r in batch)
    return result


# --- grid-storm -----------------------------------------------------------------

def grid_config(seed, duration_ms=None):
    config = scenario.load_scenario(GRID_PATH)
    config = replace(config, rng_seed=seed)
    if duration_ms is not None:
        config = replace(config, duration_ms=duration_ms)
    return config


def grid_setup(seeds):
    return [simnet.World(grid_config(s)) for s in seeds]


def grid_pass(seeds, scratch: Path = None, clock=time.perf_counter,
              duration_ms=None) -> PassResult:
    """One btmr run per seed on the 10x10 ground-radio grid."""
    result = PassResult(ops={s: 1 for s in seeds})
    for s in seeds:
        try:
            report = simnet.run(grid_config(s, duration_ms))
        except Exception as exc:  # the failure is counted and reported
            result.errors[s] = repr(exc)
            continue
        result.digests[s] = digest([report_text(report)])
        result.frames += frames_of(report)
    return result


# --- indoor-field -----------------------------------------------------------------

def indoor_config(seed):
    config = scenario.load_scenario("indoor10")
    return replace(config, tracker="interval", rng_seed=seed)


def indoor_setup(seeds):
    return [simnet.World(indoor_config(s)) for s in seeds]


def session_script(polls=None):
    """Per algorithm: reset, switch, then poll statistics once a settle window."""
    return [["sim-reset", verb] + ["sim-stats"] * (polls or SESSION_POLLS[verb])
            for verb in ("set-btmr", "set-mam")]


def indoor_pass(seeds, scratch: Path = None, clock=time.perf_counter,
                polls=None) -> PassResult:
    """Drive each seed's world through ``CommanderSession`` like an operator.

    ``clock`` times each command. After each phase the reachability probe
    runs and a report is taken, since the next ``sim-reset`` zeroes the node
    counters.
    """
    phases = session_script(polls)
    result = PassResult(ops={s: sum(len(p) for p in phases) for s in seeds})
    for s in seeds:
        try:
            world = simnet.World(indoor_config(s))
            session = commander.CommanderSession(world)
            parts = []
            for phase in phases:
                for line in phase:
                    start = clock()
                    session.handle_line(line)
                    result.latencies.append(clock() - start)
                probe = commander.check_reachability(world, PROBE_DEADLINE_MS)
                report = world.report()
                parts.append(f"reach {probe.probed_at} {sorted(probe.acked)} "
                             f"{sorted(probe.missing)}")
                parts.append(report_text(report))
                result.frames += frames_of(report)
        except Exception as exc:  # the failure is counted and reported
            result.errors[s] = repr(exc)
            continue
        result.digests[s] = digest(session.transcript + parts)
    return result


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable  # (sim seeds) -> the Worlds of one pass, for setup_s
    run_pass: Callable  # (sim seeds, scratch dir, clock) -> PassResult
    # the request a user waits for: one pass, or one session command
    request: str


WORKLOADS = {
    w.name: w for w in (
        Workload("street-campaign",
                 "run_plan over outdoor10, btmr and mam, 1 and 2 min, 3 seeds, outputs "
                 "written: the paper's campaign shape; its seeds repeat one run",
                 street_setup, street_pass, "pass"),
        Workload("grid-storm",
                 "one btmr run on a 10x10 ground-radio grid for 5 s: a broadcast storm "
                 "where radio geometry, the event heap and relay decisions do the work",
                 grid_setup, grid_pass, "pass"),
        Workload("indoor-field",
                 "indoor10 with 15% link loss and the interval tracker, driven command "
                 "by command through CommanderSession; the only commander workload",
                 indoor_setup, indoor_pass, "command"),
    )
}


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def check(workload: str, pins: dict, result: PassResult) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one pass against the pinned digests."""
    expected = pins[workload]
    attempted = failed = 0
    problems = []
    for s, ops in result.ops.items():
        attempted += ops
        if s in result.errors:
            failed += ops
            problems.append(f"seed {s}: raised {result.errors[s]}")
        elif result.digests.get(s) != expected.get(str(s)):
            failed += ops
            problems.append(f"seed {s}: digest {result.digests.get(s)} "
                            f"!= pinned {expected.get(str(s))}")
    return attempted, failed, problems
