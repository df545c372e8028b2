"""Pinned reference outputs: today's engine output against stored files.

``tests/data/golden_reports.json`` maps a run name to its ``RunReport`` JSON.
``tests/data/plan_outputs/<plan>/`` holds every file ``run_plan`` writes for
each plan in ``pinned_plans``. The files were written by an earlier build, so
a change that alters simulated behaviour or campaign output fails here even
when it is deterministic. Rewrite them only in a change that alters
behaviour on purpose, and say so in that change::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import shutil
from dataclasses import replace
from pathlib import Path

from meshsim import (Algorithm, ExperimentPlan, NodeSpec, Role, ScenarioConfig, Waypoint,
                     load_plan, load_scenario, run, run_plan)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_reports.json"
PLAN_OUTPUTS = DATA / "plan_outputs"

MINUTE_MS = 60_000
SEEDS = (1, 2)
GRID_MS = 20_000


def grid25() -> ScenarioConfig:
    """5x5 grid, 5 m apart, ground radio, btmr, 20 simulated s; the collector is centre node 12."""
    topology = [NodeSpec(i, 5.0 * (i % 5), 5.0 * (i // 5),
                         Role.MOBILE_HUB if i == 12 else Role.SENSOR)
                for i in range(25)]
    return ScenarioConfig(topology=topology, duration_ms=GRID_MS, radio_preset="ground",
                          algorithm=Algorithm.BTMR, rng_seed=1)


def golden_configs() -> dict[str, ScenarioConfig]:
    configs = {}
    for name in ("line3", "indoor10", "outdoor10"):
        for algorithm in Algorithm:
            for seed in SEEDS:
                configs[f"{name}-{algorithm.value}-seed{seed}"] = replace(
                    load_scenario(name), algorithm=algorithm, rng_seed=seed,
                    duration_ms=MINUTE_MS)
    configs["grid25-btmr-seed1"] = grid25()
    # lossy links and a collector that crosses the grid: the loss draws of one
    # broadcast follow the receivers' id order, with the hub among them
    configs["grid25-mobile-lossy-btmr-seed3"] = replace(
        grid25(), rng_seed=3, loss_prob=0.1,
        mobility=[Waypoint(0, 10.0, 10.0), Waypoint(6_000, 20.0, 0.0),
                  Waypoint(12_000, 0.0, 20.0), Waypoint(18_000, 10.0, 10.0)])
    # MAM's duplication fault: the one path where two fan-outs of one frame
    # are scheduled back to back
    configs["outdoor10-mam-duplicate-seed1"] = replace(
        load_scenario("outdoor10"), algorithm=Algorithm.MAM, rng_seed=1,
        duration_ms=MINUTE_MS, fault_duplicate=True)
    configs["indoor10-mam-loss30-seed2"] = replace(
        load_scenario("indoor10"), algorithm=Algorithm.MAM, rng_seed=2,
        duration_ms=MINUTE_MS, loss_prob=0.3)
    # the smallest queue and relay cache, which no other entry runs: a queue
    # that admits one frame over capacity changes both reports
    configs["grid25-queue1-btmr-seed1"] = replace(grid25(), tx_queue_capacity=1)
    configs["grid25-cache1-btmr-seed1"] = replace(grid25(), relay_cache_size=1)
    # duplication on lossy links: each copy of a duplicated unicast draws its own loss
    configs["indoor10-mam-duplicate-seed1"] = replace(
        load_scenario("indoor10"), algorithm=Algorithm.MAM, rng_seed=1,
        duration_ms=MINUTE_MS, fault_duplicate=True)
    return configs


def golden_text() -> str:
    reports = {name: run(config).to_json_dict() for name, config in golden_configs().items()}
    return json.dumps(reports, indent=2) + "\n"


def test_reports_match_golden_file():
    assert golden_text() == GOLDEN.read_text()


def pinned_plans() -> dict[str, ExperimentPlan]:
    descending = load_plan("line3_quick")
    # durations out of order: the series files must still come out sorted
    descending.durations_min = [0.4, 0.2]
    return {"line3_quick": load_plan("line3_quick"), "line3_quick_descending": descending,
            "outdoor_comparison": load_plan("outdoor_comparison"),
            # lossy links: every seed is a run of its own
            "indoor10_lossy": load_plan(DATA / "indoor10_lossy.plan")}


def write_plan_outputs(root: Path) -> None:
    for name, plan in pinned_plans().items():
        run_plan(plan, out_dir=root / name)


def read_tree(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_plan_outputs_match_pinned_files(tmp_path):
    write_plan_outputs(tmp_path)
    assert read_tree(tmp_path) == read_tree(PLAN_OUTPUTS)


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
    shutil.rmtree(PLAN_OUTPUTS, ignore_errors=True)
    write_plan_outputs(PLAN_OUTPUTS)
