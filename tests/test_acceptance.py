"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from meshsim import (
    Algorithm,
    CommanderSession,
    HashMapTracker,
    IntervalTracker,
    MessageKind,
    NodeSpec,
    RelayState,
    Role,
    ScenarioConfig,
    World,
    btmr_relay,
    check_reachability,
    load_plan,
    load_scenario,
    mam_handle,
    run,
    run_plan,
    scale_rule_of_three,
)
from meshsim import refdata
from meshsim.routing import BROADCAST, DROP_NO_ROUTE, DROP_SEEN, DROP_TTL
from recording import record_arrivals

DATA_DIR = Path(__file__).parent / "data"


def _passed(number, slug):
    print(f"ACCEPTANCE PASS: criterion {number} ({slug})")


# --- criterion 1: rule-of-three scaling reproduces the published table -------

SCALING_CASES = [
    (477.00, 5, 317.68),
    (938.33, 10, 312.46),
    (1395.33, 15, 309.76),
    (484.67, 5, 322.79),
    pytest.param(996.00, 10, 331.68, marks=pytest.mark.xfail(
        strict=True,
        reason="source table prints the 10-minute mean as 996.00, and "
               "996.00 * 3.33 / 10 = 331.668, which is 0.012 from the "
               "published 331.68; the published scaling evidently used the "
               "unrounded mean (2988.1/3 = 996.033...)")),
    (1458.00, 15, 323.67),
]


@pytest.mark.parametrize("count,minutes,expected", SCALING_CASES)
def test_criterion_1_scaling_each_published_value(count, minutes, expected):
    scaled = scale_rule_of_three(count, minutes, refdata.REFERENCE_MINUTES)
    assert scaled == pytest.approx(expected, abs=0.01)


def test_criterion_1_simulated_series_rescales_the_simulated_counts():
    # the published series truncates rather than rounds: gaps of 0.0025 to 0.0092
    simulated = {algo: (minutes, unique)
                 for algo, minutes, unique, _ in refdata.SIMULATED_RESULTS}
    assert set(refdata.SIMULATED_SERIES) == set(simulated)
    for algorithm, series in refdata.SIMULATED_SERIES.items():
        from_minutes, unique = simulated[algorithm]
        for minutes, value in series:
            expected = scale_rule_of_three(unique, from_minutes, minutes)
            assert value == pytest.approx(expected, abs=0.01)


def test_criterion_1_scaling_averages_and_runtime():
    start = time.perf_counter()
    flood = [scale_rule_of_three(c, m, 3.33)
             for c, m in ((477.00, 5), (938.33, 10), (1395.33, 15))]
    routed = [scale_rule_of_three(c, m, 3.33)
              for c, m in ((484.67, 5), (996.00, 10), (1458.00, 15))]
    assert sum(flood) / 3 == pytest.approx(313.30, abs=0.01)
    assert sum(routed) / 3 == pytest.approx(326.05, abs=0.01)
    assert time.perf_counter() - start < 1.0
    _passed(1, "scaling reproduction")


# --- criterion 2: every branch of both relay algorithms ----------------------

def test_criterion_2_algorithm_branch_coverage():
    # what ``mam_handle`` reads of a frame heard: kind, (origin, seq), hops, sender
    def data(seq=0, hops=1, sender=2):
        return MessageKind.DATA, (2, seq), hops, sender

    def heartbeat(seq=0, hops=1, sender=0):
        return MessageKind.HEARTBEAT, (0, seq), hops, sender

    # flood relay: TTL cap exceeded / at the cap / LRU hit / LRU miss
    flooding = RelayState(20, 1_000)
    key = (2, 0)  # the (origin, seq) of data()
    assert btmr_relay(flooding, key, 127) == DROP_TTL
    assert btmr_relay(flooding, key, 126) is BROADCAST
    assert btmr_relay(flooding, key, 1) == DROP_SEEN  # hops=126 cached it
    assert btmr_relay(RelayState(20, 1_000), key, 1) is BROADCAST

    # route cache: expired true / false, fewer hops true / false
    state = RelayState(4, 1_000)
    mam_handle(state, 5, *heartbeat(hops=3, sender=7))
    assert (state.best_node, state.best_hops, state.expiry) == (7, 3, 1_005)
    mam_handle(state, 10, *heartbeat(seq=1, hops=9, sender=9))
    assert state.best_node == 7  # fresh entry, more hops: ignored
    mam_handle(state, 20, *heartbeat(seq=2, hops=1, sender=9))
    assert (state.best_node, state.best_hops) == (9, 1)  # fresh entry, fewer hops
    mam_handle(state, 5_000, *heartbeat(seq=3, hops=8, sender=4))
    assert (state.best_node, state.best_hops) == (4, 8)  # expired: any sender wins

    # data path: route present / absent, TTL cap
    assert mam_handle(state, 5_001, *data(seq=9, hops=2)) == 4
    assert mam_handle(RelayState(4, 1), 0, *data()) == DROP_NO_ROUTE
    assert mam_handle(state, 5_002, *data(hops=127)) == DROP_TTL
    _passed(2, "algorithm branch coverage")


# --- criterion 3: hand-traced oracle on the three-node line ------------------

def _line3_oracle(config, algorithm):
    """Exhaustive trace of the hub-relay-sensor line, derived by hand.

    Heartbeats: the hub transmits each round, both other nodes relay once
    (3 tx, 4 deliveries). Data: the far sensor's frame crosses two links under
    either algorithm; flooding adds one extra delivery (the relay's broadcast
    reaches the sensor again).
    """
    latency = config.latency_ms
    rounds = len(range(0, config.duration_ms, config.heartbeat_period_ms))
    gen_times = list(range(config.data_period_ms, config.duration_ms,
                           config.data_period_ms))
    arrivals = [t + 2 * latency for t in gen_times]
    assert all(a < config.duration_ms for a in arrivals), "oracle needs a clean horizon"
    sensor = config.sensor_ids[0]
    rx_per_data = 3 if algorithm is Algorithm.BTMR else 2
    return {
        "delivered": [(a, (sensor, i)) for i, a in enumerate(arrivals)],
        "tx_total": rounds * 3 + len(gen_times) * 2,
        "tx_data": len(gen_times) * 2,
        "rx_total": rounds * 4 + len(gen_times) * rx_per_data,
    }


def test_criterion_3_line3_matches_hand_computed_trace():
    start = time.perf_counter()
    config = load_scenario("line3")
    tx_data = {}
    for algorithm in (Algorithm.BTMR, Algorithm.MAM):
        world = World(replace(config, algorithm=algorithm))
        arrivals = record_arrivals(world)
        world.run_until(config.duration_ms)
        expected = _line3_oracle(config, algorithm)
        assert arrivals == expected["delivered"]
        report = world.report()
        assert report.tx_total == expected["tx_total"]
        assert report.tx_data == expected["tx_data"]
        assert report.rx_total == expected["rx_total"]
        assert report.unique_received == len(expected["delivered"])
        assert report.duplicate_received == 0
        tx_data[algorithm] = report.tx_data
    messages = len(_line3_oracle(config, Algorithm.MAM)["delivered"])
    assert tx_data[Algorithm.MAM] == 2 * messages
    assert tx_data[Algorithm.BTMR] >= tx_data[Algorithm.MAM]
    assert time.perf_counter() - start < 1.0
    _passed(3, "oracle equivalence on line3")


# --- criterion 4: dedup tracker equivalence at scale --------------------------

def test_criterion_4_tracker_equivalence_hundred_thousand_insertions():
    start = time.perf_counter()
    rng = random.Random(2024)
    hashmap = HashMapTracker()
    interval = IntervalTracker()
    seen = {}
    origins = 12
    for _ in range(100_000):
        origin = rng.randrange(origins)
        if rng.random() < 0.8:
            seq = rng.randrange(2_000)
        else:
            seq = 5_000 + rng.randrange(200) * 7
        key = (origin, seq)
        assert hashmap.record(key) is interval.record(key)
        seen.setdefault(origin, set()).add(seq)
    assert len(seen) >= 10
    assert (hashmap.unique_count, hashmap.duplicate_count) == \
        (interval.unique_count, interval.duplicate_count)
    assert hashmap.unique_count + hashmap.duplicate_count == 100_000
    for origin, seqs in seen.items():
        ordered = sorted(seqs)
        gaps = sum(1 for a, b in zip(ordered, ordered[1:]) if b - a > 1)
        assert len(interval.intervals(origin)) <= gaps + 1
    assert time.perf_counter() - start < 5.0
    _passed(4, "dedup tracker equivalence")


# --- criterion 5: route algorithm is duplicate-free unless faulted ------------

def test_criterion_5_routed_data_path_duplicate_free_and_fault_reproducible():
    for name in ("line3", "indoor10", "outdoor10"):
        config = replace(load_scenario(name), algorithm=Algorithm.MAM,
                         loss_prob=0.0)
        report = run(config)
        assert report.duplicate_received == 0, name
        assert report.unique_received > 0, name
    faulted = replace(load_scenario("line3"), algorithm=Algorithm.MAM,
                      fault_duplicate=True)
    report = run(faulted)
    assert report.duplicate_received > 0
    _passed(5, "duplicate-free routed data path")


# --- criterion 6: byte-identical reruns of shipped plans ----------------------

def test_criterion_6_plan_outputs_byte_identical(tmp_path):
    cases = [
        ("line3_quick", None),
        ("outdoor_comparison", [0.3]),  # shipped durations are demo scale
    ]
    for plan_name, durations in cases:
        outputs = []
        for tag in ("a", "b"):
            plan = load_plan(plan_name)
            if durations is not None:
                plan.durations_min = durations
                plan.repetitions = 1
                plan.seeds = None
            out_dir = tmp_path / f"{plan_name}_{tag}"
            run_plan(plan, out_dir=out_dir)
            outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert outputs[0] == outputs[1], plan_name
        assert any(name.endswith(".csv") for name in outputs[0])
        assert any(name.endswith(".json") for name in outputs[0])
    _passed(6, "deterministic plan outputs")


# --- criterion 7: commander session golden transcript --------------------------

def test_criterion_7_commander_session_golden_transcript():
    session = CommanderSession(World(load_scenario("line3")), settle_ms=2_500)
    for line in ["sim-reset", "set-mam", "sim-stats", "set-btmr", "sim-stats", "bogus"]:
        session.handle_line(line)
    transcript = "\n".join(session.transcript) + "\n"
    assert transcript == (DATA_DIR / "session_transcript.txt").read_text()
    _passed(7, "commander protocol transcript")


# --- criterion 8: reachability isolates the cut component ----------------------

def test_criterion_8_reachability_reports_exact_cut():
    start = time.perf_counter()

    def config(bridge_x):
        topology = [
            NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
            NodeSpec(1, 5.0, 0.0, Role.COMMANDER),
            NodeSpec(2, 10.0, 0.0, Role.SENSOR),
            NodeSpec(3, bridge_x, 0.0, Role.SENSOR),
            NodeSpec(4, 20.0, 0.0, Role.SENSOR),
            NodeSpec(5, 25.0, 0.0, Role.SENSOR),
        ]
        return ScenarioConfig(topology=topology, duration_ms=60_000,
                              radio_preset="ground",
                              heartbeat_period_ms=50_000, data_period_ms=50_000)

    bridged = check_reachability(World(config(15.0)), deadline_ms=2_000)
    assert bridged.missing == set()
    cut = check_reachability(World(config(100.0)), deadline_ms=2_000)
    assert cut.missing == {3, 4, 5}
    assert cut.acked == {0, 2}
    assert time.perf_counter() - start < 1.0
    _passed(8, "reachability cut detection")


# --- criterion 9: measured radio thresholds as model constants -----------------

def test_criterion_9_radio_thresholds():
    def delivers(distance, preset):
        config = ScenarioConfig(
            topology=[NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
                      NodeSpec(1, distance, 0.0, Role.SENSOR)],
            duration_ms=5_000, radio_preset=preset,
            heartbeat_period_ms=1_000, data_period_ms=1_000)
        world = World(config)
        world.run_until(config.duration_ms)
        return world.nodes[1].rx_count > 0

    assert delivers(5.0, "ground")
    assert not delivers(7.0, "ground")
    assert delivers(39.0, "elevated")
    assert not delivers(41.0, "elevated")
    _passed(9, "radio range thresholds")


# --- criterion 10: published absolute counts are fixtures, not targets ----------

def test_criterion_10_published_results_ship_as_fixtures_only():
    assert ("btmr", 5, 477.00, 9.54, 175.67, 20.03) in refdata.OUTDOOR_RESULTS
    assert ("mam", 15, 1458.00, 144.21, 536.67, 72.28) in refdata.OUTDOOR_RESULTS
    assert ("btmr", 15, 617, 90) in refdata.INDOOR_RESULTS
    assert ("mam", 60, 2682, 328) in refdata.INDOOR_RESULTS
    assert ("btmr", 3.33, 2992, 104.30) in refdata.SIMULATED_RESULTS
    assert ("mam", 3.33, 1498, 24.99) in refdata.SIMULATED_RESULTS
    assert len(refdata.SCALED_RESULTS) == 10
    assert refdata.FIELD_SERIES["btmr"][0] == (5, 477, 175)
    print("DECLARED: absolute unique/duplicate counts from the field and "
          "OMNET++ tables (and the Joule figures) are fixtures for formatting "
          "and scaling cross-checks, not simulator acceptance targets")
    _passed(10, "non-reproducible results declared")
