import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim import (
    Algorithm,
    ConfigError,
    Message,
    MessageKind,
    MobilityTrace,
    NodeSpec,
    Role,
    ScenarioConfig,
    Waypoint,
    World,
    load_scenario,
    run,
)
from meshsim.simnet import RANGE_PRESETS
from connectivity import component
from recording import record_arrivals


def pair_config(distance, preset="ground", **overrides):
    kwargs = dict(
        topology=[NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
                  NodeSpec(1, distance, 0.0, Role.SENSOR)],
        duration_ms=5_000,
        radio_preset=preset,
        data_period_ms=1_000,
        heartbeat_period_ms=1_000,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


# --- mobility ----------------------------------------------------------------

def test_mobility_trace_clamps_and_interpolates():
    trace = MobilityTrace([Waypoint(1000, 0.0, 0.0), Waypoint(3000, 10.0, 20.0)])
    assert trace.position(0) == (0.0, 0.0)
    assert trace.position(1000) == (0.0, 0.0)
    assert trace.position(2000) == (5.0, 10.0)
    assert trace.position(3000) == (10.0, 20.0)
    assert trace.position(9999) == (10.0, 20.0)


def test_mobility_trace_multi_segment():
    trace = MobilityTrace([Waypoint(0, 0.0, 0.0), Waypoint(100, 10.0, 0.0),
                           Waypoint(300, 10.0, 40.0)])
    assert trace.position(50) == (5.0, 0.0)
    assert trace.position(200) == (10.0, 20.0)


@pytest.mark.parametrize("waypoints,problem", [
    ([], "mobility trace is empty"),
    ([Waypoint(0, 0.0, 0.0), Waypoint(100, 1.0, 0.0), Waypoint(100, 2.0, 0.0)],
     "mobility waypoint times must strictly increase"),
    ([Waypoint(200, 0.0, 0.0), Waypoint(100, 1.0, 0.0)],
     "mobility waypoint times must strictly increase"),
])
def test_mobility_trace_rejects_bad_waypoints(waypoints, problem):
    with pytest.raises(ConfigError, match=problem):
        MobilityTrace(waypoints)


def test_moving_hub_breaks_and_restores_links():
    # collector drives out of range (x > 6 m after t=1.2 s) and returns into
    # range on the way back (x < 6 m after t=28.8 s)
    config = pair_config(0.0, duration_ms=40_000, data_period_ms=1_000,
                         mobility=[Waypoint(0, 0.0, 0.0), Waypoint(10_000, 50.0, 0.0),
                                   Waypoint(20_000, 50.0, 0.0), Waypoint(30_000, 0.0, 0.0)])
    report = run(config)
    world = World(config)
    arrivals = record_arrivals(world)
    world.run_until(config.duration_ms)
    times = [t for t, _ in arrivals]
    assert any(t < 1_200 for t in times)
    assert not any(2_000 < t < 28_000 for t in times)
    assert any(t > 29_000 for t in times)
    assert report.unique_received == len(times)


# --- radio model ---------------------------------------------------------------

def test_range_presets():
    assert RANGE_PRESETS == {"ground": 6.0, "elevated": 40.0, "elevated-opposed": 32.0}


@pytest.mark.parametrize("distance,preset,delivers", [
    (5.0, "ground", True),
    (7.0, "ground", False),
    (39.0, "elevated", True),
    (41.0, "elevated", False),
    (31.0, "elevated-opposed", True),
    (33.0, "elevated-opposed", False),
])
def test_disc_radio_thresholds(distance, preset, delivers):
    world = World(pair_config(distance, preset))
    world.run_until(5_000)
    assert (world.nodes[1].rx_count > 0) is delivers


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="radio_preset"):
        World(pair_config(5.0, preset="underwater"))


def test_explicit_range_in_meters():
    world = World(pair_config(9.0, preset=10.0))
    world.run_until(3_000)
    assert world.nodes[1].rx_count > 0


def test_isolated_hub_broadcasts_into_the_void():
    world = World(pair_config(20.0))
    world.run_until(5_000)
    assert world.nodes[0].tx_count > 0
    assert world.nodes[1].rx_count == 0
    assert world.report().unique_received == 0


def test_link_loss_drops_a_share_of_frames():
    ideal = run(pair_config(5.0, duration_ms=60_000))
    lossy = run(pair_config(5.0, duration_ms=60_000, loss_prob=0.5, rng_seed=3))
    assert 0 < lossy.unique_received < ideal.unique_received


# --- engine mechanics ------------------------------------------------------------

def test_zero_duration_is_an_empty_run():
    report = run(pair_config(5.0, duration_ms=0))
    assert report.total_received == 0
    assert report.tx_total == 0 and report.rx_total == 0


def test_event_ties_pop_in_insertion_order():
    world = World(pair_config(5.0))
    world._heap.clear()
    first = Message(MessageKind.DATA, origin=1, seq=0, hops=0, sender=1)
    second = Message(MessageKind.DATA, origin=1, seq=1, hops=0, sender=1)
    world.schedule(50, World._deliver, first, [world.nodes[0]])
    world.schedule(50, World._deliver, second, [world.nodes[0]])
    seen = []
    while world.pending():
        _, _, handler, args = world._heap[0]
        world.step()
        if handler is World._deliver:
            seen.append(args[0].seq)
    assert seen == [0, 1]


def test_step_pops_exactly_one_event():
    world = World(pair_config(5.0))
    before = world.pending()
    assert world.step()
    assert world.now == 0
    empty = World(pair_config(5.0, duration_ms=1))
    empty._heap.clear()
    assert not empty.step()
    assert before >= 2


def line_of_four(**overrides):
    """Sensors 1-4 a metre apart, the hub out of everyone's range."""
    topology = [NodeSpec(0, 100.0, 0.0, Role.MOBILE_HUB)] + [
        NodeSpec(i, float(i), 0.0, Role.SENSOR) for i in range(1, 5)]
    return ScenarioConfig(topology=topology, duration_ms=10_000, data_period_ms=10_000,
                          **overrides)


def test_broadcast_fan_out_is_one_heap_entry(monkeypatch):
    received = []
    deliver = World._deliver

    def recording(world, message, receivers):
        received.extend(node.id for node in receivers)
        deliver(world, message, receivers)

    monkeypatch.setattr(World, "_deliver", recording)
    world = World(line_of_four())
    world.run_until(1)  # the hub's first heartbeat reaches nobody
    before = world.pending()
    world._fan_out(world.nodes[2], world.nodes[2].originate(MessageKind.DATA, b"x"), None)
    assert world.pending() == before + 1
    assert world.step()
    assert received == [1, 3, 4]


def test_fan_out_that_loses_every_copy_schedules_nothing():
    world = World(line_of_four(loss_prob=0.999, rng_seed=5))
    world.run_until(1)
    before = world.pending()
    world._fan_out(world.nodes[2], world.nodes[2].originate(MessageKind.DATA, b"x"), None)
    assert world.pending() == before


def test_tx_queue_overflow_drops_newest_and_counts():
    world = World(pair_config(5.0, tx_queue_capacity=2))
    node = world.nodes[0]
    msg = Message(MessageKind.DATA, origin=0, seq=0, hops=1, sender=0)
    attempts = 7
    accepted = sum(world.enqueue_tx(node, msg, None) for _ in range(attempts))
    assert accepted == 2
    assert node.tx_dropped == attempts - accepted
    assert len(node.txq) == 2


def test_queue_wiped_by_a_reboot_still_sends_the_next_frame():
    world = World(pair_config(5.0))
    arrivals = record_arrivals(world)
    world._heap.clear()
    node = world.nodes[1]
    world.enqueue_tx(node, node.originate(MessageKind.DATA, b"lost"), None)
    node.reboot()  # wipes the queue before its dequeue fires
    assert world.step()
    assert node.tx_count == 0
    world.enqueue_tx(node, node.originate(MessageKind.DATA, b"sent"), None)
    world.run_until(world.now + 100)
    assert node.tx_count == 1
    assert arrivals == [(10, (1, 1))]


def test_per_hop_latency_respected():
    config = pair_config(5.0, latency_ms=25, duration_ms=4_000, data_period_ms=1_000)
    world = World(config)
    arrivals = record_arrivals(world)
    world.run_until(config.duration_ms)
    assert [t for t, _ in arrivals] == [1_025, 2_025, 3_025]


def test_causality_deliveries_after_generation():
    config = pair_config(5.0, duration_ms=10_000)
    world = World(config)
    arrivals = record_arrivals(world)
    world.run_until(config.duration_ms)
    for t, key in arrivals:
        assert t >= (key.seq + 1) * config.data_period_ms + config.latency_ms


# --- whole-run properties ---------------------------------------------------------

def test_runs_are_deterministic():
    config = replace(load_scenario('indoor10'), duration_ms=15_000)
    a, b = run(config), run(config)
    assert a.to_json() == b.to_json()
    wa, wb = World(config), World(config)
    arrivals_a, arrivals_b = record_arrivals(wa), record_arrivals(wb)
    wa.run_until(config.duration_ms)
    wb.run_until(config.duration_ms)
    assert arrivals_a == arrivals_b


def test_different_seed_changes_lossy_run():
    config = replace(load_scenario('indoor10'), duration_ms=15_000)
    a = run(config)
    b = run(replace(config, rng_seed=config.rng_seed + 1))
    assert a.to_json() != b.to_json()


def test_flood_conservation_on_connected_ideal_network():
    config = replace(load_scenario('indoor10'), loss_prob=0.0, duration_ms=20_000)
    report = run(config)
    generated = sum(row["generated"] for row in report.per_node.values())
    assert report.unique_received == generated
    assert report.duplicate_received > 0


def test_route_transmission_economy():
    for name, duration in (("line3", 10_000), ("indoor10", 20_000), ("outdoor10", 30_000)):
        config = replace(load_scenario(name), loss_prob=0.0, duration_ms=duration)
        flood = run(config)
        routed = run(replace(config, algorithm=Algorithm.MAM))
        assert routed.tx_data <= flood.tx_data
        assert routed.duplicate_received == 0


def test_unique_counts_monotone_in_duration():
    for name in ("line3", "indoor10"):
        base = load_scenario(name)
        counts = [run(replace(base, duration_ms=d)).unique_received
                  for d in (5_000, 10_000, 20_000)]
        assert counts == sorted(counts)


def test_mam_routes_form_after_first_heartbeat_round():
    config = replace(load_scenario("line3"), algorithm=Algorithm.MAM)
    world = World(config)
    world.run_until(100)
    assert world.nodes[1].mam.best_node == 0
    assert world.nodes[1].mam.best_hops == 0
    assert world.nodes[2].mam.best_node == 1
    assert world.nodes[2].mam.best_hops == 1


def test_report_totals_are_consistent():
    report = run(replace(load_scenario('indoor10'), duration_ms=10_000))
    assert report.total_received == report.unique_received + report.duplicate_received
    assert report.tx_total >= 0 and report.rx_total >= 0


def test_interval_tracker_backend_matches_hashmap():
    base = replace(load_scenario('indoor10'), duration_ms=15_000)
    a = run(base)
    b = run(replace(base, tracker="interval"))
    assert (a.unique_received, a.duplicate_received) == \
        (b.unique_received, b.duplicate_received)


def test_finished_world_is_freed_without_the_cycle_collector():
    # a reference cycle (say, bound methods kept in the heap) would keep every
    # finished world of a campaign alive until the cyclic GC happened to run
    gc.disable()
    try:
        world = World(replace(load_scenario("outdoor10"), duration_ms=20_000))
        world.run_until(20_000)
        ref = weakref.ref(world)
        del world
        assert ref() is None
    finally:
        gc.enable()


def test_world_rejects_invalid_config_naming_field():
    config = pair_config(5.0)
    config.loss_prob = 2.0
    with pytest.raises(ConfigError, match="loss_prob"):
        World(config)


# --- derived connectivity -----------------------------------------------------------

def test_topology_connectivity_is_derived():
    world = World(ScenarioConfig(
        topology=[NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
                  NodeSpec(1, 5.0, 0.0, Role.SENSOR),
                  NodeSpec(2, 10.0, 0.0, Role.SENSOR),
                  NodeSpec(3, 50.0, 0.0, Role.SENSOR)],
        duration_ms=1_000, radio_preset=6.0))
    assert world.neighbors(0) == [1]
    assert world.neighbors(1) == [0, 2]
    assert component(world, 0) == {0, 1, 2}
    assert component(world, 3) == {3}
    assert world.in_range(1, 2) and not world.in_range(0, 2)


coordinate = st.one_of(st.integers(0, 20).map(float),
                       st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False))


radio_ranges = st.one_of(st.integers(1, 15).map(float), st.floats(0.5, 30.0))


@st.composite
def geometries(draw, node_counts=st.integers(2, 30), ranges=radio_ranges):
    """Random placements of some nodes, a hub anywhere in the id order, maybe moving."""
    n = draw(node_counts)
    base = draw(st.sampled_from([0, 1]))
    hub = draw(st.integers(base, base + n - 1))
    topology = [NodeSpec(i, draw(coordinate), draw(coordinate),
                         Role.MOBILE_HUB if i == hub else Role.SENSOR)
                for i in range(base, base + n)]
    mobility = None
    if draw(st.booleans()):
        times = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=5, unique=True))
        mobility = [Waypoint(t, draw(coordinate), draw(coordinate)) for t in sorted(times)]
    return ScenarioConfig(topology=draw(st.permutations(topology)), duration_ms=10_000,
                          radio_preset=draw(ranges), mobility=mobility)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(geometries(), st.lists(st.integers(0, 12_000), min_size=1, max_size=4))
def test_neighbors_match_a_full_range_sweep(config, times):
    world = World(config)
    for now in times:
        world.now = now
        for u in world.node_ids:
            assert world.neighbors(u) == [v for v in world.node_ids
                                          if v != u and world.in_range(u, v)]


@st.composite
def lossy_mam_runs(draw):
    """3-25 nodes on a ground or numeric range, up to 30% link loss, any seed, under MAM."""
    config = draw(geometries(st.integers(3, 25), st.one_of(st.just("ground"), radio_ranges)))
    return replace(config, algorithm=Algorithm.MAM, fault_duplicate=False,
                   loss_prob=draw(st.floats(0.0, 0.3)), rng_seed=draw(st.integers(0, 2**64)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(lossy_mam_runs())
def test_mam_collects_no_duplicates(config):
    # a unicast route forwards one copy of each frame, so the hub sees each at most once
    report = run(config)
    assert report.duplicate_received == 0
    assert report.unique_received <= sum(row["generated"] for row in report.per_node.values())
