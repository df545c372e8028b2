import gc
import heapq
import itertools
import weakref
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
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
from meshsim import simnet
from meshsim.commander import CommandVerb
from meshsim.core import forwarded
from meshsim.routing import BROADCAST
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


def clear_events(world):
    """Drop every pending event: no millisecond FIFOs and no pending times."""
    world._fifos.clear()
    world._times.clear()


def next_event(world):
    """The ``(handler, args)`` that ``step`` applies next: the head of the earliest FIFO."""
    return world._fifos[world._times[0]][0]


def test_event_ties_pop_in_insertion_order():
    world = World(pair_config(5.0))
    clear_events(world)
    first = Message(MessageKind.DATA, origin=1, seq=0, hops=0, sender=1)
    second = Message(MessageKind.DATA, origin=1, seq=1, hops=0, sender=1)
    world.schedule(50, World._deliver, first, [world.nodes[0]])
    world.schedule(50, World._deliver, second, [world.nodes[0]])
    seen = []
    while world.pending():
        handler, args = next_event(world)
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
    clear_events(empty)
    assert not empty.step()
    assert before >= 2


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=12),
       st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=40))
# event 0 schedules event 2 at 5 ms while event 1 still waits there; event 2,
# the last at 5 ms, schedules event 3 there once that millisecond has emptied
@example(times=[5, 5], spawns=[[0], [], [0]])
def test_events_pop_in_the_order_of_a_time_tie_heap(times, spawns):
    """Event ``i``, when it runs, schedules one event per offset in ``spawns[i]``."""

    def children(event):
        return spawns[event] if event < len(spawns) else ()

    ids = itertools.count()
    reference = [(t, next(ids)) for t in times]  # (t, tie); the tie is the event's id
    heapq.heapify(reference)
    expected = []
    while reference:
        now, event = heapq.heappop(reference)
        expected.append((now, event))
        for offset in children(event):
            heapq.heappush(reference, (now + offset, next(ids)))

    ids = itertools.count()
    popped = []

    def handler(world, event):
        popped.append((world.now, event))
        for offset in children(event):
            world.schedule(world.now + offset, handler, next(ids))

    world = World(pair_config(5.0))
    clear_events(world)
    for t in times:
        world.schedule(t, handler, next(ids))
    while world.pending():
        left = world.pending()
        assert world.step()
        assert world.pending() == left - 1 + len(children(popped[-1][1]))
    assert not world.step()
    assert popped == expected


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
    world._fan_out(world.nodes[2], world.nodes[2].originate(MessageKind.DATA, b"x"), BROADCAST)
    assert world.pending() == before + 1
    assert world.step()
    assert received == [1, 3, 4]


def test_fan_out_that_loses_every_copy_schedules_nothing():
    world = World(line_of_four(loss_prob=0.999, rng_seed=5))
    world.run_until(1)
    before = world.pending()
    world._fan_out(world.nodes[2], world.nodes[2].originate(MessageKind.DATA, b"x"), BROADCAST)
    assert world.pending() == before


def test_tx_queue_overflow_drops_newest_and_counts():
    world = World(pair_config(5.0, tx_queue_capacity=2))
    node = world.nodes[0]
    msg = Message(MessageKind.DATA, origin=0, seq=0, hops=1, sender=0)
    attempts = 7
    accepted = sum(world.enqueue_tx(node, msg, BROADCAST) for _ in range(attempts))
    assert accepted == 2
    assert node.tx_dropped == attempts - accepted
    assert len(node.txq) == 2


def test_queue_wiped_by_a_reboot_still_sends_the_next_frame():
    world = World(pair_config(5.0))
    arrivals = record_arrivals(world)
    clear_events(world)
    node = world.nodes[1]
    world.enqueue_tx(node, node.originate(MessageKind.DATA, b"lost"), BROADCAST)
    node.reboot()  # wipes the queue before its dequeue fires
    assert world.step()
    assert node.tx_count == 0
    world.enqueue_tx(node, node.originate(MessageKind.DATA, b"sent"), BROADCAST)
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
    for t, (origin, seq) in arrivals:
        assert t >= (seq + 1) * config.data_period_ms + config.latency_ms


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
    assert world.nodes[1].relay.best_node == 0
    assert world.nodes[1].relay.best_hops == 0
    assert world.nodes[2].relay.best_node == 1
    assert world.nodes[2].relay.best_hops == 1


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


@pytest.mark.parametrize("config", [{}, None, "line3"])
def test_world_rejects_a_config_that_is_not_a_scenario_config(config):
    with pytest.raises(ConfigError, match="config: must be a ScenarioConfig"):
        World(config)


@pytest.mark.parametrize("limit_ms", [2500.5, True, "5", None])
def test_run_until_rejects_a_limit_that_is_not_an_integer(limit_ms):
    # events land on whole milliseconds, so the clock may not park between them
    world = World(pair_config(5.0))
    world.run_until(1_000)
    before = (world.pending(), world.now)
    with pytest.raises(ConfigError, match="limit_ms"):
        world.run_until(limit_ms)
    assert (world.pending(), world.now) == before


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


def scanned_position(waypoints, t):
    """A trace's position at ``t`` found by scanning the segments in order."""
    pts = waypoints
    if t <= pts[0].t_ms:
        return (pts[0].x, pts[0].y)
    if t >= pts[-1].t_ms:
        return (pts[-1].x, pts[-1].y)
    for a, b in zip(pts, pts[1:]):
        if t <= b.t_ms:
            break
    frac = (t - a.t_ms) / (b.t_ms - a.t_ms)
    return (a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))


@st.composite
def traces_and_times(draw):
    """1-50 waypoints at strictly increasing times, and times before, on, between and after them."""
    times = sorted(draw(st.lists(st.integers(0, 100_000), min_size=1, max_size=50,
                                 unique=True)))
    point = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    waypoints = [Waypoint(t, draw(point), draw(point)) for t in times]
    probes = [times[0] - 1, *times, times[-1] + 1]
    for a, b in zip(times, times[1:]):
        probes += [a + 1, (a + b) // 2, b - 1]
    probes += draw(st.lists(st.integers(-10, 100_010), max_size=10))
    return waypoints, probes


@settings(max_examples=200, derandomize=True, deadline=None)
@given(traces_and_times())
def test_mobility_position_equals_a_segment_scan(trace_and_times):
    waypoints, probes = trace_and_times
    trace = MobilityTrace(waypoints)
    for t in probes:
        assert trace.position(t) == scanned_position(waypoints, t)


def test_hub_position_follows_the_clock():
    # MAM keeps the run short enough to sweep every link after every event; by
    # 25 s the walking collector (0.22 m/s) has come into range of node 6
    world = World(replace(load_scenario("outdoor10"), algorithm=Algorithm.MAM))
    assert world.hub_moves
    links_seen = {u: set() for u in world.node_ids}

    def check():
        assert world.position(world.hub_id) == world.trace.position(world.now)
        assert world.nodes[world.hub_id].pos == world.position(world.hub_id)
        for u in world.node_ids:
            links = world.neighbors(u)
            assert links == [v for v in world.node_ids if v != u and world.in_range(u, v)]
            links_seen[u].add(tuple(links))

    check()
    for parked in (5_007, 12_345, 25_001):
        while world.now < parked - 1_000:
            world.step()
            check()
        # parks the clock between events, then the next event moves it on
        world.run_until(parked)
        check()
        world.step()
        check()
    for now in (900_000, 0, 450_000, 450_001, 450_000, 10**7, 3):
        world.now = now
        check()
    # node 6 took both of its stored lists, with the hub and without it
    assert {world.hub_id in links for links in links_seen[6]} == {True, False}


def test_duplicated_lossy_unicasts_match_the_pinned_report():
    # the two fan-outs of one duplicated unicast draw their loss in turn
    config = replace(load_scenario("indoor10"), algorithm=Algorithm.MAM, rng_seed=2,
                     duration_ms=20_000, fault_duplicate=True, loss_prob=0.3)
    rows = [(0, 0), (0, 235), (19, 32), (19, 0), (19, 26), (19, 103), (19, 8), (19, 0),
            (19, 0), (19, 28)]
    assert run(config).to_json_dict() == {
        "algorithm": "mam", "duration_ms": 20_000, "seed": 2,
        "unique_received": 133, "duplicate_received": 263, "total_received": 396,
        "tx_total": 1256, "rx_total": 1033, "tx_data": 1168,
        "per_node": {str(node): {"generated": generated, "relayed": relayed,
                                 "tx_dropped": 0, "restarts": 0}
                     for node, (generated, relayed) in enumerate(rows)}}


def hub_parked_at(config, x, y, waypoints):
    """``config`` with its hub's trace at (x, y): one waypoint, or two at the same point."""
    return replace(config, mobility=[Waypoint(1_000 * i, x, y) for i in range(waypoints)])


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_static_hub_links_match_a_re_tested_hub(algorithm):
    # the [nodes] row puts the hub at (1, 1); its one waypoint is across the grid
    config = replace(load_scenario("indoor10"), algorithm=algorithm, duration_ms=30_000)
    static = World(hub_parked_at(config, 10.0, 7.5, 1))
    retested = World(hub_parked_at(config, 10.0, 7.5, 2))
    assert not static.hub_moves and retested.hub_moves
    assert static.neighbors(static.hub_id) == [6, 7, 9]  # at its row: [1, 4]
    assert static.nodes[static.hub_id].pos == (10.0, 7.5)
    static.run_until(config.duration_ms)
    retested.run_until(config.duration_ms)
    assert static.report() == retested.report()
    assert static.report().unique_received > 0


def test_static_hub_broadcast_run_tests_no_link(monkeypatch):
    calls = []
    in_range = World.in_range

    def counting(world, u, v):
        calls.append((u, v))
        return in_range(world, u, v)

    monkeypatch.setattr(World, "in_range", counting)
    config = replace(load_scenario("indoor10"), duration_ms=30_000)
    assert config.algorithm is Algorithm.BTMR and config.mobility is None
    assert run(config).unique_received > 0
    assert calls == []
    # the same run with the hub on a trace re-tests its links, so the count works
    run(hub_parked_at(config, 1.0, 1.0, 2))
    assert calls


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


def relayed_frames(config, verb, at_ms):
    """Run ``config``, issuing ``verb`` at ``at_ms``; check and list what ``_relay`` queues.

    Every frame queued while a node relays must be ``forwarded(incoming, node.id)``,
    sent to the decision itself, ``BROADCAST`` or a node id; a drop reason queues
    nothing. Returns the ``(kind, broadcast)`` pairs of those frames.
    """
    world = World(config)
    relay, enqueue_tx = world._relay, world.enqueue_tx
    relaying = []  # [node, incoming frame, decision, dests queued] while World._relay runs
    queued = set()

    def spy_relay(node, message):
        relaying.append([node, message, None, []])
        relay(node, message)
        _, _, decision, dests = relaying.pop()
        assert decision is not None
        if isinstance(decision, str):
            assert dests == []
        else:
            assert dests == [decision]

    def spy_decision(decide):
        def decided(*args):
            relaying[-1][2] = decision = decide(*args)
            return decision
        return decided

    def spy_enqueue_tx(node, message, dest):
        if relaying:  # the hub queues its own heartbeats without relaying them
            relayer, incoming, _, dests = relaying[-1]
            assert node is relayer and message == forwarded(incoming, node.id)
            dests.append(dest)
            queued.add((message.kind, dest is BROADCAST))
        return enqueue_tx(node, message, dest)

    world._relay, world.enqueue_tx = spy_relay, spy_enqueue_tx
    decisions = simnet.btmr_relay, simnet.mam_handle
    simnet.btmr_relay, simnet.mam_handle = map(spy_decision, decisions)
    try:
        world.run_until(at_ms)
        world.issue_command(verb, issuer=world.node_ids[-1])
        world.run_until(config.duration_ms)
    finally:
        simnet.btmr_relay, simnet.mam_handle = decisions
    return queued


@settings(max_examples=40, derandomize=True, deadline=None)
@given(lossy_mam_runs(), st.sampled_from([CommandVerb.PING, CommandVerb.SIM_STATS,
                                          CommandVerb.SET_BTMR]), st.integers(0, 10_000))
def test_relays_queue_the_forward_of_the_incoming_frame(config, verb, at_ms):
    relayed_frames(config, verb, at_ms)


def test_relayed_frames_cover_every_decision():
    config = replace(load_scenario("line3"), algorithm=Algorithm.MAM)
    assert relayed_frames(config, CommandVerb.PING, 5_000) >= {
        (MessageKind.DATA, False), (MessageKind.HEARTBEAT, True),
        (MessageKind.COMMAND, True), (MessageKind.ACK, True)}
    config = replace(config, algorithm=Algorithm.BTMR)
    assert (MessageKind.DATA, True) in relayed_frames(config, CommandVerb.SIM_STATS, 5_000)
