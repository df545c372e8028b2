"""Counts that follow from the radio graph alone.

In a static world without loss, whose queues and relay caches never fill and
whose run ends while no frame is in flight, flooding theory gives every total
of a run (Ni et al., MobiCom 1999: in simple flooding each node rebroadcasts a
frame once), and MAM's heartbeat flood gives each sensor a shortest-hop route.
The expected counts below come from a breadth-first search in plain Python
over the disc graph; nothing here comes from ``meshsim.simnet`` or
``meshsim.routing``, so the engine is checked against an oracle that shares no
code with it.

* **btmr.** Each node of the hub's component sends each heartbeat once. A
  reading is sent by its origin and by every node it reaches without passing
  through the hub, which consumes data. It is unique at the hub if one of those
  senders is the hub's neighbour, and each further such neighbour adds a duplicate.
* **MAM.** Heartbeats flood as under btmr. A reading of a sensor connected to
  the hub is sent once per hop of a shortest path; any other is dropped at its
  origin. The hub never hears a reading twice.
"""

import math
from collections import deque
from dataclasses import replace

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from meshsim import (RANGE_PRESETS, Algorithm, NodeSpec, Role, ScenarioConfig, World,
                     load_scenario)
from test_golden import grid25

RANGES_M = (6.0, 10.0, 15.0)


def neighbours(config):
    """The disc graph: node id -> the ids within ``radio_preset`` metres."""
    spots = {s.node: (s.x, s.y) for s in config.topology}
    range_m = RANGE_PRESETS.get(config.radio_preset, config.radio_preset)
    return {u: {v for v in spots if v != u and math.dist(spots[u], spots[v]) <= range_m}
            for u in spots}


def distances(graph, start, blocked=None):
    """Hop counts from ``start`` to every node it reaches without passing through ``blocked``."""
    hops = {start: 0}
    frontier = deque([start])
    while frontier:
        u = frontier.popleft()
        if u == blocked and u != start:
            continue
        for v in graph[u]:
            if v not in hops:
                hops[v] = hops[u] + 1
                frontier.append(v)
    return hops


def expected_totals(config):
    """``(tx_total, rx_total, tx_data, unique, duplicate)`` of a run in the oracle's regime."""
    graph = neighbours(config)
    hub = config.hub_id
    heartbeats = (config.duration_ms - 1) // config.heartbeat_period_ms + 1
    readings = (config.duration_ms - 1) // config.data_period_ms
    component = distances(graph, hub)
    tx = heartbeats * len(component)
    rx = heartbeats * sum(len(graph[v]) for v in component)
    tx_data = unique = duplicate = 0
    for sensor in config.sensor_ids:
        if config.algorithm is Algorithm.MAM:
            if sensor in component:
                tx_data += readings * component[sensor]
                unique += readings
            continue
        # the hub hears a reading but sends none of it
        senders = [v for v in distances(graph, sensor, blocked=hub) if v != hub]
        tx_data += readings * len(senders)
        rx += readings * sum(len(graph[v]) for v in senders)
        heard_by_hub = sum(hub in graph[v] for v in senders)
        if heard_by_hub:
            unique += readings
            duplicate += readings * (heard_by_hub - 1)
    if config.algorithm is Algorithm.MAM:
        rx += tx_data  # a unicast hop reaches its one next node
    return tx + tx_data, rx, tx_data, unique, duplicate


def run_totals(config):
    """Run ``config``; its report's totals, and whether each part of the oracle's regime held."""
    world = World(config)
    world.run_until(config.duration_ms)
    report = world.report()
    nodes = world.nodes.values()
    regime = {
        "no frame refused by a full queue": not any(n.tx_dropped for n in nodes),
        "no hop-limit drop": not any(n.drops["ttl"] for n in nodes),
        "no seen key evicted": all(len(n.relay.seen) < n.relay.cache_size for n in nodes),
        "no frame in flight at the end": all(n.radio_free_at < config.duration_ms
                                             for n in nodes),
    }
    return (report.tx_total, report.rx_total, report.tx_data, report.unique_received,
            report.duplicate_received), regime


def totals_in_regime(config):
    """The totals of a drawn run, which is rejected unless the whole regime held."""
    totals, regime = run_totals(config)
    for name, held in regime.items():
        event(f"{name}: {held}")
    assume(all(regime.values()))
    return totals


def totals_by_hand(config):
    """The totals of a hand-built run, which must hold the whole regime."""
    totals, regime = run_totals(config)
    assert all(regime.values()), regime
    return totals


@st.composite
def static_worlds(draw, algorithm):
    """2-25 nodes on a 40 m square, one of them the hub, range 6, 10 or 15 m, no loss,
    1 ms hops, room for 1,000 frames and keys, and a run that ends half a data period
    after its last reading, with every heartbeat on a reading's millisecond."""
    n = draw(st.integers(2, 25))
    hub = draw(st.integers(0, n - 1))
    place = st.floats(0.0, 40.0)
    topology = [NodeSpec(i, draw(place), draw(place),
                         Role.MOBILE_HUB if i == hub else Role.SENSOR) for i in range(n)]
    data_period_ms = draw(st.sampled_from([2_000, 3_000]))
    return ScenarioConfig(
        topology=topology, algorithm=algorithm, radio_preset=draw(st.sampled_from(RANGES_M)),
        latency_ms=1, relay_cache_size=1_000, tx_queue_capacity=1_000,
        data_period_ms=data_period_ms,
        heartbeat_period_ms=data_period_ms * draw(st.integers(1, 3)),
        duration_ms=data_period_ms * draw(st.integers(1, 4)) + data_period_ms // 2)


@settings(max_examples=300)
@given(static_worlds(Algorithm.BTMR))
def test_btmr_counts_follow_from_the_graph(config):
    expected = expected_totals(config)
    event(f"readings reach the hub: {expected[3] > 0}")
    assert totals_in_regime(config) == expected


@settings(max_examples=300)
@given(static_worlds(Algorithm.MAM))
def test_mam_counts_follow_from_the_graph(config):
    expected = expected_totals(config)
    event(f"readings reach the hub: {expected[3] > 0}")
    assert totals_in_regime(config) == expected


# --- by hand -----------------------------------------------------------------

def line3(algorithm):
    """Hub 0, commander 1 and sensor 2, 5 m apart on a ground radio, for 10 s: heartbeats
    at 0, 2, 4, 6 and 8 s and readings at 3, 6 and 9 s."""
    return replace(load_scenario("line3"), algorithm=algorithm)


def grid(algorithm):
    """The 5x5 grid, 5 m apart, hub at centre node 12, for 5.5 s with room for every frame
    and key: heartbeats at 0, 2 and 4 s and readings at 1-5 s."""
    return replace(grid25(), algorithm=algorithm, duration_ms=5_500,
                   relay_cache_size=1_000, tx_queue_capacity=1_000)


def test_line3_counts_by_hand():
    # 5 heartbeats x 3 senders; 3 readings x 2 senders (2, then 1), one copy each at the hub.
    # Each send is heard by every neighbour: a heartbeat 1 + 2 + 1 times, a reading 1 + 2
    assert totals_by_hand(line3(Algorithm.BTMR)) == (5 * 3 + 3 * 2, 5 * 4 + 3 * 3, 6, 3, 0)
    # the same heartbeats; each reading unicast over 2 hops, one reception each
    assert totals_by_hand(line3(Algorithm.MAM)) == (5 * 3 + 3 * 2, 5 * 4 + 3 * 2, 6, 3, 0)
    assert expected_totals(line3(Algorithm.BTMR)) == (21, 29, 6, 3, 0)
    assert expected_totals(line3(Algorithm.MAM)) == (21, 26, 6, 3, 0)


def test_grid_counts_by_hand():
    # 3 heartbeats x 25 senders, each of 40 links heard at both ends
    heartbeat_tx, heartbeat_rx = 3 * 25, 3 * 2 * 40
    # btmr: 24 sensors x 5 readings, each sent by all 24 sensors, whose 40 links minus the
    # hub's 4 have 2 ends among them, plus the hub's 4 ends; each of the hub's 4 neighbours
    # hands it a copy, one unique and 3 duplicates
    readings = 24 * 5
    btmr = (heartbeat_tx + readings * 24, heartbeat_rx + readings * (2 * 36 + 4),
            readings * 24, readings, readings * 3)
    assert totals_by_hand(grid(Algorithm.BTMR)) == btmr == expected_totals(grid(Algorithm.BTMR))
    # MAM: shortest paths to the centre of 1, 2, 3 and 4 hops for 4, 8, 8 and 4 sensors
    path_hops = 5 * (4 * 1 + 8 * 2 + 8 * 3 + 4 * 4)
    mam = (heartbeat_tx + path_hops, heartbeat_rx + path_hops, path_hops, readings, 0)
    assert totals_by_hand(grid(Algorithm.MAM)) == mam == expected_totals(grid(Algorithm.MAM))
