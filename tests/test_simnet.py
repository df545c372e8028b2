import gc
import heapq
import inspect
import itertools
import math
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, event, example, given, settings
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
from meshsim import routing, simnet
from meshsim.commander import CommandVerb, NodeStats, encode_stats
from meshsim.metrics import HashMapTracker, IntervalTracker
from meshsim.core import NODE_COUNTERS
from meshsim.routing import BROADCAST, DROP_TTL
from meshsim.simnet import RANGE_PRESETS
from connectivity import component
from recording import record_arrivals
from test_golden import grid25


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
    (None, "mobility must be a list of Waypoint rows"),
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
    first = Message(MessageKind.DATA, origin=1, seq=0, hops=1, sender=1)
    second = Message(MessageKind.DATA, origin=1, seq=1, hops=1, sender=1)
    world.schedule(50, World._deliver, first, 1, 1, [world.nodes[0]])
    world.schedule(50, World._deliver, second, 1, 1, [world.nodes[0]])
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


@settings(max_examples=200)
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


def test_originate_and_stats_snapshot_build_what_the_constructors_build():
    world = World(line_of_four())
    node = world.nodes[2]
    frame = node.originate(MessageKind.DATA, b"x")
    assert type(frame) is Message and frame == Message(MessageKind.DATA, 2, 0, 1, 2, b"x")
    assert node.originate(MessageKind.HEARTBEAT) == Message(MessageKind.HEARTBEAT, 2, 1, 1, 2)
    world.run_until(25_000)
    node.tx_dropped, node.restarts = 4, 2
    assert node.generated and node.relayed and node.received
    snapshot = node.stats_snapshot()
    assert type(snapshot) is NodeStats
    assert snapshot == NodeStats(node=2, generated=node.generated, relayed=node.relayed,
                                 received=node.received, tx_dropped=4, restarts=2)


def test_hot_paths_read_no_enum_class_attribute():
    # ``Enum.MEMBER`` is a slow lookup on CPython 3.10/3.11; the per-frame and
    # per-command code compares against members bound once as module globals
    assert "CommandVerb" not in World._apply_command.__code__.co_names
    for tracker in (HashMapTracker, IntervalTracker):
        assert "Verdict" not in tracker.record.__code__.co_names
    for hot in (World._deliver, World._tx_dequeue, World._relay, routing.mam_handle):
        assert not {"MessageKind", "Algorithm"} & set(hot.__code__.co_names), hot.__name__
    # each event unpacks its frame once and reads the settings the world took
    # at construction, not ``Message`` fields or ``world.config`` one by one
    for hot in (World._deliver, World._tx_dequeue, World._fan_out, World.enqueue_tx,
                routing.mam_handle):
        named = {"config", "kind", "origin", "seq", "hops", "sender"}
        assert not named & set(hot.__code__.co_names), hot.__name__


def test_node_methods_never_touch_the_instance_dict():
    # CPython keeps a node's attributes inline; reading or writing ``__dict__``
    # (or ``vars``) materialises a dict per node and slows every per-frame access
    methods = [f for f in vars(simnet.SimNode).values() if inspect.isfunction(f)]
    assert simnet.SimNode.reset_stats in methods
    for method in methods:
        assert not {"__dict__", "vars"} & set(method.__code__.co_names), method.__name__


def test_broadcast_fan_out_is_one_heap_entry():
    world = World(line_of_four())
    world.run_until(1)  # the hub's first heartbeat reaches nobody
    node = world.nodes[2]
    before = world.pending()
    # the fan-out only names one copy's receivers; the transmit step schedules
    receivers = [world.nodes[i] for i in (1, 3, 4)]
    assert world._fan_out(node, BROADCAST) == receivers
    assert world.pending() == before
    message = node.originate(MessageKind.DATA, b"x")
    world.enqueue_tx(node, message, BROADCAST, 1)
    assert world.step()
    assert world.pending() == before + 1
    assert next_event(world) == (World._deliver, (message, 1, 2, receivers, None))
    assert world.step()
    assert [world.nodes[i].rx_count for i in (1, 2, 3, 4)] == [1, 0, 1, 1]


def test_fan_out_that_loses_every_copy_schedules_nothing():
    world = World(line_of_four(loss_prob=0.999, rng_seed=5))
    world.run_until(1)
    node = world.nodes[2]
    before = world.pending()
    assert world._fan_out(node, BROADCAST) == []
    world.enqueue_tx(node, node.originate(MessageKind.DATA, b"x"), BROADCAST, 1)
    assert world.step()
    assert world.pending() == before
    assert node.tx_count == 1 and not node.tx_scheduled


def queue_frames(world, node, dest, count):
    """Queue ``count`` new data frames at ``node`` for ``dest``, at hops 1; returns them."""
    frames = [node.originate(MessageKind.DATA, bytes([i])) for i in range(count)]
    for frame in frames:
        assert world.enqueue_tx(node, frame, dest, 1)
    return frames


@pytest.mark.parametrize("loss_prob", [0.0, 0.25])
@pytest.mark.parametrize("dest, draws", [(3, 1), (0, 0), (BROADCAST, 3)])
def test_fan_out_draws_once_per_receiver_in_range(loss_prob, dest, draws):
    # a unicast in range draws once and one out of range (the hub) not at all;
    # a broadcast draws once per stored link; a loss-free channel never draws
    world = World(line_of_four(loss_prob=loss_prob, rng_seed=11))
    node = world.nodes[2]
    assert len(world.links(node.id)) == 3
    world._fan_out(node, dest)
    expected = random.Random(11)
    for _ in range(draws if loss_prob else 0):
        expected.random()
    assert world.rng.getstate() == expected.getstate()


def test_a_transmission_that_reaches_nobody_schedules_its_next_frame_alone():
    world = World(line_of_four(loss_prob=0.999, rng_seed=5, latency_ms=7))
    world.run_until(1)
    node = world.nodes[2]
    before = world.pending()
    queue_frames(world, node, BROADCAST, 2)
    assert world.step()  # every copy of the first frame is lost; the second waits
    assert world.pending() == before + 1
    assert list(world._fifos[1 + 7]) == [(World._tx_dequeue, (node,))]
    assert node.tx_scheduled and node.radio_free_at == 8


def test_a_delivery_after_the_queue_emptied_carries_no_sender():
    world = World(line_of_four(latency_ms=7))
    world.run_until(1)
    node = world.nodes[2]
    first, = queue_frames(world, node, BROADCAST, 1)
    assert world.step()
    delivery = (World._deliver, (first, 1, 2, world.links(2), None))
    assert list(world._fifos[8]) == [delivery]
    assert not node.tx_scheduled
    # a frame queued before that delivery lands waits for the radio on an event of its own
    queue_frames(world, node, BROADCAST, 1)
    assert list(world._fifos[8]) == [delivery, (World._tx_dequeue, (node,))]
    world.run_until(9)
    assert node.tx_count == 2
    assert [world.nodes[i].rx_count for i in (1, 3, 4)] == [1, 1, 1]


def test_a_sender_rebooted_before_its_delivery_finds_its_queue_wiped():
    world = World(line_of_four())
    world.run_until(1)
    node = world.nodes[2]
    first, _ = queue_frames(world, node, BROADCAST, 2)
    assert world.step()
    assert next_event(world) == (World._deliver, (first, 1, 2, world.links(2), node))
    node.reboot()  # wipes the second frame before the first one lands
    assert world.step()
    assert [world.nodes[i].rx_count for i in (1, 3, 4)] == [1, 1, 1]
    assert node.tx_count == 0 and not node.tx_scheduled
    queue_frames(world, node, BROADCAST, 1)
    world.run_until(world.now + 1)
    assert node.tx_count == 1


def test_a_duplicated_unicast_is_one_delivery_that_names_its_receiver_per_copy():
    world = World(line_of_four(fault_duplicate=True))
    world.run_until(1)
    node = world.nodes[2]
    first, _ = queue_frames(world, node, 3, 2)
    assert world.step()
    assert list(world._fifos[11]) == [(World._deliver,
                                       (first, 1, 2, [world.nodes[3], world.nodes[3]], node))]
    assert node.tx_count == node.tx_data_count == 2


class LoggedWorld(World):
    """Logs each delivery as ``(now, receiver ids, frame, hops, transmitter)`` and each
    transmit step as ``(now, node id)``."""

    def __init__(self, config):
        self.log = []
        super().__init__(config)

    def schedule(self, t, handler, *args):
        # the engine schedules ``World``'s own handlers; run this class's instead
        if handler is World._deliver or handler is World._tx_dequeue:
            handler = getattr(type(self), handler.__name__)
        super().schedule(t, handler, *args)

    def _deliver(self, frame, hops, transmitter, receivers, sender=None):
        self.log.append((self.now, [n.id for n in receivers], frame, hops, transmitter))
        super()._deliver(frame, hops, transmitter, receivers, sender)
        if sender is not None:
            assert self.log[-1] == (self.now, sender.id)

    def _tx_dequeue(self, node):
        self.log.append((self.now, node.id))
        assert len(node.txq) == len(node.txq_dest) == len(node.txq_hops)
        super()._tx_dequeue(node)
        assert len(node.txq) == len(node.txq_dest) == len(node.txq_hops)


class TwoEventWorld(LoggedWorld):
    """The engine as it was: a transmission's delivery, then its sender's next transmit step, are
    events."""

    def _tx_dequeue(self, node):
        self.log.append((self.now, node.id))
        if not node.txq:
            node.tx_scheduled = False
            return
        frame, dest, hops = node.txq.popleft(), node.txq_dest.popleft(), node.txq_hops.popleft()
        copies = 1
        if frame.kind is MessageKind.DATA:
            if self.config.fault_duplicate and dest is not BROADCAST:
                copies = 2
            node.tx_data_count += copies
        node.tx_count += copies
        receivers = []  # one transmission's receivers, each copy's in turn
        for _ in range(copies):
            receivers += self._fan_out(node, dest)
        if receivers:
            self.schedule(self.now + self.config.latency_ms, World._deliver,
                          frame, hops, node.id, receivers)
        node.radio_free_at = self.now + self.config.latency_ms
        if node.txq:
            self.schedule(node.radio_free_at, World._tx_dequeue, node)
        else:
            node.tx_scheduled = False


@st.composite
def busy_runs(draw):
    """2-12 nodes packed for a ground radio, 0-3 hub waypoints, short queues, any
    loss (often none), latency and algorithm, maybe duplicated frames and reboot-all or
    sim-reset commands; returns the config and the ``(at_ms, verb, issuer)`` list.

    An issuer of ``None`` stands for the first node with frames waiting at
    ``at_ms`` or at the first millisecond after it that has one, so that a
    reboot often wipes the queue of a node whose frame is in flight.
    """
    n = draw(st.integers(2, 12))
    hub = draw(st.integers(0, n - 1))
    place = st.floats(0.0, 12.0)
    topology = [NodeSpec(i, draw(place), draw(place),
                         Role.MOBILE_HUB if i == hub else Role.SENSOR) for i in range(n)]
    times = sorted(draw(st.lists(st.integers(0, 3_000), max_size=3, unique=True)))
    config = ScenarioConfig(
        topology=topology, duration_ms=3_000,
        mobility=[Waypoint(t, draw(place), draw(place)) for t in times] or None,
        algorithm=draw(st.sampled_from(list(Algorithm))),
        loss_prob=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5))),
        fault_duplicate=draw(st.booleans()),
        tx_queue_capacity=draw(st.integers(1, 5)), latency_ms=draw(st.integers(1, 20)),
        data_period_ms=draw(st.integers(50, 1_000)),
        heartbeat_period_ms=draw(st.integers(200, 2_000)), rng_seed=draw(st.integers(0, 2**32)))
    commands = draw(st.lists(st.tuples(
        st.integers(0, 3_000), st.sampled_from([CommandVerb.REBOOT_ALL, CommandVerb.SIM_RESET]),
        st.one_of(st.none(), st.integers(0, n - 1))), max_size=3))
    return config, sorted(commands, key=lambda command: command[0])


def drive(world, config, commands):
    """Run ``world`` to the end of ``config``, issuing the ``busy_runs`` commands; its report."""
    nodes = world.nodes.values()
    for at_ms, verb, issuer in commands:
        world.run_until(at_ms)
        # both engines agree at every whole millisecond, so a wait stops at the same one
        while issuer is None and world.now < config.duration_ms:
            issuer = next((n.id for n in nodes if n.txq), None)
            if issuer is None:
                world.run_until(world.now + 1)
        if issuer is not None:
            world.issue_command(verb, issuer)
    world.run_until(config.duration_ms)
    return world.report()


def logged_run(world_class, config, commands):
    world = world_class(config)
    return drive(world, config, commands), world.log


@settings(max_examples=150)
@given(busy_runs())
def test_a_delivery_that_starts_the_next_frame_replays_the_two_event_engine(run_case):
    config, commands = run_case
    report, log = logged_run(LoggedWorld, config, commands)
    assert (report, log) == logged_run(TwoEventWorld, config, commands)


class LiveLinkWorld(LoggedWorld):
    """Tests every link live each time it is used, so no link to the hub is held and
    no stored list is read."""

    def links(self, u):
        return [self.nodes[v] for v in self.node_ids if v != u and self.in_range(u, v)]

    def _fan_out(self, node, dest):
        # a broadcast draws once per link in range, a unicast once if it is in range
        if dest is BROADCAST:
            in_range = self.links(node.id)
        else:
            in_range = [self.nodes[dest]] if self.in_range(node.id, dest) else []
        loss_prob, draw = self.loss_prob, self.rng.random
        return [n for n in in_range if loss_prob == 0.0 or draw() >= loss_prob]


@settings(max_examples=150)
@given(busy_runs())
def test_held_hub_links_replay_links_tested_live(run_case):
    # ``TwoEventWorld`` reads links as ``World`` does, holds and all, so it cannot check them
    config, commands = run_case
    event(f"hub walks: {World(config).hub_moves}")
    assert logged_run(LoggedWorld, config, commands) == logged_run(LiveLinkWorld, config,
                                                                   commands)


def test_tx_queue_overflow_drops_newest_and_counts():
    world = World(pair_config(5.0, tx_queue_capacity=2))
    node = world.nodes[0]
    msg = Message(MessageKind.DATA, origin=0, seq=0, hops=1, sender=0)
    attempts = 7
    accepted = sum(world.enqueue_tx(node, msg, BROADCAST, 1) for _ in range(attempts))
    assert accepted == 2
    assert node.tx_dropped == attempts - accepted
    assert len(node.txq) == len(node.txq_hops) == 2


def reception_counters(world):
    """Each node's counters, drop reasons and queue length, keyed ``(id, name)``."""
    counters = {}
    for nid, n in world.nodes.items():
        for counter in NODE_COUNTERS:
            counters[nid, counter.name] = getattr(n, counter.name)
        for reason, count in n.drops.items():
            counters[nid, "drops." + reason] = count
        counters[nid, "txq"] = len(n.txq)
    return counters


def queue_entry(node, i):
    """The ``i``-th entry of ``node``'s transmit queue, as ``(frame, decision, hops)``."""
    return node.txq[i], node.txq_dest[i], node.txq_hops[i]


def deliver_to(world, message, ids):
    """Hand ``message`` to the nodes ``ids``, heard at its ``hops`` from its ``sender``;
    the counters that changed, by how much."""
    before = reception_counters(world)
    world._deliver(message, message.hops, message.sender, [world.nodes[i] for i in ids])
    after = reception_counters(world)
    return {key: after[key] - before.get(key, 0)
            for key in after if after[key] != before.get(key, 0)}


def sent_frame(world, node):
    """Transmit ``node``'s next queued frame now; what goes out, as
    ``(frame, hops, transmitter)``."""
    world._tx_dequeue(node)
    handler, args = world._fifos[world.now + world.config.latency_ms][-1]
    assert handler is World._deliver
    return args[:3]


def test_each_frame_kind_is_consumed_or_relayed_once_per_receiver():
    # hub 0, commander 1, sensors 2-5, all in range; a queue holds one frame
    topology = [NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB), NodeSpec(1, 1.0, 0.0, Role.COMMANDER)]
    topology += [NodeSpec(i, float(i), 0.0, Role.SENSOR) for i in range(2, 6)]
    world = World(ScenarioConfig(topology=topology, duration_ms=10_000, tx_queue_capacity=1))
    clear_events(world)
    hub, commander, sensor = world.nodes[0], world.nodes[1], world.nodes[5]

    # data: received everywhere but at its origin; recorded at the hub, relayed elsewhere
    data = sensor.originate(MessageKind.DATA, b"r")
    assert deliver_to(world, data, [0, 2, 5]) == {
        (0, "rx_count"): 1, (0, "received"): 1,
        (2, "rx_count"): 1, (2, "received"): 1, (2, "relayed"): 1, (2, "txq"): 1,
        (5, "rx_count"): 1}
    assert world.tracker.unique_count == 1
    # the queue holds the frame its origin built, to leave one hop on
    assert queue_entry(world.nodes[2], -1) == (data, BROADCAST, 2)
    assert world.nodes[2].txq[-1] is data
    # the same frame again: a duplicate at the hub, a seen-drop at the relay
    assert deliver_to(world, data, [0, 2]) == {
        (0, "rx_count"): 1, (0, "received"): 1,
        (2, "rx_count"): 1, (2, "received"): 1, (2, "drops.seen"): 1}
    assert world.tracker.duplicate_count == 1
    # a new frame at a full queue is refused, and a refused forward is not relayed
    assert deliver_to(world, sensor.originate(MessageKind.DATA, b"s"), [2]) == {
        (2, "rx_count"): 1, (2, "received"): 1, (2, "tx_dropped"): 1}
    # the forward is that frame, sent one hop on by the relay
    assert sent_frame(world, world.nodes[2]) == (data, 2, 2)

    # a frame of the node's own is queued as originated, at hops 1, and goes out so
    own = sensor.originate(MessageKind.DATA, b"o")
    world._relay(sensor, own)
    assert queue_entry(sensor, -1) == (own, BROADCAST, 1)
    assert sent_frame(world, sensor) == (own, 1, 5)

    # a heartbeat counts only as a reception, and its forward is queued
    heartbeat = hub.originate(MessageKind.HEARTBEAT)
    assert deliver_to(world, heartbeat, [0, 3]) == {
        (0, "rx_count"): 1, (3, "rx_count"): 1, (3, "txq"): 1}
    assert queue_entry(world.nodes[3], -1) == (heartbeat, BROADCAST, 2)
    assert sent_frame(world, world.nodes[3]) == (heartbeat, 2, 3)

    # a stats report ends at the hub and is relayed by anyone else
    snapshot = world.nodes[4].stats_snapshot()
    report = world.nodes[4].originate(MessageKind.STATS_REPORT, encode_stats(snapshot))
    assert deliver_to(world, report, [0, 1]) == {
        (0, "rx_count"): 1, (1, "rx_count"): 1, (1, "txq"): 1}
    assert world.collected_stats == {4: snapshot}

    # an ack ends at the prober, which counts it only for its newest probe
    world.probe = (1, 7)
    ack = world.nodes[4].originate(MessageKind.ACK, simnet._ACK_PAYLOAD.pack(1, 7))
    assert deliver_to(world, ack, [1, 0]) == {
        (0, "rx_count"): 1, (0, "txq"): 1, (1, "rx_count"): 1}
    stale = world.nodes[3].originate(MessageKind.ACK, simnet._ACK_PAYLOAD.pack(1, 6))
    assert deliver_to(world, stale, [1]) == {(1, "rx_count"): 1}
    assert world.acked == {4}

    # a command is applied, then relayed under the algorithm it may have just set
    command = commander.originate(MessageKind.COMMAND, bytes([CommandVerb.SET_MAM]))
    assert deliver_to(world, command, [4]) == {(4, "rx_count"): 1, (4, "txq"): 1}
    assert world.nodes[4].algorithm is Algorithm.MAM
    assert queue_entry(world.nodes[4], -1) == (command, BROADCAST, 2)
    assert sent_frame(world, world.nodes[4]) == (command, 2, 4)

    # a reboot empties all three parts of the queue
    queue_frames(world, sensor, BROADCAST, 1)
    sensor.reboot()
    assert not sensor.txq and not sensor.txq_dest and not sensor.txq_hops


def test_frames_with_one_origin_and_seq_share_one_seen_entry():
    # the relay step keys a frame on (origin, seq) alone: another sender, hop
    # count, payload or kind under the same key is a repeat
    world = World(line_of_four())
    clear_events(world)
    frame = Message(MessageKind.DATA, origin=1, seq=4, hops=1, sender=1, payload=b"r")
    assert deliver_to(world, frame, [2]) == {
        (2, "rx_count"): 1, (2, "received"): 1, (2, "relayed"): 1, (2, "txq"): 1}
    for repeat in (frame._replace(hops=2, sender=3), frame._replace(hops=5),
                   frame._replace(payload=b"other")):
        assert deliver_to(world, repeat, [2]) == {
            (2, "rx_count"): 1, (2, "received"): 1, (2, "drops.seen"): 1}
    heartbeat = frame._replace(kind=MessageKind.HEARTBEAT, payload=b"")
    assert deliver_to(world, heartbeat, [2]) == {(2, "rx_count"): 1, (2, "drops.seen"): 1}
    assert list(world.nodes[2].relay.seen) == [(1, 4)]


def test_queue_wiped_by_a_reboot_still_sends_the_next_frame():
    world = World(pair_config(5.0))
    arrivals = record_arrivals(world)
    clear_events(world)
    node = world.nodes[1]
    world.enqueue_tx(node, node.originate(MessageKind.DATA, b"lost"), BROADCAST, 1)
    node.reboot()  # wipes the queue before its dequeue fires
    assert world.step()
    assert node.tx_count == 0
    world.enqueue_tx(node, node.originate(MessageKind.DATA, b"sent"), BROADCAST, 1)
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
    assert world.nodes[1].relay.best_hops == 1
    assert world.nodes[2].relay.best_node == 1
    assert world.nodes[2].relay.best_hops == 2


# --- one hop scale ---------------------------------------------------------------

def storm_grid(duration_ms):
    """A broadcast storm: btmr on a 10x10 ground grid 5 m apart, the hub in a corner, a
    20-key relay cache that thrashes and 200-frame queues that overflow."""
    topology = [NodeSpec(i, 5.0 * (i % 10), 5.0 * (i // 10),
                         Role.MOBILE_HUB if i == 0 else Role.SENSOR) for i in range(100)]
    return ScenarioConfig(topology=topology, duration_ms=duration_ms, relay_cache_size=20,
                          tx_queue_capacity=200, heartbeat_period_ms=2_000,
                          data_period_ms=1_000, latency_ms=10)


def test_a_storm_queues_and_sends_only_the_frames_their_origins_built(monkeypatch):
    built = {}
    originate = simnet.SimNode.originate

    def spy_originate(node, kind, payload=b""):
        frame = originate(node, kind, payload)
        built[frame.origin, frame.seq] = frame
        return frame

    monkeypatch.setattr(simnet.SimNode, "originate", spy_originate)
    world = LoggedWorld(storm_grid(2_500))
    world.run_until(2_500)
    # mid-storm, each queued entry of a reading is the one frame its origin built
    queued = Counter()
    for node in world.nodes.values():
        for frame in node.txq:
            assert frame is built[frame.origin, frame.seq]
            queued[frame.origin, frame.seq] += 1
    key, entries = queued.most_common(1)[0]
    assert built[key].kind is MessageKind.DATA and entries >= 10
    # a relay sends the frame one hop further than it heard it; its origin sends it at hops 1
    heard, relayed = set(), 0
    for _, receivers, frame, hops, transmitter in (e for e in world.log if len(e) == 5):
        key = (frame.origin, frame.seq)
        assert frame is built[key]
        if transmitter == frame.origin:
            assert hops == 1
        else:
            assert (transmitter, key, hops - 1) in heard
            relayed += 1
        heard.update((receiver, key, hops) for receiver in receivers)
    assert relayed


def test_every_originated_kind_is_queued_at_hops_1():
    world = World(load_scenario("line3"))
    enqueue_tx, originated = world.enqueue_tx, set()

    def spy_enqueue_tx(node, message, dest, hops):
        # no node relays a frame of its own, so only a node's own frames carry its id
        if message.origin == node.id:
            originated.add((message.kind, message.hops, message.sender == node.id, hops))
        return enqueue_tx(node, message, dest, hops)

    world.enqueue_tx = spy_enqueue_tx
    for verb in (CommandVerb.PING, CommandVerb.SIM_STATS):
        world.run_until(world.now + 5_000)
        world.issue_command(verb)
    world.run_until(world.now + 5_000)
    assert originated == {(kind, 1, True, 1) for kind in MessageKind}


def test_a_heartbeat_and_a_data_frame_stop_after_the_same_number_of_relays(monkeypatch):
    # hub 0 and the data's origin at the two ends of a line of MAX_HOPS + 1 relays
    max_hops = 4
    monkeypatch.setattr(routing, "MAX_HOPS", max_hops)
    far = max_hops + 2
    topology = [NodeSpec(i, 5.0 * i, 0.0, Role.SENSOR if i else Role.MOBILE_HUB)
                for i in range(far + 1)]
    config = ScenarioConfig(topology=topology, duration_ms=1_000,
                            heartbeat_period_ms=10_000, data_period_ms=10_000)
    world = World(config)
    world.schedule(0, World._generate_data, world.nodes[far])  # the one data frame
    world.run_until(config.duration_ms)
    relays = world.nodes.values()
    heartbeat = [n.id for n in relays if n.id != 0 and n.tx_count > n.tx_data_count]
    data = [n.id for n in relays if n.relayed]
    assert heartbeat == list(range(1, max_hops))
    assert data == list(range(far - max_hops + 1, far))
    # the relay MAX_HOPS hops away from each origin drops the frame
    assert [n.id for n in relays if n.drops[DROP_TTL]] == [far - max_hops, max_hops]


class ZeroHopHeartbeatWorld(World):
    """The engine with the hub's heartbeats queued at hops 0, a count of relays rather
    than of transmissions; ``heartbeat_hops`` is the most any heartbeat delivery carried."""

    def __init__(self, config):
        self.heartbeat_hops = 0
        super().__init__(config)

    def schedule(self, t, handler, *args):
        if handler is World._emit_heartbeat:
            handler = ZeroHopHeartbeatWorld._emit_heartbeat
        elif handler is World._deliver and args[0].kind is MessageKind.HEARTBEAT:
            self.heartbeat_hops = max(self.heartbeat_hops, args[1])
        super().schedule(t, handler, *args)

    def _emit_heartbeat(self, hub):
        self.enqueue_tx(hub, hub.originate(MessageKind.HEARTBEAT), BROADCAST, 0)
        self.schedule(self.now + self.heartbeat_period_ms, World._emit_heartbeat, hub)


@settings(max_examples=150)
@given(busy_runs(), st.one_of(st.just(routing.MAX_HOPS), st.integers(3, 6)))
def test_heartbeats_sent_at_hops_1_change_no_report_below_the_hop_cap(run_case, max_hops):
    # one more hop on every heartbeat moves only the relay that the cap stops;
    # a small cap makes some runs reach it, and ``event`` counts those rejected
    config, commands = run_case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "MAX_HOPS", max_hops)
        zero_hop = ZeroHopHeartbeatWorld(config)
        report = drive(zero_hop, config, commands)
        reached = zero_hop.heartbeat_hops >= max_hops - 1
        event(f"a heartbeat reached MAX_HOPS - 1: {reached}")
        assume(not reached)
        assert drive(World(config), config, commands) == report


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


@settings(max_examples=60)
@given(busy_runs())
def test_a_run_leaves_nothing_for_the_cycle_collector(run_case):
    # ``run_until`` holds the cyclic GC off on this premise: events, frames,
    # queues and relay state form no reference cycles, through reboots too
    config, commands = run_case
    gc.collect()
    gc.disable()
    try:
        world = World(config)
        report = drive(world, config, commands)
        del world, report
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_until_leaves_the_cycle_collector_as_it_found_it(enabled):
    was_enabled = gc.isenabled()
    world = World(line_of_four())
    seen = []

    def fail(world):
        raise RuntimeError("handler failed")

    world.schedule(5, lambda world: seen.append(gc.isenabled()))
    world.schedule(50, fail)
    (gc.enable if enabled else gc.disable)()
    try:
        world.run_until(10)
        assert (seen, gc.isenabled()) == ([False], enabled)
        with pytest.raises(RuntimeError, match="handler failed"):
            world.run_until(100)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_world_rejects_invalid_config_naming_field():
    config = pair_config(5.0)
    config.loss_prob = 2.0
    with pytest.raises(ConfigError, match="loss_prob"):
        World(config)


def test_world_reads_its_settings_once_at_construction():
    # a change to ``world.config`` after construction skips ``validate``, so
    # the run must not see it
    config = replace(load_scenario("indoor10"), algorithm=Algorithm.MAM, loss_prob=0.15,
                     duration_ms=20_000)
    world = World(replace(config))
    changed = world.config
    changed.loss_prob, changed.latency_ms, changed.tx_queue_capacity = 0.9, 500, 1
    changed.heartbeat_period_ms, changed.data_period_ms = 300, 7
    changed.fault_duplicate = True
    world.run_until(config.duration_ms)
    assert world.report() == run(config)


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
    assert [n.id for n in world.links(0)] == [1]
    assert [n.id for n in world.links(1)] == [0, 2]
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


def swept_links(config, now):
    """Each node's linked ids at ``now``, swept over the config's own coordinates."""
    preset = config.radio_preset
    range_m = RANGE_PRESETS[preset] if isinstance(preset, str) else preset
    pos = {spec.node: (spec.x, spec.y) for spec in config.topology}
    if config.mobility:
        pos[config.hub_id] = scanned_position(config.mobility, now)
    ids = sorted(pos)
    return {u: [v for v in ids if v != u and math.hypot(pos[u][0] - pos[v][0],
                                                        pos[u][1] - pos[v][1]) <= range_m]
            for u in ids}


@st.composite
def far_geometries(draw):
    """``geometries`` shifted up to 1e9 m from the origin. In about half of them the hub
    walks a trace of 2-5 waypoints drawn point by point, in about a quarter its trace of
    2-4 waypoints stands still at one point, and the rest keep the drawn trace."""
    config = draw(geometries())
    dx, dy = (draw(st.one_of(st.just(0.0), st.integers(-10**9, 10**9).map(float),
                             st.floats(-1e9, 1e9))) for _ in range(2))
    mobility = config.mobility
    hub = draw(st.sampled_from(["as drawn", "walks", "stands still"]))
    if hub == "walks":
        times = draw(st.lists(st.integers(0, 10_000), min_size=2, max_size=5, unique=True))
        mobility = [Waypoint(t, draw(coordinate), draw(coordinate)) for t in sorted(times)]
    elif hub == "stands still":
        times = draw(st.lists(st.integers(0, 10_000), min_size=2, max_size=4, unique=True))
        x, y = draw(coordinate), draw(coordinate)
        mobility = [Waypoint(t, x, y) for t in sorted(times)]
    return replace(config, topology=[s._replace(x=s.x + dx, y=s.y + dy) for s in config.topology],
                   mobility=mobility and [Waypoint(w.t_ms, w.x + dx, w.y + dy) for w in mobility])


# A failure is reported as found, unshrunk: shrinking one took 109 s, nearly all of
# it Hypothesis's own work over the hundreds of choices a world of up to 30 nodes
# draws. The range-edge cases below are the small examples.
@settings(max_examples=200, phases=set(Phase) - {Phase.explain, Phase.shrink})
@given(far_geometries(), st.lists(st.integers(0, 20_000), min_size=2, max_size=12))
def test_links_match_a_full_range_sweep(config, times):
    # every trace ends by 10 s, so later times lie past it; unsorted times step back,
    # and each time after the first reads the holds that earlier times set
    world = World(config)
    points = {(w.x, w.y) for w in config.mobility or ()}
    event("hub " + ("walks" if len(points) > 1 else "stands still" if world.hub_moves
                    else "stays put"))
    for now in times:
        world.now = now
        swept = swept_links(config, now)
        for u in world.node_ids:
            assert [n.id for n in world.links(u)] == swept[u]
            assert [v for v in world.node_ids if v != u and world.in_range(u, v)] == swept[u]


@st.composite
def short_walks(draw):
    """1-4 fixed sensors and a hub, anywhere in the id order, that walks 2-5 waypoints
    within 2 s."""
    n = draw(st.integers(2, 5))
    hub = draw(st.integers(0, n - 1))
    times = draw(st.lists(st.integers(0, 2_000), min_size=2, max_size=5, unique=True))
    return ScenarioConfig(
        topology=[NodeSpec(i, draw(coordinate), draw(coordinate),
                           Role.MOBILE_HUB if i == hub else Role.SENSOR) for i in range(n)],
        duration_ms=2_000, radio_preset=draw(radio_ranges),
        mobility=[Waypoint(t, draw(coordinate), draw(coordinate)) for t in sorted(times)])


@settings(max_examples=20)
@given(short_walks())
def test_links_match_a_sweep_at_every_millisecond(config):
    # forwards, then backwards: each read follows the holds the millisecond beside it
    # left, so a hold that outlasts the hub's crossing of the range edge shows
    world = World(config)
    for now in [*range(2_001), *range(2_000, -1, -1)]:
        world.now = now
        swept = swept_links(config, now)
        for u in world.node_ids:
            assert [n.id for n in world.links(u)] == swept[u]


def test_links_at_the_range_boundary():
    # a 3-4-5 triangle puts the hub exactly one range from sensor 1, and a link
    # holds at exactly the range; sensor 2 is a hair beyond it from sensor 1
    topology = [NodeSpec(0, 3.0, 4.0, Role.MOBILE_HUB), NodeSpec(1, 0.0, 0.0, Role.SENSOR),
                NodeSpec(2, 0.0, 5.0 + 1e-9, Role.SENSOR)]
    static = World(ScenarioConfig(topology=topology, duration_ms=1_000, radio_preset=5.0))
    assert not static.hub_moves
    assert [n.id for n in static.links(1)] == [0]
    assert [n.id for n in static.links(0)] == [1, 2]
    assert static.in_range(0, 1) and static.in_range(1, 0)
    assert not static.in_range(1, 2)
    # walking (0, 0) -> (6, 8) over a second, the hub is at (3, 4) at 500 ms
    walking = World(ScenarioConfig(topology=topology, duration_ms=1_000, radio_preset=5.0,
                                   mobility=[Waypoint(0, 0.0, 0.0), Waypoint(1_000, 6.0, 8.0)]))
    walking.now = 500
    assert walking.in_range(1, 0) and [n.id for n in walking.links(1)] == [0]
    assert walking.nodes[0].pos == (3.0, 4.0)
    walking.now = 501
    assert not walking.in_range(1, 0) and walking.links(1) == []


@pytest.mark.parametrize("offset", [0.0, 1e9])
@pytest.mark.parametrize("path, in_range_ms", [
    # on the tangent y = 5 the hub touches the range only at 100 ms
    ([(-100.0, 5.0), (100.0, 5.0)], range(100, 101)),
    # head-on it is exactly one range from sensor 1 at 95 ms and at 105 ms
    ([(-100.0, 0.0), (100.0, 0.0)], range(95, 106)),
], ids=["tangent", "head-on"])
def test_held_hub_links_at_the_range_edge(offset, path, in_range_ms):
    # sensor 1 at (offset, offset), 5 m range; the hub walks at 1 m/ms from 0 to 200 ms
    (ax, ay), (bx, by) = path
    world = World(ScenarioConfig(
        topology=[NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
                  NodeSpec(1, offset, offset, Role.SENSOR)],
        duration_ms=1_000, radio_preset=5.0,
        mobility=[Waypoint(0, ax + offset, ay + offset), Waypoint(200, bx + offset, by + offset)]))
    hub, sensor = world.nodes[0], world.nodes[1]
    # forwards, then backwards, then past the trace's end
    for now in [*range(0, 201), *range(200, -1, -1), 10**6]:
        world.now = now
        linked = now in in_range_ms
        assert [n.id for n in world.links(1)] == ([0] if linked else [])
        assert [n.id for n in world.links(0)] == ([1] if linked else [])
        assert world._fan_out(sensor, 0) == ([hub] if linked else [])
        assert world._fan_out(hub, 1) == ([sensor] if linked else [])


@pytest.mark.parametrize("offset", [0.0, 1e9])
def test_a_static_hub_reads_its_links_at_the_range_edge_from_stored_lists(monkeypatch, offset):
    # sensor 1 is exactly one 5 m range from the hub, sensor 2 half a metre beyond it
    world = World(ScenarioConfig(
        topology=[NodeSpec(0, offset, offset, Role.MOBILE_HUB),
                  NodeSpec(1, offset + 3.0, offset + 4.0, Role.SENSOR),
                  NodeSpec(2, offset, offset + 5.5, Role.SENSOR)],
        duration_ms=1_000, radio_preset=5.0))
    assert not world.hub_moves
    hub, near, far = world.nodes.values()
    holds = [n.hub_hold for n in world.nodes.values()]
    calls = count_in_range(monkeypatch)
    for now in [0, 500, 10**6, 3]:
        world.now = now
        assert world._fan_out(near, 0) == [hub] and world._fan_out(hub, 1) == [near]
        assert world._fan_out(far, 0) == [] and world._fan_out(hub, 2) == []
        assert [n.id for n in world.links(0)] == [1]
        assert [n.id for n in world.links(1)] == [0, 2] and [n.id for n in world.links(2)] == [1]
    # no link was tested live, and no hold was written
    assert calls == []
    assert [n.hub_hold for n in world.nodes.values()] == holds
    assert hub.pos == (offset, offset)


def test_a_held_hub_link_allows_for_rounding_far_from_the_origin():
    # 1e9 m out, an x coordinate is a multiple of 2**-23 m. At 1 ms the trace puts the
    # hub at 1e9 + 1/3 rounded up by 4e-8 m, and the range is the distance from there,
    # so the live test finds a link that the exact distance would miss. A slack that
    # ignores the coordinates' magnitude holds the 0 ms answer, out of range, past it.
    x = 1e9
    hub_x = x + 1 / 3  # the trace's position at 1 ms
    range_m = (x + 5.5) - hub_x
    assert Fraction(x + 5.5) - Fraction(x) - Fraction(1, 3) > Fraction(range_m)
    world = World(ScenarioConfig(
        topology=[NodeSpec(0, x, x, Role.MOBILE_HUB), NodeSpec(1, x + 5.5, x, Role.SENSOR)],
        duration_ms=10, radio_preset=range_m,
        mobility=[Waypoint(0, x, x), Waypoint(3, x + 1.0, x)]))
    assert world.links(1) == []
    world.now = 1
    assert [n.id for n in world.links(1)] == [0]
    assert world.nodes[0].pos == (hub_x, x)


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


@settings(max_examples=200)
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
        for u in world.node_ids:
            links = [n.id for n in world.links(u)]
            assert links == [v for v in world.node_ids if v != u and world.in_range(u, v)]
            links_seen[u].add(tuple(links))
        # the range tests above moved the hub to the clock
        assert world.nodes[world.hub_id].pos == world.trace.position(world.now)

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


def test_nodes_run_in_id_order_and_only_a_range_test_with_the_hub_moves_it():
    # the [nodes] rows out of id order; the hub walks from (0, 0) to (100, 0) over 10 s
    world = World(ScenarioConfig(
        topology=[NodeSpec(2, 10.0, 0.0, Role.SENSOR), NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
                  NodeSpec(3, 15.0, 0.0, Role.SENSOR), NodeSpec(1, 5.0, 0.0, Role.SENSOR)],
        duration_ms=10_000, mobility=[Waypoint(0, 0.0, 0.0), Waypoint(10_000, 100.0, 0.0)]))
    assert list(world.nodes) == world.node_ids == [0, 1, 2, 3]
    assert [n.id for n in world.nodes.values()] == [0, 1, 2, 3]
    hub = world.nodes[0]
    assert world.hub_moves and hub.pos == (0.0, 0.0)
    world.now = 1_000
    assert world.in_range(1, 2) and world.in_range(3, 2)
    assert hub.pos == (0.0, 0.0)  # a test between two fixed nodes leaves the hub where it was
    assert world.in_range(0, 2)
    assert hub.pos == world.trace.position(1_000) == (10.0, 0.0)
    world.now = 2_000
    assert not world.in_range(1, 3)
    assert hub.pos == (10.0, 0.0)
    assert world.in_range(3, 0)
    assert hub.pos == world.trace.position(2_000) == (20.0, 0.0)


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
    assert [n.id for n in static.links(static.hub_id)] == [6, 7, 9]  # at its row: [1, 4]
    assert static.nodes[static.hub_id].pos == (10.0, 7.5)
    static.run_until(config.duration_ms)
    retested.run_until(config.duration_ms)
    assert static.report() == retested.report()
    assert static.report().unique_received > 0


def count_in_range(monkeypatch):
    """From now on, every ``World.in_range`` call appends its ``(u, v)`` to the list returned."""
    calls = []
    in_range = World.in_range

    def counting(world, u, v):
        calls.append((u, v))
        return in_range(world, u, v)

    monkeypatch.setattr(World, "in_range", counting)
    return calls


@pytest.mark.parametrize("loss_prob", [0.0, 0.15])
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_a_static_world_tests_no_link_live(monkeypatch, algorithm, loss_prob):
    # broadcasts and unicasts, to the hub and between sensors, read stored lists
    calls = count_in_range(monkeypatch)
    config = replace(load_scenario("indoor10"), algorithm=algorithm, loss_prob=loss_prob,
                     duration_ms=30_000)
    assert config.mobility is None
    assert run(config).unique_received > 0
    assert calls == []
    # the same run with the hub on a trace re-tests its links, so the count works
    run(hub_parked_at(config, 1.0, 1.0, 2))
    assert calls


def test_a_walking_hub_run_tests_only_links_to_the_hub(monkeypatch):
    # a unicast between two fixed nodes reads their stored lists, even while the hub walks
    calls = count_in_range(monkeypatch)
    config = replace(load_scenario("outdoor10"), algorithm=Algorithm.MAM, duration_ms=60_000)
    assert World(config).hub_moves
    assert run(config).unique_received > 0
    assert calls and all(config.hub_id in call for call in calls)


@pytest.mark.parametrize("config", [
    replace(grid25(), algorithm=Algorithm.MAM, fault_duplicate=True),
    replace(load_scenario("outdoor10"), algorithm=Algorithm.MAM, fault_duplicate=True,
            duration_ms=60_000),
], ids=["static-hub-grid", "outdoor10"])
def test_every_transmission_takes_its_receivers_from_fan_out(monkeypatch, config):
    # loss-free broadcasts too: one call per copy, so two for a duplicated data unicast
    assert config.loss_prob == 0.0
    fan_outs, sent = [], Counter()
    fan_out, tx_dequeue = World._fan_out, World._tx_dequeue

    def counting_fan_out(world, node, dest):
        fan_outs.append(node.id)
        return fan_out(world, node, dest)

    def counted_tx_dequeue(world, node):
        # with no reboot, a transmit step always finds a frame queued
        broadcast, before = node.txq_dest[0] is BROADCAST, len(fan_outs)
        tx_dequeue(world, node)
        sent[broadcast, len(fan_outs) - before] += 1

    monkeypatch.setattr(World, "_fan_out", counting_fan_out)
    monkeypatch.setattr(World, "_tx_dequeue", counted_tx_dequeue)
    report = run(config)
    assert set(sent) == {(True, 1), (False, 2)}
    assert len(fan_outs) == report.tx_total


@pytest.mark.parametrize("config", [
    grid25(),
    replace(load_scenario("outdoor10"), duration_ms=60_000),
], ids=["static-hub-grid", "outdoor10"])
def test_a_run_leaves_the_stored_links_as_built(config):
    # a loss-free broadcast hands the stored list itself to every receiver
    assert config.loss_prob == 0.0
    world = World(config)
    world.run_until(config.duration_ms)
    assert world.report().rx_total > 0
    fresh = World(config)
    # a walking hub's links differ over time, and each time picks stored lists
    for now in range(0, config.duration_ms + 1, 2_000):
        world.now = fresh.now = now
        for u in world.node_ids:
            links = world.links(u)
            assert all(n is world.nodes[n.id] for n in links)
            assert [n.id for n in links] == [n.id for n in fresh.links(u)]


@st.composite
def lossy_mam_runs(draw):
    """3-25 nodes on a ground or numeric range, up to 30% link loss, any seed, under MAM."""
    config = draw(geometries(st.integers(3, 25), st.one_of(st.just("ground"), radio_ranges)))
    return replace(config, algorithm=Algorithm.MAM, fault_duplicate=False,
                   loss_prob=draw(st.floats(0.0, 0.3)), rng_seed=draw(st.integers(0, 2**64)))


@settings(max_examples=100)
@given(lossy_mam_runs())
def test_mam_collects_no_duplicates(config):
    # a unicast route forwards one copy of each frame, so the hub sees each at most once
    report = run(config)
    assert report.duplicate_received == 0
    assert report.unique_received <= sum(row["generated"] for row in report.per_node.values())


class SendingWorld(LoggedWorld):
    """Checks each transmission against the entry it took from the queue.

    Every delivery carries the queued frame object itself, the queued hops and
    the node as its transmitter, whether the frame is the node's own or heard
    from another. ``sent`` counts the transmissions that reached anyone, by
    ``"forward"`` or ``"own"``.
    """

    def __init__(self, config):
        self.sent = Counter()
        self._delivering = []
        super().__init__(config)

    def schedule(self, t, handler, *args):
        if handler is World._deliver:
            self._delivering.append(args[:3])
        super().schedule(t, handler, *args)

    def _tx_dequeue(self, node):
        queued = (node.txq[0], node.txq_hops[0]) if node.txq else None
        self._delivering = []
        super()._tx_dequeue(node)
        if self._delivering:
            frame, hops = queued
            assert all(sent[0] is frame and sent[1:] == (hops, node.id)
                       for sent in self._delivering)
            self.sent["own" if frame.origin == node.id else "forward"] += 1


def relayed_frames(config, verb, at_ms):
    """Run ``config``, issuing ``verb`` at ``at_ms``; check and list the relays queued.

    Every relay decision that is not a drop reason must be followed by one
    ``enqueue_tx`` call of the deciding node, sent to the decision itself,
    ``BROADCAST`` or a node id. The frame queued for a frame heard is that
    frame object, at the heard hops + 1, and ``SendingWorld`` checks that it is
    what goes out; a frame the node originated is queued as originated, at
    hops 1. A drop reason queues nothing: the only frames queued without a
    decision are the hub's own heartbeats, also at hops 1. Returns the
    ``(kind, broadcast)`` pairs of the relays admitted and the world's ``sent`` counts.
    """
    world = SendingWorld(config)
    enqueue_tx = world.enqueue_tx
    undone = []  # the (node, key, hops, decision) whose frame is not queued yet
    queued = set()

    def spy_decision(decide):
        def decided(state, *args):
            assert not undone, f"decision {undone} queued nothing"
            decision = decide(state, *args)
            if not isinstance(decision, str):
                node = next(n for n in world.nodes.values() if n.relay is state)
                if decide is btmr_relay:  # (key, hops)
                    key, hops = args
                else:  # (now, kind, key, hops, sender)
                    key, hops = args[2:4]
                undone.append((node, key, hops, decision))
            return decision
        return decided

    def spy_enqueue_tx(node, message, dest, hops):
        txq = node.txq
        before = len(txq)
        admitted = enqueue_tx(node, message, dest, hops)
        assert len(txq) == len(node.txq_dest) == len(node.txq_hops) == before + admitted
        if undone:
            relayer, key, heard, decision = undone.pop()
            assert node is relayer and dest == decision
            if key[0] == node.id:  # a frame of its own, queued as originated
                assert ((message.origin, message.seq), message.hops, message.sender) == (
                    key, 1, node.id)
                assert heard == hops == 1
            else:  # the frame being delivered, the newest entry of the log, one hop on
                assert message is world.log[-1][2]
                assert (message.origin, message.seq) == key
                assert heard == world.log[-1][3] and hops == heard + 1
            if admitted:
                assert queue_entry(node, -1) == (message, decision, hops)
                queued.add((message.kind, decision is BROADCAST))
        elif admitted:
            message, dest, hops = queue_entry(node, -1)
            assert node.id == world.hub_id and dest is BROADCAST
            assert message.kind is MessageKind.HEARTBEAT
            assert message.origin == node.id and message.hops == hops == 1
        return admitted

    world.enqueue_tx = spy_enqueue_tx
    btmr_relay, mam_handle = decisions = simnet.btmr_relay, simnet.mam_handle
    simnet.btmr_relay, simnet.mam_handle = map(spy_decision, decisions)
    try:
        world.run_until(at_ms)
        world.issue_command(verb, issuer=world.node_ids[-1])
        world.run_until(config.duration_ms)
    finally:
        simnet.btmr_relay, simnet.mam_handle = decisions
    assert not undone
    return queued, world.sent


@settings(max_examples=40)
@given(lossy_mam_runs(), st.sampled_from([CommandVerb.PING, CommandVerb.SIM_STATS,
                                          CommandVerb.SET_BTMR]), st.integers(0, 10_000))
def test_relays_queue_the_incoming_frame_and_send_its_forward(config, verb, at_ms):
    relayed_frames(config, verb, at_ms)


def test_relayed_frames_cover_every_decision():
    config = replace(load_scenario("line3"), algorithm=Algorithm.MAM)
    queued, sent = relayed_frames(config, CommandVerb.PING, 5_000)
    assert queued >= {
        (MessageKind.DATA, False), (MessageKind.HEARTBEAT, True),
        (MessageKind.COMMAND, True), (MessageKind.ACK, True)}
    assert sent["own"] and sent["forward"]
    config = replace(config, algorithm=Algorithm.BTMR)
    queued, sent = relayed_frames(config, CommandVerb.SIM_STATS, 5_000)
    assert (MessageKind.DATA, True) in queued
    assert sent["own"] and sent["forward"]
