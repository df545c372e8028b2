"""Deterministic discrete-event engine.

A ``World`` owns every node's routing state, the disc-radio geometry, the
collector's mobility trace, per-node transmit queues, and a single seeded RNG
for link-loss draws: a broadcast draws once per stored link, a unicast in range
once and one out of range not at all. Events read the settings that the world
takes from its validated config once, at construction. Each event is a
``(handler, args)`` pair that runs as ``handler(world, *args)``; events, frames,
queues and relay state form no reference cycles, so ``run_until`` holds off the
cyclic GC. The pending events of one millisecond wait in one FIFO, and a heap
holds each pending millisecond once, so events pop in (time, insertion) order
and identical configurations replay identical runs byte for byte. One
transmission is one event: it delivers the frame to every receiver that the loss
draws spared, in id order, and then the sender's radio sends its next queued
frame. Only a queue that takes a frame while idle, or a transmission that
reaches nobody while frames wait, schedules a ``_tx_dequeue``.

Links between nodes that stay put are worked out once per world, as lists of
``SimNode``s in id order. For a hub that walks, each node also keeps a second
stored list with the hub in it, so ``links`` returns a stored list whether or
not the hub moves. ``in_range`` tests one link live, after moving a walking
hub's ``SimNode.pos`` at most once per simulated millisecond; it and ``links``
both read ``pos``. A loss-free broadcast hands the stored list itself to
``_deliver``, which only reads it.

Every reception ends in ``_deliver``'s one loop: a step per frame kind consumes
the frame or leaves it to the one relay step, which decides by the frame's
``(origin, seq)`` key, built once per transmission. A relay queues the frame as
heard, its decision beside it in a parallel deque; ``_tx_dequeue`` unpacks it
once and builds the forward, one hop on, when it sends it. ``_relay`` sends only
the frames a node originates, each queued as ``SimNode.originate`` built it.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import struct
from bisect import bisect_left
from collections import deque
from operator import attrgetter
from typing import Optional

from .commander import (PING, REBOOT, REBOOT_ALL, SET_BTMR, SET_MAM, SIM_RESET, SIM_STATS,
                        STATS_COUNTERS, VERBS, CommandVerb, NodeStats, decode_stats, encode_stats)
from .core import (
    ACK,
    BTMR,
    COMMAND,
    DATA,
    HEARTBEAT,
    MAM,
    NODE_COUNTERS,
    RANGE_PRESETS,
    STATS_REPORT,
    ConfigError,
    Message,
    MessageKind,
    NodeId,
    Role,
    ScenarioConfig,
    Waypoint,
    _mobility_problem,
    is_int,
    sensor_reading,
)
from .metrics import HashMapTracker, IntervalTracker, RunReport
from .routing import BROADCAST, DROP_REASONS, RelayAction, RelayState, btmr_relay, mam_handle

_ACK_PAYLOAD = struct.Struct(">HI")
_TRACKERS = {"hashmap": HashMapTracker, "interval": IntervalTracker}
# one call reads every counter a ``NodeStats`` carries, in field order
_read_counters = attrgetter(*STATS_COUNTERS)


class MobilityTrace:
    """Piecewise-linear waypoint schedule, clamped before/after the endpoints."""

    def __init__(self, waypoints: list[Waypoint]):
        # a config may leave mobility unset (None); a trace may not
        problem = (_mobility_problem(waypoints) if waypoints is not None
                   else "must be a list of Waypoint rows")
        if problem:
            raise ConfigError(f"mobility {problem}")
        self.waypoints = list(waypoints)
        self.times = [w.t_ms for w in self.waypoints]

    def position(self, t: int) -> tuple[float, float]:
        pts = self.waypoints
        if t <= pts[0].t_ms:
            return (pts[0].x, pts[0].y)
        if t >= pts[-1].t_ms:
            return (pts[-1].x, pts[-1].y)
        # strictly between the endpoints: b is the first waypoint at or after t
        i = bisect_left(self.times, t)
        a, b = pts[i - 1], pts[i]
        frac = (t - a.t_ms) / (b.t_ms - a.t_ms)
        return (a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))


class SimNode:
    """Per-node state owned by the engine: position, relay state, counters, and a
    transmit queue of frames as heard (``txq``) beside their decisions (``txq_dest``)."""

    def __init__(self, spec, config: ScenarioConfig):
        self.id: NodeId = spec.node
        self.role: Role = spec.role
        # a walking hub's ``pos`` is where it was at the last ``World.in_range`` test
        self.pos = (spec.x, spec.y)
        self.algorithm = config.algorithm
        self.relay = RelayState(config.relay_cache_size, config.delta_ms)
        self.next_seq = 0
        self.txq: deque = deque()
        self.txq_dest: deque = deque()
        self.tx_scheduled = False
        self.radio_free_at = 0
        # replay protection survives reboots, like provisioning sequence state
        self.last_cmd_seq: dict[NodeId, int] = {}
        self.reset_stats()

    def reset_stats(self) -> None:
        # ``setattr``: writing ``__dict__`` would slow every per-frame attribute access
        for counter in NODE_COUNTERS:
            setattr(self, counter.name, 0)
        self.drops: dict[str, int] = dict.fromkeys(DROP_REASONS, 0)

    def reset_routing(self) -> None:
        """Return routing state and statistics to power-on values."""
        self.relay = RelayState(self.relay.cache_size, self.relay.delta_ms)
        self.reset_stats()

    def reboot(self) -> None:
        """Everything in RAM goes; the restart counter lives in NVM and ticks up."""
        restarts = self.restarts + 1
        self.reset_routing()
        self.restarts = restarts
        self.txq.clear()
        self.txq_dest.clear()

    def stats_snapshot(self) -> NodeStats:
        return tuple.__new__(NodeStats, (self.id, *_read_counters(self)))

    def originate(self, kind: MessageKind, payload: bytes = b"") -> Message:
        """A new frame from this node, under its next sequence number, sent at hops 1."""
        # builds the tuple directly: the NamedTuple constructor is an extra Python call
        message = tuple.__new__(Message, (kind, self.id, self.next_seq, 1, self.id, payload))
        self.next_seq += 1
        return message


class World:
    """One simulation run: event queue, nodes, radio geometry, collector-side metrics.

    Events read the validated settings that the world takes from ``config`` at construction.
    """

    def __init__(self, config: ScenarioConfig):
        if not isinstance(config, ScenarioConfig):
            raise ConfigError(f"config: must be a ScenarioConfig, got {type(config).__name__}")
        config.validate()
        self.config = config
        self.latency_ms, self.heartbeat_period_ms = config.latency_ms, config.heartbeat_period_ms
        self.tx_queue_capacity, self.loss_prob = config.tx_queue_capacity, config.loss_prob
        self.fault_duplicate, self.data_period_ms = config.fault_duplicate, config.data_period_ms
        preset = config.radio_preset
        self.range_m = RANGE_PRESETS[preset] if isinstance(preset, str) else float(preset)
        self.rng = random.Random(config.rng_seed)
        self.now = 0
        # pending millisecond -> its events in insertion order; ``_times`` is a
        # heap of the keys of ``_fifos``
        self._fifos: dict[int, deque] = {}
        self._times: list[int] = []
        self.nodes = {s.node: SimNode(s, config) for s in config.topology}
        self.node_ids = sorted(self.nodes)
        self.hub_id = config.hub_id
        self.commander_id = config.commander_id
        hub = self.nodes[self.hub_id]
        waypoints = config.mobility or [Waypoint(0, *hub.pos)]
        self.trace = MobilityTrace(waypoints)
        # Only the hub can move, and only along a trace of two or more waypoints;
        # it starts at its first waypoint, not at its ``[nodes]`` row. Links between
        # nodes that stay put are worked out once, in id order, as ``in_range`` does.
        self.hub_moves = len(waypoints) > 1
        hub.pos = self.trace.position(0)
        self._hub_at = 0  # the ``now`` that ``hub.pos`` was worked out for
        fixed = [self.nodes[v] for v in self.node_ids]
        if self.hub_moves:
            fixed.remove(hub)
        self._static_links: dict[NodeId, list[SimNode]] = {
            u.id: [v for v in fixed
                   if v is not u and math.hypot(u.pos[0] - v.pos[0],
                                                u.pos[1] - v.pos[1]) <= self.range_m]
            for u in fixed}
        # next to each node's links, the same list with a moving hub in id order:
        # ``links`` picks one of the two by testing the link to the hub
        self._hub_links: dict[NodeId, list[SimNode]] = {}
        if self.hub_moves:
            self._hub_links = {u: sorted(links + [hub], key=lambda n: n.id)
                               for u, links in self._static_links.items()}
        self.tracker = _TRACKERS[config.tracker]()
        self.collected_stats: dict[NodeId, NodeStats] = {}
        # the newest reachability probe, as (origin, seq), and the nodes that acked it
        self.probe: Optional[tuple[NodeId, int]] = None
        self.acked: set[NodeId] = set()
        self.schedule(0, World._emit_heartbeat, hub)
        for sensor in config.sensor_ids:
            self.schedule(config.data_period_ms, World._generate_data, self.nodes[sensor])

    # --- scheduling -------------------------------------------------------

    def schedule(self, t: int, handler, *args) -> None:
        """Run ``handler(self, *args)`` at time ``t``, after earlier-scheduled ties.

        ``handler`` is a plain function such as ``World._deliver``, not a bound
        method, so the queue holds no reference back to the world.
        """
        fifo = self._fifos.get(t)
        if fifo is None:
            fifo = self._fifos[t] = deque()
            heapq.heappush(self._times, t)
        fifo.append((handler, args))

    def pending(self) -> int:
        return sum(map(len, self._fifos.values()))

    def step(self) -> bool:
        """Pop and apply exactly one event; False when the queue is empty."""
        if not self._times:
            return False
        t = self._times[0]
        fifo = self._fifos[t]
        handler, args = fifo.popleft()
        # an emptied millisecond goes before the handler runs; an event it then
        # schedules at ``t`` opens a new FIFO there, still after every earlier one
        if not fifo:
            del self._fifos[t]
            heapq.heappop(self._times)
        self.now = t
        handler(self, *args)
        return True

    def run_until(self, limit_ms: int) -> None:
        """Apply every event strictly before ``limit_ms``, then park the clock there; the
        cyclic GC is held off meanwhile and left as it was found, even if a handler raises."""
        if not is_int(limit_ms):
            raise ConfigError(f"limit_ms: must be an integer, got {limit_ms!r}")
        times, step = self._times, self.step
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while times and times[0] < limit_ms:
                step()
        finally:
            if gc_was_enabled:
                gc.enable()
        if limit_ms > self.now:
            self.now = limit_ms

    # --- geometry: disc radio, evaluated at ``now`` -----------------------

    def in_range(self, u: NodeId, v: NodeId) -> bool:
        # a walking hub moves first, at most once per value of ``now``, which
        # callers may also set directly
        if self.hub_moves and self._hub_at != self.now:
            self._hub_at = self.now
            self.nodes[self.hub_id].pos = self.trace.position(self.now)
        (ux, uy) = self.nodes[u].pos
        (vx, vy) = self.nodes[v].pos
        return math.hypot(ux - vx, uy - vy) <= self.range_m

    def links(self, u: NodeId) -> list[SimNode]:
        """The nodes in range of ``u``, in id order; only links to a moving hub are re-tested.

        For any node but a moving hub this is a stored list, with or without
        the hub, that deliveries share, so callers must not mutate it.
        """
        if not self.hub_moves:
            return self._static_links[u]
        if u == self.hub_id:
            return [self.nodes[v] for v in self.node_ids if v != u and self.in_range(u, v)]
        if self.in_range(u, self.hub_id):
            return self._hub_links[u]
        return self._static_links[u]

    # --- event handlers ---------------------------------------------------

    def _emit_heartbeat(self, hub: SimNode) -> None:
        self.enqueue_tx(hub, hub.originate(HEARTBEAT), BROADCAST)
        self.schedule(self.now + self.heartbeat_period_ms, World._emit_heartbeat, hub)

    def _generate_data(self, node: SimNode) -> None:
        node.generated += 1
        self._relay(node, node.originate(DATA,
                                         sensor_reading(node.id, node.next_seq)))
        self.schedule(self.now + self.data_period_ms, World._generate_data, node)

    def _command_arrival(self, verb: CommandVerb, issuer: SimNode) -> None:
        message = issuer.originate(COMMAND, bytes([verb]))
        self._apply_command(issuer, message)
        self._relay(issuer, message)

    def issue_command(self, verb: CommandVerb, issuer: Optional[NodeId] = None) -> None:
        """Inject a control command at the commander (or an explicit issuer)."""
        if not isinstance(verb, CommandVerb):
            raise ConfigError(f"verb: must be a CommandVerb, got {verb!r}")
        if issuer is None:
            issuer = self.commander_id
        if issuer is None:
            raise ConfigError("topology has no commander node")
        if not is_int(issuer) or issuer not in self.nodes:
            raise ConfigError(f"issuer: node {issuer!r} is not in the topology")
        self.schedule(self.now, World._command_arrival, verb, self.nodes[issuer])

    # --- frame handling ---------------------------------------------------

    def _deliver(self, message: Message, receivers: list[SimNode],
                 sender: Optional[SimNode] = None) -> None:
        """Hand one transmission to each receiver: consume it there, or relay it.

        Each frame kind first has its own consume step: a data frame counts as
        received and ends at the hub, a command is applied, a stats report ends
        at the hub and an ack at the node that sent the probe. Whatever is not
        consumed then takes the node's relay step, written once for every kind.
        Receivers take the frame in id order, as one event per receiver at
        consecutive ties would: whatever one schedules gets a later tie.
        ``receivers`` may be a stored link list, so it is only read. A
        ``sender`` with frames still queued then sends its next one.
        """
        kind, origin, seq, hops, _, payload = message
        key = (origin, seq)
        now, hub_id, enqueue_tx = self.now, self.hub_id, self.enqueue_tx
        for node in receivers:
            node.rx_count += 1
            if node.id == origin:
                continue
            if kind is DATA:
                node.received += 1
                if node.id == hub_id:
                    self.tracker.record(key)
                    continue
            elif kind is HEARTBEAT:
                pass  # no consume step: a heartbeat goes straight to the relay step
            elif kind is COMMAND:
                self._apply_command(node, message)
            elif kind is STATS_REPORT:
                if node.id == hub_id:
                    stats = decode_stats(payload)
                    self.collected_stats[stats.node] = stats
                    continue
            elif kind is ACK:
                probe = _ACK_PAYLOAD.unpack(payload)
                if node.id == probe[0]:
                    if probe == self.probe:
                        self.acked.add(origin)
                    continue
            # the relay step
            if node.algorithm is MAM:
                action = mam_handle(node.relay, now, message)
            else:
                action = btmr_relay(node.relay, key, hops)
            if action.__class__ is str:
                node.drops[action] += 1
            elif enqueue_tx(node, message, action) and kind is DATA:
                node.relayed += 1
        if sender is not None:
            self._tx_dequeue(sender)

    def _relay(self, node: SimNode, message: Message) -> None:
        """Send a frame ``node`` originated as decided; it is queued as sent."""
        if node.algorithm is MAM:
            action = mam_handle(node.relay, self.now, message)
        else:
            action = btmr_relay(node.relay, (message.origin, message.seq), message.hops)
        if action.__class__ is str:
            node.drops[action] += 1
        else:
            self.enqueue_tx(node, message, action)

    def _apply_command(self, node: SimNode, message: Message) -> None:
        _, origin, seq, _, _, payload = message
        if seq <= node.last_cmd_seq.get(origin, -1):
            return
        node.last_cmd_seq[origin] = seq
        verb = VERBS[payload[0]]
        if (verb is SIM_RESET or verb is REBOOT_ALL
                or (verb is REBOOT and node.role is Role.COMMANDER)):
            if verb is SIM_RESET:
                node.reset_routing()
            else:
                node.reboot()
            if node.id == self.hub_id:
                self.tracker.reset()
                self.collected_stats.clear()
        elif verb is SET_MAM:
            node.algorithm = MAM
        elif verb is SET_BTMR:
            node.algorithm = BTMR
        elif verb is SIM_STATS:
            snapshot = node.stats_snapshot()
            if node.id == self.hub_id:
                self.collected_stats[node.id] = snapshot
            else:
                self._relay(node, node.originate(STATS_REPORT,
                                                 encode_stats(snapshot)))
        elif verb is PING:
            if node.id == origin:
                self.probe = (origin, seq)
                self.acked = set()
            else:
                self._relay(node, node.originate(ACK, _ACK_PAYLOAD.pack(origin, seq)))

    # --- transmission -----------------------------------------------------

    def enqueue_tx(self, node: SimNode, message: Message, dest: RelayAction) -> bool:
        """Queue one transmission as decided; overflow drops the newest entry and counts it.

        A frame from another ``sender`` is queued as heard; ``_tx_dequeue`` sends its forward.
        """
        if len(node.txq) >= self.tx_queue_capacity:
            node.tx_dropped += 1
            return False
        node.txq.append(message)
        node.txq_dest.append(dest)
        if not node.tx_scheduled:
            node.tx_scheduled = True
            t = node.radio_free_at
            self.schedule(t if t > self.now else self.now, World._tx_dequeue, node)
        return True

    def _tx_dequeue(self, node: SimNode) -> None:
        if not node.txq:
            # queue wiped by a reboot between scheduling and firing
            node.tx_scheduled = False
            return
        message = node.txq.popleft()
        dest = node.txq_dest.popleft()
        kind, origin, seq, hops, sent_by, payload = message
        if sent_by != node.id:
            message = tuple.__new__(Message, (kind, origin, seq, hops + 1, node.id, payload))
        copies = 1
        if kind is DATA:
            if self.fault_duplicate and dest is not BROADCAST:
                copies = 2
            node.tx_data_count += copies
        node.tx_count += copies
        t = node.radio_free_at = self.now + self.latency_ms
        receivers = self._fan_out(node, dest)
        if copies == 2:
            # the duplication fault: the second copy draws its loss after the first
            second = self._fan_out(node, dest)
            if receivers and second:
                self.schedule(t, World._deliver, message, receivers)
            receivers = second or receivers
        # the last delivery starts the next frame; with none, an event of its own does
        node.tx_scheduled = bool(node.txq)
        sender = node if node.tx_scheduled else None
        if receivers:
            self.schedule(t, World._deliver, message, receivers, sender)
        elif sender is not None:
            self.schedule(t, World._tx_dequeue, node)

    def _fan_out(self, node: SimNode, dest: RelayAction) -> list[SimNode]:
        """One copy's receivers: the nodes in range that the loss draws spare, in id order."""
        loss_prob = self.loss_prob
        if dest is not BROADCAST:  # one loss draw, and none out of range
            if self.in_range(node.id, dest) and (loss_prob == 0.0
                                                 or self.rng.random() >= loss_prob):
                return [self.nodes[dest]]
            return []
        receivers = self.links(node.id)
        if loss_prob != 0.0:
            draw = self.rng.random
            receivers = [n for n in receivers if draw() >= loss_prob]
        return receivers

    # --- reporting ----------------------------------------------------------

    def report(self) -> RunReport:
        nodes = [self.nodes[nid] for nid in self.node_ids]
        totals = {}  # counters that name one total add up in it
        for c in NODE_COUNTERS:
            if c.total:
                totals[c.total] = totals.get(c.total, 0) + sum(getattr(n, c.name) for n in nodes)
        unique = self.tracker.unique_count
        duplicate = self.tracker.duplicate_count
        return RunReport(
            algorithm=self.config.algorithm.value,
            duration_ms=self.config.duration_ms,
            seed=self.config.rng_seed,
            unique_received=unique,
            duplicate_received=duplicate,
            total_received=unique + duplicate,
            **totals,
            per_node={n.id: {c.name: getattr(n, c.name) for c in NODE_COUNTERS if c.row}
                      for n in nodes},
        )


def run(config: ScenarioConfig) -> RunReport:
    """Execute one full scenario and return its report (deterministic per config)."""
    world = World(config)
    world.run_until(config.duration_ms)
    return world.report()
