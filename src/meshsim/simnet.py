"""Deterministic discrete-event engine.

A ``World`` owns every node's routing state, the disc-radio geometry, the
collector's mobility trace, per-node transmit queues, and a single seeded
RNG for link-loss draws. Each event is a ``(handler, args)`` pair that runs
as ``handler(world, *args)``. The pending events of one millisecond wait in
one FIFO, and a heap holds each pending millisecond once, so events pop in
(time, insertion) order and identical configurations replay identical runs
byte for byte. One transmission's fan-out is one event: it delivers the frame
to every receiver that the loss draws spared, in id order.

Links between nodes that stay put are worked out once per world. For a hub
that walks, each node also keeps a second stored list with the hub in it, so
``neighbors`` returns a stored list whether or not the hub moves; the hub's
``SimNode.pos`` is worked out again once per simulated millisecond.
"""

from __future__ import annotations

import heapq
import math
import random
import struct
from bisect import bisect_left
from collections import Counter, deque
from typing import Optional

from .commander import STATS_COUNTERS, CommandVerb, NodeStats, decode_stats, encode_stats
from .core import (
    ACK,
    BTMR,
    COMMAND,
    DATA,
    HEARTBEAT,
    MAM,
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
    forwarded,
    is_int,
    sensor_reading,
)
from .metrics import HashMapTracker, IntervalTracker, RunReport
from .routing import BROADCAST, RelayAction, RelayState, btmr_relay, mam_handle

_ACK_PAYLOAD = struct.Struct(">HI")
_TRACKERS = {"hashmap": HashMapTracker, "interval": IntervalTracker}


class MobilityTrace:
    """Piecewise-linear waypoint schedule, clamped before/after the endpoints."""

    def __init__(self, waypoints: list[Waypoint]):
        problem = _mobility_problem(waypoints)
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
    """Per-node state owned by the engine: position, relay state, queue, counters."""

    def __init__(self, spec, config: ScenarioConfig):
        self.id: NodeId = spec.node
        self.role: Role = spec.role
        # a walking hub's ``pos`` is where it was at the last ``World.position`` call
        self.pos = (spec.x, spec.y)
        self.algorithm = config.algorithm
        self.relay = RelayState(config.relay_cache_size, config.delta_ms)
        self.next_seq = 0
        self.txq: deque = deque()
        self.tx_scheduled = False
        self.radio_free_at = 0
        # replay protection survives reboots, like provisioning sequence state
        self.last_cmd_seq: dict[NodeId, int] = {}
        self.reset_stats()

    def reset_stats(self) -> None:
        # data-plane statistics (heartbeat/control traffic excluded)
        self.generated = 0
        self.relayed = 0
        self.received = 0
        # energy proxies: every transmission / delivery of any kind
        self.tx_count = 0
        self.rx_count = 0
        self.tx_data_count = 0
        self.tx_dropped = 0
        self.restarts = 0
        self.drops: Counter = Counter()

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

    def stats_snapshot(self) -> NodeStats:
        return NodeStats(self.id, *(getattr(self, name) for name in STATS_COUNTERS))

    def originate(self, kind: MessageKind, payload: bytes = b"") -> Message:
        """A new frame from this node, under its next sequence number."""
        message = Message(kind, self.id, self.next_seq, 0, self.id, payload)
        self.next_seq += 1
        return message


class World:
    """One simulation run: event queue, nodes, radio geometry, collector-side metrics."""

    def __init__(self, config: ScenarioConfig):
        if not isinstance(config, ScenarioConfig):
            raise ConfigError(f"config: must be a ScenarioConfig, got {type(config).__name__}")
        config.validate()
        self.config = config
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
        fixed = {v: self.nodes[v].pos for v in self.node_ids}
        if self.hub_moves:
            del fixed[self.hub_id]
        self._static_links: dict[NodeId, list[NodeId]] = {
            u: [v for v, (vx, vy) in fixed.items()
                if v != u and math.hypot(ux - vx, uy - vy) <= self.range_m]
            for u, (ux, uy) in fixed.items()}
        # next to each node's links, the same list with a moving hub in id order:
        # ``neighbors`` picks one of the two by testing the link to the hub
        self._hub_links: dict[NodeId, list[NodeId]] = {}
        if self.hub_moves:
            self._hub_links = {u: sorted(links + [self.hub_id])
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
        """Apply every event strictly before ``limit_ms``, then park the clock there."""
        if not is_int(limit_ms):
            raise ConfigError(f"limit_ms: must be an integer, got {limit_ms!r}")
        times = self._times
        while times and times[0] < limit_ms:
            self.step()
        if limit_ms > self.now:
            self.now = limit_ms

    # --- geometry: disc radio, evaluated at ``now`` -----------------------

    def position(self, node: NodeId) -> tuple[float, float]:
        # keyed on ``now`` itself, which callers may also set directly
        if node == self.hub_id and self._hub_at != self.now:
            self._hub_at = self.now
            self.nodes[node].pos = self.trace.position(self.now)
        return self.nodes[node].pos

    def in_range(self, u: NodeId, v: NodeId) -> bool:
        (ux, uy) = self.position(u)
        (vx, vy) = self.position(v)
        return math.hypot(ux - vx, uy - vy) <= self.range_m

    def neighbors(self, u: NodeId) -> list[NodeId]:
        """Nodes in range of ``u``, in id order; only links to a moving hub are re-tested.

        For any node but a moving hub this is a stored list, with or without
        the hub, so callers must not mutate it.
        """
        if not self.hub_moves:
            return self._static_links[u]
        if u == self.hub_id:
            return [v for v in self.node_ids if v != u and self.in_range(u, v)]
        if self.in_range(u, self.hub_id):
            return self._hub_links[u]
        return self._static_links[u]

    # --- event handlers ---------------------------------------------------

    def _emit_heartbeat(self, hub: SimNode) -> None:
        self.enqueue_tx(hub, hub.originate(HEARTBEAT), BROADCAST)
        self.schedule(self.now + self.config.heartbeat_period_ms, World._emit_heartbeat, hub)

    def _generate_data(self, node: SimNode) -> None:
        node.generated += 1
        self._relay(node, node.originate(DATA,
                                         sensor_reading(node.id, node.next_seq)))
        self.schedule(self.now + self.config.data_period_ms, World._generate_data, node)

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

    def _deliver(self, message: Message, receivers: list[SimNode]) -> None:
        """Hand one transmission to each receiver: consume it there, or act on it and relay it.

        Receivers take the frame in id order, as one event per receiver at
        consecutive ties would: whatever one schedules gets a later tie.
        """
        kind = message.kind
        origin = message.origin
        relay = self._relay
        # the kind is tested once per transmission; data and heartbeats, the
        # bulk of the traffic, each take a loop of their own
        if kind is DATA:
            hub_id = self.hub_id
            for node in receivers:
                node.rx_count += 1
                if node.id == origin:
                    continue
                node.received += 1
                if node.id == hub_id:
                    self.tracker.record((origin, message.seq))
                else:
                    relay(node, message)
            return
        if kind is HEARTBEAT:
            for node in receivers:
                node.rx_count += 1
                if node.id != origin:
                    relay(node, message)
            return
        for node in receivers:
            node.rx_count += 1
            if node.id == origin:
                continue
            if kind is COMMAND:
                self._apply_command(node, message)
            elif kind is STATS_REPORT:
                if node.id == self.hub_id:
                    stats = decode_stats(message.payload)
                    self.collected_stats[stats.node] = stats
                    continue
            elif kind is ACK:
                probe = _ACK_PAYLOAD.unpack(message.payload)
                if node.id == probe[0]:
                    if probe == self.probe:
                        self.acked.add(message.origin)
                    continue
            relay(node, message)

    def _relay(self, node: SimNode, message: Message) -> None:
        """Run the node's active relay algorithm on one frame and queue its forward."""
        if node.algorithm is MAM:
            action = mam_handle(node.relay, self.now, message)
        else:
            action = btmr_relay(node.relay, message)
        if isinstance(action, str):
            node.drops[action] += 1
            return
        queued = self.enqueue_tx(node, forwarded(message, node.id), action)
        if queued and message.kind is DATA and message.origin != node.id:
            node.relayed += 1

    def _apply_command(self, node: SimNode, message: Message) -> None:
        if message.seq <= node.last_cmd_seq.get(message.origin, -1):
            return
        node.last_cmd_seq[message.origin] = message.seq
        verb = CommandVerb(message.payload[0])
        if (verb is CommandVerb.SIM_RESET or verb is CommandVerb.REBOOT_ALL
                or (verb is CommandVerb.REBOOT and node.role is Role.COMMANDER)):
            if verb is CommandVerb.SIM_RESET:
                node.reset_routing()
            else:
                node.reboot()
            if node.id == self.hub_id:
                self.tracker.reset()
                self.collected_stats.clear()
        elif verb is CommandVerb.SET_MAM:
            node.algorithm = MAM
        elif verb is CommandVerb.SET_BTMR:
            node.algorithm = BTMR
        elif verb is CommandVerb.SIM_STATS:
            snapshot = node.stats_snapshot()
            if node.id == self.hub_id:
                self.collected_stats[node.id] = snapshot
            else:
                self._relay(node, node.originate(STATS_REPORT,
                                                 encode_stats(snapshot)))
        elif verb is CommandVerb.PING:
            if node.id == message.origin:
                self.probe = (message.origin, message.seq)
                self.acked = set()
            else:
                self._relay(node, node.originate(
                    ACK, _ACK_PAYLOAD.pack(message.origin, message.seq)))

    # --- transmission -----------------------------------------------------

    def enqueue_tx(self, node: SimNode, message: Message, dest: RelayAction) -> bool:
        """Queue one transmission as decided; overflow drops the newest entry and counts it."""
        if len(node.txq) >= self.config.tx_queue_capacity:
            node.tx_dropped += 1
            return False
        node.txq.append((message, dest))
        if not node.tx_scheduled:
            node.tx_scheduled = True
            self.schedule(max(self.now, node.radio_free_at), World._tx_dequeue, node)
        return True

    def _tx_dequeue(self, node: SimNode) -> None:
        if not node.txq:
            # queue wiped by a reboot between scheduling and firing
            node.tx_scheduled = False
            return
        message, dest = node.txq.popleft()
        copies = 1
        if message.kind is DATA:
            if self.config.fault_duplicate and dest is not BROADCAST:
                copies = 2
            node.tx_data_count += copies
        node.tx_count += copies
        self._fan_out(node, message, dest)
        if copies == 2:
            # the duplication fault: the second fan-out draws its loss after the first
            self._fan_out(node, message, dest)
        node.radio_free_at = self.now + self.config.latency_ms
        if node.txq:
            self.schedule(node.radio_free_at, World._tx_dequeue, node)
        else:
            node.tx_scheduled = False

    def _fan_out(self, node: SimNode, message: Message, dest: RelayAction) -> None:
        if dest is BROADCAST:
            targets = self.neighbors(node.id)
        elif self.in_range(node.id, dest):
            targets = [dest]
        else:
            return
        loss_prob = self.config.loss_prob
        if loss_prob == 0.0:
            receivers = list(map(self.nodes.__getitem__, targets))
        else:
            draw = self.rng.random
            receivers = [self.nodes[v] for v in targets if draw() >= loss_prob]
        if receivers:
            self.schedule(self.now + self.config.latency_ms, World._deliver,
                          message, receivers)

    # --- reporting ----------------------------------------------------------

    def report(self) -> RunReport:
        nodes = self.nodes.values()
        unique = self.tracker.unique_count
        duplicate = self.tracker.duplicate_count
        return RunReport(
            algorithm=self.config.algorithm.value,
            duration_ms=self.config.duration_ms,
            seed=self.config.rng_seed,
            unique_received=unique,
            duplicate_received=duplicate,
            total_received=unique + duplicate,
            tx_total=sum(n.tx_count for n in nodes),
            rx_total=sum(n.rx_count for n in nodes),
            tx_data=sum(n.tx_data_count for n in nodes),
            per_node={
                nid: {
                    "generated": n.generated,
                    "relayed": n.relayed,
                    "tx_dropped": n.tx_dropped,
                    "restarts": n.restarts,
                }
                for nid, n in sorted(self.nodes.items())
            },
        )


def run(config: ScenarioConfig) -> RunReport:
    """Execute one full scenario and return its report (deterministic per config)."""
    world = World(config)
    world.run_until(config.duration_ms)
    return world.report()
