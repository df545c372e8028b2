"""Deterministic discrete-event engine.

A ``World`` owns every node's routing state, the disc-radio geometry, the
collector's mobility trace, per-node transmit queues, and a single seeded
RNG for link-loss draws. Each event is a heap entry ``(t, tie, handler,
args)`` and runs as ``handler(world, *args)``. Events pop in (time,
insertion) order, so identical configurations replay identical runs byte for
byte. One transmission's fan-out is one entry: it delivers the frame to every
receiver that the loss draws spared, in id order.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
import struct
from collections import Counter, deque
from typing import Optional

from .commander import STATS_COUNTERS, CommandVerb, NodeStats, decode_stats, encode_stats
from .core import (
    RANGE_PRESETS,
    Algorithm,
    ConfigError,
    Message,
    MessageKey,
    MessageKind,
    NodeId,
    Role,
    ScenarioConfig,
    Waypoint,
    _mobility_problem,
    sensor_reading,
)
from .metrics import HashMapTracker, IntervalTracker, RunReport
from .routing import Drop, MamState, RelayCache, btmr_relay, mam_handle

_ACK_PAYLOAD = struct.Struct(">HI")
_TRACKERS = {"hashmap": HashMapTracker, "interval": IntervalTracker}


class MobilityTrace:
    """Piecewise-linear waypoint schedule, clamped before/after the endpoints."""

    def __init__(self, waypoints: list[Waypoint]):
        problem = _mobility_problem(waypoints)
        if problem:
            raise ConfigError(f"mobility {problem}")
        self.waypoints = list(waypoints)

    def position(self, t: int) -> tuple[float, float]:
        pts = self.waypoints
        if t <= pts[0].t_ms:
            return (pts[0].x, pts[0].y)
        if t >= pts[-1].t_ms:
            return (pts[-1].x, pts[-1].y)
        # strictly between the endpoints, so the loop stops at the segment holding t
        for a, b in zip(pts, pts[1:]):
            if t <= b.t_ms:
                break
        frac = (t - a.t_ms) / (b.t_ms - a.t_ms)
        return (a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))


class SimNode:
    """Per-node state owned by the engine: routing caches, queue, counters."""

    def __init__(self, spec, config: ScenarioConfig):
        self.id: NodeId = spec.node
        self.role: Role = spec.role
        self.pos = (spec.x, spec.y)
        self.algorithm = config.algorithm
        self.mam = MamState(delta_ms=config.delta_ms)
        self.cache = RelayCache(config.relay_cache_size)
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
        self.mam.reset()
        self.cache.clear()
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
        config.validate()
        self.config = config
        preset = config.radio_preset
        self.range_m = RANGE_PRESETS[preset] if isinstance(preset, str) else float(preset)
        self.rng = random.Random(config.rng_seed)
        self.now = 0
        self._heap: list = []
        self._tie = itertools.count()
        self.nodes = {s.node: SimNode(s, config) for s in config.topology}
        self.node_ids = sorted(self.nodes)
        self.hub_id = config.hub_id
        self.commander_id = config.commander_id
        waypoints = config.mobility or [Waypoint(0, *self.nodes[self.hub_id].pos)]
        self.trace = MobilityTrace(waypoints)
        # Only the hub moves, so the links between all other nodes are worked out
        # once, each node's in id order, with the same test as ``in_range``.
        static = [self.nodes[v] for v in self.node_ids if v != self.hub_id]
        self._static_links: dict[NodeId, list[NodeId]] = {
            u.id: [v.id for v in static if v is not u and math.hypot(
                u.pos[0] - v.pos[0], u.pos[1] - v.pos[1]) <= self.range_m]
            for u in static}
        self.tracker = _TRACKERS[config.tracker]()
        self.collected_stats: dict[NodeId, NodeStats] = {}
        # the newest reachability probe, as (origin, seq), and the nodes that acked it
        self.probe: Optional[tuple[NodeId, int]] = None
        self.acked: set[NodeId] = set()
        self.schedule(0, World._emit_heartbeat, self.nodes[self.hub_id])
        for sensor in config.sensor_ids:
            self.schedule(config.data_period_ms, World._generate_data, self.nodes[sensor])

    # --- scheduling -------------------------------------------------------

    def schedule(self, t: int, handler, *args) -> None:
        """Run ``handler(self, *args)`` at time ``t``, after earlier-scheduled ties.

        ``handler`` is a plain function such as ``World._deliver``, not a bound
        method, so the heap holds no reference back to the world.
        """
        heapq.heappush(self._heap, (t, next(self._tie), handler, args))

    def pending(self) -> int:
        return len(self._heap)

    def step(self) -> bool:
        """Pop and apply exactly one event; False when the queue is empty."""
        if not self._heap:
            return False
        t, _, handler, args = heapq.heappop(self._heap)
        self.now = t
        handler(self, *args)
        return True

    def run_until(self, limit_ms: int) -> None:
        """Apply every event strictly before ``limit_ms``, then park the clock there."""
        while self._heap and self._heap[0][0] < limit_ms:
            self.step()
        if limit_ms > self.now:
            self.now = limit_ms

    # --- geometry: disc radio, evaluated at ``now`` -----------------------

    def position(self, node: NodeId) -> tuple[float, float]:
        if node == self.hub_id:
            return self.trace.position(self.now)
        return self.nodes[node].pos

    def in_range(self, u: NodeId, v: NodeId) -> bool:
        (ux, uy) = self.position(u)
        (vx, vy) = self.position(v)
        return math.hypot(ux - vx, uy - vy) <= self.range_m

    def neighbors(self, u: NodeId) -> list[NodeId]:
        """Nodes in range of ``u``, in id order; only links to the hub are re-tested."""
        if u == self.hub_id:
            return [v for v in self.node_ids if v != u and self.in_range(u, v)]
        links = self._static_links[u].copy()
        if self.in_range(u, self.hub_id):
            bisect.insort(links, self.hub_id)
        return links

    # --- event handlers ---------------------------------------------------

    def _emit_heartbeat(self, hub: SimNode) -> None:
        self.enqueue_tx(hub, hub.originate(MessageKind.HEARTBEAT), dest=None)
        self.schedule(self.now + self.config.heartbeat_period_ms, World._emit_heartbeat, hub)

    def _generate_data(self, node: SimNode) -> None:
        node.generated += 1
        self._relay(node, node.originate(MessageKind.DATA,
                                         sensor_reading(node.id, node.next_seq)))
        self.schedule(self.now + self.config.data_period_ms, World._generate_data, node)

    def _command_arrival(self, verb: CommandVerb, issuer: SimNode) -> None:
        message = issuer.originate(MessageKind.COMMAND, bytes([verb]))
        self._apply_command(issuer, message)
        self._relay(issuer, message)

    def issue_command(self, verb: CommandVerb, issuer: Optional[NodeId] = None) -> None:
        """Inject a control command at the commander (or an explicit issuer)."""
        if issuer is None:
            issuer = self.commander_id
        if issuer is None:
            raise ConfigError("topology has no commander node")
        if issuer not in self.nodes:
            raise ConfigError(f"node {issuer} is not in the topology")
        self.schedule(self.now, World._command_arrival, verb, self.nodes[issuer])

    # --- frame handling ---------------------------------------------------

    def _deliver(self, message: Message, receivers: list[SimNode]) -> None:
        """Hand one transmission to each receiver: consume it there, or act on it and relay it.

        Receivers take the frame in id order, as one event per receiver at
        consecutive ties would: whatever one schedules gets a later tie.
        """
        kind = message.kind
        for node in receivers:
            node.rx_count += 1
            if message.origin == node.id:
                continue
            if kind is MessageKind.DATA:
                node.received += 1
                if node.id == self.hub_id:
                    self.tracker.record(MessageKey(message.origin, message.seq))
                    continue
            elif kind is MessageKind.COMMAND:
                self._apply_command(node, message)
            elif kind is MessageKind.STATS_REPORT:
                if node.id == self.hub_id:
                    stats = decode_stats(message.payload)
                    self.collected_stats[stats.node] = stats
                    continue
            elif kind is MessageKind.ACK:
                probe = _ACK_PAYLOAD.unpack(message.payload)
                if node.id == probe[0]:
                    if probe == self.probe:
                        self.acked.add(message.origin)
                    continue
            self._relay(node, message)

    def _relay(self, node: SimNode, message: Message) -> None:
        """Route one frame through the node's relay logic and execute its action.

        Control frames (commands, reachability acks) always flood so that
        algorithm switches reach every node even before routes exist; data,
        stats and heartbeats follow the node's active algorithm.
        """
        if (node.algorithm is Algorithm.MAM
                and message.kind not in (MessageKind.COMMAND, MessageKind.ACK)):
            action = mam_handle(node.mam, self.now, node.cache, message, node.id)
        else:
            action = btmr_relay(node.cache, message, node.id)
        if isinstance(action, Drop):
            node.drops[action.reason] += 1
            return
        out = action.message
        queued = self.enqueue_tx(node, out, action.dest)
        if queued and out.kind is MessageKind.DATA and out.origin != node.id:
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
            node.algorithm = Algorithm.MAM
        elif verb is CommandVerb.SET_BTMR:
            node.algorithm = Algorithm.BTMR
        elif verb is CommandVerb.SIM_STATS:
            snapshot = node.stats_snapshot()
            if node.id == self.hub_id:
                self.collected_stats[node.id] = snapshot
            else:
                self._relay(node, node.originate(MessageKind.STATS_REPORT,
                                                 encode_stats(snapshot)))
        elif verb is CommandVerb.PING:
            if node.id == message.origin:
                self.probe = (message.origin, message.seq)
                self.acked = set()
            else:
                self._relay(node, node.originate(
                    MessageKind.ACK, _ACK_PAYLOAD.pack(message.origin, message.seq)))

    # --- transmission -----------------------------------------------------

    def enqueue_tx(self, node: SimNode, message: Message, dest: Optional[NodeId]) -> bool:
        """Queue one transmission; overflow drops the newest entry and counts it."""
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
        if (self.config.fault_duplicate and dest is not None
                and message.kind is MessageKind.DATA):
            copies = 2
        for _ in range(copies):
            node.tx_count += 1
            if message.kind is MessageKind.DATA:
                node.tx_data_count += 1
            self._fan_out(node, message, dest)
        node.radio_free_at = self.now + self.config.latency_ms
        if node.txq:
            self.schedule(node.radio_free_at, World._tx_dequeue, node)
        else:
            node.tx_scheduled = False

    def _fan_out(self, node: SimNode, message: Message, dest: Optional[NodeId]) -> None:
        if dest is None:
            targets = self.neighbors(node.id)
        elif self.in_range(node.id, dest):
            targets = [dest]
        else:
            return
        loss_prob = self.config.loss_prob
        receivers = [self.nodes[v] for v in targets
                     if loss_prob == 0.0 or self.rng.random() >= loss_prob]
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
