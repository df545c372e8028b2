"""Deterministic discrete-event engine.

A ``World`` owns every node's routing state, the disc-radio geometry, the
collector's mobility trace, per-node transmit queues, and a single seeded RNG
for link-loss draws: a broadcast draws once per link, a unicast once if its
destination is a link and otherwise not at all. ``seed_matters(config)`` says
whether a run can read that RNG, and so depend on its seed. Each event is a
``(handler, args)`` pair that runs as ``handler(world, *args)``; events, frames,
queues and relay state form no reference cycles, so ``run_until`` holds off the
cyclic GC. The pending events of one millisecond wait in one FIFO, and a heap
holds each pending millisecond once, so events pop in (time, insertion) order
and identical configurations replay identical runs byte for byte. One
transmission is one event, with no exception: it delivers the frame to every
receiver that the loss draws spared, in id order (a unicast that ``fault_duplicate``
sends twice names its receiver once per copy spared), and then the sender's radio
sends its next queued frame. Only a queue that takes a frame while idle, or a
transmission that reaches nobody while frames wait, schedules a ``_tx_dequeue``.

``World.nodes`` runs in id order. One link model, ``links``, serves every transmission:
lists of ``SimNode``s in that order, worked out once per world for the nodes that stay
put. With a walking hub each node keeps a second list with the hub in it, and holds
its link to the hub: its last live test's answer, kept while the hub cannot have
crossed the range edge. Only a hold's renewal calls ``in_range``, which tests one link
live after moving the hub at either end to ``now``, so a static world tests no link
live. Only ``_fan_out`` works out a transmission's receivers, the sender's links or a
unicast's destination among them; ``_deliver`` only reads them.

A frame is built once, by ``SimNode.originate``, and never copied: a transmission
is ``_deliver(frame, hops, transmitter, receivers, sender)``. Its one loop hands
the frame to a consume step per kind or to the one relay step, which decides by
the ``(origin, seq)`` key, built once per transmission, the heard hops and the
transmitter's id. A relay queues the same frame, beside its decision and the heard
hops + 1; ``_tx_dequeue`` only pops and sends. ``_relay`` queues a node's own frames at hops 1.
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

    def position(self, t: int) -> tuple[float, float]:
        pts = self.waypoints
        if t <= pts[0].t_ms:
            return (pts[0].x, pts[0].y)
        if t >= pts[-1].t_ms:
            return (pts[-1].x, pts[-1].y)
        # strictly between the endpoints: b is the first waypoint at or after t
        i = bisect_left(pts, t, key=attrgetter("t_ms"))
        a, b = pts[i - 1], pts[i]
        frac = (t - a.t_ms) / (b.t_ms - a.t_ms)
        return (a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))


class SimNode:
    """Per-node state owned by the engine: position, relay state, counters, and a
    transmit queue of frames as their origins built them (``txq``), beside their
    decisions (``txq_dest``) and the hops each leaves at (``txq_hops``). With the GC
    held off during runs, what keeps those three deques apart is memory: one deque of
    ``(frame, dest, hops)`` tuples raised ``grid-storm``'s ``peak_rss_mb`` from 23.1 to
    24.3 MB (+4.9%, medians of 4 alternating runs; the benchmark's bound is 5%)."""

    def __init__(self, spec, config: ScenarioConfig):
        self.id: NodeId = spec.node
        self.role: Role = spec.role
        # the hub's ``pos`` is where its last ``World.in_range`` test put it
        self.pos = (spec.x, spec.y)
        # a walking hub's link: (tested ms, ms either side, linked)
        self.hub_hold = (0, -math.inf, False)
        self.algorithm = config.algorithm
        self.relay = RelayState(config.relay_cache_size, config.delta_ms)
        self.next_seq = 0
        self.txq, self.txq_dest, self.txq_hops = deque(), deque(), deque()
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
        for queue in (self.txq, self.txq_dest, self.txq_hops):
            queue.clear()

    def stats_snapshot(self) -> NodeStats:
        return tuple.__new__(NodeStats, (self.id, *_read_counters(self)))

    def originate(self, kind: MessageKind, payload: bytes = b"") -> Message:
        """A new frame from this node, under its next sequence number: the only frame built."""
        # builds the tuple directly: the NamedTuple constructor is an extra Python call
        message = tuple.__new__(Message, (kind, self.id, self.next_seq, 1, self.id, payload))
        self.next_seq += 1
        return message


def seed_matters(config: ScenarioConfig) -> bool:
    """Whether a run of ``config`` can draw from its RNG, and so depend on its seed."""
    return config.loss_prob > 0


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
        self.nodes = {s.node: SimNode(s, config)
                      for s in sorted(config.topology, key=attrgetter("node"))}
        self.node_ids = list(self.nodes)
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
        fixed = self._fixed = list(self.nodes.values())
        if self.hub_moves:
            fixed.remove(hub)
        # the hub's top speed in m/ms, and a slack well above a link test's float error
        self._top_speed = max((math.hypot(b.x - a.x, b.y - a.y) / (b.t_ms - a.t_ms)
                               for a, b in zip(waypoints, waypoints[1:])), default=0.0)
        coords = [c for n in fixed for c in n.pos] + [c for w in waypoints for c in (w.x, w.y)]
        self._slack = 1e-9 * (self.range_m + max(map(abs, coords)))
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
        # the hub at either end first moves to where it is at ``now``, which callers
        # may also set directly; a run calls this only to renew a walking hub's hold
        if self.hub_id in (u, v):
            self.nodes[self.hub_id].pos = self.trace.position(self.now)
        (ux, uy) = self.nodes[u].pos
        (vx, vy) = self.nodes[v].pos
        return math.hypot(ux - vx, uy - vy) <= self.range_m

    def _hub_link(self, node: SimNode) -> bool:
        """Whether ``node`` is in range of the walking hub, as ``in_range`` says.

        A live test's answer holds as long as the hub, at its top speed, cannot
        cover the distance's margin to ``range_m`` less the slack (forever if a
        trace of two or more waypoints stands still); past its hold a live test
        renews it.
        """
        tested, span, linked = node.hub_hold
        now = self.now
        if -span <= now - tested <= span:
            return linked
        linked = self.in_range(node.id, self.hub_id)
        margin = abs(math.dist(node.pos, self.nodes[self.hub_id].pos) - self.range_m)
        span = (margin - self._slack) / self._top_speed if self._top_speed else math.inf
        node.hub_hold = (now, span, linked)
        return linked

    def links(self, u: NodeId) -> list[SimNode]:
        """The nodes in range of ``u``, in id order, as ``in_range`` says at ``now``.

        For any node but a walking hub this is a stored list, with or without
        the hub, that deliveries share, so callers must not mutate it. In a
        static world no link is tested live; links to a walking hub are read
        from their holds (``_hub_link``).
        """
        if not self.hub_moves:
            return self._static_links[u]
        if u == self.hub_id:
            return [n for n in self._fixed if self._hub_link(n)]
        return self._hub_links[u] if self._hub_link(self.nodes[u]) else self._static_links[u]

    # --- event handlers ---------------------------------------------------

    def _emit_heartbeat(self, hub: SimNode) -> None:
        self.enqueue_tx(hub, hub.originate(HEARTBEAT), BROADCAST, 1)
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

    def _deliver(self, frame: Message, hops: int, transmitter: NodeId,
                 receivers: list[SimNode], sender: Optional[SimNode] = None) -> None:
        """Hand one transmission of ``frame``, heard at ``hops`` from node ``transmitter``,
        to each receiver: consume it there, or relay it at ``hops + 1``.

        Each frame kind first has its own consume step: a data frame counts as
        received and ends at the hub, a command is applied, a stats report ends
        at the hub and an ack at the node that sent the probe. Whatever is not
        consumed then takes the node's relay step, written once for every kind.
        Receivers take the frame in id order, as one event per receiver at
        consecutive ties would: whatever one schedules gets a later tie.
        ``receivers`` may be a stored link list, so it is only read. A
        ``sender`` with frames still queued then sends its next one.
        """
        kind, origin, seq, _, _, payload = frame
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
                self._apply_command(node, frame)
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
                action = mam_handle(node.relay, now, kind, key, hops, transmitter)
            else:
                action = btmr_relay(node.relay, key, hops)
            if action.__class__ is str:
                node.drops[action] += 1
            elif enqueue_tx(node, frame, action, hops + 1) and kind is DATA:
                node.relayed += 1
        if sender is not None:
            self._tx_dequeue(sender)

    def _relay(self, node: SimNode, frame: Message) -> None:
        """Send a frame ``node`` originated as decided, at hops 1."""
        key = (frame.origin, frame.seq)
        if node.algorithm is MAM:
            action = mam_handle(node.relay, self.now, frame.kind, key, 1, node.id)
        else:
            action = btmr_relay(node.relay, key, 1)
        if action.__class__ is str:
            node.drops[action] += 1
        else:
            self.enqueue_tx(node, frame, action, 1)

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

    def enqueue_tx(self, node: SimNode, frame: Message, dest: RelayAction, hops: int) -> bool:
        """Queue one transmission of ``frame`` as decided, to leave at ``hops``: 1 for a
        node's own frame, the heard hops + 1 for a relay. Overflow drops the newest entry
        and counts it."""
        if len(node.txq) >= self.tx_queue_capacity:
            node.tx_dropped += 1
            return False
        node.txq.append(frame)
        node.txq_dest.append(dest)
        node.txq_hops.append(hops)
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
        frame, dest, hops = node.txq.popleft(), node.txq_dest.popleft(), node.txq_hops.popleft()
        copies = 1
        if frame[0] is DATA:  # its kind
            if self.fault_duplicate and dest is not BROADCAST:
                copies = 2
            node.tx_data_count += copies
        node.tx_count += copies
        t = node.radio_free_at = self.now + self.latency_ms
        receivers = self._fan_out(node, dest)
        if copies == 2:
            # the duplication fault: the second copy draws its loss after the first
            receivers = receivers + self._fan_out(node, dest)
        # the delivery starts the next frame; with none, an event of its own does
        node.tx_scheduled = bool(node.txq)
        sender = node if node.tx_scheduled else None
        if receivers:
            self.schedule(t, World._deliver, frame, hops, node.id, receivers, sender)
        elif sender is not None:
            self.schedule(t, World._tx_dequeue, node)

    def _fan_out(self, node: SimNode, dest: RelayAction) -> list[SimNode]:
        """One copy's receivers: the sender's links that the loss draws spare, in id order."""
        receivers = self.links(node.id) if self.hub_moves else self._static_links[node.id]
        loss_prob = self.loss_prob
        if dest is not BROADCAST:  # one loss draw if ``dest`` is a link, none if not
            target = self.nodes[dest]
            if target in receivers and (loss_prob == 0.0 or self.rng.random() >= loss_prob):
                return [target]
            return []
        if loss_prob != 0.0:
            draw = self.rng.random
            receivers = [n for n in receivers if draw() >= loss_prob]
        return receivers

    # --- reporting ----------------------------------------------------------

    def report(self) -> RunReport:
        nodes = self.nodes.values()
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
