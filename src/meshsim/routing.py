"""Relay decision logic.

Two per-node state machines decide what to do with an incoming frame:

* ``btmr_relay`` -- controlled flooding: rebroadcast unless the frame's
  ``(origin, seq)`` key was relayed recently (an LRU cache of keys) or its
  hop budget is exhausted. It takes that key and the hop count, not the frame.
* ``mam_handle`` -- reactive least-hop routing: unicast data and stats
  reports toward a cached best neighbor learned from the collector's periodic
  heartbeats, with an expiry window so routes follow a moving collector.
  Heartbeats, commands and acks flood through ``btmr_relay``: algorithm
  switches and reachability probes must reach nodes before any route exists.

Both decide only where a frame goes, deterministically from one node's
``RelayState`` and the frame; the engine owns that state and builds the frame sent.

A frame's ``hops`` is a Bluetooth Mesh PDU's 7-bit TTL read as ``hops = 128 - TTL``:
every kind leaves its originator at hops 1 (TTL 127), each relay adds one, and a
node relays only while ``hops < MAX_HOPS`` (TTL 2 or more).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Union

from .core import DATA, HEARTBEAT, MAX_HOPS, STATS_REPORT, Message, NodeId, is_int
from .core import message_hash  # noqa: F401  (bench/tracer.py wraps routing.message_hash)

DROP_SEEN = "seen"
DROP_TTL = "ttl"
DROP_NO_ROUTE = "no-route"
DROP_REASONS = (DROP_SEEN, DROP_TTL, DROP_NO_ROUTE)  # the keys of ``SimNode.drops``


@dataclass
class RelayState:
    """One node's relay memory, shared by both algorithms.

    ``seen`` is a bounded LRU of recently relayed ``(origin, seq)`` keys, least
    recent first; only ``btmr_relay`` writes it. ``best_node``, ``best_hops``
    and ``expiry`` are the route toward the collector that ``mam_handle``
    learns from heartbeats.
    """

    cache_size: int
    delta_ms: int
    seen: OrderedDict[tuple[NodeId, int], None] = field(default_factory=OrderedDict)
    best_node: Optional[NodeId] = None
    best_hops: int = 0
    expiry: int = 0

    def __post_init__(self) -> None:
        for name in ("cache_size", "delta_ms"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")


@dataclass(frozen=True)
class Broadcast:
    """Send to every neighbour. A type of its own, not ``None``: bench/tracer.py counts it."""


# A decision is BROADCAST, the node id to unicast to, or a DROP_* reason; the
# transmit queue carries BROADCAST or the node id as decided.
BROADCAST = Broadcast()
RelayAction = Union[Broadcast, NodeId, str]


def btmr_relay(state: RelayState, key: tuple[NodeId, int], hops: int) -> RelayAction:
    """Controlled-flooding relay decision for one incoming frame's ``(origin, seq)`` and hops.

    Drops when ``key`` is in ``state.seen`` (recently relayed) or when ``hops``
    has used up the hop budget (``MAX_HOPS``, the most the wire format carries);
    otherwise records the key and rebroadcasts. A hit refreshes the key's
    recency; a new key is the most recent, and the least recent goes when
    ``seen`` holds more than ``cache_size`` keys.
    """
    seen = state.seen
    if key in seen:
        seen.move_to_end(key)
        return DROP_SEEN
    if hops >= MAX_HOPS:
        return DROP_TTL
    seen[key] = None
    if len(seen) > state.cache_size:
        seen.popitem(last=False)
    return BROADCAST


def mam_handle(state: RelayState, now: int, message: Message) -> RelayAction:
    """Reactive least-hop handling of one incoming frame, whatever its kind.

    Data and stats reports are unicast toward the cached best neighbor (or
    dropped when no route is known). Every other frame floods through
    ``btmr_relay``, keeping the LRU dedup and TTL cap of the flooding path.
    A heartbeat first makes its sender the best neighbor when the previous
    entry expired or the frame arrived over fewer hops. Commands and acks
    leave the route alone; they flood because algorithm switches and probes
    must reach nodes before any route exists.
    """
    kind, origin, seq, hops, sender, _ = message
    if kind is DATA or kind is STATS_REPORT:
        # The bearer-level TTL cap applies to unicasts as well; without it a
        # transiently looped route would forward a frame forever.
        if hops >= MAX_HOPS:
            return DROP_TTL
        best_node = state.best_node
        return DROP_NO_ROUTE if best_node is None else best_node

    if kind is HEARTBEAT and (now > state.expiry or hops < state.best_hops):
        state.best_node = sender
        state.best_hops = hops
        state.expiry = now + state.delta_ms
    return btmr_relay(state, (origin, seq), hops)
