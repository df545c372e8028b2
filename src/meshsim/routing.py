"""Relay decision logic.

Two per-node state machines decide what to do with an incoming frame:

* ``btmr_relay`` -- controlled flooding: rebroadcast unless the frame was
  relayed recently (an LRU cache of ``(origin, seq)`` keys) or its hop
  budget is exhausted.
* ``mam_handle`` -- reactive least-hop routing: unicast data and stats
  reports toward a cached best neighbor learned from the collector's periodic
  heartbeats, with an expiry window so routes follow a moving collector.
  Heartbeats, commands and acks flood through ``btmr_relay``: algorithm
  switches and reachability probes must reach nodes before any route exists.

Both are deterministic functions of their explicit state plus inputs and only
decide where a frame goes; the engine owns the state and builds the frame sent.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Union

from .core import DATA, HEARTBEAT, MAX_HOPS, STATS_REPORT, Message, NodeId
from .core import message_hash  # noqa: F401  (bench/tracer.py wraps routing.message_hash)

DROP_SEEN = "seen"
DROP_TTL = "ttl"
DROP_NO_ROUTE = "no-route"


class RelayCache:
    """Bounded LRU set of recently relayed frame keys; only ``btmr_relay`` writes one."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[NodeId, int], None] = OrderedDict()

    def __contains__(self, key: tuple[NodeId, int]) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class MamState:
    """Per-node route cache: best neighbor toward the collector and its expiry."""

    delta_ms: int
    best_node: Optional[NodeId] = None
    best_hops: int = 0
    expiry: int = 0


@dataclass(frozen=True)
class Broadcast:
    """Send to every neighbour. A type of its own, not ``None``: bench/tracer.py counts it."""


# A decision is BROADCAST, the node id to unicast to, or a DROP_* reason; the
# transmit queue carries BROADCAST or the node id as decided.
BROADCAST = Broadcast()
RelayAction = Union[Broadcast, NodeId, str]


def btmr_relay(cache: RelayCache, message: Message) -> RelayAction:
    """Controlled-flooding relay decision for one incoming frame.

    Drops when the frame's ``(origin, seq)`` is already cached (recently
    relayed) or when the frame has used up its hop budget (``MAX_HOPS``, the
    most the wire format carries); otherwise records the key and rebroadcasts.
    A hit refreshes the key's recency; a new key is the most recent, and the
    least recent goes when the cache is over capacity.
    """
    key = (message.origin, message.seq)
    entries = cache._entries
    if key in entries:
        entries.move_to_end(key)
        return DROP_SEEN
    if message.hops >= MAX_HOPS:
        return DROP_TTL
    entries[key] = None
    if len(entries) > cache.capacity:
        entries.popitem(last=False)
    return BROADCAST


def mam_handle(state: MamState, now: int, cache: RelayCache, message: Message) -> RelayAction:
    """Reactive least-hop handling of one incoming frame, whatever its kind.

    Data and stats reports are unicast toward the cached best neighbor (or
    dropped when no route is known). Every other frame floods through
    ``btmr_relay``, keeping the LRU dedup and TTL cap of the flooding path.
    A heartbeat first makes its sender the best neighbor when the previous
    entry expired or the frame arrived over fewer hops. Commands and acks
    leave the route alone; they flood because algorithm switches and probes
    must reach nodes before any route exists.
    """
    kind = message.kind
    if kind is DATA or kind is STATS_REPORT:
        # The bearer-level TTL cap applies to unicasts as well; without it a
        # transiently looped route would forward a frame forever.
        if message.hops >= MAX_HOPS:
            return DROP_TTL
        if state.best_node is None:
            return DROP_NO_ROUTE
        return state.best_node

    if kind is HEARTBEAT and (now > state.expiry or message.hops < state.best_hops):
        state.best_node = message.sender
        state.best_hops = message.hops
        state.expiry = now + state.delta_ms
    return btmr_relay(cache, message)
