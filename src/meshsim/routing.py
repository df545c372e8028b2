"""Relay decision logic.

Two per-node state machines decide what to do with an incoming frame:

* ``btmr_relay`` -- controlled flooding: rebroadcast unless the frame was
  relayed recently (an LRU cache of ``(origin, seq)`` keys) or its hop
  budget is exhausted.
* ``mam_handle`` -- reactive least-hop routing: unicast data toward a cached
  best neighbor learned from the collector's periodic heartbeats, with an
  expiry window so routes follow a moving collector.

Both are deterministic functions of their explicit state plus inputs; the
simulation engine owns the state and executes the returned actions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Union

from .core import MAX_HOPS, Message, MessageKind, NodeId, forwarded
from .core import message_hash  # noqa: F401  (bench/tracer.py wraps routing.message_hash)

DROP_SEEN = "seen"
DROP_TTL = "ttl"
DROP_NO_ROUTE = "no-route"


class RelayCache:
    """Bounded LRU set of recently relayed frame keys."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[NodeId, int], None] = OrderedDict()

    def seen(self, key: tuple[NodeId, int]) -> bool:
        """Membership query; a hit refreshes the entry's recency."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        return False

    def insert(self, key: tuple[NodeId, int]) -> None:
        """Add a key that ``seen`` has just found absent; a new key is the most recent."""
        self._entries[key] = None
        # one key was added, so at most one has to go
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

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

    def reset(self) -> None:
        self.best_node = None
        self.best_hops = 0
        self.expiry = 0


@dataclass(frozen=True)
class Broadcast:
    message: Message
    dest = None  # a class attribute, not a field: every neighbour receives it


@dataclass(frozen=True)
class Unicast:
    dest: NodeId
    message: Message


@dataclass(frozen=True)
class Drop:
    reason: str


RelayAction = Union[Broadcast, Unicast, Drop]

# A drop carries only its reason, so each reason has one shared action.
_SEEN, _TTL, _NO_ROUTE = Drop(DROP_SEEN), Drop(DROP_TTL), Drop(DROP_NO_ROUTE)


def btmr_relay(cache: RelayCache, message: Message, relay: NodeId) -> RelayAction:
    """Controlled-flooding relay decision for one incoming frame.

    Drops when the frame's ``(origin, seq)`` is already cached (recently
    relayed) or when the frame has used up its hop budget (``MAX_HOPS``, the
    most the wire format carries); otherwise records the key and rebroadcasts
    the frame one hop further with ``relay`` as the sender.
    """
    key = (message.origin, message.seq)
    if cache.seen(key):
        return _SEEN
    if message.hops >= MAX_HOPS:
        return _TTL
    cache.insert(key)
    return Broadcast(forwarded(message, relay))


def mam_handle(state: MamState, now: int, cache: RelayCache, message: Message,
               relay: NodeId) -> RelayAction:
    """Reactive least-hop handling of one incoming frame.

    Non-discovery frames are unicast toward the cached best neighbor (or
    dropped when no route is known). Discovery frames (heartbeats) make their
    sender the best neighbor when the previous entry expired or the frame
    arrived over fewer hops, and are then flooded through ``btmr_relay`` so
    discovery keeps the LRU dedup and TTL cap of the flooding path. A
    forwarded frame carries one more hop and ``relay`` as its sender.
    """
    if message.kind is not MessageKind.HEARTBEAT:
        # The bearer-level TTL cap applies to unicasts as well; without it a
        # transiently looped route would forward a frame forever.
        if message.hops >= MAX_HOPS:
            return _TTL
        if state.best_node is None:
            return _NO_ROUTE
        return Unicast(state.best_node, forwarded(message, relay))

    if now > state.expiry or message.hops < state.best_hops:
        state.best_node = message.sender
        state.best_hops = message.hops
        state.expiry = now + state.delta_ms
    return btmr_relay(cache, message, relay)
