# Walk through the two relay decision functions by hand, one frame at a time.
#
# A flooding relay rebroadcasts everything it has not seen recently; the
# reactive strategy learns a best neighbor from the collector's heartbeats
# and unicasts data along that chain instead.

from meshsim import (
    CommandVerb,
    Message,
    MessageKind,
    RelayState,
    btmr_relay,
    mam_handle,
)
from meshsim.routing import BROADCAST

# A decision only says where a frame goes: to every neighbour (BROADCAST), to
# one node (its id), or nowhere (the drop reason, a string). The frame a relay
# sends is the same whatever the decision: one more hop, with the relay as sender.
# (The engine never copies a frame: it carries those two beside the frame that
# its origin built.) Flooding reads only a frame's (origin, seq) key and its hop
# count; the reactive strategy also reads its kind and who sent it.


def flood(state, frame):
    return btmr_relay(state, (frame.origin, frame.seq), frame.hops)


def routed(state, now, frame):
    return mam_handle(state, now, frame.kind, (frame.origin, frame.seq), frame.hops, frame.sender)


def said(decision):
    if decision is BROADCAST:
        return "broadcast"
    if isinstance(decision, str):
        return f"drop: {decision}"
    return f"unicast to {decision}"


def route(state):
    return f"best_node={state.best_node} best_hops={state.best_hops} expiry={state.expiry}"


# --- controlled flooding ----------------------------------------------------

# Each node keeps one RelayState for both strategies: the LRU of recently
# relayed (origin, seq) keys that flooding reads, and the route that the
# reactive strategy learns.
state = RelayState(cache_size=3, delta_ms=100_000)
reading = Message(MessageKind.DATA, origin=2, seq=0, hops=1, sender=2, payload=b"\x17")

echo = Message(MessageKind.DATA, origin=2, seq=0, hops=2, sender=3, payload=b"\x17")
print("flooding relay, first contact:   ", said(flood(state, reading)))
print("node 5 then sends:               ", reading._replace(hops=reading.hops + 1, sender=5))
print("same frame from another neighbor:", said(flood(state, echo)))

stale = Message(MessageKind.DATA, origin=2, seq=1, hops=127, sender=2, payload=b"\x17")
print("hop budget exhausted:            ", said(flood(state, stale)))

# The seen-key cache is a bounded LRU, so old entries age out and a frame can relay
# again once enough newer traffic displaced it.
for seq in (10, 11, 12):
    btmr_relay(state, (2, seq), 1)
print("after 3 newer frames, the first relays again:",
      said(flood(state, reading)))

# --- reactive least-hop route --------------------------------------------------

# Nodes start with no route at all. The first heartbeat is always accepted
# (the empty route counts as expired); afterwards only strictly fewer hops,
# or an expired entry, change the cached neighbor.
state = RelayState(cache_size=20, delta_ms=100_000)

def hb(seq, hops, sender):
    return Message(MessageKind.HEARTBEAT, origin=0, seq=seq, hops=hops, sender=sender)

print()
print("before any heartbeat:", route(state))
routed(state, 1_000, hb(0, 2, 7))
print("heartbeat via node 7:", route(state))

routed(state, 3_000, hb(1, 5, 9))
print("worse offer ignored: ", route(state))

routed(state, 4_000, hb(2, 1, 4))
print("fewer hops accepted: ", route(state))

# Data rides the cached route as a unicast; with no route it is dropped.
print("data with a route:   ",
      said(routed(state, 5_000, reading)))
print("data without a route:",
      said(routed(RelayState(cache_size=20, delta_ms=100_000), 5_000, reading)))

# Commands flood even under MAM, and leave the route alone: an algorithm switch
# or a probe must reach nodes before any route exists.
set_mam = Message(MessageKind.COMMAND, origin=1, seq=0, hops=1, sender=1,
                  payload=bytes([CommandVerb.SET_MAM]))
print("set-mam command:     ", said(routed(state, 5_000, set_mam)))

# After the expiry window, whoever forwards the next heartbeat wins -- that is
# how routes follow a moving collector.
routed(state, 200_000, hb(3, 6, 9))
print("after expiry:        ", route(state))
