# Walk through the two relay decision functions by hand, one frame at a time.
#
# A flooding relay rebroadcasts everything it has not seen recently; the
# reactive strategy learns a best neighbor from the collector's heartbeats
# and unicasts data along that chain instead.

from meshsim import (
    MamState,
    Message,
    MessageKind,
    RelayCache,
    btmr_relay,
    mam_handle,
)

# Every decision below is made by node 5; a frame it forwards carries its id as
# the sender and one more hop.
RELAY = 5

# --- controlled flooding ----------------------------------------------------

cache = RelayCache(capacity=3)
reading = Message(MessageKind.DATA, origin=2, seq=0, hops=0, sender=2, payload=b"\x17")

echo = Message(MessageKind.DATA, origin=2, seq=0, hops=1, sender=3, payload=b"\x17")
print("flooding relay, first contact:   ", btmr_relay(cache, reading, RELAY))
print("same frame from another neighbor:", btmr_relay(cache, echo, RELAY))

stale = Message(MessageKind.DATA, origin=2, seq=1, hops=127, sender=2, payload=b"\x17")
print("hop budget exhausted:            ", btmr_relay(cache, stale, RELAY))

# The cache is a bounded LRU, so old entries age out and a frame can relay
# again once enough newer traffic displaced it.
for seq in (10, 11, 12):
    btmr_relay(cache, Message(MessageKind.DATA, 2, seq, 0, 2, b"\x17"), RELAY)
print("after 3 newer frames, the first relays again:",
      btmr_relay(cache, reading, RELAY))

# --- reactive least-hop route --------------------------------------------------

# Nodes start with no route at all. The first heartbeat is always accepted
# (the empty route counts as expired); afterwards only strictly fewer hops,
# or an expired entry, change the cached neighbor.
state = MamState(delta_ms=100_000)
cache = RelayCache(capacity=20)

def hb(seq, hops, sender):
    return Message(MessageKind.HEARTBEAT, origin=0, seq=seq, hops=hops, sender=sender)

print()
print("before any heartbeat:", state)
mam_handle(state, 1_000, cache, hb(0, 2, 7), RELAY)
print("heartbeat via node 7:", state)

mam_handle(state, 3_000, cache, hb(1, 5, 9), RELAY)
print("worse offer ignored: ", state)

mam_handle(state, 4_000, cache, hb(2, 1, 4), RELAY)
print("fewer hops accepted: ", state)

# Data rides the cached route as a unicast; with no route it is dropped.
print("data with a route:   ",
      mam_handle(state, 5_000, cache, reading, RELAY))
print("data without a route:",
      mam_handle(MamState(delta_ms=100_000), 5_000, cache, reading, RELAY))

# After the expiry window, whoever forwards the next heartbeat wins -- that is
# how routes follow a moving collector.
mam_handle(state, 200_000, cache, hb(3, 6, 9), RELAY)
print("after expiry:        ", state)
