import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim import (
    Broadcast,
    Drop,
    MamState,
    Message,
    MessageKind,
    RelayCache,
    Unicast,
    btmr_relay,
    mam_handle,
    NodeSpec,
    Role,
    ScenarioConfig,
)
from meshsim.routing import DROP_NO_ROUTE, DROP_SEEN, DROP_TTL
from meshsim.simnet import SimNode

DELTA = 100_000
RELAY = 5  # id of the node making the relay decisions


def data_msg(origin=2, seq=0, hops=0, sender=2):
    return Message(MessageKind.DATA, origin, seq, hops, sender, payload=b"r")


def heartbeat(origin=0, seq=0, hops=0, sender=0):
    return Message(MessageKind.HEARTBEAT, origin, seq, hops, sender)


# --- flood relay ------------------------------------------------------------

def test_btmr_first_relay_broadcasts_with_one_more_hop():
    cache = RelayCache(20)
    action = btmr_relay(cache, message=data_msg(hops=0), relay=RELAY)
    # the relay sends the frame on as its own, one hop further
    assert action == Broadcast(data_msg(hops=1, sender=RELAY))


def test_btmr_hop_budget_exhausted_drops():
    cache = RelayCache(20)
    action = btmr_relay(cache, message=data_msg(hops=127), relay=RELAY)
    assert action == Drop(DROP_TTL)
    assert len(cache) == 0


def test_btmr_hop_126_still_relays():
    cache = RelayCache(20)
    action = btmr_relay(cache, message=data_msg(hops=126), relay=RELAY)
    assert isinstance(action, Broadcast)
    assert action.message.hops == 127


def test_btmr_second_relay_of_same_message_drops():
    cache = RelayCache(20)
    m = data_msg()
    assert isinstance(btmr_relay(cache, m, RELAY), Broadcast)
    # the same message again, one hop further on, from another neighbor
    assert btmr_relay(cache, data_msg(hops=1, sender=3), RELAY) == Drop(DROP_SEEN)


def test_btmr_lru_eviction_capacity_two():
    cache = RelayCache(2)
    m1, m2, m3 = data_msg(seq=1), data_msg(seq=2), data_msg(seq=3)
    assert isinstance(btmr_relay(cache, m1, RELAY), Broadcast)
    assert isinstance(btmr_relay(cache, m2, RELAY), Broadcast)
    assert isinstance(btmr_relay(cache, m3, RELAY), Broadcast)
    assert isinstance(btmr_relay(cache, m1, RELAY), Broadcast)


def test_btmr_hit_refreshes_recency():
    cache = RelayCache(2)
    m1, m2, m3 = data_msg(seq=1), data_msg(seq=2), data_msg(seq=3)
    btmr_relay(cache, m1, RELAY)
    btmr_relay(cache, m2, RELAY)
    assert btmr_relay(cache, m1, RELAY) == Drop(DROP_SEEN)
    btmr_relay(cache, m3, RELAY)
    assert (m1.origin, m1.seq) in cache
    assert (m2.origin, m2.seq) not in cache


def test_btmr_keys_on_origin_and_seq_alone():
    cache = RelayCache(20)
    assert isinstance(btmr_relay(cache, data_msg(seq=4), RELAY), Broadcast)
    # another kind and payload under the same (origin, seq) is the same frame
    other = Message(MessageKind.COMMAND, 2, 4, 0, 2, payload=b"\x01")
    assert btmr_relay(cache, other, RELAY) == Drop(DROP_SEEN)
    assert len(cache) == 1 and (2, 4) in cache


def test_relay_cache_bounded_under_random_churn():
    rng = random.Random(31)
    cache = RelayCache(8)
    for _ in range(2000):
        cache.insert(rng.randrange(100))
        assert len(cache) <= 8
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        RelayCache(0)


def test_relay_cache_keeps_recent_entries():
    cache = RelayCache(5)
    cache.insert(42)
    for h in range(4):
        cache.insert(h)
    assert cache.seen(42)


def test_btmr_never_emits_hops_above_127():
    rng = random.Random(7)
    cache = RelayCache(4)
    for i in range(500):
        hops = rng.randrange(0, 140)
        action = btmr_relay(cache, data_msg(seq=i, hops=hops, sender=1), RELAY)
        if isinstance(action, Broadcast):
            assert action.message.hops <= 127


# --- forwarded frames -----------------------------------------------------------

node_ids = st.integers(0, 0xFFFF)
hand_built_frames = st.builds(Message, st.sampled_from(MessageKind), node_ids,
                              st.integers(0, 0xFFFFFFFF), st.integers(0, 127), node_ids,
                              st.binary(max_size=16))
# (decision, deciding node, MAM best neighbour or none)
relay_steps = st.tuples(st.sampled_from(["btmr", "mam"]), node_ids, st.none() | node_ids)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(hand_built_frames, st.lists(relay_steps, max_size=8))
def test_forwards_change_only_hops_and_sender(frame, steps):
    message = frame
    for decision, relay, best in steps:
        cache = RelayCache(4)
        if decision == "btmr":
            action = btmr_relay(cache, message, relay)
        else:
            action = mam_handle(MamState(DELTA, best_node=best), 0, cache, message, relay)
        if isinstance(action, Drop):
            break
        out = action.message
        assert (out.kind, out.origin, out.seq, out.payload) == (
            message.kind, message.origin, message.seq, message.payload)
        assert (out.hops, out.sender) == (message.hops + 1, relay)
        message = out

    # the frame as built by hand and its forwarded copy are one cache entry
    cache = RelayCache(4)
    action = btmr_relay(cache, frame, RELAY)
    if isinstance(action, Broadcast):
        assert btmr_relay(cache, action.message, RELAY) == Drop(DROP_SEEN)
        assert (frame.origin, frame.seq) in cache and len(cache) == 1


# --- reactive least-hop route -----------------------------------------------

def test_mam_initial_discovery_accepted_by_expiry():
    state = MamState(delta_ms=DELTA)
    cache = RelayCache(20)
    action = mam_handle(state, 1, cache, message=heartbeat(hops=2, sender=7), relay=RELAY)
    assert (state.best_node, state.best_hops, state.expiry) == (7, 2, 1 + DELTA)
    assert isinstance(action, Broadcast)


def test_mam_not_expired_and_more_hops_ignored():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    cache = RelayCache(20)
    action = mam_handle(state, 1000, cache, message=heartbeat(hops=5, sender=9), relay=RELAY)
    assert (state.best_node, state.best_hops, state.expiry) == (7, 2, 5000)
    assert isinstance(action, Broadcast)


def test_mam_expired_accepts_any_sender():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    action = mam_handle(state, 6000, RelayCache(20), message=heartbeat(hops=5, sender=9),
                        relay=RELAY)
    assert (state.best_node, state.best_hops, state.expiry) == (9, 5, 6000 + DELTA)
    assert isinstance(action, Broadcast)


def test_mam_fewer_hops_updates_before_expiry():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=4, expiry=9000)
    mam_handle(state, 100, RelayCache(20), message=heartbeat(hops=1, sender=3), relay=RELAY)
    assert (state.best_node, state.best_hops, state.expiry) == (3, 1, 100 + DELTA)


def test_mam_equal_hops_is_not_an_update():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    mam_handle(state, 100, RelayCache(20), message=heartbeat(hops=2, sender=9), relay=RELAY)
    assert state.best_node == 7


def test_mam_expiry_boundary_is_strict():
    # NOW() > expiry: at exactly the expiry tick the entry is still fresh
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    mam_handle(state, 5000, RelayCache(20), message=heartbeat(hops=5, sender=9), relay=RELAY)
    assert state.best_node == 7
    mam_handle(state, 5001, RelayCache(20), message=heartbeat(hops=5, sender=9), relay=RELAY)
    assert state.best_node == 9


def test_mam_data_unicasts_to_best_neighbor():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    action = mam_handle(state, 100, RelayCache(20), message=data_msg(hops=3), relay=RELAY)
    assert action == Unicast(7, data_msg(hops=4, sender=RELAY))
    assert (state.best_node, state.best_hops, state.expiry) == (7, 2, 5000)


def test_mam_data_without_route_drops():
    state = MamState(delta_ms=DELTA)
    action = mam_handle(state, 100, RelayCache(20), message=data_msg(), relay=RELAY)
    assert action == Drop(DROP_NO_ROUTE)


def test_mam_data_hop_budget_capped():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    action = mam_handle(state, 100, RelayCache(20), message=data_msg(hops=127), relay=RELAY)
    assert action == Drop(DROP_TTL)


def test_mam_discovery_update_even_when_flood_dedups():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=5, expiry=9000)
    cache = RelayCache(20)
    mam_handle(state, 100, cache, message=heartbeat(seq=3, hops=4, sender=8), relay=RELAY)
    # the same heartbeat again, over a shorter path through another neighbor
    action = mam_handle(state, 200, cache, message=heartbeat(seq=3, hops=2, sender=6),
                        relay=RELAY)
    assert (state.best_node, state.best_hops) == (6, 2)
    assert action == Drop(DROP_SEEN)


def test_mam_expiry_always_now_plus_delta():
    rng = random.Random(13)
    state = MamState(delta_ms=777)
    cache = RelayCache(50)
    now = 0
    for i in range(500):
        now += rng.randrange(1, 400)
        before = (state.best_node, state.best_hops, state.expiry)
        hops = rng.randrange(0, 10)
        sender = rng.randrange(1, 6)
        mam_handle(state, now, cache, heartbeat(seq=i, hops=hops, sender=sender), RELAY)
        updated = (state.best_node, state.best_hops) != before[:2] or state.expiry != before[2]
        if updated:
            assert state.expiry == now + 777
        else:
            assert (state.best_node, state.best_hops, state.expiry) == before


def test_mam_best_hops_non_increasing_within_window():
    rng = random.Random(17)
    state = MamState(delta_ms=10_000_000)
    cache = RelayCache(50)
    mam_handle(state, 1, cache, message=heartbeat(seq=0, hops=9, sender=1), relay=RELAY)
    last = state.best_hops
    for i in range(1, 300):
        hops = rng.randrange(0, 12)
        mam_handle(state, 1 + i, cache,
                   message=heartbeat(seq=i, hops=hops, sender=rng.randrange(1, 6)), relay=RELAY)
        assert state.best_hops <= last
        last = state.best_hops


def test_handlers_are_deterministic_given_state():
    state = MamState(delta_ms=DELTA, best_node=4, best_hops=3, expiry=2_000)
    cache = RelayCache(4)
    cache.insert(123)
    for message in (heartbeat(seq=1, hops=2, sender=5), data_msg(seq=2, hops=1)):
        s1, c1 = copy.deepcopy(state), copy.deepcopy(cache)
        s2, c2 = copy.deepcopy(state), copy.deepcopy(cache)
        a1 = mam_handle(s1, 900, c1, message, RELAY)
        a2 = mam_handle(s2, 900, c2, message, RELAY)
        assert a1 == a2
        assert (s1.best_node, s1.best_hops, s1.expiry) == (s2.best_node, s2.best_hops, s2.expiry)


# --- reset -------------------------------------------------------------------

def routed_node():
    """A sensor node that has learned a route, relayed a frame and counted it."""
    spec = NodeSpec(1, 0.0, 0.0, Role.SENSOR)
    config = ScenarioConfig(topology=[NodeSpec(0, 5.0, 0.0, Role.MOBILE_HUB), spec],
                            duration_ms=1_000, delta_ms=DELTA, relay_cache_size=8)
    node = SimNode(spec, config)
    node.mam = MamState(delta_ms=DELTA, best_node=3, best_hops=1, expiry=999)
    node.relayed = 7
    return node


def test_reset_returns_to_init_state():
    node = routed_node()
    node.cache.insert(55)
    node.reset_routing()
    assert (node.mam.best_node, node.mam.best_hops, node.mam.expiry) == (None, 0, 0)
    assert len(node.cache) == 0
    assert node.relayed == 0
    action = mam_handle(node.mam, 10, node.cache, data_msg(), RELAY)
    assert action == Drop(DROP_NO_ROUTE)


def test_reset_allows_previously_seen_hash_to_relay():
    node = routed_node()
    m = data_msg(seq=9)
    btmr_relay(node.cache, m, RELAY)
    assert btmr_relay(node.cache, m, RELAY) == Drop(DROP_SEEN)
    node.reset_routing()
    assert isinstance(btmr_relay(node.cache, m, RELAY), Broadcast)


def test_reset_is_idempotent():
    node = routed_node()
    node.reset_routing()
    snapshot = (node.mam.best_node, node.mam.best_hops, node.mam.expiry, len(node.cache),
                node.relayed)
    node.reset_routing()
    assert snapshot == (node.mam.best_node, node.mam.best_hops, node.mam.expiry,
                        len(node.cache), node.relayed)
