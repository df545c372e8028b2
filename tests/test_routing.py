import copy
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim import (
    Broadcast,
    MamState,
    Message,
    MessageKind,
    RelayCache,
    btmr_relay,
    mam_handle,
    NodeSpec,
    Role,
    ScenarioConfig,
)
from meshsim.core import forwarded
from meshsim.routing import BROADCAST, DROP_NO_ROUTE, DROP_SEEN, DROP_TTL
from meshsim.simnet import SimNode

DELTA = 100_000
RELAY = 5  # id of a node that forwards frames


def data_msg(origin=2, seq=0, hops=0, sender=2):
    return Message(MessageKind.DATA, origin, seq, hops, sender, payload=b"r")


def heartbeat(origin=0, seq=0, hops=0, sender=0):
    return Message(MessageKind.HEARTBEAT, origin, seq, hops, sender)


# --- flood relay ------------------------------------------------------------

def test_btmr_first_relay_broadcasts():
    cache = RelayCache(20)
    action = btmr_relay(cache, message=data_msg(hops=0))
    assert action is BROADCAST
    assert (2, 0) in cache
    # a broadcast carries nothing, so every one is the same object
    assert btmr_relay(cache, data_msg(seq=1)) is action
    assert fields(Broadcast) == ()


def test_btmr_hop_budget_exhausted_drops():
    cache = RelayCache(20)
    action = btmr_relay(cache, message=data_msg(hops=127))
    assert action == DROP_TTL
    assert len(cache) == 0


def test_btmr_hop_126_still_relays():
    cache = RelayCache(20)
    action = btmr_relay(cache, message=data_msg(hops=126))
    assert action is BROADCAST


def test_btmr_second_relay_of_same_message_drops():
    cache = RelayCache(20)
    m = data_msg()
    assert btmr_relay(cache, m) is BROADCAST
    # the same message again, one hop further on, from another neighbor
    assert btmr_relay(cache, data_msg(hops=1, sender=3)) == DROP_SEEN


def test_btmr_lru_eviction_capacity_two():
    cache = RelayCache(2)
    m1, m2, m3 = data_msg(seq=1), data_msg(seq=2), data_msg(seq=3)
    assert btmr_relay(cache, m1) is BROADCAST
    assert btmr_relay(cache, m2) is BROADCAST
    assert btmr_relay(cache, m3) is BROADCAST
    assert btmr_relay(cache, m1) is BROADCAST


def test_btmr_hit_refreshes_recency():
    cache = RelayCache(2)
    m1, m2, m3 = data_msg(seq=1), data_msg(seq=2), data_msg(seq=3)
    btmr_relay(cache, m1)
    btmr_relay(cache, m2)
    assert btmr_relay(cache, m1) == DROP_SEEN
    btmr_relay(cache, m3)
    assert (m1.origin, m1.seq) in cache
    assert (m2.origin, m2.seq) not in cache


def test_btmr_keys_on_origin_and_seq_alone():
    cache = RelayCache(20)
    assert btmr_relay(cache, data_msg(seq=4)) is BROADCAST
    # another kind and payload under the same (origin, seq) is the same frame
    other = Message(MessageKind.COMMAND, 2, 4, 0, 2, payload=b"\x01")
    assert btmr_relay(cache, other) == DROP_SEEN
    assert len(cache) == 1 and (2, 4) in cache


def test_relay_cache_bounded_under_random_churn():
    rng = random.Random(31)
    cache = RelayCache(8)
    for _ in range(2000):
        btmr_relay(cache, data_msg(seq=rng.randrange(100)))
        assert len(cache) <= 8
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        RelayCache(0)


def test_relay_cache_keeps_recent_entries():
    cache = RelayCache(5)
    btmr_relay(cache, data_msg(seq=42))
    for seq in range(4):
        btmr_relay(cache, data_msg(seq=seq))
    assert (2, 42) in cache


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                             st.sampled_from([0, 126, 127])), max_size=40))
def test_btmr_decides_as_a_list_lru(capacity, frames):
    # the reference keeps the keys in a plain list, least recently relayed first
    cache, reference = RelayCache(capacity), []
    for origin, seq, hops in frames:
        key = (origin, seq)
        if key in reference:
            reference.remove(key)
            reference.append(key)
            expected = DROP_SEEN
        elif hops >= 127:
            expected = DROP_TTL
        else:
            reference = (reference + [key])[-capacity:]
            expected = BROADCAST
        assert btmr_relay(cache, data_msg(origin, seq, hops)) == expected
        assert list(cache._entries) == reference


def test_btmr_broadcasts_only_frames_below_127_hops():
    # a forward adds one hop, so a broadcast frame never leaves with more than 127
    rng = random.Random(7)
    cache = RelayCache(4)
    for i in range(500):
        hops = rng.randrange(0, 140)
        action = btmr_relay(cache, data_msg(seq=i, hops=hops, sender=1))
        if action is BROADCAST:
            assert hops < 127


# --- forwarded frames -----------------------------------------------------------

node_ids = st.integers(0, 0xFFFF)
hand_built_frames = st.builds(Message, st.sampled_from(MessageKind), node_ids,
                              st.integers(0, 0xFFFFFFFF), st.integers(0, 126), node_ids,
                              st.binary(max_size=16))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(hand_built_frames)
def test_a_frame_and_its_forward_are_one_cache_entry(frame):
    cache = RelayCache(4)
    assert btmr_relay(cache, frame) is BROADCAST
    assert btmr_relay(cache, forwarded(frame, RELAY)) == DROP_SEEN
    assert (frame.origin, frame.seq) in cache and len(cache) == 1


# --- reactive least-hop route -----------------------------------------------

def test_mam_initial_discovery_accepted_by_expiry():
    state = MamState(delta_ms=DELTA)
    cache = RelayCache(20)
    action = mam_handle(state, 1, cache, message=heartbeat(hops=2, sender=7))
    assert (state.best_node, state.best_hops, state.expiry) == (7, 2, 1 + DELTA)
    assert action is BROADCAST


def test_mam_not_expired_and_more_hops_ignored():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    cache = RelayCache(20)
    action = mam_handle(state, 1000, cache, message=heartbeat(hops=5, sender=9))
    assert (state.best_node, state.best_hops, state.expiry) == (7, 2, 5000)
    assert action is BROADCAST


def test_mam_expired_accepts_any_sender():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    action = mam_handle(state, 6000, RelayCache(20), message=heartbeat(hops=5, sender=9))
    assert (state.best_node, state.best_hops, state.expiry) == (9, 5, 6000 + DELTA)
    assert action is BROADCAST


def test_mam_fewer_hops_updates_before_expiry():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=4, expiry=9000)
    mam_handle(state, 100, RelayCache(20), message=heartbeat(hops=1, sender=3))
    assert (state.best_node, state.best_hops, state.expiry) == (3, 1, 100 + DELTA)


def test_mam_equal_hops_is_not_an_update():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    mam_handle(state, 100, RelayCache(20), message=heartbeat(hops=2, sender=9))
    assert state.best_node == 7


def test_mam_expiry_boundary_is_strict():
    # NOW() > expiry: at exactly the expiry tick the entry is still fresh
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    mam_handle(state, 5000, RelayCache(20), message=heartbeat(hops=5, sender=9))
    assert state.best_node == 7
    mam_handle(state, 5001, RelayCache(20), message=heartbeat(hops=5, sender=9))
    assert state.best_node == 9


reports = pytest.mark.parametrize("kind", [MessageKind.DATA, MessageKind.STATS_REPORT],
                                  ids=["data", "stats"])


@reports
def test_mam_data_unicasts_to_best_neighbor(kind):
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    action = mam_handle(state, 100, RelayCache(20), message=data_msg(hops=3)._replace(kind=kind))
    assert action == 7
    assert (state.best_node, state.best_hops, state.expiry) == (7, 2, 5000)


@reports
def test_mam_data_without_route_drops(kind):
    state = MamState(delta_ms=DELTA)
    action = mam_handle(state, 100, RelayCache(20), message=data_msg()._replace(kind=kind))
    assert action == DROP_NO_ROUTE


@reports
def test_mam_data_hop_budget_capped(kind):
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=2, expiry=5000)
    action = mam_handle(state, 100, RelayCache(20), message=data_msg(hops=127)._replace(kind=kind))
    assert action == DROP_TTL


small_keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
mam_states = st.builds(MamState, st.integers(1, 10**6), st.none() | node_ids,
                       st.integers(0, 127), st.integers(0, 10**7))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mam_states, st.integers(0, 10**7), st.integers(1, 6), st.lists(small_keys, unique=True),
       st.builds(Message, st.sampled_from([MessageKind.COMMAND, MessageKind.ACK]),
                 st.integers(0, 3), st.integers(0, 3), st.sampled_from([0, 5, 126, 127]), node_ids,
                 st.binary(max_size=6)))
def test_mam_floods_control_frames_as_btmr_does(state, now, capacity, keys, frame):
    # algorithm switches and probes must reach nodes before any route exists
    mam_cache, btmr_cache = RelayCache(capacity), RelayCache(capacity)
    for key in keys:
        for cache in (mam_cache, btmr_cache):
            btmr_relay(cache, data_msg(*key))
    before = copy.deepcopy(state)
    assert mam_handle(state, now, mam_cache, frame) == btmr_relay(btmr_cache, frame)
    # the same entries in the same LRU order
    assert list(mam_cache._entries) == list(btmr_cache._entries)
    assert state == before


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mam_states, st.integers(1, 6),
       st.lists(st.tuples(st.integers(0, 10**6),
                          st.builds(Message, st.sampled_from(MessageKind), st.integers(0, 3),
                                    st.integers(0, 3), st.integers(0, 127), node_ids)),
                max_size=30))
def test_decisions_are_broadcast_a_node_id_or_a_drop_reason(state, capacity, arrivals):
    btmr_cache, mam_cache = RelayCache(capacity), RelayCache(capacity)
    now = 0
    for gap, frame in arrivals:
        now += gap
        action = btmr_relay(btmr_cache, frame)
        assert action is BROADCAST or action in (DROP_SEEN, DROP_TTL)
        action = mam_handle(state, now, mam_cache, frame)
        if type(action) is int:
            assert action == state.best_node
        else:
            assert action is BROADCAST or action in (DROP_SEEN, DROP_TTL, DROP_NO_ROUTE)


def test_mam_discovery_update_even_when_flood_dedups():
    state = MamState(delta_ms=DELTA, best_node=7, best_hops=5, expiry=9000)
    cache = RelayCache(20)
    mam_handle(state, 100, cache, message=heartbeat(seq=3, hops=4, sender=8))
    # the same heartbeat again, over a shorter path through another neighbor
    action = mam_handle(state, 200, cache, message=heartbeat(seq=3, hops=2, sender=6))
    assert (state.best_node, state.best_hops) == (6, 2)
    assert action == DROP_SEEN


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
        mam_handle(state, now, cache, heartbeat(seq=i, hops=hops, sender=sender))
        updated = (state.best_node, state.best_hops) != before[:2] or state.expiry != before[2]
        if updated:
            assert state.expiry == now + 777
        else:
            assert (state.best_node, state.best_hops, state.expiry) == before


def test_mam_best_hops_non_increasing_within_window():
    rng = random.Random(17)
    state = MamState(delta_ms=10_000_000)
    cache = RelayCache(50)
    mam_handle(state, 1, cache, message=heartbeat(seq=0, hops=9, sender=1))
    last = state.best_hops
    for i in range(1, 300):
        hops = rng.randrange(0, 12)
        mam_handle(state, 1 + i, cache,
                   message=heartbeat(seq=i, hops=hops, sender=rng.randrange(1, 6)))
        assert state.best_hops <= last
        last = state.best_hops


def test_handlers_are_deterministic_given_state():
    state = MamState(delta_ms=DELTA, best_node=4, best_hops=3, expiry=2_000)
    cache = RelayCache(4)
    btmr_relay(cache, data_msg(seq=123))
    for message in (heartbeat(seq=1, hops=2, sender=5), data_msg(seq=2, hops=1)):
        s1, c1 = copy.deepcopy(state), copy.deepcopy(cache)
        s2, c2 = copy.deepcopy(state), copy.deepcopy(cache)
        a1 = mam_handle(s1, 900, c1, message)
        a2 = mam_handle(s2, 900, c2, message)
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
    btmr_relay(node.cache, data_msg(seq=55))
    node.reset_routing()
    assert (node.mam.best_node, node.mam.best_hops, node.mam.expiry) == (None, 0, 0)
    assert len(node.cache) == 0
    assert node.relayed == 0
    action = mam_handle(node.mam, 10, node.cache, data_msg())
    assert action == DROP_NO_ROUTE


def test_reset_lets_a_cached_frame_relay_again():
    node = routed_node()
    m = data_msg(seq=9)
    btmr_relay(node.cache, m)
    assert btmr_relay(node.cache, m) == DROP_SEEN
    node.reset_routing()
    assert btmr_relay(node.cache, m) is BROADCAST


def test_reset_is_idempotent():
    node = routed_node()
    node.reset_routing()
    snapshot = (node.mam.best_node, node.mam.best_hops, node.mam.expiry, len(node.cache),
                node.relayed)
    node.reset_routing()
    assert snapshot == (node.mam.best_node, node.mam.best_hops, node.mam.expiry,
                        len(node.cache), node.relayed)
