import copy
import random
from dataclasses import fields

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from meshsim import (
    Broadcast,
    Message,
    MessageKind,
    RelayState,
    btmr_relay,
    mam_handle,
    NodeSpec,
    Role,
    ScenarioConfig,
)
from meshsim.routing import BROADCAST, DROP_NO_ROUTE, DROP_SEEN, DROP_TTL
from meshsim.simnet import SimNode

DELTA = 100_000
RELAY = 5  # id of a node that forwards frames


def data_msg(origin=2, seq=0, hops=1, sender=2):
    return Message(MessageKind.DATA, origin, seq, hops, sender, payload=b"r")


def heartbeat(origin=0, seq=0, hops=1, sender=0):
    return Message(MessageKind.HEARTBEAT, origin, seq, hops, sender)


def flood(state, frame):
    """``btmr_relay`` on a whole frame: its ``(origin, seq)`` key and its hops."""
    return btmr_relay(state, (frame.origin, frame.seq), frame.hops)


def mam(state, now, frame):
    """``mam_handle`` on a whole frame: its kind, ``(origin, seq)`` key, hops and sender."""
    return mam_handle(state, now, frame.kind, (frame.origin, frame.seq), frame.hops, frame.sender)


# --- flood relay ------------------------------------------------------------

def test_btmr_first_relay_broadcasts():
    state = RelayState(20, DELTA)
    action = btmr_relay(state, (2, 0), 1)
    assert action is BROADCAST
    assert (2, 0) in state.seen
    # a broadcast carries nothing, so every one is the same object
    assert btmr_relay(state, (2, 1), 1) is action
    assert fields(Broadcast) == ()


def test_btmr_hop_budget_exhausted_drops():
    state = RelayState(20, DELTA)
    action = btmr_relay(state, (2, 0), 127)
    assert action == DROP_TTL
    assert len(state.seen) == 0


def test_btmr_hop_126_still_relays():
    state = RelayState(20, DELTA)
    action = btmr_relay(state, (2, 0), 126)
    assert action is BROADCAST


def test_btmr_second_relay_of_same_message_drops():
    state = RelayState(20, DELTA)
    m = data_msg()
    assert flood(state, m) is BROADCAST
    # the same message again, one hop further on, from another neighbor
    assert flood(state, data_msg(hops=2, sender=3)) == DROP_SEEN


def test_btmr_lru_eviction_capacity_two():
    state = RelayState(2, DELTA)
    k1, k2, k3 = (2, 1), (2, 2), (2, 3)
    assert btmr_relay(state, k1, 1) is BROADCAST
    assert btmr_relay(state, k2, 1) is BROADCAST
    assert btmr_relay(state, k3, 1) is BROADCAST
    assert btmr_relay(state, k1, 2) is BROADCAST


def test_btmr_hit_refreshes_recency():
    state = RelayState(2, DELTA)
    k1, k2, k3 = (2, 1), (2, 2), (2, 3)
    btmr_relay(state, k1, 1)
    btmr_relay(state, k2, 1)
    assert btmr_relay(state, k1, 2) == DROP_SEEN
    btmr_relay(state, k3, 1)
    assert k1 in state.seen
    assert k2 not in state.seen


def test_relay_cache_bounded_under_random_churn():
    rng = random.Random(31)
    state = RelayState(8, DELTA)
    for _ in range(2000):
        btmr_relay(state, (2, rng.randrange(100)), 1)
        assert len(state.seen) <= 8


@pytest.mark.parametrize("value", [0, -1, True, 1.5, None])
@pytest.mark.parametrize("name", ["cache_size", "delta_ms"])
def test_relay_state_rejects_a_size_that_is_not_an_int_of_at_least_one(name, value):
    sizes = {"cache_size": 8, "delta_ms": DELTA, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an int >= 1"):
        RelayState(**sizes)


def test_relay_cache_keeps_recent_entries():
    state = RelayState(5, DELTA)
    btmr_relay(state, (2, 42), 1)
    for seq in range(4):
        btmr_relay(state, (2, seq), 1)
    assert (2, 42) in state.seen


lru_frames = st.tuples(st.integers(0, 15), st.integers(0, 15), st.sampled_from([1, 126, 127]))


@settings(max_examples=200)
@given(st.integers(1, 30),
       # the length is drawn first: a plain list strategy seldom draws more than a few dozen
       st.integers(0, 400).flatmap(lambda n: st.lists(lru_frames, min_size=n, max_size=n)))
def test_btmr_decides_as_a_list_lru(capacity, frames):
    # the reference keeps the keys in a plain list, least recently relayed first;
    # hundreds of frames pop and re-insert keys in ``seen`` across several dict resizes
    state, reference = RelayState(capacity, DELTA), []
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
        assert btmr_relay(state, key, hops) == expected
        assert list(state.seen) == reference


def test_btmr_broadcasts_only_frames_below_127_hops():
    # a forward adds one hop, so a broadcast frame never leaves with more than 127
    rng = random.Random(7)
    state = RelayState(4, DELTA)
    for i in range(500):
        hops = rng.randrange(1, 140)
        action = btmr_relay(state, (2, i), hops)
        if action is BROADCAST:
            assert hops < 127


# --- forwarded frames -----------------------------------------------------------

node_ids = st.integers(0, 0xFFFF)
hand_built_frames = st.builds(Message, st.sampled_from(MessageKind), node_ids,
                              st.integers(0, 0xFFFFFFFF), st.integers(1, 126), node_ids,
                              st.binary(max_size=16))


@settings(max_examples=200)
@given(hand_built_frames)
def test_a_frame_and_its_forward_are_one_cache_entry(frame):
    state = RelayState(4, DELTA)
    assert flood(state, frame) is BROADCAST
    assert flood(state, frame._replace(hops=frame.hops + 1, sender=RELAY)) == DROP_SEEN
    assert (frame.origin, frame.seq) in state.seen and len(state.seen) == 1


# --- reactive least-hop route -----------------------------------------------

def test_mam_initial_discovery_accepted_by_expiry():
    state = RelayState(20, DELTA)
    action = mam(state, 1, heartbeat(hops=2, sender=7))
    assert (state.best_node, state.best_hops, state.expiry) == (7, 2, 1 + DELTA)
    assert action is BROADCAST


def test_mam_not_expired_and_more_hops_ignored():
    state = RelayState(20, DELTA, best_node=7, best_hops=2, expiry=5000)
    action = mam(state, 1000, heartbeat(hops=5, sender=9))
    assert (state.best_node, state.best_hops, state.expiry) == (7, 2, 5000)
    assert action is BROADCAST


def test_mam_expired_accepts_any_sender():
    state = RelayState(20, DELTA, best_node=7, best_hops=2, expiry=5000)
    action = mam(state, 6000, heartbeat(hops=5, sender=9))
    assert (state.best_node, state.best_hops, state.expiry) == (9, 5, 6000 + DELTA)
    assert action is BROADCAST


def test_mam_fewer_hops_updates_before_expiry():
    state = RelayState(20, DELTA, best_node=7, best_hops=4, expiry=9000)
    mam(state, 100, heartbeat(hops=1, sender=3))
    assert (state.best_node, state.best_hops, state.expiry) == (3, 1, 100 + DELTA)


def test_mam_equal_hops_is_not_an_update():
    state = RelayState(20, DELTA, best_node=7, best_hops=2, expiry=5000)
    mam(state, 100, heartbeat(hops=2, sender=9))
    assert state.best_node == 7


def test_mam_expiry_boundary_is_strict():
    # NOW() > expiry: at exactly the expiry tick the entry is still fresh
    state = RelayState(20, DELTA, best_node=7, best_hops=2, expiry=5000)
    mam(state, 5000, heartbeat(hops=5, sender=9))
    assert state.best_node == 7
    mam(state, 5001, heartbeat(hops=5, sender=9))
    assert state.best_node == 9


reports = pytest.mark.parametrize("kind", [MessageKind.DATA, MessageKind.STATS_REPORT],
                                  ids=["data", "stats"])


@reports
def test_mam_data_unicasts_to_best_neighbor(kind):
    state = RelayState(20, DELTA, best_node=7, best_hops=2, expiry=5000)
    action = mam(state, 100, data_msg(hops=3)._replace(kind=kind))
    assert action == 7
    assert (state.best_node, state.best_hops, state.expiry) == (7, 2, 5000)


@reports
def test_mam_data_without_route_drops(kind):
    state = RelayState(20, DELTA)
    action = mam(state, 100, data_msg()._replace(kind=kind))
    assert action == DROP_NO_ROUTE


@reports
def test_mam_data_hop_budget_capped(kind):
    state = RelayState(20, DELTA, best_node=7, best_hops=2, expiry=5000)
    action = mam(state, 100, data_msg(hops=127)._replace(kind=kind))
    assert action == DROP_TTL


small_keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
relay_states = st.builds(RelayState, cache_size=st.integers(1, 6),
                         delta_ms=st.integers(1, 10**6), best_node=st.none() | node_ids,
                         best_hops=st.integers(0, 127), expiry=st.integers(0, 10**7))


def route(state):
    return (state.best_node, state.best_hops, state.expiry)


@settings(max_examples=200)
@given(relay_states, st.integers(0, 10**7), st.lists(small_keys, unique=True),
       st.builds(Message, st.sampled_from([MessageKind.COMMAND, MessageKind.ACK]),
                 st.integers(0, 3), st.integers(0, 3), st.sampled_from([1, 5, 126, 127]), node_ids,
                 st.binary(max_size=6)))
def test_mam_floods_control_frames_as_btmr_does(state, now, keys, frame):
    # algorithm switches and probes must reach nodes before any route exists
    flooding = RelayState(state.cache_size, state.delta_ms)
    for key in keys:
        for relay in (state, flooding):
            btmr_relay(relay, key, 1)
    before = route(state)
    assert mam(state, now, frame) == flood(flooding, frame)
    # the same entries in the same LRU order
    assert list(state.seen) == list(flooding.seen)
    assert route(state) == before


@settings(max_examples=200)
@given(relay_states,
       # the length is drawn first: a plain list strategy seldom draws more than a dozen,
       # too few for a route to expire and be refreshed
       st.integers(0, 30).flatmap(lambda n: st.lists(
           st.tuples(st.integers(0, 10**6),
                     st.builds(Message, st.sampled_from(MessageKind), st.integers(0, 3),
                               st.integers(0, 3), st.integers(1, 127), node_ids)),
           min_size=n, max_size=n)))
def test_decisions_are_broadcast_a_node_id_or_a_drop_reason(state, arrivals):
    flooding = RelayState(state.cache_size, state.delta_ms)
    now = refreshed = 0
    for gap, frame in arrivals:
        now += gap
        action = flood(flooding, frame)
        assert action is BROADCAST or action in (DROP_SEEN, DROP_TTL)
        refreshed += (frame.kind is MessageKind.HEARTBEAT and now > state.expiry
                      and state.best_node is not None)
        action = mam(state, now, frame)
        if type(action) is int:
            assert action == state.best_node
        else:
            assert action is BROADCAST or action in (DROP_SEEN, DROP_TTL, DROP_NO_ROUTE)
    event(f"expired routes refreshed: {min(refreshed, 3)}{'+' if refreshed >= 3 else ''}")


def test_mam_discovery_update_even_when_flood_dedups():
    state = RelayState(20, DELTA, best_node=7, best_hops=5, expiry=9000)
    mam(state, 100, heartbeat(seq=3, hops=4, sender=8))
    # the same heartbeat again, over a shorter path through another neighbor
    action = mam(state, 200, heartbeat(seq=3, hops=2, sender=6))
    assert (state.best_node, state.best_hops) == (6, 2)
    assert action == DROP_SEEN


def test_mam_expiry_always_now_plus_delta():
    rng = random.Random(13)
    state = RelayState(50, 777)
    now = 0
    for i in range(500):
        now += rng.randrange(1, 400)
        before = (state.best_node, state.best_hops, state.expiry)
        hops = rng.randrange(1, 10)
        sender = rng.randrange(1, 6)
        mam(state, now, heartbeat(seq=i, hops=hops, sender=sender))
        updated = (state.best_node, state.best_hops) != before[:2] or state.expiry != before[2]
        if updated:
            assert state.expiry == now + 777
        else:
            assert (state.best_node, state.best_hops, state.expiry) == before


def test_mam_best_hops_non_increasing_within_window():
    rng = random.Random(17)
    state = RelayState(50, 10_000_000)
    mam(state, 1, heartbeat(seq=0, hops=9, sender=1))
    last = state.best_hops
    for i in range(1, 300):
        hops = rng.randrange(1, 12)
        mam(state, 1 + i,
            heartbeat(seq=i, hops=hops, sender=rng.randrange(1, 6)))
        assert state.best_hops <= last
        last = state.best_hops


def test_handlers_are_deterministic_given_state():
    state = RelayState(4, DELTA, best_node=4, best_hops=3, expiry=2_000)
    btmr_relay(state, (2, 123), 1)
    for message in (heartbeat(seq=1, hops=2, sender=5), data_msg(seq=2, hops=1)):
        s1, s2 = copy.deepcopy(state), copy.deepcopy(state)
        a1 = mam(s1, 900, message)
        a2 = mam(s2, 900, message)
        assert a1 == a2
        assert route(s1) == route(s2)
        assert list(s1.seen) == list(s2.seen)


# --- reset -------------------------------------------------------------------

def routed_node():
    """A sensor node that has learned a route, relayed a frame and counted it."""
    spec = NodeSpec(1, 0.0, 0.0, Role.SENSOR)
    config = ScenarioConfig(topology=[NodeSpec(0, 5.0, 0.0, Role.MOBILE_HUB), spec],
                            duration_ms=1_000, delta_ms=DELTA, relay_cache_size=8)
    node = SimNode(spec, config)
    node.relay.best_node, node.relay.best_hops, node.relay.expiry = 3, 1, 999
    node.relayed = 7
    return node


def test_reset_returns_to_init_state():
    node = routed_node()
    btmr_relay(node.relay, (2, 55), 1)
    node.reset_routing()
    assert route(node.relay) == (None, 0, 0)
    assert len(node.relay.seen) == 0
    assert (node.relay.cache_size, node.relay.delta_ms) == (8, DELTA)
    assert node.relayed == 0
    action = mam(node.relay, 10, data_msg())
    assert action == DROP_NO_ROUTE


def test_reset_lets_a_cached_frame_relay_again():
    node = routed_node()
    key = (2, 9)
    btmr_relay(node.relay, key, 1)
    assert btmr_relay(node.relay, key, 2) == DROP_SEEN
    node.reset_routing()
    assert btmr_relay(node.relay, key, 2) is BROADCAST


def test_reset_is_idempotent():
    node = routed_node()
    node.reset_routing()
    snapshot = (route(node.relay), len(node.relay.seen), node.relayed)
    node.reset_routing()
    assert snapshot == (route(node.relay), len(node.relay.seen), node.relayed)


def test_drops_hold_exactly_the_three_reasons_at_zero_after_power_on():
    # a plain dict, pre-seeded: the relay step adds to a key that is always there
    power_on = {DROP_SEEN: 0, DROP_TTL: 0, DROP_NO_ROUTE: 0}
    node = routed_node()
    assert type(node.drops) is dict and node.drops == power_on
    node.drops[DROP_SEEN] += 3
    node.drops[DROP_NO_ROUTE] += 1
    node.reset_routing()
    assert type(node.drops) is dict and node.drops == power_on
    node.drops[DROP_TTL] += 2
    node.reboot()
    assert type(node.drops) is dict and node.drops == power_on
    assert node.restarts == 1
