import socket
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim import (
    Algorithm,
    CommanderSession,
    CommandVerb,
    ConfigError,
    NodeSpec,
    NodeStats,
    Role,
    ScenarioConfig,
    World,
    check_reachability,
    load_scenario,
    make_server,
)
from meshsim.commander import STATS_COUNTERS, decode_stats, encode_stats
from connectivity import component
from recording import record_arrivals

DATA_DIR = Path(__file__).parent / "data"


def line3_world(**overrides):
    config = replace(load_scenario("line3"), **overrides)
    return World(config)


def quiet(world, ms=400):
    world.run_until(world.now + ms)


# --- command execution --------------------------------------------------------

def no_commander_world():
    return World(ScenarioConfig(
        topology=[NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
                  NodeSpec(1, 5.0, 0.0, Role.SENSOR)],
        duration_ms=10_000, radio_preset="ground"))


def test_command_without_commander_is_an_error():
    world = no_commander_world()
    with pytest.raises(ConfigError, match="commander"):
        world.issue_command(CommandVerb.SIM_RESET)


def test_unknown_node_id_is_a_config_error():
    world = line3_world()
    pending = world.pending()
    with pytest.raises(ConfigError, match="node 9 is not in the topology"):
        world.issue_command(CommandVerb.SIM_STATS, issuer=9)
    assert world.pending() == pending


@pytest.mark.parametrize("verb, issuer, name", [
    (CommandVerb.SIM_STATS, True, "issuer"),
    (CommandVerb.SIM_STATS, 1.0, "issuer"),
    (256, None, "verb"),
    ("sim-reset", None, "verb"),
], ids=["issuer-bool", "issuer-float", "verb-int", "verb-str"])
def test_malformed_command_is_a_config_error_before_scheduling(verb, issuer, name):
    # a bool or float issuer would pass as node 1; a bad verb would escape from run_until
    world = line3_world()
    pending = world.pending()
    with pytest.raises(ConfigError, match=f"^{name}: "):
        world.issue_command(verb, issuer=issuer)
    assert world.pending() == pending


def test_reset_then_stats_on_idle_network_reports_zeros():
    world = line3_world()
    world.run_until(9_500)
    world.issue_command(CommandVerb.SIM_RESET)
    quiet(world)
    world.issue_command(CommandVerb.SIM_STATS)
    quiet(world)
    assert sorted(world.collected_stats) == [0, 1, 2]
    for stats in world.collected_stats.values():
        assert stats == NodeStats(node=stats.node)


def test_reset_restores_routing_init_values():
    world = line3_world(algorithm=Algorithm.MAM)
    world.run_until(9_500)
    assert world.nodes[2].relay.best_node is not None
    world.issue_command(CommandVerb.SIM_RESET)
    quiet(world)
    for node in world.nodes.values():
        assert (node.relay.best_node, node.relay.best_hops, node.relay.expiry) == (None, 0, 0)
        assert node.generated == node.relayed == node.received == 0
        assert node.restarts == 0
    assert world.tracker.unique_count == 0


def test_set_mam_switches_the_data_path():
    world = line3_world()
    arrivals = record_arrivals(world)
    world.run_until(1_500)
    assert world.nodes[2].algorithm is Algorithm.BTMR
    world.issue_command(CommandVerb.SET_MAM)
    quiet(world)
    assert all(node.algorithm is Algorithm.MAM for node in world.nodes.values())
    world.run_until(4_000)
    # heartbeat at 2000 built routes; the 3000 ms data frame went over them
    assert world.nodes[2].relay.best_node == 1
    assert Counter(key for _, key in arrivals)[(2, 0)] == 1


def test_set_btmr_switches_back():
    world = line3_world(algorithm=Algorithm.MAM)
    world.run_until(1_500)
    world.issue_command(CommandVerb.SET_BTMR)
    quiet(world)
    assert all(node.algorithm is Algorithm.BTMR for node in world.nodes.values())


def test_set_mam_twice_equals_once():
    def configure(times):
        world = line3_world()
        world.run_until(1_000)
        for _ in range(times):
            world.issue_command(CommandVerb.SET_MAM)
            quiet(world, 500)
        world.run_until(8_000)
        return [(n.algorithm, n.relay.best_node, n.relay.best_hops, n.generated,
                 n.relayed, n.received) for n in world.nodes.values()]

    assert configure(1) == configure(2)


def test_stats_collection_includes_every_node_and_the_hub_itself():
    world = line3_world()
    world.run_until(5_500)
    world.issue_command(CommandVerb.SIM_STATS)
    quiet(world)
    assert sorted(world.collected_stats) == [0, 1, 2]
    assert world.collected_stats[2].generated > 0
    assert world.collected_stats[0].received > 0


def test_reboot_restarts_only_the_commander():
    world = line3_world(algorithm=Algorithm.MAM)
    world.run_until(5_000)
    world.issue_command(CommandVerb.REBOOT)
    quiet(world)
    assert [world.nodes[n].restarts for n in (0, 1, 2)] == [0, 1, 0]
    assert world.nodes[1].relay.best_node is None
    assert world.nodes[2].relay.best_node is not None


def test_reboot_all_extension_restarts_everyone():
    world = line3_world()
    world.run_until(5_000)
    world.issue_command(CommandVerb.REBOOT_ALL)
    quiet(world)
    assert [world.nodes[n].restarts for n in (0, 1, 2)] == [1, 1, 1]


@pytest.mark.parametrize("verb", [CommandVerb.SIM_RESET, CommandVerb.REBOOT_ALL],
                         ids=lambda verb: verb.name)
def test_resets_never_rewind_a_sequence_number(verb):
    # relay caches key on (origin, seq), so a node must never reuse a seq
    world = line3_world(data_period_ms=500)
    world.run_until(5_000)
    world.issue_command(verb)
    last = {n: node.next_seq for n, node in world.nodes.items()}
    while world.now < 6_000 and world.step():
        for n, node in world.nodes.items():
            assert node.next_seq >= last[n]
            last[n] = node.next_seq
    # the sensor's counters restarted from zero, its sequence did not
    assert 0 < world.nodes[2].generated < world.nodes[2].next_seq


counters = st.integers(0, 2**32 - 1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.builds(NodeStats, st.integers(0, 0xFFFF), counters, counters, counters, counters,
                 counters))
def test_stats_payload_round_trip(stats):
    # the wire carries the node id, then one 32-bit word per counter in field order
    assert NodeStats._fields[1:] == STATS_COUNTERS
    assert STATS_COUNTERS == ("generated", "relayed", "received", "tx_dropped", "restarts")
    payload = encode_stats(stats)
    assert payload == b"".join([stats.node.to_bytes(2, "big")]
                               + [getattr(stats, name).to_bytes(4, "big")
                                  for name in STATS_COUNTERS])
    decoded = decode_stats(payload)
    assert type(decoded) is NodeStats and decoded == stats


# --- reachability ---------------------------------------------------------------

def _cluster_config(bridge_x):
    topology = [
        NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
        NodeSpec(1, 5.0, 0.0, Role.COMMANDER),
        NodeSpec(2, 10.0, 0.0, Role.SENSOR),
        NodeSpec(3, bridge_x, 0.0, Role.SENSOR),
        NodeSpec(4, 20.0, 0.0, Role.SENSOR),
        NodeSpec(5, 25.0, 0.0, Role.SENSOR),
    ]
    return ScenarioConfig(topology=topology, duration_ms=60_000,
                          radio_preset="ground",
                          heartbeat_period_ms=50_000, data_period_ms=50_000)


def test_reachability_full_mesh_has_no_missing_nodes():
    config = ScenarioConfig(
        topology=[NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
                  NodeSpec(1, 2.0, 0.0, Role.COMMANDER),
                  NodeSpec(2, 0.0, 2.0, Role.SENSOR),
                  NodeSpec(3, 2.0, 2.0, Role.SENSOR)],
        duration_ms=60_000, radio_preset="ground",
        heartbeat_period_ms=50_000, data_period_ms=50_000)
    report = check_reachability(World(config), deadline_ms=2_000)
    assert report.missing == set()
    assert report.acked == {0, 2, 3}


def test_reachability_flags_node_beyond_range():
    config = ScenarioConfig(
        topology=[NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
                  NodeSpec(1, 2.0, 0.0, Role.COMMANDER),
                  NodeSpec(2, 100.0, 0.0, Role.SENSOR)],
        duration_ms=60_000, radio_preset="ground",
        heartbeat_period_ms=50_000, data_period_ms=50_000)
    report = check_reachability(World(config), deadline_ms=2_000)
    assert report.missing == {2}
    assert report.acked == {0}


def test_reachability_cut_isolates_far_cluster():
    bridged = check_reachability(World(_cluster_config(15.0)), deadline_ms=2_000)
    assert bridged.missing == set()
    cut = check_reachability(World(_cluster_config(100.0)), deadline_ms=2_000)
    assert cut.missing == {3, 4, 5}
    assert cut.acked == {0, 2}


def test_reachability_partition_is_exact():
    report = check_reachability(World(_cluster_config(15.0)), deadline_ms=2_000)
    world = World(_cluster_config(15.0))
    assert report.acked | report.missing == set(world.node_ids) - {1}
    assert report.acked & report.missing == set()


def test_reachability_sound_against_derived_graph():
    for bridge_x in (15.0, 40.0, 100.0):
        world = World(_cluster_config(bridge_x))
        report = check_reachability(world, deadline_ms=2_000)
        reachable = component(world, 1)
        assert report.acked <= reachable - {1}
        assert (reachable - {1}) <= report.acked  # generous deadline: complete too


def test_reachability_prober_defaults_to_hub_without_commander():
    config = ScenarioConfig(
        topology=[NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
                  NodeSpec(1, 3.0, 0.0, Role.SENSOR)],
        duration_ms=60_000, radio_preset="ground",
        heartbeat_period_ms=50_000, data_period_ms=50_000)
    report = check_reachability(World(config), deadline_ms=2_000)
    assert report.acked == {1}
    assert report.missing == set()


@pytest.mark.parametrize("entry, name", [
    (lambda world: check_reachability(world, deadline_ms=-5), "deadline_ms"),
    (lambda world: check_reachability(world, deadline_ms=0), "deadline_ms"),
    (lambda world: CommanderSession(world, settle_ms=-100), "settle_ms"),
    (lambda world: CommanderSession(world, settle_ms=2.5), "settle_ms"),
    (lambda world: make_server(world, settle_ms=-100), "settle_ms"),
    (lambda world: check_reachability(world, True), "deadline_ms"),
    (lambda world: CommanderSession(world, settle_ms=True), "settle_ms"),
], ids=["negative-deadline", "zero-deadline", "negative-settle", "fractional-settle",
        "server-settle", "bool-deadline", "bool-settle"])
def test_waits_that_run_no_time_are_config_errors(entry, name):
    world = line3_world()
    pending = world.pending()
    with pytest.raises(ConfigError, match=f"{name}: must be an integer >= 1"):
        entry(world)
    assert world.pending() == pending  # nothing was issued


# --- session protocol --------------------------------------------------------------

def test_session_ok_and_err_lines():
    session = CommanderSession(line3_world(), settle_ms=500)
    assert session.handle_line("sim-reset") == ["OK"]
    response = session.handle_line("sim-stats")
    assert response[0] == "OK"
    assert response[1].startswith("algorithm=")
    assert session.handle_line("bogus") == ["ERR unknown command"]
    assert session.handle_line("") == ["ERR empty command"]
    assert session.handle_line("ping") == ["ERR unknown command"]


def test_session_without_commander_answers_err():
    session = CommanderSession(no_commander_world(), settle_ms=500)
    assert session.handle_line("sim-reset") == ["ERR topology has no commander node"]


def test_session_reports_algorithm_switch():
    session = CommanderSession(line3_world(), settle_ms=500)
    session.handle_line("set-mam")
    response = session.handle_line("sim-stats")
    assert "algorithm=mam" in response
    session.handle_line("set-btmr")
    response = session.handle_line("sim-stats")
    assert "algorithm=btmr" in response


def test_scripted_session_matches_golden_transcript():
    session = CommanderSession(line3_world(), settle_ms=2_500)
    for line in ["sim-reset", "set-mam", "sim-stats", "set-btmr", "sim-stats", "bogus"]:
        session.handle_line(line)
    golden = (DATA_DIR / "session_transcript.txt").read_text()
    assert "\n".join(session.transcript) + "\n" == golden


SESSION_WORDS = [verb.wire for verb in CommandVerb]  # every session verb, and ping
PADDING = st.sampled_from(["", " ", "\t", "\r\n", "  \n"])
SESSION_LINE = (st.tuples(PADDING, st.sampled_from(SESSION_WORDS), PADDING).map("".join)
                | PADDING | st.text(max_size=20))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(SESSION_LINE, min_size=1, max_size=6))
def test_fuzzed_session_lines_answer_ok_or_err(lines):
    session = CommanderSession(line3_world(), settle_ms=200)
    for line in lines:
        response = session.handle_line(line)
        assert response[0] == "OK" or response[0].startswith("ERR ")


@contextmanager
def serving(world):
    """A line-protocol server on ``world``, running in a thread; yields its address."""
    server = make_server(world, settle_ms=200)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def exchange(address, payload):
    """Send ``payload``, close the sending side, and return every byte of the reply."""
    with socket.create_connection(address, timeout=5) as conn:
        conn.sendall(payload)
        conn.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := conn.recv(4096):
            data += chunk
    return data


def test_tcp_server_speaks_the_line_protocol():
    with serving(line3_world()) as address:
        data = exchange(address, b"sim-reset\r\nbogus\r\n")
    assert data == b"OK\r\nERR unknown command\r\n"


def test_tcp_server_commands_from_many_clients_take_turns():
    world = line3_world()
    clients, commands = 6, 40
    replies = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with serving(world) as address:
            threads = [threading.Thread(target=lambda: replies.append(
                exchange(address, b"sim-reset\r\n" * commands))) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert replies == [b"OK\r\n" * commands] * clients
    # each command is one frame from the commander, and each took the world a settle window on
    assert world.nodes[world.commander_id].next_seq == clients * commands
    assert world.now == clients * commands * 200


def test_tcp_server_refuses_an_over_long_line():
    with serving(line3_world()) as address:
        with socket.create_connection(address, timeout=5) as conn:
            conn.sendall(b"x" * 10_000)  # and no newline
            refused = conn.recv(4096)
        data = exchange(address, b"sim-reset\r\n")
    assert refused == b"ERR line too long\r\n"
    assert data == b"OK\r\n"


def test_tcp_server_answers_while_another_client_idles():
    with serving(line3_world()) as address:
        with socket.create_connection(address, timeout=5):  # connects, sends nothing
            data = exchange(address, b"sim-reset\r\n")
    assert data == b"OK\r\n"
