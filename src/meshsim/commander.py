"""Command-and-control plane.

The commander node bridges an operator terminal to the mesh: line-oriented
ASCII commands are flooded as control frames, every node applies them, and
statistics flow back to the collector. Also home to the reachability probe
that verifies which nodes can currently be reached from the control plane.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from enum import IntEnum
from typing import NamedTuple

from .core import NODE_COUNTERS, ConfigError, NodeId, is_int
from .metrics import text_table


class CommandVerb(IntEnum):
    """A control command; its value is the one-byte code a command frame carries."""

    SIM_RESET = 0
    SET_MAM = 1
    SET_BTMR = 2
    SIM_STATS = 3
    REBOOT = 4
    REBOOT_ALL = 5  # extension: reboot every node, not just the commander
    PING = 6  # internal, drives the reachability probe

    @property
    def wire(self) -> str:
        """The word an operator types, such as ``sim-reset``."""
        return self.name.lower().replace("_", "-")


# every verb, indexed by its frame code, and each bound once as ``core`` binds ``MessageKind``
VERBS = tuple(CommandVerb)
SIM_RESET, SET_MAM, SET_BTMR, SIM_STATS, REBOOT, REBOOT_ALL, PING = VERBS

# verbs an operator may type, by word; PING is reachability-tool plumbing
SESSION_VERBS = {verb.wire: verb for verb in VERBS if verb is not PING}


# the counters a stats report carries, and one node's report of them, in table order
STATS_COUNTERS = tuple(counter.name for counter in NODE_COUNTERS if counter.stats)
NodeStats = namedtuple("NodeStats", ("node", *STATS_COUNTERS),
                       defaults=(0,) * len(STATS_COUNTERS))

# node id (16 bit), then one 32-bit word per counter, in field order
_STATS_PAYLOAD = struct.Struct(">H" + "I" * len(STATS_COUNTERS))


def encode_stats(stats: NodeStats) -> bytes:
    return _STATS_PAYLOAD.pack(*stats)


def decode_stats(payload: bytes) -> NodeStats:
    return tuple.__new__(NodeStats, _STATS_PAYLOAD.unpack(payload))


class ReachabilityReport(NamedTuple):
    """Outcome of one probe: who acknowledged before the deadline, who did not."""

    probed_at: int
    acked: set[NodeId]
    missing: set[NodeId]


def _check_wait(name: str, ms) -> None:
    """Reject a wait that would not run the world forward by at least 1 ms."""
    if not is_int(ms) or ms < 1:
        raise ConfigError(f"{name}: must be an integer >= 1, got {ms!r}")


def check_reachability(world, deadline_ms: int) -> ReachabilityReport:
    """Flood a probe, wait out the deadline, and partition nodes by response.

    The probe starts at the commander, or at the hub without one. It and its
    acknowledgments travel by flooding, so the check works before any route exists.
    """
    _check_wait("deadline_ms", deadline_ms)
    prober = world.commander_id if world.commander_id is not None else world.hub_id
    probed_at = world.now
    world.issue_command(PING, issuer=prober)
    world.run_until(world.now + deadline_ms)
    acked = set(world.acked)
    missing = set(world.node_ids) - {prober} - acked
    return ReachabilityReport(probed_at=probed_at, acked=acked, missing=missing)


STATS_COLUMNS = ("node", "role", *STATS_COUNTERS)


def format_stats_table(world) -> list[str]:
    """Aligned text table of the statistics collected at the hub."""
    collected, nodes = world.collected_stats, world.nodes
    # ``_value_`` holds what the ``Role.value`` property returns, without the property call
    return text_table(STATS_COLUMNS, [(str(node_id), nodes[node_id].role._value_,
                                       *map(str, collected[node_id][1:]))
                                      for node_id in sorted(collected)])


# longest line the TCP server reads, in bytes with its line ending; far above any verb
SERVER_LINE_BYTES = 256


def respond(world, text: str, settle_ms: int) -> list[str]:
    """The response lines to one stripped session line: OK/ERR plus payload.

    After flooding a command the world runs on for a settle window, so the
    command's effects (and any returning statistics) land before the response
    is rendered.
    """
    if not text:
        return ["ERR empty command"]
    verb = SESSION_VERBS.get(text)
    if verb is None:
        return ["ERR unknown command"]
    try:
        world.issue_command(verb)
    except ConfigError as exc:
        return [f"ERR {exc}"]
    world.run_until(world.now + settle_ms)
    if verb is not SIM_STATS:
        return ["OK"]
    hub_algo = world.nodes[world.hub_id].algorithm
    return ["OK", f"algorithm={hub_algo.value}", *format_stats_table(world)]


class CommanderSession:
    """Line protocol against a live world; ``transcript`` records every line in and out."""

    def __init__(self, world, settle_ms: int = 1000):
        _check_wait("settle_ms", settle_ms)
        self.world = world
        self.settle_ms = settle_ms
        self.transcript: list[str] = []

    def handle_line(self, line: str) -> list[str]:
        text = line.strip()
        response = respond(self.world, text, self.settle_ms)
        self.transcript.append("> " + text)
        self.transcript.extend(response)
        return response


def make_server(world, host: str = "127.0.0.1", port: int = 0,
                settle_ms: int = 1000) -> socketserver.ThreadingTCPServer:
    """TCP server speaking the session protocol (telnet-compatible line endings).

    The bound address is ``server.server_address``; run ``serve_forever`` (in a
    thread if the caller owns the world) and ``shutdown`` to stop. Each client
    has its own connection thread, so an idle client holds up no one; commands
    take turns on the world under one lock, and the server keeps no transcript.
    A line longer than ``SERVER_LINE_BYTES`` is answered ``ERR line too long``,
    and its connection is closed.
    """
    _check_wait("settle_ms", settle_ms)
    import socketserver  # here, not at the top: no other caller needs sockets
    import threading
    lock = threading.Lock()

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            while raw := self.rfile.readline(SERVER_LINE_BYTES):
                if len(raw) == SERVER_LINE_BYTES and not raw.endswith(b"\n"):
                    self.wfile.write(b"ERR line too long\r\n")
                    return
                text = raw.decode("ascii", errors="replace").strip()
                with lock:
                    response = respond(world, text, settle_ms)
                for out in response:
                    self.wfile.write(out.encode("ascii") + b"\r\n")
                self.wfile.flush()

    server = socketserver.ThreadingTCPServer((host, port), Handler)
    server.daemon_threads = True
    return server
