"""Shared vocabulary for the mesh data-collection simulator.

Node identifiers, message records, the canonical wire encoding, and the
scenario configuration consumed by every other module.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional, Union

NodeId = int

# kind(1) | origin(2) | seq(4) | hops(1) | sender(2) | payload_len(2)
_WIRE_HEADER = struct.Struct(">BHIBHH")

MAX_HOPS = 127

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class MessageKind(Enum):
    HEARTBEAT = 1
    DATA = 2
    COMMAND = 3
    STATS_REPORT = 4
    ACK = 5


class Role(Enum):
    SENSOR = "sensor"
    MOBILE_HUB = "hub"
    COMMANDER = "commander"


class Algorithm(Enum):
    BTMR = "btmr"
    MAM = "mam"


# The members the per-frame code compares against, bound once. On CPython
# 3.10/3.11 ``MessageKind.DATA`` goes through ``EnumType.__getattr__`` and
# costs over ten times a module global (timeit: about 190 ns against 12 ns).
# ``commander`` binds each ``CommandVerb`` and ``metrics`` each ``Verdict`` the same way.
HEARTBEAT = MessageKind.HEARTBEAT
DATA = MessageKind.DATA
COMMAND = MessageKind.COMMAND
STATS_REPORT = MessageKind.STATS_REPORT
ACK = MessageKind.ACK
BTMR = Algorithm.BTMR
MAM = Algorithm.MAM


class NodeCounter(NamedTuple):
    """One per-node counter: a ``SimNode`` attribute that ``reset_stats`` zeroes."""

    name: str
    row: bool = False  # each ``RunReport.per_node`` row carries it
    total: Optional[str] = None  # the ``RunReport`` field that sums it over the nodes
    stats: bool = False  # a ``sim-stats`` report carries it


# Every node counter, declared once; rows, totals and the stats payload keep
# this order. Per-frame code counts with a plain attribute add.
NODE_COUNTERS = (
    NodeCounter("generated", row=True, stats=True),  # sensor readings originated
    NodeCounter("relayed", row=True, stats=True),  # data frames queued for relay
    NodeCounter("received", stats=True),  # data frames heard from another node
    NodeCounter("tx_count", total="tx_total"),  # transmissions of any kind (energy proxy)
    NodeCounter("rx_count", total="rx_total"),  # receptions of any kind (energy proxy)
    NodeCounter("tx_data_count", total="tx_data"),  # data-frame transmissions
    NodeCounter("tx_dropped", row=True, stats=True),  # frames a full transmit queue refused
    NodeCounter("restarts", row=True, stats=True),  # reboots; ``SimNode.reboot`` keeps it
)


class ConfigError(ValueError):
    """A scenario configuration is invalid; the message names the field."""


class Message(NamedTuple):
    """One frame exchanged on the mesh.

    ``(origin, seq)`` identifies the logical message for the whole run.
    ``hops`` counts the transmissions so far, whatever the kind: the
    originator sends a frame at 1 and each relay adds 1, up to ``MAX_HOPS``.
    Relaying rewrites only ``hops`` and ``sender`` (the immediate previous
    transmitter).
    """

    kind: MessageKind
    origin: NodeId
    seq: int
    hops: int
    sender: NodeId
    payload: bytes = b""


def message_hash(payload: bytes, origin: NodeId, seq: int) -> int:
    """Stable 64-bit FNV-1a hash of (origin, seq, payload).

    Seed-independent and identical across runs and platforms. A public helper:
    the engine itself identifies a frame by ``(origin, seq)``.
    """
    h = _FNV_OFFSET
    for b in origin.to_bytes(2, "big") + seq.to_bytes(4, "big") + payload:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def encode_message(message: Message) -> bytes:
    """Canonical big-endian wire encoding (bit-exact, see tests for vectors)."""
    if not 0 <= message.origin <= 0xFFFF:
        raise ValueError(f"origin out of range: {message.origin}")
    if not 0 <= message.sender <= 0xFFFF:
        raise ValueError(f"sender out of range: {message.sender}")
    if not 0 <= message.seq <= 0xFFFFFFFF:
        raise ValueError(f"seq out of range: {message.seq}")
    if not 0 <= message.hops <= MAX_HOPS:
        raise ValueError(f"hops out of range: {message.hops}")
    if len(message.payload) > 0xFFFF:
        raise ValueError(f"payload too long: {len(message.payload)}")
    header = _WIRE_HEADER.pack(
        message.kind.value,
        message.origin,
        message.seq,
        message.hops,
        message.sender,
        len(message.payload),
    )
    return header + message.payload


def decode_message(buf: bytes) -> Message:
    if len(buf) < _WIRE_HEADER.size:
        raise ValueError("short frame")
    kind, origin, seq, hops, sender, plen = _WIRE_HEADER.unpack_from(buf)
    if len(buf) != _WIRE_HEADER.size + plen:
        raise ValueError("frame length mismatch")
    if hops > MAX_HOPS:
        raise ValueError(f"hops out of range: {hops}")
    return Message(
        kind=MessageKind(kind),
        origin=origin,
        seq=seq,
        hops=hops,
        sender=sender,
        payload=bytes(buf[_WIRE_HEADER.size:]),
    )


class NodeSpec(NamedTuple):
    node: NodeId
    x: float
    y: float
    role: Role


class Waypoint(NamedTuple):
    t_ms: int
    x: float
    y: float


# Maximum link distances measured with nodes on the ground and elevated
# ~11 cm (antennas facing vs. opposed).
RANGE_PRESETS = {
    "ground": 6.0,
    "elevated": 40.0,
    "elevated-opposed": 32.0,
}


def setting(parse: Callable[[str], Any], rule: str, ok: Callable[[Any], bool],
            alias: Optional[tuple[str, Callable[[str], Any]]] = None, **default):
    """A config field that scenario and plan files set as ``key = value``.

    ``parse`` reads the value text, ``ok`` is the field's one check (a
    ``TypeError`` in it fails the check) and ``rule`` says in words what both
    demand. ``alias`` is an optional second ``(key, parse)`` spelling of the field.
    """
    return field(metadata={"parse": parse, "rule": rule, "ok": ok, "alias": alias}, **default)


def check_fields(obj, error: type[Exception], where: Optional[dict] = None) -> None:
    """Raise ``error`` naming the first field of ``obj`` that fails its check.

    ``where`` maps each field read from a file to its ``(line, key, text)``, so
    that the message points at the line and quotes the text written there.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        lineno, key, text = (where or {}).get(f.name, (None, f.name, value))
        if "ok" in f.metadata:
            try:
                passed = f.metadata["ok"](value)
            except TypeError:
                passed = False
            problem = None if passed else f"{f.metadata['rule']}, got {text!r}"
        else:
            problem = f.metadata["check"](value) if "check" in f.metadata else None
        if problem:
            raise error(f"line {lineno}: {key}: {problem}" if lineno else f"{key}: {problem}")


def is_number(value) -> bool:
    """A finite real number that is not a ``bool``: what every "number" rule accepts."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _topology_problem(specs: list[NodeSpec]) -> Optional[str]:
    if not isinstance(specs, (list, tuple)) or not all(isinstance(s, NodeSpec) for s in specs):
        return "must be a list of NodeSpec rows"
    if not specs:
        return "is empty"
    ids = [spec.node for spec in specs]
    if not all(is_int(node) for node in ids):
        return "node ids must be integers"
    if len(set(ids)) != len(ids):
        return "contains duplicate node ids"
    base = min(ids)
    if base not in (0, 1) or sorted(ids) != list(range(base, base + len(ids))):
        return "node ids must be sequential from 0 or 1"
    if max(ids) > 0xFFFF:
        return "node id exceeds 16 bits"
    if not all(is_number(spec.x) and is_number(spec.y) for spec in specs):
        return "node coordinates must be finite numbers"
    roles = [spec.role for spec in specs]
    if not all(isinstance(role, Role) for role in roles):
        return "node roles must be Role members"
    if roles.count(Role.MOBILE_HUB) != 1:
        return "must contain exactly one hub"
    if roles.count(Role.COMMANDER) > 1:
        return "must contain at most one commander"
    return None


def _mobility_problem(waypoints: Optional[list[Waypoint]]) -> Optional[str]:
    if waypoints is not None and not (isinstance(waypoints, (list, tuple))
                                      and all(isinstance(w, Waypoint) for w in waypoints)):
        return "must be a list of Waypoint rows"
    times = [w.t_ms for w in waypoints or ()]
    if waypoints is not None and not times:
        return "trace is empty"
    if not all(is_int(t) for t in times):
        return "waypoint times must be integers"
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        return "waypoint times must strictly increase"
    if not all(is_number(w.x) and is_number(w.y) for w in waypoints or ()):
        return "waypoint coordinates must be finite numbers"
    return None


_BOOLEANS = {"true": True, "false": False}


def is_int(value) -> bool:
    """An ``int`` that is not a ``bool``: what every "integer" rule accepts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(default: int):
    return setting(int, "must be a positive integer", lambda v: is_int(v) and v > 0,
                   default=default)


@dataclass
class ScenarioConfig:
    """Everything one simulation run needs; identical configs replay identically.

    Each field but ``topology`` and ``mobility`` is a scenario-file
    setting: ``validate``, ``parse_scenario`` and ``dump_scenario`` all read its
    parser and its check from the field metadata.
    """

    topology: list[NodeSpec] = field(metadata={"check": _topology_problem})
    duration_ms: int = setting(int, "must be an integer >= 0", lambda v: is_int(v) and v >= 0)
    algorithm: Algorithm = setting(Algorithm, "must be btmr or mam",
                                   lambda v: isinstance(v, Algorithm), default=Algorithm.BTMR)
    delta_ms: int = _positive_int(100_000)
    heartbeat_period_ms: int = _positive_int(2_000)
    data_period_ms: int = _positive_int(1_000)
    relay_cache_size: int = _positive_int(20)
    tx_queue_capacity: int = _positive_int(200)
    rng_seed: int = setting(int, "must be an integer", is_int, default=0)
    # a preset name, or a disc range in metres spelled radio_range_m
    radio_preset: Union[str, float] = setting(
        str, f"must be one of {', '.join(RANGE_PRESETS)} or a positive finite range in m",
        lambda v: v in RANGE_PRESETS if isinstance(v, str) else is_number(v) and v > 0,
        alias=("radio_range_m", float), default="ground")
    loss_prob: float = setting(float, "must be a number in [0, 1)",
                               lambda v: is_number(v) and 0.0 <= v < 1.0, default=0.0)
    latency_ms: int = _positive_int(10)
    mobility: Optional[list[Waypoint]] = field(default=None,
                                               metadata={"check": _mobility_problem})
    tracker: str = setting(str, "must be hashmap or interval",
                           lambda v: v in ("hashmap", "interval"), default="hashmap")
    fault_duplicate: bool = setting(_BOOLEANS.__getitem__, "must be true or false",
                                    lambda v: isinstance(v, bool), default=False)

    def validate(self) -> None:
        check_fields(self, ConfigError)

    @property
    def hub_id(self) -> NodeId:
        return next(s.node for s in self.topology if s.role is Role.MOBILE_HUB)

    @property
    def commander_id(self) -> Optional[NodeId]:
        return next((s.node for s in self.topology if s.role is Role.COMMANDER), None)

    @property
    def sensor_ids(self) -> list[NodeId]:
        return sorted(s.node for s in self.topology if s.role is Role.SENSOR)


def sensor_reading(origin: NodeId, seq: int) -> bytes:
    """Synthetic fixed-size (8 byte) sensor payload, deterministic per message."""
    value = 20.0 + ((origin * 7 + seq * 3) % 100) / 10.0
    return struct.pack(">d", value)
