import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim import (
    ConfigError,
    Message,
    MessageKind,
    NodeSpec,
    Role,
    ScenarioConfig,
    Waypoint,
    decode_message,
    encode_message,
    message_hash,
)
from meshsim.core import sensor_reading

DATA_DIR = Path(__file__).parent / "data"


def test_hash_deterministic():
    assert message_hash(b"reading", 3, 17) == message_hash(b"reading", 3, 17)
    assert message_hash(b"", 0, 0) == message_hash(b"", 0, 0)


def test_hash_differs_across_seq():
    rng = random.Random(11)
    for _ in range(200):
        origin = rng.randrange(100)
        seq = rng.randrange(10_000)
        payload = rng.randbytes(8)
        assert message_hash(payload, origin, seq) != message_hash(payload, origin, seq + 1)


def test_hash_golden_value():
    golden = int((DATA_DIR / "golden_hash.txt").read_text().strip())
    assert message_hash(b"", 0, 0) == golden


def test_hash_fits_64_bits():
    rng = random.Random(5)
    for _ in range(100):
        h = message_hash(rng.randbytes(rng.randrange(32)), rng.randrange(65536), rng.randrange(1 << 32))
        assert 0 <= h < 1 << 64


def test_wire_golden_vectors():
    m = Message(MessageKind.DATA, origin=1, seq=2, hops=3, sender=4, payload=b"\x01\x02")
    assert encode_message(m).hex() == "0200010000000203000400020102"
    hb = Message(MessageKind.HEARTBEAT, origin=0, seq=0, hops=0, sender=0)
    assert encode_message(hb).hex() == "010000000000000000000000"
    ack = Message(MessageKind.ACK, origin=65535, seq=4294967295, hops=127, sender=65535)
    assert encode_message(ack).hex() == "05ffffffffffff7fffff0000"


def test_wire_round_trip():
    rng = random.Random(23)
    for _ in range(300):
        m = Message(
            kind=rng.choice(list(MessageKind)),
            origin=rng.randrange(65536),
            seq=rng.randrange(1 << 32),
            hops=rng.randrange(128),
            sender=rng.randrange(65536),
            payload=rng.randbytes(rng.randrange(64)),
        )
        wire = encode_message(m)
        assert decode_message(wire) == m
        assert encode_message(decode_message(wire)) == wire


def test_encode_rejects_out_of_range():
    base = Message(MessageKind.DATA, origin=0, seq=0, hops=0, sender=0)
    with pytest.raises(ValueError, match="origin"):
        encode_message(Message(MessageKind.DATA, 70000, 0, 0, 0))
    with pytest.raises(ValueError, match="hops"):
        encode_message(Message(MessageKind.DATA, 0, 0, 128, 0))
    with pytest.raises(ValueError, match="seq"):
        encode_message(Message(MessageKind.DATA, 0, 1 << 32, 0, 0))
    with pytest.raises(ValueError, match="sender"):
        encode_message(Message(MessageKind.DATA, 0, 0, 0, 70000))
    with pytest.raises(ValueError, match="payload"):
        encode_message(Message(MessageKind.DATA, 0, 0, 0, 0, bytes(0x10000)))
    assert decode_message(encode_message(base)) == base


def test_decode_rejects_malformed():
    m = Message(MessageKind.DATA, 1, 2, 3, 4, b"xy")
    wire = encode_message(m)
    with pytest.raises(ValueError):
        decode_message(wire[:-1])
    with pytest.raises(ValueError):
        decode_message(wire + b"z")
    with pytest.raises(ValueError):
        decode_message(b"\x00")
    # a hop count the encoder refuses
    with pytest.raises(ValueError, match="hops out of range: 200"):
        decode_message(bytes.fromhex("02000100000002c800040000"))


def _raw_frame(kind, origin, seq, hops, sender, payload, slack):
    """A header with every field over its full byte width, then the payload."""
    return struct.pack(">BHIBHH", kind, origin, seq, hops, sender, len(payload) + slack) + payload


raw_frames = st.builds(_raw_frame, st.integers(0, 0xFF), st.integers(0, 0xFFFF),
                       st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFF), st.integers(0, 0xFFFF),
                       st.binary(max_size=8), st.sampled_from([0, 1]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(raw_frames | st.binary(max_size=24))
def test_every_decoded_frame_re_encodes_to_its_bytes(buf):
    try:
        message = decode_message(buf)
    except ValueError:
        return
    assert encode_message(message) == buf


def test_sensor_reading_fixed_size_and_deterministic():
    assert len(sensor_reading(4, 9)) == 8
    assert sensor_reading(4, 9) == sensor_reading(4, 9)


def _topology():
    return [
        NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
        NodeSpec(1, 5.0, 0.0, Role.COMMANDER),
        NodeSpec(2, 10.0, 0.0, Role.SENSOR),
    ]


def _config(**overrides):
    kwargs = dict(topology=_topology(), duration_ms=1000)
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def test_config_valid():
    _config().validate()


@pytest.mark.parametrize("overrides,field", [
    (dict(duration_ms=-1), "duration_ms"),
    (dict(heartbeat_period_ms=0), "heartbeat_period_ms"),
    (dict(data_period_ms=0), "data_period_ms"),
    (dict(delta_ms=0), "delta_ms"),
    (dict(relay_cache_size=0), "relay_cache_size"),
    (dict(tx_queue_capacity=0), "tx_queue_capacity"),
    (dict(latency_ms=0), "latency_ms"),
    (dict(loss_prob=1.0), "loss_prob"),
    (dict(tracker="bloom"), "tracker"),
    (dict(radio_preset=-2.0), "radio_preset"),
    (dict(radio_preset="moon"), "radio_preset"),
    (dict(radio_preset=float("inf")), "radio_preset: .*finite"),
    (dict(topology=[NodeSpec(0, float("nan"), 0.0, Role.MOBILE_HUB)]),
     "topology: node coordinates must be finite"),
    (dict(mobility=[Waypoint(0, 0.0, 0.0), Waypoint(1000, float("inf"), 0.0)]),
     "mobility: waypoint coordinates must be finite"),
    (dict(topology=[NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB)]
          + [NodeSpec(i, float(i), 0.0, Role.SENSOR) for i in range(1, 0x10001)]),
     "topology: node id exceeds 16 bits"),
    # integer fields take only ints; a bool is an int in Python but not a setting
    (dict(rng_seed=None), "rng_seed"),
    (dict(rng_seed=True), "rng_seed"),
    (dict(latency_ms=2.5), "latency_ms"),
    (dict(relay_cache_size=2.5), "relay_cache_size"),
    (dict(tx_queue_capacity=1.5), "tx_queue_capacity"),
    (dict(duration_ms=1500.5), "duration_ms"),
    (dict(data_period_ms=True), "data_period_ms"),
    # any non-bool would switch duplication on, and True would be a 1 m disc
    (dict(fault_duplicate="false"), "fault_duplicate: must be true or false"),
    (dict(radio_preset=True), "radio_preset: must be one of"),
    # a wrongly typed value fails its field's check instead of escaping as a raw error
    (dict(loss_prob=None), "loss_prob: must be a number"),
    (dict(loss_prob="0.1"), "loss_prob: must be a number"),
    # a number is a finite real that is not a bool, for every rule that asks for one
    (dict(loss_prob=False), "loss_prob: must be a number"),
    (dict(radio_preset=None), "radio_preset: must be one of"),
    (dict(topology=[(0, 0.0, 0.0, "hub")]), "topology: must be a list of NodeSpec rows"),
    (dict(mobility=[(0, 1.0, 2.0)]), "mobility: must be a list of Waypoint rows"),
    (dict(mobility="abc"), "mobility: must be a list of Waypoint rows"),
    # each field of a row has a type: a wrong one fails as that rule, not as a raw error
    (dict(topology=[_topology()[0]._replace(x="a")] + _topology()[1:]),
     "topology: node coordinates must be finite numbers"),
    (dict(topology=[_topology()[0]._replace(node="0")] + _topology()[1:]),
     "topology: node ids must be integers"),
    (dict(topology=[_topology()[0]._replace(role="hub")] + _topology()[1:]),
     "topology: node roles must be Role members"),
    (dict(mobility=[Waypoint("0", 1.0, 2.0)]), "mobility: waypoint times must be integers"),
    (dict(mobility=[Waypoint(0, "1", 2.0)]),
     "mobility: waypoint coordinates must be finite numbers"),
    # these two used to run: a fractional time and a bool coordinate
    (dict(mobility=[Waypoint(0.5, 1.0, 2.0)]), "mobility: waypoint times must be integers"),
    (dict(topology=[_topology()[0]._replace(x=True)] + _topology()[1:]),
     "topology: node coordinates must be finite numbers"),
])
def test_config_errors_name_the_field(overrides, field):
    with pytest.raises(ConfigError, match=field):
        _config(**overrides).validate()


def test_config_topology_rules():
    with pytest.raises(ConfigError, match="duplicate"):
        _config(topology=_topology() + [NodeSpec(2, 1.0, 1.0, Role.SENSOR)]).validate()
    with pytest.raises(ConfigError, match="sequential"):
        _config(topology=[NodeSpec(0, 0, 0, Role.MOBILE_HUB), NodeSpec(5, 1, 0, Role.SENSOR)]).validate()
    with pytest.raises(ConfigError, match="hub"):
        _config(topology=[NodeSpec(0, 0, 0, Role.SENSOR), NodeSpec(1, 1, 0, Role.SENSOR)]).validate()
    two_hubs = [NodeSpec(0, 0, 0, Role.MOBILE_HUB), NodeSpec(1, 1, 0, Role.MOBILE_HUB)]
    with pytest.raises(ConfigError, match="hub"):
        _config(topology=two_hubs).validate()
    two_cmd = _topology() + [NodeSpec(3, 2.0, 2.0, Role.COMMANDER)]
    with pytest.raises(ConfigError, match="commander"):
        _config(topology=two_cmd).validate()
    # ids may start at 1 instead of 0
    ids_from_one = [NodeSpec(1, 0, 0, Role.MOBILE_HUB), NodeSpec(2, 1, 0, Role.SENSOR)]
    _config(topology=ids_from_one).validate()


def test_config_mobility_rules():
    _config(mobility=[Waypoint(0, 0.0, 0.0), Waypoint(100, 1.0, 0.0)]).validate()
    with pytest.raises(ConfigError, match="mobility"):
        _config(mobility=[]).validate()
    with pytest.raises(ConfigError, match="mobility"):
        _config(mobility=[Waypoint(100, 0.0, 0.0), Waypoint(100, 1.0, 0.0)]).validate()
