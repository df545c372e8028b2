import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim import (
    RANGE_PRESETS,
    Algorithm,
    ConfigError,
    NodeSpec,
    PlanError,
    Role,
    ScenarioConfig,
    Waypoint,
    dump_scenario,
    load_scenario,
    parse_scenario,
)
from meshsim.experiments import parse_plan
from meshsim.scenario import BUILTIN_SCENARIOS

# bounded and derandomized, so that the suite stays quick and repeatable
PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)


def test_builtin_scenarios_load_and_validate():
    for name in BUILTIN_SCENARIOS:
        config = load_scenario(name)
        config.validate()
        assert config.name == name


def test_line3_shape():
    config = load_scenario("line3")
    assert [s.role for s in config.topology] == [Role.MOBILE_HUB, Role.COMMANDER, Role.SENSOR]
    assert config.radio_preset == "ground"
    assert config.relay_cache_size == 20
    assert config.tx_queue_capacity == 200
    assert config.delta_ms == 100_000


def test_outdoor_has_mobility_and_twelve_nodes():
    config = load_scenario("outdoor10")
    assert len(config.topology) == 12
    assert config.mobility is not None and len(config.mobility) == 3
    assert config.radio_preset == "elevated"


def test_round_trip_through_text():
    for name in BUILTIN_SCENARIOS:
        config = load_scenario(name)
        clone = parse_scenario(dump_scenario(config), name=config.name)
        assert clone == config


def test_parse_accepts_comments_and_blank_lines():
    config = parse_scenario(
        "# a comment\n"
        "algorithm = mam   # trailing\n"
        "duration_ms = 500\n"
        "\n"
        "[nodes]\n"
        "0 0 0 hub\n"
        "1 2 0 sensor\n"
    )
    assert config.algorithm is Algorithm.MAM
    assert config.duration_ms == 500


@pytest.mark.parametrize("text,complaint", [
    ("duration_ms = 1\n[nodes]\n0 0 0 hub\n1 1 0 pilot\n", "role"),
    ("speed = 9\nduration_ms = 1\n[nodes]\n0 0 0 hub\n", "speed"),
    ("algorithm = olsr\nduration_ms = 1\n[nodes]\n0 0 0 hub\n", "algorithm"),
    ("duration_ms = 1\n[nodes]\n0 0 hub\n", "id x y role"),
    ("[orbit]\n", "section"),
    ("duration_ms = 1\nduration_ms\n", "key = value"),
    ("algorithm = btmr\n[nodes]\n0 0 0 hub\n", "duration_ms"),
    ("duration_ms = 1\nfault_duplicate = maybe\n[nodes]\n0 0 0 hub\n", "fault_duplicate"),
    ("duration_ms = 5\nalgorithm = mam\nduration_ms = 6\n[nodes]\n0 0 0 hub\n",
     "line 3: duration_ms: already set on line 1"),
    ("radio_range_m = -3\nduration_ms = 5\nradio_preset = ground\n[nodes]\n0 0 0 hub\n",
     "line 3: radio_preset: already set on line 1"),
    ("duration_ms = abc\n[nodes]\n0 0 0 hub\n", "line 1: duration_ms"),
    ("duration_ms = 1\n[nodes]\n0 0 0 hub\n1 x 0 sensor\n", "line 4: nodes"),
    ("duration_ms = 1\n[nodes]\n0 0 0 hub\n[mobility]\n0 0 0\n9 1 y\n", "line 6: mobility"),
    ("duration_ms = 1\nradio_preset = moon\n[nodes]\n0 0 0 hub\n", "line 2: radio_preset"),
    ("radio_range_m = -3\nduration_ms = 1\n[nodes]\n0 0 0 hub\n", "line 1: radio_range_m"),
    ("duration_ms = 1\n[nodes]\n0 0 0 hub\n1 1 0 hub\n", "line 2: nodes: .*one hub"),
    ("duration_ms = 1\n[nodes]\n0 0 0 hub\n[mobility]\n5 0 0\n5 1 0\n",
     "line 4: mobility: .*increase"),
    ("duration_ms = 1\n[nodes]\n0 0 0 hub\n[nodes]\n1 1 0 sensor\n",
     r"line 4: \[nodes\]: already opened on line 2"),
    # a coordinate that is not finite leaves its node with no links at all
    ("duration_ms = 1\n[nodes]\n0 nan 0 hub\n", "line 3: nodes: .*finite x and y"),
    ("duration_ms = 1\n[nodes]\n0 0 0 hub\n[mobility]\n0 0 0\n1000 inf 0\n",
     "line 6: mobility: .*finite x and y"),
    ("duration_ms = 1\nradio_range_m = inf\n[nodes]\n0 0 0 hub\n",
     "line 2: radio_range_m: .*positive finite range"),
])
def test_parse_errors_name_the_problem(text, complaint):
    with pytest.raises(ConfigError, match=complaint):
        parse_scenario(text)


def test_missing_scenario_is_an_error():
    with pytest.raises(ConfigError, match="not found"):
        load_scenario("atlantis")


# --- properties ----------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def scenario_configs(draw):
    count = draw(st.integers(1, 6))
    base = draw(st.sampled_from([0, 1]))
    commanders = draw(st.integers(0, min(1, count - 1)))
    roles = draw(st.permutations([Role.MOBILE_HUB] + [Role.COMMANDER] * commanders
                                 + [Role.SENSOR] * (count - 1 - commanders)))
    topology = [NodeSpec(base + i, draw(finite), draw(finite), role)
                for i, role in enumerate(roles)]
    times = draw(st.lists(st.integers(0, 10**7), max_size=4, unique=True))
    mobility = [Waypoint(t, draw(finite), draw(finite)) for t in sorted(times)] or None
    positive = st.integers(1, 10**6)
    return ScenarioConfig(
        topology=topology,
        duration_ms=draw(st.integers(0, 10**7)),
        algorithm=draw(st.sampled_from(list(Algorithm))),
        delta_ms=draw(positive),
        heartbeat_period_ms=draw(positive),
        data_period_ms=draw(positive),
        relay_cache_size=draw(positive),
        tx_queue_capacity=draw(positive),
        rng_seed=draw(st.integers(-10**9, 10**9)),
        radio_preset=draw(st.sampled_from(list(RANGE_PRESETS))
                          | st.floats(min_value=1e-3, max_value=1e4)),
        loss_prob=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        latency_ms=draw(positive),
        mobility=mobility,
        tracker=draw(st.sampled_from(["hashmap", "interval"])),
        fault_duplicate=draw(st.booleans()),
        name=draw(st.text("abcxyz0123_-", max_size=8)),
    )


@PROPERTY
@given(scenario_configs())
def test_generated_configs_round_trip_through_text(config):
    config.validate()
    assert parse_scenario(dump_scenario(config)) == config


# Lines that reach every branch of the readers, mixed with arbitrary text.
SCENARIO_LINES = ["duration_ms = 1000", "algorithm = mam", "radio_range_m = 4.5",
                  "radio_preset = elevated", "loss_prob = 0.5", "fault_duplicate = true",
                  "tracker = interval", "[nodes]", "[mobility]", "0 0 0 hub", "1 5 0 sensor",
                  "2 9 0 commander", "0 0.0 0.0", "100 1 1", "duration_ms = -1", "# note"]
PLAN_LINES = ["scenario = line3", "algorithms = btmr, mam", "durations_min = 0.5, 1",
              "repetitions = 2", "seeds = 4, 5", "seed_base = 3", "reference_minutes = 3.33",
              "scenario = atlantis", "algorithms =", "# note"]


def fuzzed_text(lines):
    line = st.sampled_from(lines) | st.text(max_size=30)
    return st.lists(line, max_size=12).map("\n".join)


@PROPERTY
@given(fuzzed_text(SCENARIO_LINES))
def test_fuzzed_scenario_text_fails_only_as_config_error(text):
    try:
        parse_scenario(text)
    except ConfigError:
        pass


@PROPERTY
@given(fuzzed_text(PLAN_LINES))
def test_fuzzed_plan_text_fails_only_as_plan_error(text):
    try:
        parse_plan(text)
    except PlanError:
        pass
