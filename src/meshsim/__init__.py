"""Deterministic mesh data-collection simulator.

Compares two relay strategies for collecting sensor data over a
flooding-style mesh: the default controlled-flooding relay and a reactive
least-hop route toward a (possibly moving) collector, together with the
dedup structures, metrics, and command protocol used to benchmark them.
"""

from .commander import (
    CommanderSession,
    CommandVerb,
    NodeStats,
    ReachabilityReport,
    check_reachability,
    format_stats_table,
    make_server,
)
from .core import (
    RANGE_PRESETS,
    Algorithm,
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
from .experiments import (
    ComparisonTable,
    ExperimentPlan,
    PlanError,
    aggregate,
    load_plan,
    render_series_csv,
    run_plan,
)
from .metrics import (
    HashMapTracker,
    IntervalTracker,
    RunReport,
    Verdict,
    scale_rule_of_three,
)
from .routing import (
    Broadcast,
    MamState,
    RelayCache,
    btmr_relay,
    mam_handle,
)
from .scenario import dump_scenario, load_scenario, parse_scenario
from .simnet import MobilityTrace, World, run

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "Broadcast",
    "CommanderSession",
    "CommandVerb",
    "ComparisonTable",
    "ConfigError",
    "ExperimentPlan",
    "HashMapTracker",
    "IntervalTracker",
    "MamState",
    "Message",
    "MessageKind",
    "MobilityTrace",
    "NodeSpec",
    "NodeStats",
    "PlanError",
    "RANGE_PRESETS",
    "ReachabilityReport",
    "RelayCache",
    "Role",
    "RunReport",
    "ScenarioConfig",
    "Verdict",
    "Waypoint",
    "World",
    "aggregate",
    "btmr_relay",
    "check_reachability",
    "decode_message",
    "dump_scenario",
    "encode_message",
    "format_stats_table",
    "load_plan",
    "load_scenario",
    "make_server",
    "mam_handle",
    "message_hash",
    "parse_scenario",
    "render_series_csv",
    "run",
    "run_plan",
    "scale_rule_of_three",
]
