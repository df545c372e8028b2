"""Unique/duplicate accounting and run reporting.

The collector tells first-time sensor messages from repeats by their
``(origin, seq)`` key. Two interchangeable trackers implement that check: a
hash map (simple, memory per message) and an interval set (memory per gap,
suited to sequential per-origin sequence numbers). A run's counters are
frozen into a ``RunReport``; helpers scale counts between run durations
and align the columns of text tables.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Sequence

from .core import MessageKey, NodeId


class Verdict(Enum):
    UNIQUE = "unique"
    DUPLICATE = "duplicate"


class HashMapTracker:
    """Hash set of the message keys seen so far; the straightforward tracker."""

    def __init__(self):
        self._seen: set[MessageKey] = set()
        self.duplicate_count = 0

    @property
    def unique_count(self) -> int:
        return len(self._seen)

    @property
    def total_count(self) -> int:
        return self.unique_count + self.duplicate_count

    def record(self, key: MessageKey) -> Verdict:
        if key in self._seen:
            self.duplicate_count += 1
            return Verdict.DUPLICATE
        self._seen.add(key)
        return Verdict.UNIQUE

    def reset(self) -> None:
        self._seen.clear()
        self.duplicate_count = 0


class IntervalTracker:
    """Per-origin sorted sets of maximal seen-seq intervals ``[lo, hi]``.

    Memory grows with the number of gaps in each origin's sequence space,
    not with the number of messages; adjacent intervals coalesce as gaps
    fill in.
    """

    def __init__(self):
        # origin -> parallel lists of interval starts and [lo, hi] pairs
        self._starts: dict[NodeId, list[int]] = {}
        self._intervals: dict[NodeId, list[list[int]]] = {}
        self.unique_count = 0
        self.duplicate_count = 0

    @property
    def total_count(self) -> int:
        return self.unique_count + self.duplicate_count

    def record(self, key: MessageKey) -> Verdict:
        origin, seq = key
        starts = self._starts.setdefault(origin, [])
        intervals = self._intervals.setdefault(origin, [])
        idx = bisect_right(starts, seq) - 1
        if idx >= 0 and seq <= intervals[idx][1]:
            self.duplicate_count += 1
            return Verdict.DUPLICATE

        self.unique_count += 1
        extends_left = idx >= 0 and intervals[idx][1] == seq - 1
        extends_right = idx + 1 < len(intervals) and intervals[idx + 1][0] == seq + 1
        if extends_left and extends_right:
            intervals[idx][1] = intervals[idx + 1][1]
            del intervals[idx + 1]
            del starts[idx + 1]
        elif extends_left:
            intervals[idx][1] = seq
        elif extends_right:
            intervals[idx + 1][0] = seq
            starts[idx + 1] = seq
        else:
            intervals.insert(idx + 1, [seq, seq])
            starts.insert(idx + 1, seq)
        return Verdict.UNIQUE

    def intervals(self, origin: NodeId) -> list[tuple[int, int]]:
        return [(lo, hi) for lo, hi in self._intervals.get(origin, [])]

    def interval_count(self, origin: NodeId) -> int:
        return len(self._intervals.get(origin, []))

    def origins(self) -> list[NodeId]:
        return sorted(self._intervals)

    def reset(self) -> None:
        self._starts.clear()
        self._intervals.clear()
        self.unique_count = 0
        self.duplicate_count = 0


def make_tracker(kind: str):
    if kind == "hashmap":
        return HashMapTracker()
    if kind == "interval":
        return IntervalTracker()
    raise ValueError(f"tracker unknown: {kind}")


@dataclass
class RunReport:
    """Counters frozen at the end of one run.

    ``tx_total``/``rx_total`` count every transmission/delivery of any kind
    (energy proxies); ``tx_data`` counts only sensor-data transmissions.
    Per-node rows carry data-plane counters plus queue drops and restarts.
    """

    algorithm: str
    duration_ms: int
    seed: int
    unique_received: int
    duplicate_received: int
    total_received: int
    tx_total: int
    rx_total: int
    tx_data: int
    per_node: dict[NodeId, dict[str, int]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["per_node"] = {str(node): dict(row) for node, row in sorted(self.per_node.items())}
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def scale_rule_of_three(count: float, from_minutes: float, to_minutes: float) -> float:
    """Linearly rescale a count observed over ``from_minutes`` to ``to_minutes``."""
    if from_minutes <= 0:
        raise ValueError("from_minutes must be positive")
    return count * to_minutes / from_minutes


def text_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> list[str]:
    """Lines of left-aligned columns two spaces apart, header first, no trailing blanks."""
    lines = [header, *rows]
    widths = [max(len(cell) for cell in column) for column in zip(*lines)]
    return ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
            for line in lines]
