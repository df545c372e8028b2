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

from .core import NodeId, is_number


class Verdict(Enum):
    UNIQUE = "unique"
    DUPLICATE = "duplicate"


# bound once, as ``core`` binds ``MessageKind``: ``record`` returns these
UNIQUE = Verdict.UNIQUE
DUPLICATE = Verdict.DUPLICATE


class HashMapTracker:
    """Hash set of the message keys seen so far; the straightforward tracker."""

    def __init__(self):
        self._seen: set[tuple[NodeId, int]] = set()
        self.duplicate_count = 0

    @property
    def unique_count(self) -> int:
        return len(self._seen)

    def record(self, key: tuple[NodeId, int]) -> Verdict:
        if key in self._seen:
            self.duplicate_count += 1
            return DUPLICATE
        self._seen.add(key)
        return UNIQUE

    def reset(self) -> None:
        self._seen.clear()
        self.duplicate_count = 0


class IntervalTracker:
    """Per origin, one sorted list of the bounds of the maximal seen-seq runs.

    The list reads ``[lo, hi + 1, lo2, hi2 + 1, ...]``, so a seq has been seen
    when an odd number of its origin's bounds are at or below it. Memory grows
    with the number of gaps in each origin's sequence space, not with the
    number of messages; adjacent runs coalesce as gaps fill in.
    """

    def __init__(self):
        self._bounds: dict[NodeId, list[int]] = {}
        self.unique_count = 0
        self.duplicate_count = 0

    def record(self, key: tuple[NodeId, int]) -> Verdict:
        origin, seq = key
        bounds = self._bounds.setdefault(origin, [])
        i = bisect_right(bounds, seq)
        if i & 1:
            self.duplicate_count += 1
            return DUPLICATE

        self.unique_count += 1
        # seq lies in the gap after the run ending at bounds[i - 1] - 1
        # and before the run starting at bounds[i]
        joins_left = i > 0 and bounds[i - 1] == seq
        joins_right = i < len(bounds) and bounds[i] == seq + 1
        if joins_left and joins_right:
            del bounds[i - 1:i + 1]
        elif joins_left:
            bounds[i - 1] = seq + 1
        elif joins_right:
            bounds[i] = seq
        else:
            bounds[i:i] = [seq, seq + 1]
        return UNIQUE

    def intervals(self, origin: NodeId) -> list[tuple[int, int]]:
        bounds = self._bounds.get(origin, [])
        return [(lo, end - 1) for lo, end in zip(bounds[::2], bounds[1::2])]

    def origins(self) -> list[NodeId]:
        return sorted(self._bounds)

    def reset(self) -> None:
        self._bounds.clear()
        self.unique_count = 0
        self.duplicate_count = 0


@dataclass
class RunReport:
    """Counters frozen at the end of one run.

    ``algorithm`` is the scenario's configured algorithm, not the one nodes run
    after ``set-mam``/``set-btmr``. ``core.NODE_COUNTERS`` says which node
    counters each ``per_node`` row carries and each total sums.
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
    for name, minutes in (("from_minutes", from_minutes), ("to_minutes", to_minutes)):
        if not is_number(minutes) or minutes <= 0:
            raise ValueError(f"{name} must be a finite positive number, got {minutes!r}")
    return count * to_minutes / from_minutes


def text_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> list[str]:
    """Lines of left-aligned columns two spaces apart, header first, no trailing blanks."""
    lines = [header, *rows]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return ["  ".join(map(str.ljust, line, widths)).rstrip() for line in lines]
