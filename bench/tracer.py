"""Span tracer for the traced run, installed from benchmark code only.

``installed`` swaps wrappers in for meshsim's public functions and methods
and puts the originals back on exit; nothing under ``src/`` changes. Each
wrapper times its call, subtracts the time of wrapped calls nested in it
(self time) and counts what the call returned where a ratio needs it.

Spans of the coarse layers (runs, plans, commands, probes, parsing) are kept
one by one, with start, end and parent, and written out when the benchmark
ends. The per-frame and per-event layers are only summed per name: grid-storm
makes about 4 million ``in_range`` calls a pass, too many to keep.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

DROP_REASONS = {"seen": "routing.drops.seen", "ttl": "routing.drops.ttl",
                "no-route": "routing.drops.no_route"}

# (name, unit, better) of every per-layer metric the traced run reports
PER_LAYER = [
    ("simnet.in_range.calls", "count", "lower"),
    ("simnet.in_range.self_s", "s", "lower"),
    ("simnet.in_range.hit_ratio", "ratio", "higher"),
    ("simnet.step.calls", "count", "lower"),
    ("simnet.step.self_s", "s", "lower"),
    ("simnet.schedule.calls", "count", "lower"),
    ("simnet.schedule.self_s", "s", "lower"),
    ("simnet.enqueue_tx.calls", "count", "lower"),
    ("simnet.enqueue_tx.drop_ratio", "ratio", "lower"),
    ("simnet.pending.max", "count", "lower"),
    ("core.message_hash.calls", "count", "lower"),
    ("core.message_hash.self_s", "s", "lower"),
    ("routing.btmr_relay.calls", "count", "lower"),
    ("routing.btmr_relay.self_s", "s", "lower"),
    ("routing.btmr_relay.forward_ratio", "ratio", "higher"),
    ("routing.mam_handle.calls", "count", "lower"),
    ("routing.mam_handle.self_s", "s", "lower"),
    ("routing.drops.seen", "count", "lower"),
    ("routing.drops.ttl", "count", "lower"),
    ("routing.drops.no_route", "count", "lower"),
    ("metrics.tracker.record.calls", "count", "lower"),
    ("metrics.tracker.record.self_s", "s", "lower"),
    ("metrics.tracker.duplicate_ratio", "ratio", "lower"),
    ("metrics.aggregate.self_s", "s", "lower"),
    ("experiments.sim_runs", "count", "lower"),
    ("experiments.reports", "count", "higher"),
    ("experiments.run_plan.self_s", "s", "lower"),
    ("experiments.write_outputs.self_s", "s", "lower"),
    ("commander.handle_line.calls", "count", "higher"),
    ("commander.handle_line.self_s", "s", "lower"),
    ("commander.check_reachability.self_s", "s", "lower"),
    ("scenario.parse_scenario.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._stack: list[list] = []
        self._next_span = 1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.pending_max = 0

    def reset(self) -> None:
        """Start the counts of a new pass; kept spans stay."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.pending_max = 0

    def wrap(self, name, fn, keep=False, observe=None):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            # frame: [seconds spent in nested wrapped calls, nearest kept span id]
            if keep:
                span_id = self._next_span
                self._next_span += 1
                parent = stack[-1][1] if stack else 0
                frame = [0.0, span_id]
            else:
                frame = [0.0, stack[-1][1] if stack else 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if keep:
                    self.spans.append((self.trace_id, span_id, parent, name, start, end))
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def pass_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the pass since the last ``reset``."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(part, whole):
            return counts[part] / calls[whole] if calls[whole] else 0.0

        m = {}
        for layer in ("simnet.in_range", "simnet.step", "simnet.schedule",
                      "simnet.enqueue_tx", "core.message_hash", "routing.btmr_relay",
                      "routing.mam_handle", "metrics.tracker.record",
                      "commander.handle_line"):
            m[layer + ".calls"] = calls[layer]
        for layer in ("simnet.in_range", "simnet.step", "simnet.schedule",
                      "core.message_hash", "routing.btmr_relay", "routing.mam_handle",
                      "metrics.tracker.record", "metrics.aggregate",
                      "experiments.run_plan", "experiments.write_outputs",
                      "commander.handle_line", "commander.check_reachability",
                      "scenario.parse_scenario"):
            m[layer + ".self_s"] = self_s[layer]
        m["simnet.in_range.hit_ratio"] = ratio("in_range.hits", "simnet.in_range")
        m["simnet.enqueue_tx.drop_ratio"] = ratio("enqueue_tx.drops", "simnet.enqueue_tx")
        m["simnet.pending.max"] = self.pending_max
        m["routing.btmr_relay.forward_ratio"] = ratio("btmr_relay.forwards",
                                                      "routing.btmr_relay")
        m["metrics.tracker.duplicate_ratio"] = ratio("tracker.duplicates",
                                                     "metrics.tracker.record")
        for metric in DROP_REASONS.values():
            m[metric] = counts[metric]
        m["experiments.sim_runs"] = calls["simnet.run"]
        m["experiments.reports"] = counts["experiments.reports"]
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for trace_id, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"trace": trace_id, "span": span_id,
                                      "parent": parent, "name": name,
                                      "start": start, "end": end}) + "\n")


# --- what gets wrapped ------------------------------------------------------------

def _count_if(key, test):
    def observe(tracer, args, result):
        if test(result):
            tracer.counts[key] += 1
    return observe


def _pending(tracer, args, result):
    tracer.pending_max = max(tracer.pending_max, args[0].pending())


def _drops(tracer, args, result):
    for node in args[0].nodes.values():
        for reason, n in node.drops.items():
            tracer.counts[DROP_REASONS[reason]] += n


def _reports(tracer, args, table):
    tracer.counts["experiments.reports"] += sum(len(b) for b in table.reports.values())


def _targets():
    """(owner, attribute, span name, keep spans, observer) for every wrapper."""
    from meshsim import commander, experiments, routing, scenario, simnet
    from meshsim.metrics import HashMapTracker, IntervalTracker, Verdict

    World = simnet.World
    duplicate = _count_if("tracker.duplicates", lambda v: v is Verdict.DUPLICATE)
    return [
        (routing, "message_hash", "core.message_hash", False, None),
        (simnet, "btmr_relay", "routing.btmr_relay", False,
         _count_if("btmr_relay.forwards", lambda a: isinstance(a, routing.Broadcast))),
        (simnet, "mam_handle", "routing.mam_handle", False, None),
        (World, "step", "simnet.step", False, None),
        (World, "schedule", "simnet.schedule", False, _pending),
        (World, "in_range", "simnet.in_range", False,
         _count_if("in_range.hits", bool)),
        (World, "enqueue_tx", "simnet.enqueue_tx", False,
         _count_if("enqueue_tx.drops", lambda queued: not queued)),
        # not a layer of its own: the end of a run, where SimNode.drops is read
        (World, "report", "simnet.report", True, _drops),
        (HashMapTracker, "record", "metrics.tracker.record", False, duplicate),
        (IntervalTracker, "record", "metrics.tracker.record", False, duplicate),
        (experiments, "run", "simnet.run", True, None),
        (experiments, "aggregate", "metrics.aggregate", True, None),
        (experiments, "write_outputs", "experiments.write_outputs", True, None),
        (experiments, "run_plan", "experiments.run_plan", True, _reports),
        (commander.CommanderSession, "handle_line", "commander.handle_line", True, None),
        (commander, "check_reachability", "commander.check_reachability", True, None),
        (scenario, "parse_scenario", "scenario.parse_scenario", True, None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, keep, observe in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, keep, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
