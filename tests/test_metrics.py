import json
import math
import random

import pytest

from meshsim import (
    HashMapTracker,
    IntervalTracker,
    RunReport,
    Verdict,
    aggregate,
    scale_rule_of_three,
)


def test_sequential_inserts_coalesce_to_one_interval():
    tracker = IntervalTracker()
    for seq in (1, 2, 3):
        assert tracker.record((0, seq)) is Verdict.UNIQUE
    assert tracker.intervals(0) == [(1, 3)]
    assert tracker.unique_count == 3
    assert tracker.duplicate_count == 0


def test_repeat_is_duplicate():
    tracker = IntervalTracker()
    assert tracker.record((0, 1)) is Verdict.UNIQUE
    assert tracker.record((0, 1)) is Verdict.DUPLICATE
    assert (tracker.unique_count, tracker.duplicate_count) == (1, 1)


def test_gap_fill_bridges_intervals():
    tracker = IntervalTracker()
    tracker.record((0, 1))
    tracker.record((0, 3))
    assert tracker.intervals(0) == [(1, 1), (3, 3)]
    tracker.record((0, 2))
    assert tracker.intervals(0) == [(1, 3)]


def test_extend_left_and_right():
    tracker = IntervalTracker()
    tracker.record((0, 5))
    tracker.record((0, 6))
    assert tracker.intervals(0) == [(5, 6)]
    tracker.record((0, 4))
    assert tracker.intervals(0) == [(4, 6)]


def test_origins_tracked_independently():
    tracker = IntervalTracker()
    tracker.record((1, 0))
    tracker.record((2, 0))
    assert tracker.record((1, 0)) is Verdict.DUPLICATE
    assert tracker.origins() == [1, 2]


def _maximal_runs(seqs):
    """The maximal runs of consecutive ints in ``seqs``, as sorted ``(lo, hi)`` pairs."""
    runs = []
    for seq in sorted(seqs):
        if runs and runs[-1][1] == seq - 1:
            runs[-1][1] = seq
        else:
            runs.append([seq, seq])
    return [tuple(run) for run in runs]


@pytest.mark.parametrize("origins, seqs, records", [
    (6, 400, 10_000),  # sparse: many short runs
    (2, 60, 2_000),  # dense: gaps fill in, so runs merge from both sides
], ids=["sparse", "dense"])
def test_trackers_agree_on_random_stream(origins, seqs, records):
    rng = random.Random(42)
    hashmap = HashMapTracker()
    interval = IntervalTracker()
    seen_by_origin = {}
    for _ in range(records):
        origin, seq = key = (rng.randrange(origins), rng.randrange(seqs))
        assert hashmap.record(key) is interval.record(key)
        seen_by_origin.setdefault(origin, set()).add(seq)
    assert (hashmap.unique_count, hashmap.duplicate_count) == \
        (interval.unique_count, interval.duplicate_count)
    assert interval.origins() == sorted(seen_by_origin)
    for origin, seen in seen_by_origin.items():
        assert interval.intervals(origin) == _maximal_runs(seen)
        assert len(interval.intervals(origin)) == len(_maximal_runs(seen))


def test_interval_memory_tracks_gaps_not_messages():
    tracker = IntervalTracker()
    for rep in range(50):
        for seq in range(100):
            tracker.record((0, seq))
    assert len(tracker.intervals(0)) == 1
    assert tracker.unique_count == 100
    assert tracker.duplicate_count == 4900


def test_tracker_reset():
    for tracker in (HashMapTracker(), IntervalTracker()):
        tracker.record((0, 1))
        tracker.record((0, 1))
        tracker.reset()
        assert (tracker.unique_count, tracker.duplicate_count) == (0, 0)
        assert tracker.record((0, 1)) is Verdict.UNIQUE


# --- duration scaling ---------------------------------------------------------

def test_scaling_reproduces_published_values():
    assert scale_rule_of_three(477.00, 5, 3.33) == pytest.approx(317.68, abs=0.01)
    assert scale_rule_of_three(938.33, 10, 3.33) == pytest.approx(312.46, abs=0.01)
    assert scale_rule_of_three(1498, 3.33, 5) == pytest.approx(2249.24, abs=0.01)


def test_scaling_identity():
    for x in (0.0, 1.0, 477.0):
        assert scale_rule_of_three(x, 7.5, 7.5) == x


def test_scaling_is_linear():
    rng = random.Random(3)
    for _ in range(100):
        a, b = rng.uniform(0, 1000), rng.uniform(0, 1000)
        src, dst = rng.uniform(0.1, 60), rng.uniform(0.1, 60)
        assert scale_rule_of_three(a + b, src, dst) == pytest.approx(
            scale_rule_of_three(a, src, dst) + scale_rule_of_three(b, src, dst))


def test_scaling_rejects_nonpositive_source():
    # a non-finite or bool duration is no duration either
    for from_minutes in (0, -1, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="from_minutes"):
            scale_rule_of_three(100, from_minutes, 5)


# --- aggregation ---------------------------------------------------------------

def _report(unique, algorithm="btmr", duration_ms=300_000, seed=0):
    return RunReport(algorithm=algorithm, duration_ms=duration_ms, seed=seed,
                     unique_received=unique, duplicate_received=0,
                     total_received=unique, tx_total=0, rx_total=0, tx_data=0)


def test_aggregate_constant_runs():
    row = aggregate([_report(477, seed=s) for s in range(3)], 5, 3.33)
    assert (row.algorithm, row.duration_min) == ("btmr", 5)
    assert row.unique_mean == 477
    assert row.unique_stdev == 0
    assert row.runs == 3
    assert row.scaled_unique == pytest.approx(477 * 3.33 / 5)


def test_aggregate_sample_stdev():
    row = aggregate([_report(468), _report(477), _report(486)], 5, 3.33)
    assert row.unique_mean == pytest.approx(477)
    assert row.unique_stdev == pytest.approx(9)


def test_aggregate_single_run_flagged():
    row = aggregate([_report(500)], 5, 3.33)
    assert row.runs == 1
    assert row.unique_mean == 500
    assert row.unique_stdev == 0


def test_aggregate_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        aggregate([], 5, 3.33)
    with pytest.raises(ValueError):
        aggregate([_report(1, algorithm="btmr"), _report(1, algorithm="mam")], 5, 3.33)
    with pytest.raises(ValueError):
        aggregate([_report(1, duration_ms=1000), _report(1, duration_ms=2000)], 5, 3.33)


# --- report formats --------------------------------------------------------------

def test_report_identity_and_formats():
    report = RunReport(algorithm="mam", duration_ms=1000, seed=3,
                       unique_received=5, duplicate_received=2, total_received=7,
                       tx_total=40, rx_total=40, tx_data=12,
                       per_node={0: dict(generated=0, relayed=1, tx_dropped=0, restarts=0)})
    assert report.total_received == report.unique_received + report.duplicate_received
    payload = json.loads(report.to_json())
    assert list(payload) == ["algorithm", "duration_ms", "seed", "unique_received",
                             "duplicate_received", "total_received", "tx_total",
                             "rx_total", "tx_data", "per_node"]
    assert payload["per_node"]["0"] == {"generated": 0, "relayed": 1,
                                        "tx_dropped": 0, "restarts": 0}
