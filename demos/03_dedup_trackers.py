# Two ways to tell unique sensor messages from repeats at the collector.
#
# The hash-map tracker keeps one entry per distinct message: simple, but its
# memory grows with traffic, and on a small microcontroller that eventually
# runs the node out of RAM mid-experiment. Message ids are sequential per
# origin, so an interval tracker can store just the contiguous stretches of
# received sequence numbers instead: memory follows the number of *gaps*.

import random

from meshsim import HashMapTracker, IntervalTracker

rng = random.Random(7)

hashmap = HashMapTracker()
interval = IntervalTracker()

# Ten origins deliver 50k frames; the channel reorders a little and repeats a
# lot (flood fan-in), and a few early frames never arrive (permanent gaps).
lost = {(origin, seq) for origin in range(10) for seq in rng.sample(range(500), 5)}
inserted = 0
for origin in range(10):
    for seq in range(5_000):
        if (origin, seq % 500) in lost:
            continue
        key = (origin, seq % 500)  # wraps: plenty of duplicates
        assert hashmap.record(key) is interval.record(key)
        inserted += 1

print(f"inserted {inserted} frames from 10 origins")
print(f"hash map:  unique={hashmap.unique_count} duplicate={hashmap.duplicate_count}")
print(f"intervals: unique={interval.unique_count} duplicate={interval.duplicate_count}")
print()
print(f"hash-map entries held: {hashmap.unique_count}")
print(f"intervals held:        {sum(len(interval.intervals(o)) for o in interval.origins())}")
print(f"origin 0 stretches:    {interval.intervals(0)[:4]} ...")
