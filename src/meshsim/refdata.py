"""Reference result tables from the original field campaign and simulations.

These are the published measurements this simulator's scenarios approximate:
indoor and outdoor ESP-32 runs plus the earlier OMNET++ simulation study.
They ship as fixtures for report formatting and for cross-checking the
rule-of-three duration scaling. Absolute field counts are NOT simulator
targets: real radio conditions and the original energy-model constants are
not reproducible here.
"""

from __future__ import annotations

# (algorithm, minutes, unique_received, duplicate_received) per run
INDOOR_RESULTS = [
    ("btmr", 15, 617, 90),
    ("mam", 15, 632, 106),
    ("btmr", 15, 532, 80),
    ("mam", 15, 497, 78),
    ("btmr", 15, 279, 46),
    ("mam", 15, 359, 42),
    ("btmr", 15, 495, 60),
    ("mam", 15, 745, 119),
    ("btmr", 30, 1301, 391),
    ("mam", 30, 1354, 798),
    ("btmr", 60, 1532, 142),
    ("mam", 60, 2682, 328),
]

# (algorithm, minutes, unique_mean, unique_stdev, dup_mean, dup_stdev),
# averages of 3 outdoor runs
OUTDOOR_RESULTS = [
    ("btmr", 5, 477.00, 9.54, 175.67, 20.03),
    ("mam", 5, 484.67, 60.29, 180.33, 41.53),
    ("btmr", 10, 938.33, 17.62, 296.33, 126.88),
    ("mam", 10, 996.00, 137.98, 370.33, 60.62),
    ("btmr", 15, 1395.33, 14.29, 534.67, 13.61),
    ("mam", 15, 1458.00, 144.21, 536.67, 72.28),
]

# (algorithm, minutes, unique_received, energy_joules) from the OMNET++ study
SIMULATED_RESULTS = [
    ("btmr", 3.33, 2992, 104.30),
    ("mam", 3.33, 1498, 24.99),
]

# the duration published rows are scaled to, and a plan's default reference_minutes
REFERENCE_MINUTES = 3.33

# (algorithm, source label, minutes, unique_received) -- every row already
# scaled to the reference duration with the rule of three
SCALED_RESULTS = [
    ("btmr", "simulated", 3.33, 2992.0),
    ("mam", "simulated", 3.33, 1498.0),
    ("btmr", "outdoor-5min", 3.33, 317.68),
    ("mam", "outdoor-5min", 3.33, 322.79),
    ("btmr", "outdoor-10min", 3.33, 312.46),
    ("mam", "outdoor-10min", 3.33, 331.68),
    ("btmr", "outdoor-15min", 3.33, 309.76),
    ("mam", "outdoor-15min", 3.33, 323.67),
    ("btmr", "outdoor-avg", 3.33, 313.30),
    ("mam", "outdoor-avg", 3.33, 326.05),
]

# accumulated (minutes, unique, duplicate) series as charted for the field runs
FIELD_SERIES = {
    "mam": [(5, 484, 180), (10, 996, 370), (15, 1458, 536)],
    "btmr": [(5, 477, 175), (10, 938, 296), (15, 1395, 534)],
}

# the simulated series rescaled onto the field durations
SIMULATED_SERIES = {
    "mam": [(5, 2249.24), (10, 4498.49), (15, 6747.74)],
    "btmr": [(5, 4492.49), (10, 8984.98), (15, 13477.47)],
}
