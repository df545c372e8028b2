"""Time one workload's set-up in a fresh process.

Set-up is importing meshsim, loading the scenario or plan and constructing
every ``World`` of one pass. Importing the benchmark's own modules is left
out. Prints the seconds, then the mean speed-probe seconds measured right
after, which rescale them (see ``speed.py``); the probe module is imported
only after the timing, so its imports do not shorten meshsim's.
Usage: ``python3 bench/setup_probe.py <workload> <sim seed>...``
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import meshsim  # noqa: E402,F401
imported = time.perf_counter()

import workloads  # noqa: E402

built = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].setup([int(s) for s in sys.argv[2:]])
end = time.perf_counter()

import speed  # noqa: E402

print(repr((imported - start) + (end - built)), repr(speed.bracket()))
