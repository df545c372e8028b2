"""Machine-speed sampling, so that reported times hold still on a shared host.

On a shared two-CPU host the same pass can take twice as long from one
minute to the next, because other tenants slow the CPU; process CPU time
rises with wall time, so the slowdown is not waiting. To cancel it, a
``Sampler`` runs a fixed probe of about 1 ms every ``PERIOD_S`` from a
``SIGALRM`` handler while a pass runs. The probe runs no meshsim code, so no
change to meshsim can move it. Times are then taken with ``Sampler.clock``,
which leaves out the handler's own time, and multiplied by ``scale()``:
``REF_PROBE_S`` over the mean probe time of the pass. A reported second is
therefore a second at the speed where one probe takes ``REF_PROBE_S``.
"""

from __future__ import annotations

import heapq
import math
import random
import signal
import statistics
import time
from dataclasses import dataclass, replace

PERIOD_S = 0.025
REF_PROBE_S = 0.001
PROBE_STEPS = 250


@dataclass(frozen=True)
class _Record:
    key: int
    value: int
    tag: bytes


_TABLE = [_Record(i, 3 * i, b"xy") for i in range(2048)]
_KEYS = [random.Random(1).randrange(len(_TABLE)) for _ in range(PROBE_STEPS)]


def probe() -> float:
    """Seconds one fixed loop takes now.

    It mixes what the simulator spends its time on: frozen-dataclass copies,
    heap pushes and pops, dict updates, float geometry and byte-wise hashing.
    """
    heap, counts, h = [], {}, 0xCBF29CE484222325
    start = time.perf_counter()
    for i, key in enumerate(_KEYS):
        record = replace(_TABLE[key], value=i)
        heapq.heappush(heap, (key * 7919 % 1000, i, record))
        if len(heap) > 64:
            heapq.heappop(heap)
        if math.hypot(key % 17 - i % 13, key % 11) <= 6.0:
            counts[key & 63] = counts.get(key & 63, 0) + 1
        for byte in record.tag:
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return time.perf_counter() - start


def bracket(count: int = 40) -> float:
    """Mean probe seconds over ``count`` probes run back to back."""
    return statistics.fmean(probe() for _ in range(count))


class Sampler:
    """Probes machine speed from a timer signal for the length of a block."""

    def __init__(self):
        self.spent = 0.0
        self.probes: list[float] = []
        self._previous = None

    def clock(self) -> float:
        """``perf_counter`` without the time spent in the probe handler."""
        return time.perf_counter() - self.spent

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        probes = self.probes or [probe()]
        return REF_PROBE_S / statistics.fmean(probes)
