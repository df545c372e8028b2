"""Test helper: watch the collector's data arrivals through its tracker."""

from meshsim import World
from meshsim.core import NodeId


class _RecordingTracker:
    """Logs ``(time, (origin, seq))`` for each key, then hands it to the wrapped tracker."""

    def __init__(self, world: World):
        self._world = world
        self._tracker = world.tracker
        self.arrivals: list[tuple[int, tuple[NodeId, int]]] = []

    def record(self, key: tuple[NodeId, int]):
        self.arrivals.append((self._world.now, key))
        return self._tracker.record(key)

    def __getattr__(self, name):
        return getattr(self._tracker, name)


def record_arrivals(world: World) -> list[tuple[int, tuple[NodeId, int]]]:
    """From now on, log every data frame the collector receives, duplicates included.

    The log is never cleared, not even when a command resets the tracker.
    Counts and verdicts still come from the world's own tracker.
    """
    recorder = _RecordingTracker(world)
    world.tracker = recorder
    return recorder.arrivals
