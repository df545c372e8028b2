# Run the three-node oracle line under both relay strategies and compare.
#
# Topology: collector -- relay (the commander) -- sensor, 5 m spacing,
# ground-level radio (6 m), ideal channel. Every data frame needs exactly
# two link crossings to reach the collector, which makes the whole run
# traceable by hand: flooding and routing deliver the same messages, but
# flooding burns extra receptions.

from dataclasses import replace

from meshsim import Algorithm, HashMapTracker, World, load_scenario


class ArrivalLog(HashMapTracker):
    """The collector's tracker, also logging when each data frame arrives."""

    def __init__(self, world):
        super().__init__()
        self.world = world
        self.arrivals = []

    def record(self, key):
        self.arrivals.append((self.world.now, key))
        return super().record(key)


name = "line3"
config = load_scenario(name)
print(f"scenario: {name}, duration {config.duration_ms} ms, "
      f"heartbeat every {config.heartbeat_period_ms} ms, "
      f"data every {config.data_period_ms} ms")
print()

for algorithm in (Algorithm.BTMR, Algorithm.MAM):
    world = World(replace(config, algorithm=algorithm))
    world.tracker = log = ArrivalLog(world)
    world.run_until(config.duration_ms)
    report = world.report()
    print(f"--- {algorithm.value} ---")
    print("deliveries at the collector:")
    for t, (origin, seq) in log.arrivals:
        print(f"  t={t} ms  origin={origin} seq={seq}")
    print(f"unique={report.unique_received} duplicate={report.duplicate_received} "
          f"tx_total={report.tx_total} rx_total={report.rx_total} "
          f"data-path tx={report.tx_data}")
    print()

# Under routing, the sensor's learned next hop is the relay and the relay's is
# the collector itself:
world = World(replace(config, algorithm=Algorithm.MAM))
world.run_until(config.duration_ms)
for node_id in (1, 2):
    print(f"node {node_id} route cache: {world.nodes[node_id].mam}")
