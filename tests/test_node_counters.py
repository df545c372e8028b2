"""A node counter is declared once, in ``core.NODE_COUNTERS``, and nowhere else.

The test adds one entry to that table in a copy of the package and drives the
copy through a commander session: the new counter must be zeroed by
``sim-reset`` and ``reboot``, carried by every ``per_node`` row, its total and
the ``sim-stats`` payload, with no other edit to the package.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = "NODE_COUNTERS = (\n"
# a transmission counter that adds to the existing ``tx_total``
ENTRY = '    NodeCounter("beacons_sent", row=True, total="tx_total", stats=True),'

PROBE = """
import json
from meshsim import CommanderSession, World, load_scenario
from meshsim.commander import STATS_COLUMNS, NodeStats

world = World(load_scenario("line3"))
session = CommanderSession(world, settle_ms=2_500)
seen = {"columns": list(STATS_COLUMNS), "fields": list(NodeStats._fields),
        "at_start": {n.id: n.beacons_sent for n in world.nodes.values()}}

def set_counters():
    for node in world.nodes.values():
        node.beacons_sent = 10 + node.id

world.run_until(5_000)
set_counters()
seen["response"] = session.handle_line("sim-stats")
seen["collected"] = {nid: s.beacons_sent for nid, s in world.collected_stats.items()}
report = world.report()
seen["rows"] = {nid: row["beacons_sent"] for nid, row in report.per_node.items()}
seen["tx_total"] = report.tx_total
seen["tx_count_sum"] = sum(n.tx_count for n in world.nodes.values())
session.handle_line("sim-reset")
seen["after_reset"] = {n.id: n.beacons_sent for n in world.nodes.values()}
set_counters()
session.handle_line("reboot")
seen["after_reboot"] = {n.id: (n.beacons_sent, n.restarts) for n in world.nodes.values()}
print(json.dumps(seen))
"""


def test_one_table_entry_adds_a_counter_everywhere(tmp_path):
    package = tmp_path / "meshsim"
    shutil.copytree(ROOT / "src" / "meshsim", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    core = package / "core.py"
    text = core.read_text()
    head, table, rest = text.partition(TABLE)
    body, close, tail = rest.partition("\n)\n")
    assert table and close
    core.write_text(head + table + body + "\n" + ENTRY + close + tail)

    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    result = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout)
    ids = ["0", "1", "2"]  # line3: hub 0, commander 1, sensor 2

    # the stats payload and table carry it last, after the unchanged layout
    assert seen["fields"] == ["node", "generated", "relayed", "received", "tx_dropped",
                              "restarts", "beacons_sent"]
    assert seen["columns"] == ["node", "role", *seen["fields"][1:]]
    assert seen["at_start"] == dict.fromkeys(ids, 0)
    header, *rows = seen["response"][2:]
    assert seen["response"][0] == "OK" and header.endswith("beacons_sent")
    assert [row.split()[-1] for row in rows] == ["10", "11", "12"]
    # the hub's own snapshot and both reports that crossed the mesh
    assert seen["collected"] == {"0": 10, "1": 11, "2": 12}
    # the report's rows and its total
    assert seen["rows"] == {"0": 10, "1": 11, "2": 12}
    assert seen["tx_total"] == seen["tx_count_sum"] + 33
    # sim-reset zeroes it on every node; a reboot zeroes the commander's and keeps
    # its restart count
    assert seen["after_reset"] == dict.fromkeys(ids, 0)
    assert seen["after_reboot"] == {"0": [10, 0], "1": [0, 1], "2": [12, 0]}
