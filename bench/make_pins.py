"""Write ``pins.json``: the output digest of every workload for every pool seed.

Usage, from the repository root: ``python3 bench/make_pins.py``. Pins record
what the simulator computes at one commit; regenerate them only for a change
that alters simulated behaviour on purpose, and say so in that change.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main() -> None:
    pool = list(workloads.POOL)
    pins = {"pool": pool}
    # street-campaign runs three seeds at a time, and its table depends on that
    street = {}
    out_dir = workloads.BENCH_DIR / ".out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        for i in range(0, len(pool), 3):
            group = pool[i:i + 3] if i + 3 <= len(pool) else pool[-3:]
            result = workloads.street_pass(group, Path(scratch))
            if result.errors:
                raise SystemExit(f"street-campaign failed: {result.errors}")
            street.update(result.digests)
    pins["street-campaign"] = street
    for name, run_pass in (("grid-storm", workloads.grid_pass),
                           ("indoor-field", workloads.indoor_pass)):
        result = run_pass(pool)
        if result.errors:
            raise SystemExit(f"{name} failed: {result.errors}")
        pins[name] = result.digests
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.PINS_PATH}")


if __name__ == "__main__":
    main()
