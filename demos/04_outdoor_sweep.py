# Sweep both relay strategies over the street scenario, the way the field
# campaign was run: several durations, repeated seeds, results averaged and
# rescaled to a common reference duration for comparison.
#
# By default this trims the sweep to under a second of runtime; pass --full
# for the shipped 5/10/15-minute x 3-seed campaign shape (a few seconds: each
# algorithm is simulated once, to 15 minutes, and its seeds share that run).

import sys
from pathlib import Path

from meshsim import load_plan, run_plan
from meshsim import refdata

plan = load_plan("outdoor_comparison")
if "--full" not in sys.argv[1:]:
    plan.durations_min = [0.5, 1.0, 1.5]
    plan.repetitions = 2

out_dir = Path("demo_outputs/outdoor_sweep")
table = run_plan(plan, out_dir=out_dir)
print(table.render_text())
print(f"tables, per-run reports and accumulated series written to {out_dir}/")
print()

# The published field results for the same campaign shape, for side-by-side
# reading. Absolute counts are not comparable -- the street's radio weather is
# not in the model -- but the scaled column plays the same role.
print("published outdoor field results (averages of 3 runs):")
print("algo  min  unique            duplicate")
for algo, minutes, unique, ustd, dup, dstd in refdata.OUTDOOR_RESULTS:
    print(f"{algo:<4}  {minutes:<3}  {unique:7.2f} ({ustd:6.2f})  {dup:7.2f} ({dstd:6.2f})")
print()
print(f"published, scaled to {refdata.REFERENCE_MINUTES} minutes:")
for algo, label, minutes, unique in refdata.SCALED_RESULTS:
    print(f"{algo:<4}  {label:<14}  {unique:8.2f}")
