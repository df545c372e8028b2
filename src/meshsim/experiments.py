"""Experiment plans: algorithm/duration sweeps over a scenario.

A plan expands into ``len(algorithms) x len(durations) x repetitions`` reports,
aggregates each batch of repetitions into one mean/stdev ``TableRow``, and
renders comparison tables (text and CSV) with a column scaled to a common
reference duration for cross-duration comparisons. Every output is built
from those rows, except the per-run report files.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Union

from .core import Algorithm, ScenarioConfig, check_fields, is_int, is_number, setting
from .metrics import RunReport, scale_rule_of_three, text_table
from .refdata import REFERENCE_MINUTES
from .scenario import file_keys, load_scenario, read_settings, read_source
from .simnet import World, run, seed_matters  # noqa: F401  (bench/tracer.py wraps run)


class PlanError(ValueError):
    pass


def _list_of(parse):
    return lambda text: [parse(part.strip()) for part in text.split(",")]


def _distinct(values: list) -> bool:
    return len(set(values)) == len(values)


@dataclass
class ExperimentPlan:
    """A sweep over a scenario; each field is a plan-file setting."""

    scenario: ScenarioConfig = setting(load_scenario, "must name a scenario file or built-in",
                                       lambda v: isinstance(v, ScenarioConfig))
    algorithms: list[Algorithm] = setting(
        _list_of(Algorithm), "must be a comma-separated list of distinct algorithms (btmr, mam)",
        lambda v: len(v) > 0 and all(isinstance(a, Algorithm) for a in v) and _distinct(v))
    # each duration names its own run length in ms and its own printed label; a
    # run length over 0.5 ms rounds to at least 1 ms
    durations_min: list[float] = setting(
        _list_of(float),
        "must be a comma-separated list of minutes, each at least 1 ms long, "
        "distinct in whole ms and as printed",
        lambda v: len(v) > 0 and all(is_number(d) and 0.5 < d * 60_000 < math.inf for d in v)
        and _distinct([round(d * 60_000) for d in v]) and _distinct([f"{d:g}" for d in v]))
    repetitions: int = setting(int, "must be an integer >= 1",
                               lambda v: is_int(v) and v >= 1, default=1)
    seeds: Optional[list[int]] = setting(
        _list_of(int), "must be a comma-separated list of distinct integers",
        lambda v: v is None or (all(map(is_int, v)) and _distinct(v)), default=None)
    seed_base: int = setting(int, "must be an integer", is_int, default=0)
    reference_minutes: float = setting(float, "must be a positive number",
                                       lambda v: is_number(v) and v > 0,
                                       default=REFERENCE_MINUTES)

    def run_seeds(self) -> list[int]:
        seeds = list(self.seeds if self.seeds is not None
                     else range(self.seed_base, self.seed_base + self.repetitions))
        if len(seeds) != self.repetitions:
            raise PlanError(f"plan needs {self.repetitions} seeds, got {len(seeds)}")
        if not _distinct([abs(seed) for seed in seeds]):  # random.Random seeds from abs(n)
            raise PlanError(f"a seed and its negation seed the same run, got seeds {seeds}")
        return seeds

    def validate(self) -> None:
        check_fields(self, PlanError)
        self.run_seeds()


@dataclass
class TableRow:
    algorithm: str
    duration_min: float
    unique_mean: float
    unique_stdev: float
    duplicate_mean: float
    duplicate_stdev: float
    tx_total_mean: float
    rx_total_mean: float
    scaled_unique: float
    runs: int


def aggregate(reports: list[RunReport], minutes: float, reference_minutes: float) -> TableRow:
    """The row of one batch of runs: means and sample (n-1) standard deviations."""
    import statistics  # here, not at the top: only a campaign's aggregation needs it
    if not reports:
        raise ValueError("aggregate needs at least one report")
    first = reports[0]
    if any((r.algorithm, r.duration_ms) != (first.algorithm, first.duration_ms) for r in reports):
        raise ValueError("aggregate needs homogeneous algorithm and duration")

    def mean(name: str) -> float:
        return statistics.fmean(getattr(r, name) for r in reports)

    def stdev(name: str) -> float:
        return statistics.stdev(getattr(r, name) for r in reports) if len(reports) > 1 else 0.0

    unique = mean("unique_received")
    return TableRow(
        algorithm=first.algorithm,
        duration_min=minutes,
        unique_mean=unique,
        unique_stdev=stdev("unique_received"),
        duplicate_mean=mean("duplicate_received"),
        duplicate_stdev=stdev("duplicate_received"),
        tx_total_mean=mean("tx_total"),
        rx_total_mean=mean("rx_total"),
        scaled_unique=scale_rule_of_three(unique, minutes, reference_minutes),
        runs=len(reports),
    )


def _csv_cell(name: str, value) -> str:
    """A duration as the plan gives it, a mean to two decimals, a count as is."""
    if name == "duration_min":
        return f"{value:g}"
    return f"{value:.2f}" if isinstance(value, float) else str(value)


@dataclass
class ComparisonTable:
    rows: list[TableRow]
    reference_minutes: float
    reports: dict[tuple[str, float], list[RunReport]] = field(default_factory=dict)

    def render_csv(self) -> str:
        names = [f.name for f in fields(TableRow)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for row in self.rows:
            writer.writerow([_csv_cell(name, getattr(row, name)) for name in names])
        return buf.getvalue()

    def render_text(self) -> str:
        header = ["algo", "min", "unique", "duplicate", "tx", "rx",
                  f"unique@{self.reference_minutes:g}min", "runs"]
        body = [[row.algorithm,
                 f"{row.duration_min:g}",
                 f"{row.unique_mean:.2f} (stdev={row.unique_stdev:.2f})",
                 f"{row.duplicate_mean:.2f} (stdev={row.duplicate_stdev:.2f})",
                 f"{row.tx_total_mean:.1f}",
                 f"{row.rx_total_mean:.1f}",
                 f"{row.scaled_unique:.2f}",
                 str(row.runs)] for row in self.rows]
        return "\n".join(text_table(header, body)) + "\n"


def _run_seed(plan: ExperimentPlan, algorithm: Algorithm, seed: int) -> dict[float, RunReport]:
    """One world run through the plan's durations in ascending order, reported at
    each: a shorter run is the prefix of a longer one."""
    by_length = sorted(plan.durations_min)
    config = replace(plan.scenario, algorithm=algorithm, rng_seed=seed)
    taken: dict[float, RunReport] = {}
    try:
        world = World(config)
        for minutes in by_length:
            duration_ms = int(round(minutes * 60_000))
            world.run_until(duration_ms)
            taken[minutes] = replace(world.report(), duration_ms=duration_ms)
    except Exception as exc:
        raise PlanError(
            f"run failed (algorithm={algorithm.value}, "
            f"duration_min={by_length[len(taken)]}, seed={seed}): {exc}"
        ) from exc
    return taken


def run_plan(plan: ExperimentPlan, out_dir: Optional[Union[str, Path]] = None) -> ComparisonTable:
    """Execute the full sweep; optionally write table/series/report files.

    Each algorithm runs every seed if ``seed_matters`` says its runs can depend on
    the seed, else only the first seed, whose reports the other seeds reuse.
    """
    plan.validate()
    seeds = plan.run_seeds()
    if out_dir is not None:
        # an unusable directory fails here, before any run, not after the campaign
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[TableRow] = []
    reports: dict[tuple[str, float], list[RunReport]] = {}
    for algorithm in plan.algorithms:
        distinct = seeds if seed_matters(replace(plan.scenario, algorithm=algorithm)) else seeds[:1]
        runs = [_run_seed(plan, algorithm, seed) for seed in distinct]
        runs += [{m: replace(r, seed=s) for m, r in runs[0].items()} for s in seeds[len(runs):]]
        for minutes in plan.durations_min:
            batch = [taken[minutes] for taken in runs]
            rows.append(aggregate(batch, minutes, plan.reference_minutes))
            reports[(algorithm.value, minutes)] = batch
    table = ComparisonTable(rows=rows, reference_minutes=plan.reference_minutes,
                            reports=reports)
    if out_dir is not None:
        write_outputs(table, out_dir)
    return table


def render_series_csv(series: list[tuple[float, float, float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["duration_min", "unique", "duplicate"])
    for minutes, unique, duplicate in series:
        writer.writerow([f"{minutes:g}", f"{unique:.2f}", f"{duplicate:.2f}"])
    return buf.getvalue()


def write_outputs(table: ComparisonTable, out_dir: Path) -> None:
    """Write the tables, series and per-run reports into the existing ``out_dir``."""
    (out_dir / "table.txt").write_text(table.render_text())
    (out_dir / "table.csv").write_text(table.render_csv())
    for algorithm in sorted({row.algorithm for row in table.rows}):
        series = sorted((row.duration_min, row.unique_mean, row.duplicate_mean)
                        for row in table.rows if row.algorithm == algorithm)
        (out_dir / f"series_{algorithm}.csv").write_text(render_series_csv(series))
    for (algorithm, minutes), batch in sorted(table.reports.items()):
        for report in batch:
            name = f"report_{algorithm}_{minutes:g}min_s{report.seed}.json"
            (out_dir / name).write_text(report.to_json())


# --- plan files -------------------------------------------------------------

BUILTIN_PLANS = ("line3_quick", "outdoor_comparison")


def parse_plan(text: str, base_dir: Optional[Path] = None) -> ExperimentPlan:
    def scenario(value: str) -> ScenarioConfig:
        # a scenario file next to the plan wins over a built-in of that name
        if base_dir is not None and (base_dir / value).is_file():
            return load_scenario(base_dir / value)
        return load_scenario(value)

    keys = file_keys(ExperimentPlan)
    keys["scenario"] = (scenario, keys["scenario"][1])
    plan, where = read_settings(ExperimentPlan, text, PlanError, keys)
    if "seeds" in where and "repetitions" not in where:
        plan.repetitions = len(plan.seeds)  # a list of seeds alone says how many runs
    if "seeds" in where and "seed_base" in where:
        first, later = sorted((where["seeds"], where["seed_base"]))
        raise PlanError(f"line {later[0]}: {later[1]}: {first[1]} already set on line {first[0]}")
    try:
        plan.run_seeds()
    except PlanError as exc:
        line, key, _ = where.get("seeds") or where["seed_base"]
        raise PlanError(f"line {line}: {key}: {exc}") from None
    return plan


def load_plan(source: Union[str, Path]) -> ExperimentPlan:
    """Load a plan from a path, or by built-in name (``line3_quick``, ...)."""
    text, path = read_source(source, "plan", BUILTIN_PLANS, "plans/{}.plan", PlanError)
    return parse_plan(text, base_dir=path.parent if path else None)
