"""Experiment plans: algorithm/duration sweeps over a scenario.

A plan expands into ``len(algorithms) x len(durations) x repetitions`` runs,
aggregates repetitions into mean/stdev rows, and renders comparison tables
(text and CSV) with a column scaled to a common reference duration for
cross-duration comparisons. Every output is built from those rows, except
the per-run report files.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Union

from .core import Algorithm, ScenarioConfig, check_fields, setting
from .metrics import AggregateSummary, RunReport, aggregate, scale_rule_of_three, text_table
from .scenario import build, content_lines, file_keys, load_scenario, read_setting, read_source
from .simnet import run

DEFAULT_REFERENCE_MINUTES = 3.33


class PlanError(ValueError):
    pass


def _list_of(parse):
    return lambda text: [parse(part.strip()) for part in text.split(",")]


def _distinct(values: list) -> bool:
    return len(set(values)) == len(values)


@dataclass
class ExperimentPlan:
    """A sweep over a scenario; each field but ``name`` is a plan-file setting."""

    scenario: ScenarioConfig = setting(load_scenario, "must name a scenario file or built-in")
    algorithms: list[Algorithm] = setting(
        _list_of(Algorithm), "must be a comma-separated list of distinct algorithms (btmr, mam)",
        lambda v: len(v) > 0 and _distinct(v))
    durations_min: list[float] = setting(
        _list_of(float), "must be a comma-separated list of distinct positive minutes",
        lambda v: len(v) > 0 and _distinct(v) and all(0 < d < math.inf for d in v))
    repetitions: int = setting(int, "must be an integer >= 1", lambda v: v >= 1, default=1)
    seeds: Optional[list[int]] = setting(
        _list_of(int), "must be a comma-separated list of distinct integers",
        lambda v: v is None or _distinct(v), default=None)
    seed_base: int = setting(int, "must be an integer", default=0)
    reference_minutes: float = setting(float, "must be a number",
                                       default=DEFAULT_REFERENCE_MINUTES)
    name: str = ""

    def run_seeds(self) -> list[int]:
        if self.seeds is not None:
            if len(self.seeds) != self.repetitions:
                raise PlanError(f"plan needs {self.repetitions} seeds, got {len(self.seeds)}")
            return list(self.seeds)
        return [self.seed_base + i for i in range(self.repetitions)]

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


def run_plan(plan: ExperimentPlan, out_dir: Optional[Union[str, Path]] = None) -> ComparisonTable:
    """Execute the full sweep; optionally write table/series/report files."""
    plan.validate()
    seeds = plan.run_seeds()
    rows: list[TableRow] = []
    reports: dict[tuple[str, float], list[RunReport]] = {}
    for algorithm in plan.algorithms:
        for minutes in plan.durations_min:
            batch: list[RunReport] = []
            for seed in seeds:
                config = replace(
                    plan.scenario,
                    algorithm=algorithm,
                    duration_ms=int(round(minutes * 60_000)),
                    rng_seed=seed,
                )
                try:
                    batch.append(run(config))
                except Exception as exc:
                    raise PlanError(
                        f"run failed (algorithm={algorithm.value}, "
                        f"duration_min={minutes}, seed={seed}): {exc}"
                    ) from exc
            summary = aggregate(batch)
            rows.append(_row_from_summary(summary, minutes, plan.reference_minutes))
            reports[(algorithm.value, minutes)] = batch
    table = ComparisonTable(rows=rows, reference_minutes=plan.reference_minutes,
                            reports=reports)
    if out_dir is not None:
        write_outputs(table, plan, Path(out_dir))
    return table


def _row_from_summary(summary: AggregateSummary, minutes: float,
                      reference_minutes: float) -> TableRow:
    return TableRow(
        algorithm=summary.algorithm,
        duration_min=minutes,
        unique_mean=summary.mean["unique_received"],
        unique_stdev=summary.stdev["unique_received"],
        duplicate_mean=summary.mean["duplicate_received"],
        duplicate_stdev=summary.stdev["duplicate_received"],
        tx_total_mean=summary.mean["tx_total"],
        rx_total_mean=summary.mean["rx_total"],
        scaled_unique=scale_rule_of_three(summary.mean["unique_received"],
                                          minutes, reference_minutes),
        runs=summary.runs,
    )


def render_series_csv(series: list[tuple[float, float, float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["duration_min", "unique", "duplicate"])
    for minutes, unique, duplicate in series:
        writer.writerow([f"{minutes:g}", f"{unique:.2f}", f"{duplicate:.2f}"])
    return buf.getvalue()


def write_outputs(table: ComparisonTable, plan: ExperimentPlan, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    path = out_dir / "table.txt"
    path.write_text(table.render_text())
    written.append(path)
    path = out_dir / "table.csv"
    path.write_text(table.render_csv())
    written.append(path)
    for algorithm in plan.algorithms:
        series = sorted((row.duration_min, row.unique_mean, row.duplicate_mean)
                        for row in table.rows if row.algorithm == algorithm.value)
        path = out_dir / f"series_{algorithm.value}.csv"
        path.write_text(render_series_csv(series))
        written.append(path)
    for (algorithm, minutes), batch in sorted(table.reports.items()):
        for report in batch:
            path = out_dir / f"report_{algorithm}_{minutes:g}min_s{report.seed}.json"
            path.write_text(report.to_json())
            written.append(path)
    return written


# --- plan files -------------------------------------------------------------

BUILTIN_PLANS = ("line3_quick", "outdoor_comparison")


def parse_plan(text: str, base_dir: Optional[Path] = None, name: str = "") -> ExperimentPlan:
    def scenario(value: str) -> ScenarioConfig:
        # a scenario file next to the plan wins over a built-in of that name
        if base_dir is not None and (base_dir / value).is_file():
            return load_scenario(base_dir / value)
        return load_scenario(value)

    keys = file_keys(ExperimentPlan)
    keys["scenario"] = ("scenario", scenario, keys["scenario"][2])
    values: dict = {"name": name}
    where: dict = {}
    for lineno, line in content_lines(text):
        try:
            read_setting(keys, line, lineno, values, where)
        except ValueError as exc:
            raise PlanError(f"line {lineno}: {exc}") from None
    plan = build(ExperimentPlan, values, where, PlanError)
    try:
        plan.run_seeds()
    except PlanError as exc:
        raise PlanError(f"line {where['seeds'][0]}: seeds: {exc}") from None
    return plan


def load_plan(source: Union[str, Path]) -> ExperimentPlan:
    """Load a plan from a path, or by built-in name (``line3_quick``, ...)."""
    text, path, name = read_source(source, "plan", BUILTIN_PLANS, "plans/{}.plan", PlanError)
    return parse_plan(text, base_dir=path.parent if path else None, name=name)
