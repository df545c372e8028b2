import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meshsim import (
    Algorithm,
    ExperimentPlan,
    NodeSpec,
    PlanError,
    Role,
    ScenarioConfig,
    Waypoint,
    World,
    dump_scenario,
    load_plan,
    load_scenario,
    render_series_csv,
    run,
    run_plan,
    scale_rule_of_three,
)
import meshsim
from meshsim import experiments, refdata
from meshsim.cli import main as cli_main
from meshsim.experiments import parse_plan
from meshsim.simnet import seed_matters
from test_scenario import with_byte_order_mark
from test_golden import read_tree
from test_simnet import busy_runs, coordinate, drive, geometries


def quick_plan(**overrides):
    kwargs = dict(
        scenario=load_scenario("line3"),
        algorithms=[Algorithm.BTMR],
        durations_min=[0.2],
        repetitions=3,
        seed_base=5,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def test_single_cell_plan_runs_and_aggregates():
    table = run_plan(quick_plan())
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.runs == 3
    assert row.algorithm == "btmr"
    assert row.unique_stdev == 0.0
    assert len(table.reports[("btmr", 0.2)]) == 3


def test_flood_vs_route_on_the_oracle_line():
    table = run_plan(quick_plan(algorithms=[Algorithm.BTMR, Algorithm.MAM],
                                durations_min=[0.5]))
    flood, routed = table.rows
    assert flood.unique_mean == routed.unique_mean
    assert routed.tx_total_mean <= flood.tx_total_mean


def test_sweep_has_one_row_per_cell():
    table = run_plan(quick_plan(algorithms=[Algorithm.BTMR, Algorithm.MAM],
                                durations_min=[0.2, 0.4, 0.6], repetitions=1))
    assert [(r.algorithm, r.duration_min) for r in table.rows] == [
        ("btmr", 0.2), ("btmr", 0.4), ("btmr", 0.6),
        ("mam", 0.2), ("mam", 0.4), ("mam", 0.6)]


def test_scaled_column_cross_checks():
    table = run_plan(quick_plan(durations_min=[0.2, 0.4], repetitions=2))
    for row in table.rows:
        expected = scale_rule_of_three(row.unique_mean, row.duration_min,
                                       table.reference_minutes)
        assert abs(row.scaled_unique - expected) <= 0.01


def test_explicit_seeds_must_match_repetitions():
    plan = quick_plan(seeds=[1, 2])
    with pytest.raises(PlanError, match="seeds"):
        plan.validate()
    plan = quick_plan(seeds=[1, 2, 3])
    assert plan.run_seeds() == [1, 2, 3]


@pytest.mark.parametrize("overrides,field", [
    (dict(algorithms=[Algorithm.MAM, Algorithm.MAM]), "algorithms"),
    (dict(durations_min=[0.2, 0.2]), "durations_min"),
    (dict(durations_min=[0.2, 0.2000001]), "durations_min"),
    (dict(seeds=[3, 4, 3]), "seeds"),
])
def test_plan_built_in_code_rejects_repeated_entries(overrides, field):
    with pytest.raises(PlanError, match=f"^{field}: must be .* distinct"):
        run_plan(quick_plan(**overrides))


@pytest.mark.parametrize("overrides,field", [
    (dict(repetitions=1.5), "repetitions"),
    (dict(repetitions=True), "repetitions"),
    (dict(seed_base=None), "seed_base"),
    (dict(seed_base=0.5), "seed_base"),
    (dict(seeds=[1, None, 2]), "seeds"),
])
def test_plan_built_in_code_rejects_non_integers(overrides, field):
    with pytest.raises(PlanError, match=f"^{field}: must be .*integer"):
        run_plan(quick_plan(**overrides))


@pytest.mark.parametrize("overrides,field", [
    (dict(repetitions=10**11), "repetitions: must be an integer from 1 to 1000"),
    (dict(seeds=list(range(1_001))), "seeds: must be a comma-separated list of at most 1000"),
])
def test_plan_built_in_code_bounds_the_runs_per_row(overrides, field):
    # checked before any list of seeds is built, so a huge count fails at once
    with pytest.raises(PlanError, match=f"^{field}"):
        run_plan(quick_plan(**overrides))


@pytest.mark.parametrize("overrides,field", [
    (dict(scenario="line3"), "scenario"),
    (dict(durations_min=[None]), "durations_min"),
    (dict(reference_minutes=None), "reference_minutes"),
    (dict(seeds=5), "seeds"),
    (dict(algorithms=None), "algorithms"),
    # a bool is not a number, and an algorithm is an Algorithm member, not its name
    (dict(reference_minutes=True), "reference_minutes"),
    (dict(durations_min=[True, 2]), "durations_min"),
    (dict(algorithms=["btmr"]), "algorithms"),
    (dict(algorithms=[True]), "algorithms"),
    (dict(algorithms="mb"), "algorithms"),
])
def test_plan_built_in_code_rejects_wrongly_typed_values(overrides, field):
    with pytest.raises(PlanError, match=f"^{field}: must "):
        run_plan(quick_plan(**overrides))


@pytest.mark.parametrize("durations", [[0.000001], [0.2, 0.000008]])
def test_plan_built_in_code_rejects_sub_millisecond_durations(durations):
    with pytest.raises(PlanError, match="^durations_min: must be .* at least 1 ms"):
        run_plan(quick_plan(durations_min=durations))


def test_failing_run_aborts_with_config_echoed():
    broken = ScenarioConfig(
        topology=[NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB),
                  NodeSpec(1, 5.0, 0.0, Role.MOBILE_HUB)],
        duration_ms=1_000)
    with pytest.raises(PlanError, match=r"algorithm=btmr, duration_min=0\.2, seed=5\)"):
        run_plan(quick_plan(scenario=broken))


def test_failure_mid_run_names_the_first_unreported_duration(monkeypatch):
    class FailsPastTwelveSeconds(World):
        def run_until(self, limit_ms):
            if limit_ms > 12_000:
                raise RuntimeError("boom")
            super().run_until(limit_ms)

    monkeypatch.setattr(experiments, "World", FailsPastTwelveSeconds)
    with pytest.raises(PlanError,
                       match=r"algorithm=btmr, duration_min=0\.4, seed=5\): boom$"):
        run_plan(quick_plan(durations_min=[0.6, 0.2, 0.4]))


# --- one simulation per distinct run --------------------------------------------

def test_plan_builds_one_world_per_distinct_run(monkeypatch):
    built = []

    def counting_world(config):
        built.append((config.algorithm, config.rng_seed))
        return World(config)

    monkeypatch.setattr(experiments, "World", counting_world)
    plan = quick_plan(algorithms=[Algorithm.BTMR, Algorithm.MAM], durations_min=[0.4, 0.2])
    run_plan(plan)
    # lossless: the first seed draws nothing, so the other seeds reuse its run
    assert built == [(Algorithm.BTMR, 5), (Algorithm.MAM, 5)]
    built.clear()
    run_plan(replace(plan, scenario=replace(plan.scenario, loss_prob=0.2)))
    assert built == [(algorithm, seed) for algorithm in (Algorithm.BTMR, Algorithm.MAM)
                     for seed in (5, 6, 7)]


def test_a_lossy_plan_that_draws_nothing_still_runs_every_seed(monkeypatch, tmp_path):
    # every node out of range of every other: frames reach no one, so nothing is drawn
    isolated = replace(load_scenario("line3"), loss_prob=0.2, topology=[
        NodeSpec(0, 0.0, 0.0, Role.MOBILE_HUB), NodeSpec(1, 500.0, 0.0, Role.COMMANDER),
        NodeSpec(2, 1000.0, 0.0, Role.SENSOR)])
    worlds = []

    def kept_world(config):
        worlds.append(World(config))
        return worlds[-1]

    monkeypatch.setattr(experiments, "World", kept_world)
    plan = quick_plan(scenario=isolated, algorithms=[Algorithm.BTMR, Algorithm.MAM])
    run_plan(plan, out_dir=tmp_path / "lossy")
    # the distinct runs are fixed from the config, before any run: one world per seed
    assert [w.config.rng_seed for w in worlds] == [5, 6, 7, 5, 6, 7]
    assert all(w.rng.getstate() == random.Random(w.config.rng_seed).getstate() for w in worlds)
    worlds.clear()
    run_plan(replace(plan, scenario=replace(isolated, loss_prob=0.0)), out_dir=tmp_path / "reuse")
    assert [w.config.rng_seed for w in worlds] == [5, 5]
    assert read_tree(tmp_path / "lossy") == read_tree(tmp_path / "reuse")


@settings(max_examples=150)
@given(busy_runs(), st.integers(0, 2**32))
def test_a_run_whose_seed_cannot_matter_draws_nothing_and_equals_another_seeds(case, seed):
    # A plan reuses one run for every seed when ``seed_matters`` is false; a setting
    # that draws, or that changes a run by its seed, without joining it fails here.
    config, commands = case
    config = replace(config, loss_prob=0.0)
    assume(not seed_matters(config))
    world = World(config)
    report = drive(world, config, commands)
    assert world.rng.getstate() == random.Random(config.rng_seed).getstate()
    other = replace(config, rng_seed=seed)
    assert drive(World(other), other, commands) == replace(report, seed=seed)


def test_unusable_out_dir_fails_before_any_run(monkeypatch, tmp_path):
    built = []
    monkeypatch.setattr(experiments, "World", lambda config: built.append(config))
    taken = tmp_path / "taken"
    taken.write_text("a regular file")
    with pytest.raises(OSError):
        run_plan(quick_plan(), out_dir=taken)
    assert built == []


@st.composite
def prefix_cases(draw):
    """A random run, 2-15 nodes and 0-3 waypoints, and two durations D1 < D2 in ms."""
    config = draw(geometries(st.integers(2, 15)))
    times = draw(st.lists(st.integers(0, 20_000), max_size=3, unique=True))
    config = replace(
        config,
        mobility=[Waypoint(t, draw(coordinate), draw(coordinate)) for t in sorted(times)] or None,
        algorithm=draw(st.sampled_from(list(Algorithm))),
        tracker=draw(st.sampled_from(["hashmap", "interval"])),
        loss_prob=draw(st.floats(0.0, 0.3)),
        fault_duplicate=draw(st.booleans()),
        rng_seed=draw(st.integers(0, 2**32)))
    d1 = draw(st.integers(1, 20_000))
    return config, d1, draw(st.integers(d1 + 1, 25_000))


@settings(max_examples=100)
@given(prefix_cases())
def test_reports_taken_on_the_way_equal_separate_runs(case):
    config, d1, d2 = case
    plan = ExperimentPlan(scenario=config, algorithms=[config.algorithm],
                          durations_min=[d2 / 60_000, d1 / 60_000], seeds=[config.rng_seed])
    table = run_plan(plan)
    for duration_ms in (d1, d2):
        [report] = table.reports[(config.algorithm.value, duration_ms / 60_000)]
        assert report.to_json() == run(replace(config, duration_ms=duration_ms)).to_json()


def test_plan_outputs_are_written(tmp_path):
    plan = quick_plan(algorithms=[Algorithm.BTMR, Algorithm.MAM],
                      durations_min=[0.2], repetitions=2)
    run_plan(plan, out_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "report_btmr_0.2min_s5.json",
        "report_btmr_0.2min_s6.json",
        "report_mam_0.2min_s5.json",
        "report_mam_0.2min_s6.json",
        "series_btmr.csv",
        "series_mam.csv",
        "table.csv",
        "table.txt",
    ]
    table_csv = (tmp_path / "table.csv").read_text().splitlines()
    assert table_csv[0].startswith("algorithm,duration_min,unique_mean")
    report = json.loads((tmp_path / "report_btmr_0.2min_s5.json").read_text())
    assert report["algorithm"] == "btmr" and report["seed"] == 5


def test_plan_reruns_are_byte_identical(tmp_path):
    plan_a = load_plan("line3_quick")
    plan_b = load_plan("line3_quick")
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_plan(plan_a, out_dir=dir_a)
    run_plan(plan_b, out_dir=dir_b)
    files_a = sorted(p.name for p in dir_a.iterdir())
    files_b = sorted(p.name for p in dir_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


# --- accumulated series --------------------------------------------------------

def test_field_series_fixture_renders_as_series_csv():
    assert render_series_csv(refdata.FIELD_SERIES["mam"]) == (
        "duration_min,unique,duplicate\n"
        "5,484.00,180.00\n"
        "10,996.00,370.00\n"
        "15,1458.00,536.00\n"
    )


def test_simulated_series_is_monotone_in_duration(tmp_path):
    plan = quick_plan(algorithms=[Algorithm.MAM], durations_min=[1.0, 0.2, 0.5],
                      repetitions=1)
    table = run_plan(plan, out_dir=tmp_path)
    lines = (tmp_path / "series_mam.csv").read_text().splitlines()
    assert lines[0] == "duration_min,unique,duplicate"
    series = [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]
    by_duration = {row.duration_min: row for row in table.rows}
    assert [minutes for minutes, _, _ in series] == [0.2, 0.5, 1.0]
    for minutes, unique, duplicate in series:
        assert unique == round(by_duration[minutes].unique_mean, 2)
        assert duplicate == round(by_duration[minutes].duplicate_mean, 2)
    uniques = [unique for _, unique, _ in series]
    assert uniques == sorted(uniques)


# --- plan files and CLI -------------------------------------------------------------

def test_builtin_plans_load():
    quick = load_plan("line3_quick")
    assert quick.scenario == load_scenario("line3")
    assert quick.repetitions == 2
    outdoor = load_plan("outdoor_comparison")
    assert outdoor.durations_min == [5, 10, 15]
    assert outdoor.reference_minutes == 3.33


def test_outdoor_plan_emits_field_table_shaped_rows():
    plan = load_plan("outdoor_comparison")
    assert [a.value for a in plan.algorithms] == ["btmr", "mam"]
    assert plan.durations_min == [5, 10, 15]
    plan.durations_min = [0.2]
    table = run_plan(plan)
    assert [(r.algorithm, r.runs) for r in table.rows] == [("btmr", 3), ("mam", 3)]
    header = table.render_text().splitlines()[0]
    for column in ("algo", "min", "unique", "duplicate", "unique@3.33min"):
        assert column in header


def test_plan_file_round_trip(tmp_path):
    text = (
        "scenario = line3\n"
        "algorithms = btmr, mam\n"
        "durations_min = 0.2\n"
        "repetitions = 2\n"
        "seeds = 3, 4\n"
    )
    path = tmp_path / "mini.plan"
    path.write_text(text)
    plan = load_plan(path)
    assert plan.run_seeds() == [3, 4]
    assert plan.algorithms == [Algorithm.BTMR, Algorithm.MAM]


def test_plan_seeds_alone_set_the_repetitions():
    plan = parse_plan(PLAN_HEAD + "durations_min = 1\nseeds = 4, 9\n")
    assert (plan.repetitions, plan.run_seeds()) == (2, [4, 9])
    # a plan that writes both must still agree
    with pytest.raises(PlanError, match="line 5: seeds: plan needs 3 seeds, got 2"):
        parse_plan(PLAN_HEAD + "durations_min = 1\nrepetitions = 3\nseeds = 4, 9\n")


@pytest.mark.parametrize("file_name", ["line3.scn", "line3"])
def test_plan_prefers_a_scenario_file_next_to_it(tmp_path, file_name):
    (tmp_path / file_name).write_text(
        dump_scenario(replace(load_scenario("line3"), latency_ms=25)))
    path = tmp_path / "mini.plan"
    path.write_text(f"scenario = {file_name}\nalgorithms = btmr\ndurations_min = 0.2\n")
    scenario = load_plan(path).scenario  # the file is read from the plan's directory
    assert scenario.latency_ms == 25
    assert load_scenario("line3").latency_ms == 10


def test_plan_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.plan"
    path.write_text("scenario = line3\nalgorithms = btmr\ndurations_min = 1\nfrobnicate = 9\n")
    with pytest.raises(PlanError, match="frobnicate"):
        load_plan(path)


def test_a_plan_file_that_is_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "latin1.plan"
    path.write_bytes(b"scenario = line3\nalgorithms = btmr\ndurations_min = 1 \xb1 0.5\n")
    with pytest.raises(PlanError, match="^line 3: byte 0xb1 is not UTF-8 text$"):
        load_plan(path)


def test_a_plan_naming_a_scenario_that_is_not_utf8_fails_on_that_line(tmp_path):
    (tmp_path / "latin1.scn").write_bytes(b"duration_ms = 1\xff\n")
    path = tmp_path / "mini.plan"
    path.write_text("algorithms = btmr\ndurations_min = 0.2\nscenario = latin1.scn\n")
    with pytest.raises(PlanError,
                       match="^line 3: scenario: line 1: byte 0xff is not UTF-8 text$"):
        load_plan(path)


def test_a_plan_file_with_a_byte_order_mark_loads(tmp_path):
    path = with_byte_order_mark("plans/line3_quick.plan", tmp_path / "line3_quick.plan")
    assert load_plan(path) == load_plan("line3_quick")


def test_a_plan_naming_a_scenario_with_a_byte_order_mark_loads(tmp_path):
    with_byte_order_mark("scenarios/line3.scn", tmp_path / "line3.scn")
    path = tmp_path / "mini.plan"
    path.write_text("algorithms = btmr\ndurations_min = 0.2\nscenario = line3.scn\n")
    assert load_plan(path).scenario == load_scenario("line3")


PLAN_HEAD = "scenario = line3\nalgorithms = btmr\n"


@pytest.mark.parametrize("text,complaint", [
    ("scenario = line3\nalgorithms = foo\ndurations_min = 1\n", "line 2: algorithms"),
    (PLAN_HEAD + "durations_min = a\n", "line 3: durations_min"),
    (PLAN_HEAD + "durations_min = 1\nrepetitions = x\n", "line 4: repetitions"),
    # a bound on the runs per row, met before any list of seeds is built
    (PLAN_HEAD + "durations_min = 0.1\nrepetitions = 100000000000\n",
     "line 4: repetitions: must be an integer from 1 to 1000, got '100000000000'$"),
    (PLAN_HEAD + "durations_min = 1\nseeds = " + ", ".join(map(str, range(1_001))) + "\n",
     "line 4: seeds: must be a comma-separated list of at most 1000 distinct integers"),
    (PLAN_HEAD + "durations_min = 1\nrepetitions = 2\nseeds = 1, 2, 3\n", "line 5: seeds"),
    (PLAN_HEAD + "durations_min = 1\nalgorithms = mam\n",
     "line 4: algorithms: already set on line 2"),
    ("scenario = atlantis\nalgorithms = btmr\ndurations_min = 1\n", "line 1: scenario"),
    ("scenario = line3\ndurations_min = 1\n", "algorithms: missing"),
    ("scenario = line3\nalgorithms = btmr, mam, btmr\ndurations_min = 1\n",
     "line 2: algorithms: must be .* distinct .*, got 'btmr, mam, btmr'$"),
    (PLAN_HEAD + "durations_min = 0.2, 0.4, 0.20\n", "line 3: durations_min: must be .* distinct"),
    # one run length in whole ms, and one printed label, for two durations
    (PLAN_HEAD + "durations_min = 0.2, 0.2000001\nrepetitions = 2\n",
     "line 3: durations_min: must be .* distinct .*, got '0.2, 0.2000001'$"),
    (PLAN_HEAD + "durations_min = 1000000.3, 1000000.4\n",
     "line 3: durations_min: must be .* distinct"),
    # a run length that rounds to 0 ms
    (PLAN_HEAD + "durations_min = 0.000001\n",
     "line 3: durations_min: must be .* at least 1 ms .*, got '0.000001'$"),
    (PLAN_HEAD + "durations_min = 1\nreference_minutes = 0\n",
     "line 4: reference_minutes: must be a positive number, got '0'$"),
    (PLAN_HEAD + "durations_min = 1\nreference_minutes = -2\n", "line 4: reference_minutes"),
    (PLAN_HEAD + "durations_min = 1\nreference_minutes = nan\n", "line 4: reference_minutes"),
    (PLAN_HEAD + "durations_min = 1\nreference_minutes = inf\n", "line 4: reference_minutes"),
    (PLAN_HEAD + "durations_min = 1\nrepetitions = 2\nseeds = 3, 3\n",
     "line 5: seeds: must be .* distinct"),
    # explicit seeds would silently override seed_base, in either order
    (PLAN_HEAD + "durations_min = 1\nrepetitions = 2\nseeds = 4, 5\nseed_base = 100\n",
     "line 6: seed_base: seeds already set on line 5"),
    (PLAN_HEAD + "seed_base = 100\ndurations_min = 1\nseeds = 4\n",
     "line 5: seeds: seed_base already set on line 3"),
    (PLAN_HEAD + "durations_min = 1\n[nodes]\n", r"line 4: unknown section \[nodes\]"),
    # random.Random seeds from abs(n), so n and -n would be one run reported as two
    (PLAN_HEAD + "durations_min = 1\nseeds = 3, -3\n",
     r"line 4: seeds: a seed and its negation seed the same run, got seeds \[3, -3\]$"),
    (PLAN_HEAD + "durations_min = 1\nseed_base = -1\nrepetitions = 3\n",
     r"line 4: seed_base: a seed and its negation seed the same run, got seeds \[-1, 0, 1\]$"),
])
def test_plan_errors_name_the_line(text, complaint):
    with pytest.raises(PlanError, match=complaint):
        parse_plan(text)


def run_cli(*args):
    """Run the command line in a fresh interpreter, as a user would."""
    src = str(Path(meshsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "meshsim", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_cli_rejects_malformed_scenario_with_its_line(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("algorithm = btmr\nduration_ms = abc\n[nodes]\n0 0 0 hub\n")
    result = run_cli("run", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith("error: line 2: duration_ms")
    assert "Traceback" not in result.stderr


def test_cli_rejects_malformed_plan_with_its_line(tmp_path):
    path = tmp_path / "bad.plan"
    path.write_text("scenario = line3\nalgorithms = foo\ndurations_min = 1\n")
    result = run_cli("plan", str(path), "--out-dir", str(tmp_path / "out"))
    assert result.returncode == 2
    assert result.stderr.startswith("error: line 2: algorithms")
    assert "Traceback" not in result.stderr


def test_cli_run_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(["run", "line3", "--algo", "mam", "--seed", "9", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "algorithm=mam" in captured and "unique=3" in captured
    payload = json.loads(out.read_text())
    assert payload["seed"] == 9 and payload["algorithm"] == "mam"


@pytest.mark.parametrize("out,problem", [
    ("missing/report.json", "does not exist"),
    (".", "is a directory"),
])
def test_cli_run_checks_its_out_path_before_running(tmp_path, capsys, monkeypatch,
                                                    out, problem):
    def no_run(config):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(meshsim.cli, "run", no_run)
    assert cli_main(["run", "line3", "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out: ") and problem in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cli_run_takes_a_duration(capsys):
    assert cli_main(["run", "line3", "--duration-ms", "5000"]) == 0
    assert "duration_ms=5000" in capsys.readouterr().out


def test_cli_run_scenario_file_path(tmp_path, capsys):
    from meshsim import dump_scenario
    config = load_scenario("line3")
    path = tmp_path / "copy.scn"
    path.write_text(dump_scenario(config))
    assert cli_main(["run", str(path)]) == 0
    assert "unique=3" in capsys.readouterr().out


def test_cli_plan_runs_to_out_dir(tmp_path, capsys):
    code = cli_main(["plan", "line3_quick", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "table.csv").exists()


def test_cli_unknown_scenario_fails_cleanly(capsys):
    assert cli_main(["run", "no-such-scenario"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_scenario_that_is_not_utf8_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes(b"duration_ms = 1\xff\n")
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 1: byte 0xff is not UTF-8 text\n"
