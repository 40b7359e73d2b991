"""End-to-end command line flows and their exit codes."""

import contextlib
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mapflight import cli, flightsim
from mapflight.ccbs import SolveLimits, ccbs_solve
from mapflight.cli import (
    EXIT_BAD_INPUT,
    EXIT_INVALID_PLAN,
    EXIT_LIMIT,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_SIM_FAILED,
    EXIT_USAGE,
    build_parser,
    main,
)
from mapflight.flightsim import METHODS, SimConfig, error_metrics, run_execution, run_fleet_errors
from mapflight.plan import ValidationReport, Violation, load_plans, validate
from mapflight.world import InputError, load_instance

SWAP_INSTANCE = {
    "grid": {"dims": [4, 4, 1], "cell_size": 0.5},
    "agents": [
        {"id": 0, "start": [0, 0, 0], "goal": [2, 0, 0]},
        {"id": 1, "start": [2, 0, 0], "goal": [0, 0, 0]},
    ],
}

# goals stack in one xy column half a cell apart: no branching can fix that
OVERLAPPING_GOALS = {
    "grid": {"dims": [2, 2, 2], "cell_size": 0.5},
    "agents": [
        {"id": 0, "start": [0, 0, 0], "goal": [1, 0, 0]},
        {"id": 1, "start": [0, 1, 1], "goal": [1, 0, 1]},
    ],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def validate_with_an_injected_violation(plans, agents, world):
    """validate's report on the plans with one more violation: a solver output that fails validation."""
    report = validate(plans, agents, world)
    injected = Violation("endpoint", 0.0, agent=plans[0].agent, detail="injected")
    return ValidationReport(False, report.violations + (injected,), report.checked_pairs)


@pytest.fixture()
def planned(tmp_path, scenario_dir):
    """Solve the two-agent demo once; many tests replay its plan file."""
    instance = scenario_dir / "method_comparison.json"
    plans = tmp_path / "plans.json"
    assert main(["plan", "--instance", str(instance), "--out", str(plans)]) == EXIT_OK
    return instance, plans


class TestTopLevel:
    def test_version_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_simulate_method_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--plans", "x.json", "--method", "teleport", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["plan", "--instance", "i.json"], ["bench", "--scenarios", "s"]])
    def test_limit_defaults_are_the_solver_defaults(self, argv):
        args = build_parser().parse_args([*argv, "--out", "o"])
        limits = SolveLimits()
        assert (args.time_limit, args.expansions_limit) == (limits.max_wall_time, limits.max_expansions)


class TestPlan:
    def test_solves_and_writes_plans(self, tmp_path, scenario_dir, capsys):
        out = tmp_path / "nested" / "plans.json"
        code = main(["plan", "--instance", str(scenario_dir / "method_comparison.json"), "--out", str(out)])
        assert code == EXIT_OK and out.is_file()
        stdout = capsys.readouterr().out
        assert "solver: solved" in stdout and "cost=6.0" in stdout
        assert "replans=2 replans_reused=0 branches_reused=0" in stdout  # one root plan per agent
        assert "branches_reused=0 peak_open=1 sipp=" in stdout and " detect=" in stdout and " branch=" in stdout
        assert "expansions=0 cardinal=0 semi_cardinal=0 generated=1 " in stdout

    def test_prints_the_prioritised_conflict_counts(self, tmp_path, capsys):
        instance = write_json(tmp_path / "swap.json", SWAP_INSTANCE)
        code = main(["plan", "--instance", str(instance), "--out", str(tmp_path / "plans.json")])
        assert code == EXIT_OK
        stats = ccbs_solve(*load_instance(instance)).stats
        assert stats.cardinal + stats.semi_cardinal > 0
        assert (f"expansions={stats.expansions} cardinal={stats.cardinal} semi_cardinal={stats.semi_cardinal} "
                in capsys.readouterr().out)

    def test_missing_instance(self, tmp_path, capsys):
        code = main(["plan", "--instance", str(tmp_path / "nope.json"), "--out", str(tmp_path / "p.json")])
        assert code == EXIT_BAD_INPUT
        assert "not found" in capsys.readouterr().err

    def test_malformed_instance(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        code = main(["plan", "--instance", str(bad), "--out", str(tmp_path / "p.json")])
        assert code == EXIT_BAD_INPUT
        assert f"{bad}: not valid JSON" in capsys.readouterr().err

    def test_unsolvable_instance(self, tmp_path, capsys):
        inst = write_json(tmp_path / "stacked.json", OVERLAPPING_GOALS)
        code = main(["plan", "--instance", str(inst), "--out", str(tmp_path / "p.json")])
        assert code == EXIT_NO_SOLUTION
        assert "overlapping bodies" in capsys.readouterr().out

    def test_expansion_limit(self, tmp_path, capsys):
        inst = write_json(tmp_path / "swap.json", SWAP_INSTANCE)
        code = main(
            ["plan", "--instance", str(inst), "--out", str(tmp_path / "p.json"), "--expansions-limit", "0"]
        )
        assert code == EXIT_LIMIT
        assert "limit exceeded: expansion limit reached; cost lower bound 4.0" in capsys.readouterr().out

    def test_a_solution_that_fails_validation_is_exit_6_and_writes_no_plans(self, monkeypatch, tmp_path,
                                                                            scenario_dir, capsys):
        monkeypatch.setattr(cli, "validate", validate_with_an_injected_violation)
        out = tmp_path / "plans.json"
        code = main(["plan", "--instance", str(scenario_dir / "method_comparison.json"), "--out", str(out)])
        assert code == EXIT_INVALID_PLAN and not out.exists()
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["solver output failed independent validation:",
                             "1 violation(s) over 1 agent pairs:",
                             "  [endpoint] agent 0 at t = 0.0000 s injected"]

    @pytest.mark.parametrize("flag,value", [("--time-limit", "nan"), ("--time-limit", "-1"),
                                            ("--expansions-limit", "-3")])
    def test_bad_limits_are_usage_errors(self, tmp_path, capsys, flag, value):
        inst = write_json(tmp_path / "swap.json", SWAP_INSTANCE)
        out = tmp_path / "p.json"
        code = main(["plan", "--instance", str(inst), "--out", str(out), flag, value])
        assert code == EXIT_USAGE and not out.exists()
        assert "bad solver limits" in capsys.readouterr().err

    @pytest.mark.parametrize("where,message", [("dir", "Is a directory"), ("file/x.json", "File exists")])
    def test_an_unusable_out_is_a_usage_error_before_the_solve(self, tmp_path, scenario_dir, capsys,
                                                                where, message):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("", encoding="utf-8")
        code = main(["plan", "--instance", str(scenario_dir / "method_comparison.json"),
                     "--out", str(tmp_path / where)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "cannot write --out" in captured.err and message in captured.err
        assert "solver:" not in captured.out


class TestValidate:
    def test_good_plans_pass(self, planned, capsys):
        instance, plans = planned
        assert main(["validate", "--instance", str(instance), "--plans", str(plans)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("OK")

    def test_tampered_plans_fail(self, planned, tmp_path, capsys):
        instance, plans = planned
        doc = json.loads(plans.read_text(encoding="utf-8"))
        doc["plans"][0]["waypoints"][1][0] += 0.2  # bend one segment off its vertex line
        tampered = write_json(tmp_path / "tampered.json", doc)
        code = main(["validate", "--instance", str(instance), "--plans", str(tampered)])
        assert code == EXIT_INVALID_PLAN
        assert "violation" in capsys.readouterr().out

    def test_plans_for_a_different_instance(self, planned, tmp_path, capsys):
        instance, plans = planned
        doc = json.loads(plans.read_text(encoding="utf-8"))
        doc["plans"][0]["agent"] = 7
        mismatched = write_json(tmp_path / "mismatched.json", doc)
        code = main(["validate", "--instance", str(instance), "--plans", str(mismatched)])
        assert code == EXIT_BAD_INPUT
        assert "do not match instance" in capsys.readouterr().err


HUGE = "1" + "0" * 400  # valid JSON, but too large for a float
ONE_MOVE_PLANS = '{"plans": [{"agent": 0, "waypoints": [[0.25, 0.25, 0.25, 0], [0.75, 0.25, 0.25, 1.0]]}]}'
ONE_AGENT_INSTANCE = '{"grid": {"dims": [3, 3, 1], "cell_size": 0.5}, "agents": [{"id": 0, "start": [0, 0, 0], "goal": [1, 0, 0]}]}'
DIRECTORY = None  # the input path names a directory
# ways a file fails to read, whatever it was meant to hold
READ_FAILURES = [
    (DIRECTORY, "cannot read"),
    (b"\xff" + ONE_MOVE_PLANS.encode("utf-8"), "not valid JSON"),
    ("1" * 5001, "not valid JSON"),
    ("[" * 100_000, "not valid JSON"),
]


@pytest.mark.parametrize(
    "command,text,needle",
    [
        ("simulate", ONE_MOVE_PLANS.replace("[0.75", "[NaN"), "plans[0]"),
        ("simulate", ONE_MOVE_PLANS.replace("[0.75", "[Infinity"), "plans[0]"),
        ("simulate", ONE_MOVE_PLANS.replace("[0.75", "[1e999"), "plans[0]"),
        ("simulate", ONE_MOVE_PLANS.replace("[0.75", f"[{HUGE}"), "plans[0]"),
        ("simulate", ONE_MOVE_PLANS.replace('"agent": 0', f'"agent": 0, "radius": {HUGE}'), "plans[0]"),
        ("simulate", ONE_MOVE_PLANS.replace('"agent": 0', f'"agent": 0, "speed": {HUGE}'), "plans[0]"),
        ("validate", ONE_AGENT_INSTANCE.replace('"cell_size": 0.5', '"connectivity": ["face-6"], "cell_size": 0.5'), "grid:"),
        ("validate", ONE_AGENT_INSTANCE.replace('"cell_size": 0.5', f'"cell_size": {HUGE}'), "grid:"),
        ("config", f'{{"tick": {HUGE}}}', "bad simulation config"),
        ("simulate", ONE_MOVE_PLANS.replace('"agent": 0', f'"agent": {2**63}'), "plans[0]: agent id"),
        ("simulate", ONE_MOVE_PLANS.replace('"agent": 0', f'"agent": {10**19}'), "plans[0]: agent id"),
        ("simulate", ONE_MOVE_PLANS.replace('"agent": 0', f'"agent": {HUGE}'), "plans[0]: agent id"),
    ]
    + [(command, text, needle) for command in ("validate", "simulate", "config") for text, needle in READ_FAILURES],
    ids=["waypoint-nan", "waypoint-infinity", "waypoint-1e999", "waypoint-huge-int", "radius-huge-int",
         "speed-huge-int", "connectivity-list", "cell-size-huge-int", "config-tick-huge-int",
         "agent-2**63", "agent-10**19", "agent-huge-int"]
    + [f"{kind}-{failure}" for kind in ("instance", "plans", "config")
       for failure in ("directory", "not-utf8", "5001-digit-int", "deep-nesting")],
)
def test_malformed_values_exit_3_with_the_object_path(tmp_path, capsys, command, text, needle):
    bad = tmp_path / "bad.json"
    if text is DIRECTORY:
        bad.mkdir()
    else:
        bad.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    plans = tmp_path / "plans.json"
    plans.write_text(ONE_MOVE_PLANS, encoding="utf-8")
    out = str(tmp_path / "run")
    argv = {
        "simulate": ["simulate", "--plans", str(bad), "--method", "bll", "--out", out],
        "validate": ["validate", "--instance", str(bad), "--plans", str(plans)],
        "config": ["simulate", "--plans", str(plans), "--method", "bll", "--config", str(bad), "--out", out],
    }[command]
    assert main(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"{bad}: " in err and needle in err


class TestSimulate:
    def test_writes_the_run_bundle(self, planned, tmp_path, capsys):
        _, plans = planned
        out = tmp_path / "run"
        code = main(["simulate", "--plans", str(plans), "--method", "bll", "--seed", "5", "--out", str(out)])
        assert code == EXIT_OK
        for name in ("poses.csv", "error_series.csv", "errors.json", "manifest.json"):
            assert (out / name).is_file(), name
        errors = json.loads((out / "errors.json").read_text(encoding="utf-8"))
        assert errors["method"] == "bll" and errors["seed"] == 5
        assert len(errors["config_hash"]) == 64
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "simulate" and manifest["completed"] is True
        assert set(manifest["outputs"]) == {"poses.csv", "error_series.csv", "errors.json"}
        assert manifest["config"]["seed"] == 5
        stdout = capsys.readouterr().out
        assert "tracking error:" in stdout

    def test_config_file_round_trip(self, planned, tmp_path):
        _, plans = planned
        cfg = write_json(tmp_path / "cfg.json", {"noise_sigma": 0.0, "seed": 3})
        out = tmp_path / "run"
        code = main(["simulate", "--plans", str(plans), "--method", "vll", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        errors = json.loads((out / "errors.json").read_text(encoding="utf-8"))
        assert errors["seed"] == 3

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ({"warp_factor": 9}, "unknown keys"),
            ({"noise_sigma": -1.0}, "bad simulation config"),
            ([1, 2], "must hold a JSON object"),
            ({"latency": float("nan")}, "latency must be a finite number"),
            ({"noise_sigma": float("nan")}, "noise_sigma must be a finite number"),
            ({"arena_min": 5}, "arena_min must be three finite numbers"),
            ({"arena_min": ["a", 0, 0]}, "arena_min must be three finite numbers"),
            ({"arena_min": [0, 0], "arena_max": [1, 1]}, "arena_min must be three finite numbers"),
            ({"tick": True, "log_period": True, "max_speed": True}, "tick must be a positive number"),
            ({"vll_cruise_speed": float("inf")}, "vll_cruise_speed must be None or a finite number"),
            ({"vll_cruise_speed": True}, "vll_cruise_speed must be None or a finite number"),
            ({"command_period": 1e-9}, "command_period must be at least one tick"),
            ({"tick": 0.0005, "log_period": 0.0005}, "log_period must be a whole number of milliseconds"),
        ],
    )
    def test_bad_config_files(self, planned, tmp_path, capsys, doc, needle):
        _, plans = planned
        cfg = write_json(tmp_path / "cfg.json", doc)
        code = main(["simulate", "--plans", str(plans), "--method", "bll", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == EXIT_BAD_INPUT
        assert needle in capsys.readouterr().err

    def test_negative_seed_is_malformed_input(self, planned, tmp_path, capsys):
        _, plans = planned
        code = main(["simulate", "--plans", str(plans), "--method", "bll", "--seed", "-1", "--out", str(tmp_path / "r")])
        assert code == EXIT_BAD_INPUT
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_missing_plans_file(self, tmp_path, capsys):
        code = main(["simulate", "--plans", str(tmp_path / "no.json"), "--method", "bll", "--out", str(tmp_path / "r")])
        assert code == EXIT_BAD_INPUT
        assert f"{tmp_path / 'no.json'}: file not found" in capsys.readouterr().err

    def test_an_existing_file_as_out_is_a_usage_error(self, planned, tmp_path, capsys):
        _, plans = planned
        code = main(["simulate", "--plans", str(plans), "--method", "bll", "--out", str(plans)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "cannot write --out" in err and "File exists" in err


def test_a_numpy_integer_seed_hashes_and_writes_as_the_int(planned, tmp_path):
    # an np.int64 seed was kept as given, and the config hash and errors.json raised TypeError
    _, plans = planned
    planset = load_plans(plans)
    docs = []
    for config in (SimConfig(seed=np.int64(3)), SimConfig(seed=3)):
        log = run_execution(planset.plans, "bll", config, speeds=planset.speeds)
        docs.append(error_metrics(log).to_json_dict(config_hash=cli._config_hash(config)))
    cli.write_json(tmp_path / "errors.json", docs[0])
    assert json.loads((tmp_path / "errors.json").read_text(encoding="utf-8")) == docs[0] == docs[1]


class TestBench:
    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["bench", "--scenarios", str(empty), "--out", str(tmp_path / "out")])
        assert code == EXIT_BAD_INPUT
        assert "no instance files" in capsys.readouterr().err

    def test_unknown_method(self, tmp_path, scenario_dir):
        code = main(
            ["bench", "--scenarios", str(scenario_dir), "--methods", "warp", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_USAGE

    def test_an_empty_method_list_is_a_usage_error(self, tmp_path, scenario_dir, capsys):
        out = tmp_path / "out"
        code = main(["bench", "--scenarios", str(scenario_dir), "--methods", "", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "unknown method ''" in capsys.readouterr().err
        assert not out.exists()

    def test_an_existing_file_as_out_is_a_usage_error(self, tmp_path, scenario_dir, capsys):
        out = tmp_path / "out"
        out.write_text("", encoding="utf-8")
        code = main(["bench", "--scenarios", str(scenario_dir), "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "cannot write --out" in err and "File exists" in err

    def test_repeated_method(self, tmp_path, scenario_dir, capsys):
        # a repeated method would fly the same batch twice and write duplicate rows
        out = tmp_path / "out"
        code = main(["bench", "--scenarios", str(scenario_dir), "--methods", "bll,bll", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "'bll' is listed more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_repetitions(self, tmp_path, scenario_dir):
        code = main(
            ["bench", "--scenarios", str(scenario_dir), "--repetitions", "0", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [("--time-limit", "nan"), ("--expansions-limit", "-3")])
    def test_bad_limits_are_usage_errors(self, tmp_path, scenario_dir, capsys, flag, value):
        out = tmp_path / "out"
        code = main(["bench", "--scenarios", str(scenario_dir), "--out", str(out), flag, value])
        assert code == EXIT_USAGE and not out.exists()
        assert "bad solver limits" in capsys.readouterr().err

    def test_batch_over_two_scenarios(self, tmp_path, scenario_dir):
        src = tmp_path / "scenarios"
        src.mkdir()
        for name in ("method_comparison.json", "swarm_2.json"):
            shutil.copy(scenario_dir / name, src / name)
        out = tmp_path / "out"
        code = main(
            ["bench", "--scenarios", str(src), "--methods", "bll", "--repetitions", "2",
             "--seed", "0", "--out", str(out)]
        )
        assert code == EXIT_OK
        bench = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        assert bench["repetitions"] == 2 and bench["methods"] == ["bll"]
        assert not bench["failures"]
        assert {(r["scenario"], r["method"]) for r in bench["rows"]} == {
            ("method_comparison", "bll"),
            ("swarm_2", "bll"),
        }
        for row in bench["rows"]:
            assert row["runs"] == 2 and row["success_rate"] == 1.0
            assert row["solver_replans"] == row["agents"] and row["solver_replans_reused"] == 0
            assert 0.0 < row["mean_avg_error"] < 1.0
            assert (out / f"{row['scenario']}_plans.json").is_file()
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "bench"
        assert set(manifest["inputs"]) == {"method_comparison", "swarm_2"}

    def test_bundled_rows_are_pinned(self, tmp_path, scenario_dir):
        # every number of every row but the solver's wall time, byte for byte
        out = tmp_path / "out"
        code = main(["bench", "--scenarios", str(scenario_dir), "--repetitions", "2", "--seed", "0",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = json.loads((out / "bench.json").read_text(encoding="utf-8"))["rows"]
        assert len(rows) == 15
        for row in rows:
            del row["solver_wall_time"]
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == "bc2bf43849d61dd7c349490d2bcbc56216f2e7ed97d3082d83b528edf8732e61"

    def test_failures_are_recorded_and_the_batch_continues(self, tmp_path, scenario_dir, capsys):
        src = tmp_path / "scenarios"
        src.mkdir()
        shutil.copy(scenario_dir / "method_comparison.json", src / "method_comparison.json")
        write_json(src / "stacked.json", OVERLAPPING_GOALS)
        out = tmp_path / "out"
        code = main(
            ["bench", "--scenarios", str(src), "--methods", "bhl", "--repetitions", "1", "--out", str(out)]
        )
        assert code == EXIT_SIM_FAILED
        bench = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        assert [f["scenario"] for f in bench["failures"]] == ["stacked"]
        assert bench["failures"][0]["stage"] == "plan"
        # the solvable scenario still produced its row
        assert [r["scenario"] for r in bench["rows"]] == ["method_comparison"]

    def test_a_solution_that_fails_validation_is_a_validate_failure(self, monkeypatch, tmp_path, scenario_dir,
                                                                    capsys):
        src = tmp_path / "scenarios"
        src.mkdir()
        for name in ("method_comparison", "swarm_2"):
            shutil.copy(scenario_dir / f"{name}.json", src / f"{name}.json")
        monkeypatch.setattr(cli, "validate", validate_with_an_injected_violation)
        out = tmp_path / "out"
        code = main(["bench", "--scenarios", str(src), "--methods", "bhl", "--repetitions", "1", "--out", str(out)])
        assert code == EXIT_SIM_FAILED
        bench = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        assert [(f["scenario"], f["stage"]) for f in bench["failures"]] == [("method_comparison", "validate"),
                                                                            ("swarm_2", "validate")]
        assert all(f["error"].endswith("injected") for f in bench["failures"]) and bench["rows"] == []
        assert capsys.readouterr().out.splitlines()[:2] == ["method_comparison: solution failed validation",
                                                            "swarm_2: solution failed validation"]
        assert list(out.glob("*_plans.json")) == []

    def test_runs_past_the_wall_cap_are_failures_one_per_seed(self, tmp_path, scenario_dir, capsys):
        # at 0.02 m/s no vehicle reaches its goal before swarm_2's 18 s wall cap
        src = tmp_path / "scenarios"
        src.mkdir()
        shutil.copy(scenario_dir / "swarm_2.json", src / "swarm_2.json")
        config = write_json(tmp_path / "crawl.json", {"max_speed": 0.02})
        out = tmp_path / "out"
        code = main(["bench", "--scenarios", str(src), "--methods", "bhl,bll", "--repetitions", "3",
                     "--seed", "5", "--config", str(config), "--out", str(out)])
        assert code == EXIT_SIM_FAILED
        bench = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        assert bench["failures"] == [
            {"scenario": "swarm_2", "stage": "simulate", "method": m, "seed": seed,
             "error": "wall-time cap reached before all vehicles finished"}
            for m in ("bhl", "bll") for seed in (5, 6, 7)
        ]
        assert [(r["method"], r["runs"], r["success_rate"]) for r in bench["rows"]] == [("bhl", 3, 0.0),
                                                                                      ("bll", 3, 0.0)]
        assert capsys.readouterr().out.splitlines()[:2] == [
            "swarm_2 bhl: success 0/3 mean_max=1.5116 m mean_avg=1.2353 m",
            "swarm_2 bll: success 0/3 mean_max=1.5120 m mean_avg=1.2356 m",
        ]

    def test_an_unreadable_scenario_is_a_load_failure_and_a_directory_is_skipped(self, tmp_path, scenario_dir):
        src = tmp_path / "scenarios"
        src.mkdir()
        shutil.copy(scenario_dir / "method_comparison.json", src / "method_comparison.json")
        (src / "latin1.json").write_bytes(b"\xff" + json.dumps(SWAP_INSTANCE).encode("utf-8"))
        (src / "nested.json").mkdir()
        out = tmp_path / "out"
        code = main(
            ["bench", "--scenarios", str(src), "--methods", "bhl", "--repetitions", "1", "--out", str(out)]
        )
        assert code == EXIT_SIM_FAILED
        bench = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        assert [(f["scenario"], f["stage"]) for f in bench["failures"]] == [("latin1", "load")]
        assert [r["scenario"] for r in bench["rows"]] == ["method_comparison"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class DeadlineExceeded(Exception):
    """A block ran past its deadline. Not an OSError: multiprocessing's Popen.poll
    swallows one raised in its os.waitpid, so a hung join() would return."""


@contextlib.contextmanager
def deadline(seconds):
    """Fail instead of hanging when the block runs past `seconds`, killing and
    reaping every child process still alive; a forked child does not inherit the alarm."""
    def expire(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
        raise DeadlineExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_deadline_ends_a_hung_join_and_leaves_no_child():
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(3,))
    child.start()
    started = time.monotonic()
    with pytest.raises(DeadlineExceeded), deadline(1):
        child.join()
    assert time.monotonic() - started < 2
    assert_no_child_left()


class TestParallelFly:
    """`bench` flies its batches over one process per usable CPU; nothing it reports may depend on how many."""

    @pytest.fixture()
    def mixed_dir(self, tmp_path, scenario_dir):
        """Three solvable scenarios around an unreadable one; the slow config sends some vll runs to the wall cap."""
        src = tmp_path / "scenarios"
        src.mkdir()
        for name in ("method_comparison", "swarm_2", "swarm_4"):
            shutil.copy(scenario_dir / f"{name}.json", src / f"{name}.json")
        (src / "n_unreadable.json").write_text("{oops", encoding="utf-8")
        config = write_json(tmp_path / "slow.json", {"max_speed": 0.2})
        return src, config

    def bench(self, monkeypatch, capsys, src, config, out, workers):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        with deadline(120):
            code = main(["bench", "--scenarios", str(src), "--config", str(config), "--repetitions", "2",
                         "--seed", "0", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"wrote {out / 'bench.json'}"
        summary = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        for row in summary["rows"]:
            del row["solver_wall_time"]
        plans = {p.name: p.read_bytes() for p in sorted(out.glob("*_plans.json"))}
        return code, summary, lines[:-1], plans

    def test_outputs_do_not_depend_on_the_worker_count(self, monkeypatch, capsys, tmp_path, mixed_dir):
        src, config = mixed_dir
        runs = [self.bench(monkeypatch, capsys, src, config, tmp_path / f"out{k}", k) for k in (1, 2, 3)]
        assert_no_child_left()
        code, summary, lines, plans = runs[0]
        assert code == EXIT_SIM_FAILED
        assert [(f["scenario"], f["stage"], f.get("method"), f.get("seed")) for f in summary["failures"]] == [
            ("n_unreadable", "load", None, None),
            ("swarm_2", "simulate", "vll", 1),
            ("swarm_4", "simulate", "vll", 0),
            ("swarm_4", "simulate", "vll", 1),
        ]
        assert [(r["scenario"], r["method"]) for r in summary["rows"]] == [
            (name, m) for name in ("method_comparison", "swarm_2", "swarm_4") for m in ("bhl", "bll", "vll")
        ]
        assert lines[3].startswith("n_unreadable: FAILED to load") and len(lines) == 10
        assert set(plans) == {"method_comparison_plans.json", "swarm_2_plans.json", "swarm_4_plans.json"}
        for other in runs[1:]:
            assert other == runs[0]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failing_batch_fails_the_bench_and_leaves_no_child(self, monkeypatch, tmp_path, mixed_dir, workers):
        src, config = mixed_dir
        real = cli.run_fleet_errors

        def run_fleet_errors(flights, config):
            if any(method == "vll" for _, method, _, _ in flights):
                raise RuntimeError("injected vll failure")
            return real(flights, config)

        monkeypatch.setattr(cli, "run_fleet_errors", run_fleet_errors)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        with deadline(120), pytest.raises(RuntimeError, match="injected vll failure"):
            main(["bench", "--scenarios", str(src), "--config", str(config), "--repetitions", "1",
                  "--out", str(tmp_path / "out")])
        assert_no_child_left()

    def test_a_batch_error_in_a_worker_is_raised_as_itself(self, monkeypatch, capsys, tmp_path, mixed_dir):
        # an InputError exits 3 whichever process flew the batch
        src, config = mixed_dir
        parent, real = os.getpid(), cli._fly_fleet

        def fly_fleet(flights, base):
            if os.getpid() != parent:
                raise InputError("injected input error")
            return real(flights, base)

        monkeypatch.setattr(cli, "_fly_fleet", fly_fleet)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        with deadline(120):
            code = main(["bench", "--scenarios", str(src), "--config", str(config), "--repetitions", "1",
                         "--out", str(tmp_path / "out")])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err == "error: injected input error\n"
        assert_no_child_left()

    @pytest.mark.parametrize("end", [lambda: os._exit(1), lambda: os.kill(os.getpid(), signal.SIGINT)],
                             ids=["exit", "interrupt"])
    def test_a_worker_that_ends_without_a_reply_fails_the_bench_and_leaves_no_child(self, monkeypatch, capfd,
                                                                                     tmp_path, mixed_dir, end):
        # an interrupted worker ends as quietly as one that exits
        src, config = mixed_dir
        parent, real = os.getpid(), cli._fly_fleet

        def fly_fleet(flights, base):
            if os.getpid() != parent:
                end()
            return real(flights, base)

        monkeypatch.setattr(cli, "_fly_fleet", fly_fleet)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        with deadline(120), pytest.raises(RuntimeError, match="ended without a reply"):
            main(["bench", "--scenarios", str(src), "--config", str(config), "--repetitions", "1",
                  "--out", str(tmp_path / "out")])
        assert_no_child_left()
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_reply_the_parent_no_longer_reads_ends_its_worker_quietly(self, monkeypatch, capfd, tmp_path,
                                                                         mixed_dir, workers):
        # the parent raises in its own share; each worker's reply overfills a pipe
        src, config = mixed_dir
        parent = os.getpid()

        def fly_fleet(flights, base):
            if os.getpid() == parent:
                raise RuntimeError("injected parent failure")
            return [[(True, float(i), float(i)) for i in range(100_000)] for _ in flights]

        monkeypatch.setattr(cli, "_fly_fleet", fly_fleet)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        with deadline(60), pytest.raises(RuntimeError, match="injected parent failure"):
            main(["bench", "--scenarios", str(src), "--config", str(config), "--repetitions", "1",
                  "--out", str(tmp_path / "out")])
        assert_no_child_left()
        assert "Traceback" not in capfd.readouterr().err

    def test_a_bench_in_a_daemonic_process_reports_what_an_in_process_bench_does(self, monkeypatch, capsys,
                                                                                 tmp_path, mixed_dir):
        # the standard library starts no child from a daemonic process; three CPUs
        # are reported there, so a bench that tried to start one would fail
        src, config = mixed_dir
        out, printed = tmp_path / "daemonic", tmp_path / "daemonic.out"

        def in_daemon():
            os.sched_getaffinity = lambda pid: {0, 1, 2}
            with open(printed, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                code = main(["bench", "--scenarios", str(src), "--config", str(config), "--repetitions", "2",
                             "--seed", "0", "--out", str(out)])
            sys.exit(code)

        child = multiprocessing.get_context("fork").Process(target=in_daemon, daemon=True)
        child.start()
        child.join(120)
        want = self.bench(monkeypatch, capsys, src, config, tmp_path / "in_process", 1)
        assert not child.is_alive() and child.exitcode == want[0]
        lines = printed.read_text(encoding="utf-8").splitlines()
        assert lines[-1] == f"wrote {out / 'bench.json'}"
        summary = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        for row in summary["rows"]:
            del row["solver_wall_time"]
        plans = {p.name: p.read_bytes() for p in sorted(out.glob("*_plans.json"))}
        assert (child.exitcode, summary, lines[:-1], plans) == want
        assert_no_child_left()

    def test_a_line_printed_before_a_bench_to_a_file_is_written_once(self, tmp_path, scenario_dir):
        # stdout sent to a file is block-buffered: a worker that flushed its copy
        # of the parent's unwritten line would write it a second time
        script = ("import sys\n"
                  "from mapflight import cli\n"
                  "assert not (sys.stdout.line_buffering or sys.stdout.write_through)\n"
                  "print('before the bench')\n"
                  "cli._usable_cpus = lambda: int(sys.argv[1])\n"
                  "sys.exit(cli.main(['bench', '--scenarios', sys.argv[2], '--repetitions', '2',"
                  " '--out', sys.argv[3]]))\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
        printed = []
        for workers in (1, 2):
            out = tmp_path / f"printed{workers}.txt"
            with open(out, "w", encoding="utf-8") as fh:
                done = subprocess.run([sys.executable, "-c", script, str(workers), str(scenario_dir),
                                       str(tmp_path / f"out{workers}")], stdout=fh, env=env, timeout=120)
            assert done.returncode == EXIT_OK
            lines = out.read_text(encoding="utf-8").splitlines()
            assert lines.count("before the bench") == 1 and lines[0] == "before the bench"
            assert lines[-1] == f"wrote {tmp_path / f'out{workers}' / 'bench.json'}"
            printed.append(lines[:-1])
        assert printed[0] == printed[1]

    @pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads process states from /proc")
    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_worker_outlives_a_parent_killed_mid_flight(self, tmp_path, scenario_dir, workers):
        # each worker leaves its pid, flies its share and waits for a task; the
        # parent kills itself once every worker has started, in its own share
        script = ("import os, signal, sys, time\n"
                  "from pathlib import Path\n"
                  "from mapflight import cli\n"
                  "workers, pids = int(sys.argv[1]), Path(sys.argv[2])\n"
                  "parent, real = os.getpid(), cli._fly_fleet\n"
                  "def fly_fleet(flights, base):\n"
                  "    if os.getpid() != parent:\n"
                  "        (pids / str(os.getpid())).touch()\n"
                  "        return real(flights, base)\n"
                  "    while len(list(pids.iterdir())) < workers - 1:\n"
                  "        time.sleep(0.01)\n"
                  "    time.sleep(0.2)\n"
                  "    os.kill(parent, signal.SIGKILL)\n"
                  "cli._fly_fleet = fly_fleet\n"
                  "cli._usable_cpus = lambda: workers\n"
                  "cli.main(['bench', '--scenarios', sys.argv[3], '--repetitions', '2', '--out', sys.argv[4]])\n")
        pids = tmp_path / "pids"
        pids.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
        with open(tmp_path / "stderr.txt", "w", encoding="utf-8") as err:
            done = subprocess.run([sys.executable, "-c", script, str(workers), str(pids), str(scenario_dir),
                                   str(tmp_path / "out")], stdout=subprocess.DEVNULL, stderr=err, env=env,
                                  timeout=120)
        assert done.returncode == -signal.SIGKILL
        left = [int(p.name) for p in pids.iterdir()]
        assert len(left) == workers - 1

        def ended(pid):  # an orphan's zombie counts as ended: reaping it is init's work
            try:
                return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
            except FileNotFoundError:
                return True

        for _ in range(100):
            left = [pid for pid in left if not ended(pid)]
            if not left:
                break
            time.sleep(0.1)
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []
        assert (tmp_path / "stderr.txt").read_text(encoding="utf-8") == ""

    def test_shares_are_heaviest_first_to_the_lightest(self):
        assert cli._shares([1.0, 5.0, 3.0, 3.0], 2) == [[1, 0], [2, 3]]
        assert cli._shares([2.0, 2.0], 3) == [[0], [1], []]
        assert cli._shares([], 1) == [[]]

    @pytest.mark.parametrize("doc", [{}, {"max_speed": 0.2}], ids=["default", "slow"])
    def test_a_batch_reports_what_flying_every_seed_reports(self, monkeypatch, capsys, tmp_path, scenario_dir, doc):
        # a seed-free method flies one run, which bench reports for each seed: rows,
        # per-seed failures, printed lines and plan files are those of flying every seed
        config_file = write_json(tmp_path / "config.json", doc)
        flown = []

        def run_fleet_errors_spy(flights, config):
            flown.extend((method, [config.seed + r for r in range(runs)]) for _, method, runs, _ in flights)
            return run_fleet_errors(flights, config)

        monkeypatch.setattr(cli, "run_fleet_errors", run_fleet_errors_spy)
        once = self.bench(monkeypatch, capsys, scenario_dir, config_file, tmp_path / "once", 1)
        assert flown == [(m, {"bhl": [0], "bll": [0], "vll": [0, 1]}[m]) for _ in range(5) for m in METHODS]
        monkeypatch.setattr(cli, "SEED_FREE_METHODS", ())
        every = self.bench(monkeypatch, capsys, scenario_dir, config_file, tmp_path / "every", 1)
        assert flown[15:] == [(m, [0, 1]) for _ in range(5) for m in METHODS]
        assert every == once


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["agents"][1].update(speed=1e300),
        lambda d: d["agents"][1].update(speed=1e-300),
        lambda d: d["grid"].update(cell_size=1e300),
    ],
    ids=["speed-1e300", "speed-1e-300", "cell-size-1e300"],
)
def test_a_move_time_out_of_range_is_malformed_input(tmp_path, scenario_dir, capsys, mutate):
    doc = json.loads((scenario_dir / "swarm_2.json").read_text(encoding="utf-8"))
    mutate(doc)
    inst = write_json(tmp_path / "swarm_2.json", doc)
    code = main(["plan", "--instance", str(inst), "--out", str(tmp_path / "p.json")])
    assert code == EXIT_BAD_INPUT
    assert "one-cell move time" in capsys.readouterr().err


def huge_dims(doc):
    doc["grid"]["dims"][0] = 2**63


def huge_cells(doc):
    doc["grid"]["cell_size"] = 1e308
    for agent in doc["agents"]:
        agent["speed"] = 1e308  # keeps the one-cell move time at 1 s


@pytest.mark.parametrize("mutate,needle", [(huge_dims, "cells"), (huge_cells, "far corner")],
                         ids=["dims-2**63", "cell-size-1e308"])
def test_a_grid_too_large_to_plan_is_malformed_input(tmp_path, scenario_dir, capsys, mutate, needle):
    # both used to run on: the first built a search graph of 2**63 cells, the
    # second overflowed the cell centres to inf and answered "cannot reach"
    doc = json.loads((scenario_dir / "swarm_2.json").read_text(encoding="utf-8"))
    mutate(doc)
    inst = write_json(tmp_path / "swarm_2.json", doc)
    code = main(["plan", "--instance", str(inst), "--out", str(tmp_path / "p.json")])
    assert code == EXIT_BAD_INPUT
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("scale", [5e19, 1e75])
def test_a_cell_too_large_for_its_bodies_is_malformed_input(tmp_path, capsys, scale):
    # a head-on swap whose cells and speed grow together, the one-cell move time
    # held at 1 s: at 5e19 the solver returned plans the validator rejected
    # (exit 6), and at 1e75 both missed the collision (exit 0)
    doc = {"grid": {"dims": [4, 4, 1], "cell_size": scale},
           "agents": [{"id": 0, "start": [0, 0, 0], "goal": [2, 0, 0], "speed": scale},
                      {"id": 1, "start": [2, 0, 0], "goal": [0, 0, 0], "speed": scale}]}
    inst = write_json(tmp_path / "swap.json", doc)
    code = main(["plan", "--instance", str(inst), "--out", str(tmp_path / "p.json")])
    assert code == EXIT_BAD_INPUT
    assert "agents[0]: agent 0: radius 0.25 m is below cell_size" in capsys.readouterr().err


def test_a_tick_below_the_floor_is_malformed_input(planned, tmp_path, capsys):
    _, plans = planned
    cfg = write_json(tmp_path / "cfg.json", {"tick": 1e-300})
    code = main(["simulate", "--plans", str(plans), "--method", "bll", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == EXIT_BAD_INPUT
    assert "tick must be at least" in capsys.readouterr().err


def test_a_huge_vll_cruise_speed_flies_swarm_2_to_its_goals(tmp_path, scenario_dir, capsys):
    # a 1e200 m/s setpoint once overflowed when squared and the clamp stopped the
    # vehicle: exit 7 at the 18.005 s wall cap with max error 1.5811 m
    plans = tmp_path / "plans.json"
    assert main(["plan", "--instance", str(scenario_dir / "swarm_2.json"), "--out", str(plans)]) == EXIT_OK
    cfg = write_json(tmp_path / "cfg.json", {"vll_cruise_speed": 1e200, "max_speed": 0.5})
    capsys.readouterr()
    code = main(["simulate", "--plans", str(plans), "--method", "vll", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == EXIT_OK
    assert "completed=True" in capsys.readouterr().out


def test_a_flight_past_the_log_limit_is_malformed_input(tmp_path, scenario_dir, capsys):
    # swarm_2's plan with agent 0 parked until t = 1e12 once ticked on for good
    plans = tmp_path / "plans.json"
    assert main(["plan", "--instance", str(scenario_dir / "swarm_2.json"), "--out", str(plans)]) == EXIT_OK
    doc = json.loads(plans.read_text(encoding="utf-8"))
    waypoints = doc["plans"][0]["waypoints"]
    waypoints.append([*waypoints[-1][:3], 1e12])
    write_json(plans, doc)
    capsys.readouterr()
    with deadline(10):
        code = main(["simulate", "--plans", str(plans), "--method", "bll", "--out", str(tmp_path / "run")])
    assert code == EXIT_BAD_INPUT
    assert "more than MAX_LOG_RECORDS = 4194304" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # refused before --out is made


def test_a_wait_until_t_1e12_before_a_move_is_a_colliding_plan_set(tmp_path, scenario_dir, capsys):
    # swarm_2's agent 0 waits at its start until t = 1e12 and then flies its plan,
    # under agent 1's parked goal: validate once exited 1 with numpy's 7.11 PiB traceback
    plans = tmp_path / "plans.json"
    instance = str(scenario_dir / "swarm_2.json")
    assert main(["plan", "--instance", instance, "--out", str(plans)]) == EXIT_OK
    doc = json.loads(plans.read_text(encoding="utf-8"))
    first, *rest = doc["plans"][0]["waypoints"]
    doc["plans"][0]["waypoints"] = [first, [*first[:3], 1e12], *([*wp[:3], wp[3] + 1e12] for wp in rest)]
    write_json(plans, doc)
    capsys.readouterr()
    with deadline(10):
        code = main(["validate", "--instance", instance, "--plans", str(plans)])
    assert code == EXIT_INVALID_PLAN
    assert "[pairwise] agents 0-1 at t = 1000000000000.0000 s" in capsys.readouterr().out


def test_a_batch_past_the_log_limit_is_a_simulate_failure(tmp_path, scenario_dir, capsys):
    # 1,200 runs of two agents to swarm_2's 18 s wall cap would log about 4.3 M records
    src = tmp_path / "scenarios"
    src.mkdir()
    shutil.copy(scenario_dir / "swarm_2.json", src / "swarm_2.json")
    out = tmp_path / "out"
    with deadline(30):
        code = main(["bench", "--scenarios", str(src), "--methods", "bll", "--repetitions", "1200", "--out", str(out)])
    assert code == EXIT_SIM_FAILED
    bench = json.loads((out / "bench.json").read_text(encoding="utf-8"))
    assert bench["rows"] == []
    [failure] = bench["failures"]
    assert (failure["scenario"], failure["stage"]) == ("swarm_2", "simulate")
    assert "MAX_LOG_RECORDS" in failure["error"]
    assert "swarm_2: FAILED to simulate" in capsys.readouterr().out


def test_a_share_past_the_log_limit_flies_as_several_fleets(monkeypatch, capsys, tmp_path, scenario_dir):
    # at 6,000 records each one-run job of method_comparison (2 rows x 1,602 logged
    # ticks) and of swarm_2 (2 x 1,802) fits alone, and no two fit together
    src = tmp_path / "scenarios"
    src.mkdir()
    for name in ("method_comparison", "swarm_2"):
        shutil.copy(scenario_dir / f"{name}.json", src / f"{name}.json")
    real, fleets = cli.run_fleet_errors, []

    def run_fleet_errors(flights, config):
        rows = sum(runs * len(plans) for plans, _, runs, _ in flights)
        cap = max(2 * max(p.end_time for p in plans) + 10 for plans, _, _, _ in flights)
        fleets.append(rows * (cap / config.log_period + 2))
        return real(flights, config)

    def bench(out, workers):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        with deadline(60):
            code = main(["bench", "--scenarios", str(src), "--repetitions", "1", "--seed", "0", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"wrote {out / 'bench.json'}"
        summary = json.loads((out / "bench.json").read_text(encoding="utf-8"))
        for row in summary["rows"]:
            del row["solver_wall_time"]
        plans = {p.name: p.read_bytes() for p in sorted(out.glob("*_plans.json"))}
        return code, summary, lines[:-1], plans

    monkeypatch.setattr(cli, "run_fleet_errors", run_fleet_errors)
    want = bench(tmp_path / "real", 1)
    assert want[0] == EXIT_OK and len(want[1]["rows"]) == 6 and len(fleets) == 1
    monkeypatch.setattr(flightsim, "MAX_LOG_RECORDS", 6000)
    fleets.clear()
    assert bench(tmp_path / "limited", 1) == want
    assert len(fleets) == 6 and max(fleets) <= 6000
    assert bench(tmp_path / "limited_parallel", 2) == want
    assert_no_child_left()


def test_a_million_repetitions_are_refused_before_their_configs_are_made(tmp_path, scenario_dir):
    # the refusal is arithmetic: a million SimConfigs would take tens of seconds and hundreds of MB
    out = tmp_path / "out"
    with deadline(3):
        code = main(["bench", "--scenarios", str(scenario_dir), "--repetitions", "1000000", "--out", str(out)])
    assert code == EXIT_SIM_FAILED
    bench = json.loads((out / "bench.json").read_text(encoding="utf-8"))
    assert bench["rows"] == []
    sizes = [("method_comparison", 2, "16", "3.2e+09"), ("swarm_2", 2, "18", "3.6e+09"),
             ("swarm_4", 4, "16", "6.41e+09"), ("swarm_6", 6, "16", "9.61e+09"),
             ("swarm_8", 8, "16.8284", "1.35e+10")]
    assert bench["failures"] == [
        {"scenario": name, "stage": "simulate",
         "error": f"a flight of {agents}000000 vehicle rows up to its wall cap of {cap} s would log up to "
                  f"{records} pose records, more than MAX_LOG_RECORDS = 4194304"}
        for name, agents, cap, records in sizes
    ]
