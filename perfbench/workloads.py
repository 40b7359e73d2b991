"""The four benchmark workloads: their committed inputs, operations and output checks.

An operation is the unit the closed loop times: one `ccbs_solve` on the plan
workloads, one simulated run with its output bundle on `fly-swarm`, one
`mapflight bench` batch on `bench-bundled`. A pass runs every operation of a
workload once. Everything here is plain data, shared by the client
(`run.py`), the worker (`worker.py`), the set-up probe (`probe.py`) and the
input recorder (`make_inputs.py`).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
INPUTS = BENCH_DIR / "inputs"
REFERENCES = INPUTS / "references.json"

# The wall limit never binds on the plan workloads, so the work per
# operation is fixed by the instance and the expansion budget alone.
WALL_LIMIT_S = 3600.0
DENSE_OPTIMUM = 24.0 + math.sqrt(2.0)
DENSE_EXPANSION_LIMIT = 200_000
GRID_COUNT = 32
GRID_EXPANSION_LIMIT = 200
FLY_METHODS = ("bhl", "bll", "vll")
FLY_SEEDS = (0, 1, 2, 3)
BENCH_REPETITIONS = 13
SWARM_8_OPTIMUM = 25.656854251193845
COST_TOL = 1e-6

DENSE_INSTANCE = INPUTS / "plan_dense.json"
GRID_DIR = INPUTS / "plan_grid"
FLY_PLANS = INPUTS / "fly_swarm.plans.json"
BUNDLED_DIR = INPUTS / "bundled"

WORKLOADS = ("plan-dense", "plan-grid", "fly-swarm", "bench-bundled")

# the name each workload's operation time is printed under
OP_NAMES = {
    "plan-dense": "solve_s",
    "plan-grid": "solve_s",
    "fly-swarm": "sim_run_s",
    "bench-bundled": "bench_s",
}


# Percentile printed as the tail of operation time. Each leaves about 10
# samples above it at the sample count a 20 s run gives at the reference
# commit (plan-grid 64, fly-swarm 36). The level is fixed so that it does not
# move with host speed or with later speed-ups. plan-dense and bench-bundled
# give only 3-7 samples, all repeats of one operation, so their tail is the
# maximum.
TAIL_LEVEL = {"plan-dense": 1.0, "plan-grid": 0.84, "fly-swarm": 0.72, "bench-bundled": 1.0}


def grid_instances() -> list[Path]:
    return [GRID_DIR / f"grid_{k:03d}.json" for k in range(GRID_COUNT)]


def operations(workload: str) -> list[dict]:
    """The workload's operations, in their committed order."""
    if workload == "plan-dense":
        return [{"key": "plan_dense", "instance": str(DENSE_INSTANCE),
                 "max_wall_time": WALL_LIMIT_S, "max_expansions": DENSE_EXPANSION_LIMIT}]
    if workload == "plan-grid":
        return [{"key": p.stem, "instance": str(p), "max_wall_time": WALL_LIMIT_S,
                 "max_expansions": GRID_EXPANSION_LIMIT} for p in grid_instances()]
    if workload == "fly-swarm":
        return [{"key": f"{m}/{s}", "plans": str(FLY_PLANS), "method": m, "seed": s}
                for m in FLY_METHODS for s in FLY_SEEDS]
    if workload == "bench-bundled":
        return [{"key": "batch", "scenarios": str(BUNDLED_DIR), "repetitions": BENCH_REPETITIONS}]
    raise ValueError(f"unknown workload {workload!r}")


def input_files(workload: str) -> tuple[str, list[Path]]:
    """(kind, paths) of the files a user of the workload loads before working."""
    if workload == "plan-dense":
        return "instance", [DENSE_INSTANCE]
    if workload == "plan-grid":
        return "instance", grid_instances()
    if workload == "fly-swarm":
        return "plans", [FLY_PLANS]
    if workload == "bench-bundled":
        return "instance", sorted(BUNDLED_DIR.glob("*.json"))
    raise ValueError(f"unknown workload {workload!r}")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def check(workload: str, outputs: dict, reference: dict) -> list[str]:
    """Output-check failures of one operation; empty when every check passes."""
    problems: list[str] = []
    if workload in ("plan-dense", "plan-grid"):
        status = outputs["status"]
        if status == "solved":
            if not outputs["valid"]:
                problems.append("returned plans fail validate")
            expected = DENSE_OPTIMUM if workload == "plan-dense" else reference.get("cost")
            if expected is not None and abs(outputs["cost"] - expected) > COST_TOL:
                problems.append(f"cost {outputs['cost']!r} differs from the optimum {expected!r}")
        elif workload == "plan-dense" or (status == "no-solution" and reference.get("status") == "solved"):
            problems.append(f"status {status} on an instance solved at the reference commit")
    elif workload == "fly-swarm":
        if not outputs["completed"]:
            problems.append("run did not complete")
        for name in ("poses.csv", "errors.json"):
            if outputs[name] != reference[name]:
                problems.append(f"{name} sha256 differs from the reference")
    elif workload == "bench-bundled":
        # the batch validates every plan set itself and exits nonzero on failure
        if outputs["exit"] != 0 or outputs["failures"]:
            problems.append(f"mapflight bench exited with {outputs['exit']}: {outputs['failures']}")
        if outputs["rows"] != reference["rows"] or outputs["min_success_rate"] != 1.0:
            problems.append(f"{outputs['rows']} rows, lowest success rate {outputs['min_success_rate']}")
        expected = dict(reference["costs"], swarm_8=SWARM_8_OPTIMUM)
        for scenario, cost in expected.items():
            got = outputs["costs"].get(scenario)
            if got is None or abs(got - cost) > COST_TOL:
                problems.append(f"{scenario} cost {got!r} is not the optimum {cost!r}")
    return problems


def reached_goal(workload: str, outputs: dict) -> bool:
    """Solved within the budget, flight completed, or batch exited 0."""
    if workload in ("plan-dense", "plan-grid"):
        return outputs["status"] == "solved"
    if workload == "fly-swarm":
        return outputs["completed"]
    return outputs["exit"] == 0
