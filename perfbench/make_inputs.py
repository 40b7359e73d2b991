"""Write the benchmark's committed inputs and record their reference outputs.

    python3 perfbench/make_inputs.py inputs       # instance and plan files
    python3 perfbench/make_inputs.py references   # references.json

The input files are the workloads: the benchmark reads only them, so a change
to this generator, to `random` or to the bundled scenarios never moves a
workload. `references` runs every operation once and records the outputs the
benchmark checks on every run (costs, statuses, sha256 of simulator logs).
Record them only at a commit whose outputs are known to be right.

plan-grid generator: 12x12x3 grid, 0.5 m cells, 10% obstacle cells, 8-16
agents (r = 0.25 m, h = 1.0 m, 0.5 m/s), start columns pairwise distinct,
goal columns pairwise distinct, no goal in its agent's start column.
Instance k comes from seed k alone; the suite is seeds 0..31 in order and is
never filtered on how the solver fares.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from worker import Runner, import_mapflight

DIMS = (12, 12, 3)
CELL_SIZE = 0.5
OBSTACLE_SHARE = 0.10
MIN_AGENTS, MAX_AGENTS = 8, 16
RADIUS, HEIGHT, SPEED = 0.25, 1.0, 0.5
# solved 12-agent plan-grid instance with a 15.0 s makespan (~3.1k ticks)
FLY_SOURCE_SEED = 29


def grid_instance(seed: int) -> dict:
    """One plan-grid instance document, in the mapflight instance format."""
    rng = random.Random(seed)
    nx, ny, nz = DIMS
    cells = [(x, y, z) for x in range(nx) for y in range(ny) for z in range(nz)]
    obstacles = set(rng.sample(cells, round(OBSTACLE_SHARE * len(cells))))
    n_agents = rng.randint(MIN_AGENTS, MAX_AGENTS)
    columns: dict = {}
    for c in cells:
        if c not in obstacles:
            columns.setdefault(c[:2], []).append(c)
    pool = sorted(columns)
    start_cols = rng.sample(pool, n_agents)
    goal_cols: list = []
    for sc in start_cols:
        goal_cols.append(rng.choice([c for c in pool if c != sc and c not in goal_cols]))
    agents = [
        {"id": i, "start": list(rng.choice(columns[sc])), "goal": list(rng.choice(columns[gc])),
         "radius": RADIUS, "height": HEIGHT, "speed": SPEED}
        for i, (sc, gc) in enumerate(zip(start_cols, goal_cols))
    ]
    return {
        "grid": {"dims": list(DIMS), "cell_size": CELL_SIZE, "connectivity": "face-6",
                 "obstacles": [list(c) for c in sorted(obstacles)]},
        "agents": agents,
    }


def dense_instance() -> dict:
    """The 8-agent 4x4x2 instance of tests/test_ccbs.py::TestEightAgents."""
    rng = random.Random(3)
    cols = [(x, y) for x in range(4) for y in range(4)]
    start_cols = rng.sample(cols, 8)
    goal_cols = rng.sample(cols, 8)
    starts = [(x, y, rng.randrange(2)) for x, y in start_cols]
    goals = [(x, y, rng.randrange(2)) for x, y in goal_cols]
    return {
        "grid": {"dims": [4, 4, 2], "cell_size": 0.5, "connectivity": "face-6", "obstacles": []},
        "agents": [{"id": i, "start": list(s), "goal": list(g), "radius": 0.25, "height": 1.0,
                    "speed": 0.5} for i, (s, g) in enumerate(zip(starts, goals))],
    }


def write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def make_inputs() -> None:
    mods = import_mapflight(workloads.ROOT)
    write_json(workloads.DENSE_INSTANCE, dense_instance())
    for seed, path in enumerate(workloads.grid_instances()):
        write_json(path, grid_instance(seed))
    world, agents = mods["world"].load_instance(workloads.grid_instances()[FLY_SOURCE_SEED])
    ccbs = mods["ccbs"]
    result = ccbs.ccbs_solve(world, agents, ccbs.SolveLimits(
        max_wall_time=workloads.WALL_LIMIT_S, max_expansions=workloads.GRID_EXPANSION_LIMIT))
    if result.solution is None or len(agents) != 12:
        raise SystemExit(f"fly-swarm source instance: {result.status}, {len(agents)} agents")
    mods["plan"].save_plans(result.solution.plans, agents, workloads.FLY_PLANS)
    workloads.BUNDLED_DIR.mkdir(parents=True, exist_ok=True)
    for path in sorted((workloads.ROOT / "scenarios").glob("*.json")):
        shutil.copyfile(path, workloads.BUNDLED_DIR / path.name)


def record_references() -> None:
    mods = import_mapflight(workloads.ROOT)
    refs: dict = {}
    with tempfile.TemporaryDirectory(dir=workloads.BENCH_DIR) as work:
        for workload in workloads.WORKLOADS:
            ops = workloads.operations(workload)
            runner = Runner(mods, workload, ops, Path(work))
            refs[workload] = {}
            for index, op in enumerate(ops):
                result = runner.run(index)
                if result["error"] is not None:
                    raise SystemExit(f"{workload} {op['key']}: {result['error']}")
                out = result["outputs"]
                if workload == "bench-bundled":
                    out = {"rows": out["rows"], "costs": out["costs"]}
                elif workload == "fly-swarm":
                    out = {k: out[k] for k in ("completed", "poses.csv", "errors.json")}
                refs[workload][op["key"]] = out
                print(workload, op["key"], out if workload != "bench-bundled" else out["rows"])
    write_json(workloads.REFERENCES, refs)


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "inputs":
        make_inputs()
    elif what == "references":
        record_references()
    else:
        raise SystemExit(__doc__)
