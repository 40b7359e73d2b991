"""Command line interface.

Subcommands:
  plan      solve an instance and write timed plans
  validate  check a plan file against its instance
  simulate  replay plans through a command method and report tracking error
  bench     batch plan + simulate every instance in a scenario directory

Exit codes are disjoint so scripts can tell failure modes apart:
  0 success, 2 usage error, 3 malformed input, 4 no solution,
  5 solver limit exceeded, 6 plan validation failed, 7 simulation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import json
import multiprocessing
import os
import signal
import sys
import traceback
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .ccbs import LIMIT_EXCEEDED, NO_SOLUTION, SolveLimits, SolveResult, ccbs_solve
from .flightsim import (
    METHODS,
    SEED_FREE_METHODS,
    SimConfig,
    _mean,
    check_flight_size,
    error_metrics,
    run_execution,
    run_executions,
)
from .plan import load_plans, save_plans, validate
from .world import InputError, check_keys, input_field, load_instance, read_json, write_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_NO_SOLUTION = 4
EXIT_LIMIT = 5
EXIT_INVALID_PLAN = 6
EXIT_SIM_FAILED = 7


class UsageError(Exception):
    """A bad command-line value: exit 2."""


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# perfbench's fly-swarm workload writes errors.json through this name
_write_json = write_json


def _write_manifest(out_dir: Path, command: str, inputs: dict, outputs: Sequence[str], extra: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "inputs": {name: {"path": str(p), "sha256": _sha256(Path(p))} for name, p in inputs.items()},
        "outputs": {name: _sha256(out_dir / name) for name in outputs},
    }
    manifest.update(extra)
    write_json(out_dir / "manifest.json", manifest)


def _load_config(path: Optional[str], seed: Optional[int]) -> SimConfig:
    kwargs: dict = {}
    if path is not None:
        raw = read_json(path)
        with input_field(path, "top level"):
            check_keys(raw, {f.name for f in dataclasses.fields(SimConfig)})
        kwargs.update(raw)
    if seed is not None:
        kwargs["seed"] = seed
    # with no config file, only --seed can hold a bad value
    with input_field(path or "--seed", "bad simulation config"):
        return SimConfig(**kwargs)


def _config_hash(config: SimConfig) -> str:
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _prepare_out(path: str, is_dir: bool) -> Path:
    """The --out directory, or the --out file's parent, made before any work; an unusable one is a UsageError."""
    out = Path(path)
    try:
        (out if is_dir else out.parent).mkdir(parents=True, exist_ok=True)
        if not is_dir and out.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from exc
    return out


def _solve_limits(args: argparse.Namespace) -> SolveLimits:
    try:
        return SolveLimits(max_wall_time=args.time_limit, max_expansions=args.expansions_limit)
    except ValueError as exc:
        raise UsageError(f"bad solver limits: {exc}") from exc


def cmd_plan(args: argparse.Namespace) -> int:
    limits = _solve_limits(args)
    world, agents = load_instance(args.instance)
    out = _prepare_out(args.out, is_dir=False)
    result = ccbs_solve(world, agents, limits)
    stats = result.stats
    print(
        f"solver: {result.status} expansions={stats.expansions} cardinal={stats.cardinal} "
        f"semi_cardinal={stats.semi_cardinal} generated={stats.generated} bypasses={stats.bypasses} "
        f"replans={stats.replans} "
        f"replans_reused={stats.replans_reused} branches_reused={stats.branches_reused} "
        f"peak_open={stats.peak_open} sipp={stats.sipp_s:.3f}s detect={stats.detect_s:.3f}s "
        f"branch={stats.branch_s:.3f}s wall={stats.wall_time:.3f}s"
    )
    if result.status == NO_SOLUTION:
        print(f"no solution: {result.detail}")
        return EXIT_NO_SOLUTION
    if result.status == LIMIT_EXCEEDED:
        print(f"limit exceeded: {result.detail}")
        return EXIT_LIMIT
    solution = result.solution
    assert solution is not None
    report = validate(solution.plans, agents, world)
    if not report.ok:
        print("solver output failed independent validation:")
        print(report.summary())
        return EXIT_INVALID_PLAN
    save_plans(solution.plans, agents, out)
    print(f"cost={solution.cost!r} makespan={solution.makespan!r}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    world, agents = load_instance(args.instance)
    planset = load_plans(args.plans)
    report = validate(planset.plans, agents, world)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_INVALID_PLAN


def cmd_simulate(args: argparse.Namespace) -> int:
    planset = load_plans(args.plans)
    config = _load_config(args.config, args.seed)
    check_flight_size(planset.plans, config, 1)  # a refused flight leaves no --out behind
    out_dir = _prepare_out(args.out, is_dir=True)
    log = run_execution(planset.plans, args.method, config, speeds=planset.speeds)
    report = error_metrics(log)
    log.write_csv(out_dir / "poses.csv")
    (out_dir / "error_series.csv").write_text(report.series_csv(), encoding="utf-8")
    write_json(out_dir / "errors.json", report.to_json_dict(config_hash=_config_hash(config)))
    _write_manifest(
        out_dir,
        "simulate",
        {"plans": args.plans},
        ["poses.csv", "error_series.csv", "errors.json"],
        {"method": args.method, "config": dataclasses.asdict(config), "completed": log.completed},
    )
    print(
        f"method={log.method} seed={log.seed} completed={log.completed} "
        f"end={log.end_time:.3f}s records={len(log.records)}"
    )
    print(
        f"tracking error: max={report.aggregate.max_error:.4f} m "
        f"avg={report.aggregate.avg_error:.4f} m"
    )
    if not log.completed:
        print("simulation hit the wall-time cap before all vehicles reached their goals")
        return EXIT_SIM_FAILED
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the batch cannot start workers: no fork, or a daemonic process."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def _shares(weights: Sequence[float], k: int) -> list[list[int]]:
    """Batch indices split into k shares: heaviest first, each to the lightest share (the lowest on ties).

    `_fly_batches` weighs a batch by agents x makespan x runs flown.
    """
    shares: list[list[int]] = [[] for _ in range(k)]
    loads = [0.0] * k
    for i in sorted(range(len(weights)), key=lambda i: (-weights[i], i)):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += weights[i]
    return shares


def _runs_flown(method: str, repetitions: int) -> int:
    """Runs a batch flies: one for a method in SEED_FREE_METHODS, else every repetition."""
    return 1 if method in SEED_FREE_METHODS else repetitions


def _fly_batch(plans, method: str, speeds: dict, base: SimConfig, repetitions: int) -> list[tuple]:
    """(completed, max_error, avg_error) of each run of one (scenario, method) batch; run r has seed base.seed + r.

    The first `_runs_flown` seeds fly as one fleet. A seed-free method flies
    one run, which stands for every seed: its executors never read the
    estimated pose, the only thing the seed moves.
    """
    flown = _runs_flown(method, repetitions)
    runs = []
    # logs arrive one run at a time
    for log in run_executions(plans, method, base, flown, speeds=speeds):
        aggregate = error_metrics(log).aggregate
        runs.append((log.completed, aggregate.max_error, aggregate.avg_error))
        del log  # so that its records are freed before the next run's are built
    return runs * (repetitions // flown)


def _fly_share(jobs: list[tuple], share: list[int], receive, send) -> None:
    """A worker's body: send ("ok", {job index: runs} for its share) or ("error", a traceback) over `send`."""
    receive.close()  # else a reply the parent no longer reads would wait on a full pipe for good
    signal.signal(signal.SIGINT, signal.SIG_DFL)  # a Ctrl-C, which the parent gets too, ends it without a traceback
    try:
        reply = ("ok", {i: _fly_batch(*jobs[i]) for i in share})
    except Exception:
        reply = ("error", traceback.format_exc())
    with contextlib.suppress(BrokenPipeError):  # the parent is already raising: end without a traceback
        send.send(reply)


def _fly_batches(jobs: list[tuple]) -> list[list[tuple]]:
    """_fly_batch of every job, in job order, over up to one process per usable CPU.

    The jobs are dealt into shares by weight (`_shares`), each weighed from
    its own plans, method and repetitions. The parent flies share 0 and
    starts a fork `Process` for each other share, which sends one reply over
    a one-way `Pipe` and never waits for input, so it ends even if the parent
    is killed. A fork inherits the imported modules and the solved plans, and
    needs no BLAS thread (the simulator makes no BLAS call); the standard
    library flushes stdout before it forks, so no line prints twice.
    """
    weights = [len(plans) * max(p.end_time for p in plans) * _runs_flown(method, repetitions)
               for plans, method, _, _, repetitions in jobs]
    shares = _shares(weights, max(1, min(_usable_cpus(), len(jobs))))
    fork = multiprocessing.get_context("fork")
    children = []  # (process, receive end)
    try:
        for share in shares[1:]:
            receive, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_fly_share, args=(jobs, share, receive, send))
            child.start()
            children.append((child, receive))
            send.close()
        results = {i: _fly_batch(*jobs[i]) for i in shares[0]}
        for child, receive in children:
            try:
                status, payload = receive.recv()
            except EOFError:
                raise RuntimeError(f"bench worker {child.pid} ended without a reply") from None
            if status != "ok":
                raise RuntimeError(f"bench worker {child.pid} failed:\n{payload}")
            results.update(payload)
    finally:
        for _, receive in children:
            receive.close()  # all before any join: a worker holds copies of the earlier workers' receive ends
        for child, _ in children:
            child.join()
    return [results[i] for i in range(len(jobs))]


def cmd_bench(args: argparse.Namespace) -> int:
    """Batch plan + simulate every instance in a scenario directory.

    Per-scenario failures are recorded in the summary and the batch continues;
    the exit status is nonzero if anything failed. Scenarios are loaded, solved
    and validated one after another; their (scenario, method) batches are then
    flown by `_fly_batches` over worker processes and reported in scenario
    order, so the outputs do not depend on the process count.

    A batch of a method in SEED_FREE_METHODS flies its first seed only
    (`_fly_batch`), and that run is reported for every seed; a vll batch flies
    every seed. The flight-size limit is checked here, for all repetitions.
    """
    scenario_dir = Path(args.scenarios)
    if not scenario_dir.is_dir():
        raise InputError(f"{scenario_dir}: scenario directory not found")
    instance_paths = sorted(p for p in scenario_dir.glob("*.json") if p.is_file())
    if not instance_paths:
        raise InputError(f"{scenario_dir}: no instance files (*.json)")
    base = _load_config(args.config, args.seed)
    methods = args.methods.split(",") if args.methods is not None else list(METHODS)
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; expected subset of {','.join(METHODS)}")
        if methods.count(m) > 1:
            raise UsageError(f"method {m!r} is listed more than once")
    if args.repetitions < 1:
        raise UsageError(f"repetitions must be >= 1, got {args.repetitions}")
    limits = _solve_limits(args)
    out_dir = _prepare_out(args.out, is_dir=True)

    # each scenario either failed before flying, with its failure and line, or
    # was solved and saved, and flies one batch per method
    stopped: dict[str, tuple[dict, str]] = {}
    solved: dict[str, tuple[list, SolveResult]] = {}
    jobs: list[tuple] = []
    outputs = ["bench.json"]
    for path in instance_paths:
        name = path.stem
        try:
            world, agents = load_instance(path)
        except InputError as exc:
            stopped[name] = ({"scenario": name, "stage": "load", "error": str(exc)}, f"{name}: FAILED to load ({exc})")
            continue
        result = ccbs_solve(world, agents, limits)
        if result.solution is None:
            stopped[name] = ({"scenario": name, "stage": "plan", "error": f"{result.status}: {result.detail}"},
                             f"{name}: solver {result.status}")
            continue
        solution = result.solution
        report = validate(solution.plans, agents, world)
        if not report.ok:
            stopped[name] = ({"scenario": name, "stage": "validate", "error": report.summary()},
                             f"{name}: solution failed validation")
            continue
        plan_file = f"{name}_plans.json"
        save_plans(solution.plans, agents, out_dir / plan_file)
        outputs.append(plan_file)
        try:
            # all repetitions, not the runs flown: it also bounds the per-seed lists a batch reports
            check_flight_size(solution.plans, base, args.repetitions)
        except InputError as exc:
            stopped[name] = ({"scenario": name, "stage": "simulate", "error": str(exc)},
                             f"{name}: FAILED to simulate ({exc})")
            continue
        solved[name] = (agents, result)
        speeds = {a.id: a.speed for a in agents}
        jobs += [(solution.plans, m, speeds, base, args.repetitions) for m in methods]

    flown = iter(_fly_batches(jobs))
    rows: list[dict] = []
    failures: list[dict] = []
    for path in instance_paths:
        name = path.stem
        if name in stopped:
            failure, line = stopped[name]
            failures.append(failure)
            print(line)
            continue
        agents, result = solved[name]
        for m in methods:
            runs = next(flown)
            completed = 0
            for rep, (done, _, _) in enumerate(runs):
                if done:
                    completed += 1
                else:
                    failures.append(
                        {"scenario": name, "stage": "simulate", "method": m, "seed": base.seed + rep,
                         "error": "wall-time cap reached before all vehicles finished"}
                    )
            rows.append(
                {
                    "scenario": name,
                    "method": m,
                    "agents": len(agents),
                    "cost": result.solution.cost,
                    "makespan": result.solution.makespan,
                    "solver_wall_time": result.stats.wall_time,
                    "solver_expansions": result.stats.expansions,
                    "solver_bypasses": result.stats.bypasses,
                    "solver_replans": result.stats.replans,
                    "solver_replans_reused": result.stats.replans_reused,
                    "runs": args.repetitions,
                    "success_rate": completed / args.repetitions,
                    "mean_max_error": _mean([max_error for _, max_error, _ in runs]),
                    "mean_avg_error": _mean([avg_error for _, _, avg_error in runs]),
                }
            )
            print(
                f"{name} {m}: success {completed}/{args.repetitions} "
                f"mean_max={rows[-1]['mean_max_error']:.4f} m mean_avg={rows[-1]['mean_avg_error']:.4f} m"
            )
    summary = {"repetitions": args.repetitions, "methods": methods, "rows": rows, "failures": failures}
    write_json(out_dir / "bench.json", summary)
    _write_manifest(
        out_dir,
        "bench",
        {p.stem: str(p) for p in instance_paths},
        outputs,
        {"methods": methods, "config": dataclasses.asdict(base), "repetitions": args.repetitions},
    )
    print(f"wrote {out_dir / 'bench.json'}")
    return EXIT_OK if not failures else EXIT_SIM_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapflight",
        description="Multi-agent 3D grid path planning and quadcopter execution simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    limits = SolveLimits()

    p_plan = sub.add_parser("plan", help="solve an instance and write timed plans")
    p_plan.add_argument("--instance", required=True, help="instance JSON file")
    p_plan.add_argument("--out", required=True, help="output plan JSON file")
    p_plan.add_argument("--time-limit", type=float, default=limits.max_wall_time, help="solver wall-time limit, s")
    p_plan.add_argument(
        "--expansions-limit", type=int, default=limits.max_expansions, help="conflict-tree expansion limit"
    )
    p_plan.set_defaults(func=cmd_plan)

    p_val = sub.add_parser("validate", help="check a plan file against its instance")
    p_val.add_argument("--instance", required=True, help="instance JSON file")
    p_val.add_argument("--plans", required=True, help="plan JSON file")
    p_val.set_defaults(func=cmd_validate)

    p_sim = sub.add_parser("simulate", help="replay plans through a command method")
    p_sim.add_argument("--plans", required=True, help="plan JSON file")
    p_sim.add_argument("--method", required=True, choices=METHODS, help="command method")
    p_sim.add_argument("--seed", type=int, default=None, help="noise seed (overrides config)")
    p_sim.add_argument("--config", default=None, help="simulation config JSON file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="batch plan + simulate a directory of instances")
    p_bench.add_argument("--scenarios", required=True, help="directory of instance JSON files")
    p_bench.add_argument("--methods", default=None, help="comma-separated subset of bhl,bll,vll")
    p_bench.add_argument("--repetitions", type=int, default=13, help="seeded runs per (scenario, method)")
    p_bench.add_argument("--seed", type=int, default=None, help="base seed (overrides config)")
    p_bench.add_argument("--config", default=None, help="simulation config JSON file")
    p_bench.add_argument("--time-limit", type=float, default=limits.max_wall_time, help="solver wall-time limit, s")
    p_bench.add_argument(
        "--expansions-limit", type=int, default=limits.max_expansions, help="conflict-tree expansion limit"
    )
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
