"""Acceptance suite: the binding product criteria, one test per criterion.

Each test prints one [PASS]/[FAIL] line into the terminal summary (see
conftest.pytest_terminal_summary). The criteria pin tolerances and wall-clock
budgets; randomized batches run under fixed seeds so the suite is reproducible.
Absolute error magnitudes from any particular hardware campaign are out of
scope here: the simulation bands below are self-consistency checks, not
reproductions of field measurements.
"""

import dataclasses
import json
import random
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

import oracles
from acceptance_report import LINES
from mapflight.ccbs import SOLVED, SolveLimits, ccbs_solve
from mapflight.flightsim import (
    BASIS_ACTUAL,
    METHODS,
    SimConfig,
    error_metrics,
    run_execution,
)
from mapflight.geometry3d import CylinderBody, cylinder_unsafe_interval
from mapflight.plan import validate
from mapflight.sipp import Constraint, sipp_plan
from mapflight.world import AgentSpec, GridWorld, load_instance, neighbors
from oracles import build_safe_intervals, plan_satisfies_constraints
from test_geometry3d import random_motion

BODY = CylinderBody(0.25, 1.0)
DEMO_SCENARIOS = ("method_comparison", "swarm_2", "swarm_4", "swarm_6")

# zero-noise, fast-inner-loop configuration: with no disturbance every method
# must track the plan to well under the grid's collision margins
ZERO_NOISE_CONFIG = SimConfig(
    tick=0.0025,
    log_period=0.01,
    tau=0.01,
    gain=120.0,
    noise_sigma=0.0,
    latency=0.0,
    command_period=0.01,
    vll_box_half_width=0.01,
)


@contextmanager
def criterion(num: int, title: str):
    info = SimpleNamespace(detail="")
    label = f"criterion {num:2d}: {title}"
    try:
        yield info
    except BaseException as exc:
        first = str(exc).splitlines()[0] if str(exc) else exc.__class__.__name__
        LINES.append(f"[FAIL] {label} — {first}")
        raise
    LINES.append(f"[PASS] {label}" + (f" — {info.detail}" if info.detail else ""))


# solved-scenario cache so later criteria reuse earlier plans
_SCENARIOS: dict[str, tuple] = {}
# (world, agents, plans) triples collected by the optimality batch, re-checked
# by the soundness criterion
_BATCH_SOLUTIONS: list[tuple] = []


def solve_scenario(scenario_dir, name):
    if name not in _SCENARIOS:
        world, agents = load_instance(scenario_dir / f"{name}.json")
        res = ccbs_solve(world, agents, SolveLimits(max_wall_time=60.0))
        assert res.status == SOLVED, f"{name}: {res.status} ({res.detail})"
        _SCENARIOS[name] = (world, agents, res.solution)
    return _SCENARIOS[name]


def agent_speeds(agents):
    return {a.id: a.speed for a in agents}


# ---------------------------------------------------------------------------
# 1. geometry: analytic unsafe intervals match a dense-sampling oracle
# ---------------------------------------------------------------------------


def test_01_unsafe_interval_endpoints_match_sampling_oracle():
    with criterion(1, "unsafe-interval endpoints match the sampling+bisection oracle "
                      "over 1000 random motion pairs (±1e-6 s, no false-safe, <10 s)") as info:
        rng = random.Random(20260816)
        started = time.perf_counter()
        conflicts = 0
        worst = 0.0
        for _ in range(1000):
            a = random_motion(rng)
            b = random_motion(rng)
            body_a = CylinderBody(rng.uniform(0.2, 0.7), rng.uniform(0.5, 2.0))
            body_b = CylinderBody(rng.uniform(0.2, 0.7), rng.uniform(0.5, 2.0))
            r_sum = body_a.radius + body_b.radius
            h_half = 0.5 * (body_a.height + body_b.height)
            got = cylinder_unsafe_interval(a, b, body_a, body_b)
            want = oracles.unsafe_interval_oracle(a, b, r_sum, h_half)
            if want is not None:
                # the strict direction: anything the oracle can see must be caught
                assert got is not None, f"false-safe: oracle found {want}, implementation found none"
                assert got[0] == pytest.approx(want[0], abs=1e-6)
                assert got[1] == pytest.approx(want[1], abs=1e-6)
                worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
                conflicts += 1
            elif got is not None:
                # sub-sampling-width slivers are legitimate analytic findings
                assert got[1] - got[0] < 2e-4, f"oracle missed a wide window {got}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"batch took {elapsed:.1f} s"
        assert conflicts >= 100  # the batch must actually exercise overlaps
        info.detail = f"{conflicts} overlapping pairs, worst endpoint gap {worst:.2e} s, {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 2. single-agent optimality against a time-expanded brute force
# ---------------------------------------------------------------------------


def _random_single_agent_instance(rng, dt):
    dims = rng.choice([(3, 3, 1), (4, 4, 1), (5, 5, 1), (4, 3, 2), (3, 3, 3), (5, 5, 3)])
    cells = [(i, j, k) for i in range(dims[0]) for j in range(dims[1]) for k in range(dims[2])]
    obstacles = frozenset(rng.sample(cells, rng.choice([0, 0, 1, 2])))
    free = [c for c in cells if c not in obstacles]
    start, goal = rng.sample(free, 2)
    world = GridWorld(dims, 0.5, obstacles)
    agent = AgentSpec(0, start, goal, BODY, 0.5)
    constraints = []
    for _ in range(rng.randrange(0, 7)):
        lo = rng.randrange(0, 300) * dt
        hi = lo + rng.randrange(1, 200) * dt
        cell = rng.choice(free)
        nbrs = neighbors(world, cell)
        if nbrs and rng.random() < 0.5:
            constraints.append(Constraint(0, cell, rng.choice(nbrs), (lo, hi)))
        else:
            constraints.append(Constraint(0, cell, cell, (lo, hi)))
    return world, agent, constraints


def test_02_single_agent_arrivals_match_brute_force():
    dt = 0.01
    with criterion(2, "single-agent arrival times match time-expanded brute force on "
                      "200 random constrained instances (within one 10 ms tick, <60 s)") as info:
        rng = random.Random(20260816)
        started = time.perf_counter()
        solvable = 0
        worst = 0.0
        for n in range(200):
            world, agent, constraints = _random_single_agent_instance(rng, dt)
            plan = sipp_plan(world, agent, build_safe_intervals(constraints, agent.id))
            want = oracles.timed_astar_oracle(world, agent, constraints, dt=dt)
            if plan is None:
                assert want is None, f"#{n}: planner said unreachable, oracle found {want}"
                continue
            assert want is not None, f"#{n}: oracle said unreachable, planner found {plan.end_time}"
            assert plan_satisfies_constraints(plan, constraints, world), f"#{n}: constraints violated"
            # the tick grid can only delay departures, never beat the optimum
            diff = want - plan.end_time
            assert -1e-9 <= diff <= dt + 1e-9, f"#{n}: planner {plan.end_time!r}, oracle {want!r}"
            worst = max(worst, abs(diff))
            solvable += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"batch took {elapsed:.1f} s"
        info.detail = f"{solvable}/200 solvable, worst gap {worst:.2e} s, {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 3. multi-agent optimality against a discretized joint brute force
# ---------------------------------------------------------------------------


def _random_multi_agent_instance(rng):
    dims = rng.choice([(3, 3, 1), (4, 3, 1), (4, 4, 1), (3, 3, 2), (4, 4, 2)])
    n_cells = dims[0] * dims[1] * dims[2]
    n_agents = rng.choice([1, 1, 2, 2, 2, 3, 3])
    if n_agents == 3 and n_cells > 16:
        dims = rng.choice([(3, 3, 1), (3, 3, 2), (4, 3, 1)])
    all_cells = [(x, y, z) for x in range(dims[0]) for y in range(dims[1]) for z in range(dims[2])]
    n_obs = rng.choice([0, 0, 1, 1, 2])
    obstacles = set(rng.sample(all_cells, n_obs))
    free = [c for c in all_cells if c not in obstacles]

    # starts/goals in distinct xy columns (same column = static cylinder overlap)
    def pick_column_distinct(k):
        chosen, cols = [], set()
        cells = free[:]
        rng.shuffle(cells)
        for c in cells:
            if (c[0], c[1]) not in cols:
                chosen.append(c)
                cols.add((c[0], c[1]))
                if len(chosen) == k:
                    return chosen
        return None

    starts = pick_column_distinct(n_agents)
    goals = pick_column_distinct(n_agents)
    if starts is None or goals is None:
        return None
    world = GridWorld(dims, 0.5, frozenset(obstacles))
    agents = [AgentSpec(i, starts[i], goals[i], BODY, 0.5) for i in range(n_agents)]
    # each agent must be able to reach its goal ignoring the others
    for a in agents:
        d = oracles._bfs_distances(dims, obstacles, a.goal)
        if a.start not in d:
            return None
    return world, agents


def _wait_segments(plans):
    return sum(
        1
        for p in plans
        for k in range(len(p.waypoints) - 1)
        if p.waypoints[k][:3] == p.waypoints[k + 1][:3]
    )


def test_03_sum_of_costs_matches_joint_brute_force():
    dt = 0.05
    with criterion(3, "sum-of-costs matches the discretized joint brute force on 50 random "
                      "instances of up to 3 agents (within one tick per wait, <5 min)") as info:
        rng = random.Random(20260816)
        started = time.perf_counter()
        done = 0
        worst = 0.0
        while done < 50:
            inst = _random_multi_agent_instance(rng)
            if inst is None:
                continue
            world, agents = inst
            res = ccbs_solve(world, agents, SolveLimits(max_wall_time=20.0, max_expansions=100_000))
            assert res.status == SOLVED, f"#{done}: solver {res.status} ({res.detail})"
            want = oracles.joint_astar_oracle(world, agents, dt=dt)
            assert want is not None, f"#{done}: joint oracle found no solution"
            # every wait can land up to one tick late on the oracle's grid
            tol = dt * _wait_segments(res.solution.plans) + 1e-9
            diff = res.solution.cost - want
            assert abs(diff) <= tol, (
                f"#{done}: cost {res.solution.cost!r} vs oracle {want!r} "
                f"(tol {tol:.3f}) on dims={world.dims} agents="
                f"{[(a.start, a.goal) for a in agents]} obstacles={sorted(world.obstacles)}"
            )
            worst = max(worst, abs(diff))
            _BATCH_SOLUTIONS.append((world, agents, res.solution.plans))
            done += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"batch took {elapsed:.1f} s"
        info.detail = f"50/50 within tolerance, worst gap {worst:.3f} s, {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 4. soundness: every produced solution passes the dual validator
# ---------------------------------------------------------------------------


def test_04_every_solution_passes_the_dual_validator(scenario_dir):
    with criterion(4, "every produced solution passes the dual (analytic + sampled) "
                      "validator") as info:
        checked = 0
        for name in DEMO_SCENARIOS + ("swarm_8",):
            world, agents, solution = solve_scenario(scenario_dir, name)
            report = validate(solution.plans, agents, world)
            assert report.ok, f"{name}:\n{report.summary()}"
            checked += 1
        # a couple of conflict-heavy instances solved right here
        extra = [
            (
                GridWorld((4, 4, 1), 0.5),
                [AgentSpec(0, (0, 0, 0), (2, 0, 0), BODY, 0.5),
                 AgentSpec(1, (2, 0, 0), (0, 0, 0), BODY, 0.5)],
            ),
            (
                GridWorld((5, 5, 1), 1.0),
                [AgentSpec(0, (0, 2, 0), (4, 2, 0), CylinderBody(0.5, 1.0), 1.0),
                 AgentSpec(1, (2, 0, 0), (2, 4, 0), CylinderBody(0.5, 1.0), 1.0)],
            ),
        ]
        for world, agents in extra:
            res = ccbs_solve(world, agents)
            assert res.status == SOLVED
            report = validate(res.solution.plans, agents, world)
            assert report.ok, report.summary()
            checked += 1
        # everything the optimality batch produced (empty when run in isolation)
        for world, agents, plans in _BATCH_SOLUTIONS:
            report = validate(plans, agents, world)
            assert report.ok, report.summary()
            checked += 1
        info.detail = f"{checked} solutions re-validated"


# ---------------------------------------------------------------------------
# 5. interpolated-setpoint fidelity
# ---------------------------------------------------------------------------


def test_05_interpolated_setpoints_equal_the_plan(scenario_dir):
    with criterion(5, "streamed position setpoints equal the plan interpolated at "
                      "their issue times (1e-12)") as info:
        _, agents, solution = solve_scenario(scenario_dir, "method_comparison")
        plans = {p.agent: p for p in solution.plans}
        total = 0
        for config in (SimConfig(seed=0), ZERO_NOISE_CONFIG):
            sink: list = []
            run_execution(solution.plans, "bll", config, speeds=agent_speeds(agents), command_sink=sink)
            assert sink
            for agent, cmd in sink:
                (want,) = plans[agent].positions_at([cmd.issue_time]).tolist()
                gap = max(abs(a - b) for a, b in zip(cmd.target, want))
                assert gap <= 1e-12, f"agent {agent} at t={cmd.issue_time}: off by {gap:.2e}"
            total += len(sink)
        info.detail = f"{total} setpoints byte-accurate to the interpolant"


# ---------------------------------------------------------------------------
# 6. zero-noise convergence for all methods
# ---------------------------------------------------------------------------


def test_06_zero_noise_tracking_converges(scenario_dir):
    with criterion(6, "with zero noise and a fast inner loop every method tracks every "
                      "demo scenario to < 0.02 m") as info:
        worst = 0.0
        for name in DEMO_SCENARIOS:
            _, agents, solution = solve_scenario(scenario_dir, name)
            for method in METHODS:
                log = run_execution(solution.plans, method, ZERO_NOISE_CONFIG,
                                    speeds=agent_speeds(agents))
                assert log.completed, f"{name}/{method} did not finish"
                report = error_metrics(log, BASIS_ACTUAL)
                assert report.aggregate.max_error < 0.02, (
                    f"{name}/{method}: max error {report.aggregate.max_error:.4f} m"
                )
                worst = max(worst, report.aggregate.max_error)
        info.detail = f"worst max tracking error {worst:.4f} m over {len(DEMO_SCENARIOS) * 3} runs"


# ---------------------------------------------------------------------------
# 7. noisy runs land in the calibrated band
# ---------------------------------------------------------------------------


def test_07_default_noise_errors_live_in_the_calibrated_band(scenario_dir):
    with criterion(7, "under the default noise model, 13 seeded comparison runs per method "
                      "average 0.05–0.5 m tracking error") as info:
        _, agents, solution = solve_scenario(scenario_dir, "method_comparison")
        speeds = agent_speeds(agents)
        means = {}
        for method in METHODS:
            avgs = []
            for rep in range(13):
                config = dataclasses.replace(SimConfig(), seed=rep)
                log = run_execution(solution.plans, method, config, speeds=speeds)
                assert log.completed, f"{method} seed {rep} did not finish"
                avgs.append(error_metrics(log, BASIS_ACTUAL).aggregate.avg_error)
            mean = sum(avgs) / len(avgs)
            assert 0.05 <= mean <= 0.5, f"{method}: mean avg error {mean:.3f} m out of band"
            means[method] = mean
        info.detail = ", ".join(f"{m} {means[m]:.3f} m" for m in METHODS)


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------


def test_08_runs_are_byte_identical(scenario_dir):
    with criterion(8, "repeating (instance, method, seed, config) three times yields "
                      "byte-identical pose logs and error reports") as info:
        _, agents, solution = solve_scenario(scenario_dir, "method_comparison")
        speeds = agent_speeds(agents)
        for method in METHODS:
            outputs = []
            for _ in range(3):
                log = run_execution(solution.plans, method, SimConfig(seed=0), speeds=speeds)
                report = error_metrics(log, BASIS_ACTUAL)
                outputs.append(
                    (
                        log.to_csv(),
                        report.series_csv(),
                        json.dumps(report.to_json_dict("cfg"), sort_keys=True),
                    )
                )
            assert outputs[0] == outputs[1] == outputs[2], f"{method}: runs differ"
        info.detail = "3 methods x 3 repeats, all byte-identical"


# ---------------------------------------------------------------------------
# 9. planner scale
# ---------------------------------------------------------------------------


def test_09_eight_agents_plan_quickly(scenario_dir):
    with criterion(9, "an 8-agent instance plans to proven optimum in < 10 s") as info:
        world, agents = load_instance(scenario_dir / "swarm_8.json")
        started = time.perf_counter()
        res = ccbs_solve(world, agents, SolveLimits(max_wall_time=60.0))
        elapsed = time.perf_counter() - started
        assert res.status == SOLVED, f"{res.status}: {res.detail}"
        assert elapsed < 10.0, f"planning took {elapsed:.2f} s"
        # golden value: ring rotation costs 24 + sqrt(2) + waits measured once
        assert res.solution.cost == pytest.approx(25.656854251193845, abs=1e-6)
        assert validate(res.solution.plans, agents, world).ok
        info.detail = f"{elapsed:.2f} s, {res.stats.expansions} expansions, cost {res.solution.cost:.3f}"


# ---------------------------------------------------------------------------
# 10. logging cadence
# ---------------------------------------------------------------------------


def test_10_pose_logs_tick_at_exact_10ms(scenario_dir):
    with criterion(10, "pose logs are stamped at exact 10 ms multiples") as info:
        _, agents, solution = solve_scenario(scenario_dir, "method_comparison")
        speeds = agent_speeds(agents)
        checked = 0
        for method, config in (("bll", SimConfig(seed=0)), ("vll", ZERO_NOISE_CONFIG)):
            log = run_execution(solution.plans, method, config, speeds=speeds)
            assert len(log.records)
            for t in log.records["t"].tolist():
                assert abs(t * 100.0 - round(t * 100.0)) < 1e-6, f"off-grid stamp {t!r}"
            times = sorted(set(log.records["t"].tolist()))
            for a, b in zip(times, times[1:]):
                assert b - a == pytest.approx(0.01, abs=1e-9)
            checked += len(log.records)
        info.detail = f"{checked} pose records, all on the 10 ms grid"
