"""Continuous-time conflict-based search: best-first conflict tree over SIPP plans.

Branching follows the complementary-constraint rule: the move side of a
conflict is forbidden from departing inside [t0, t_safe) computed against the
other action as originally timed; the wait side is forbidden from occupying
its vertex during the window in which the other action passes through it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .geometry3d import (
    Conflict,
    CylinderBody,
    Interval,
    LinearMotion,
    cylinder_unsafe_interval,
    first_conflict,
    move_clear_delay,
)
from .plan import TimedPlan
from .sipp import Constraint, SafeIntervalTable, build_safe_intervals, sipp_plan
from .world import AgentSpec, GridWorld, MoveAction

SOLVED = "solved"
NO_SOLUTION = "no-solution"
LIMIT_EXCEEDED = "limit-exceeded"

_BISECT_TOL = 1e-9


@dataclass(frozen=True)
class SolveLimits:
    max_wall_time: float = 60.0
    max_expansions: int = 200_000


@dataclass
class SolveStats:
    expansions: int = 0
    generated: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class Solution:
    plans: tuple[TimedPlan, ...]  # sorted by agent id
    cost: float
    makespan: float
    stats: SolveStats


@dataclass(frozen=True)
class SolveResult:
    status: str  # one of SOLVED, NO_SOLUTION, LIMIT_EXCEEDED
    solution: Optional[Solution]
    stats: SolveStats
    detail: str = ""


@dataclass(frozen=True)
class CTNode:
    constraints: dict[int, tuple[Constraint, ...]]  # per agent
    tables: dict[int, SafeIntervalTable]
    plans: dict[int, TimedPlan]
    cost: float
    n_constraints: int


def _is_parked(action: LinearMotion, plan: TimedPlan) -> bool:
    return action.is_wait and action.t0 >= plan.end_time - 1e-12


def _side_constraint(
    agent: int,
    action: LinearMotion,
    other: LinearMotion,
    other_parked: bool,
    body_a: CylinderBody,
    body_b: CylinderBody,
    world: GridWorld,
) -> Constraint:
    if action.is_wait:
        v = action.p0
        cell = world.cell_at(v)
        wait_action = MoveAction(cell, cell, 1.0)
        if other.is_wait:
            # static vs static: the vertex is unsafe exactly while the other sits there
            hi = math.inf if other_parked else other.t1
            return Constraint(agent, wait_action, Interval(other.t0, hi))
        probe = LinearMotion(v, v, other.t0, other.t1)
        window = cylinder_unsafe_interval(probe, other, body_a, body_b)
        if window is None:  # pragma: no cover - the conflict guarantees a window
            raise RuntimeError("conflict without an occupancy window")
        return Constraint(agent, wait_action, window)

    t0 = action.t0
    move = MoveAction(world.cell_at(action.p0), world.cell_at(action.p1), action.duration)
    if other_parked:
        # delaying the move only deepens the overlap with a permanent suffix
        return Constraint(agent, move, Interval(t0, math.inf))
    delay = move_clear_delay(
        action, other, body_a.radius + body_b.radius, 0.5 * (body_a.height + body_b.height), _BISECT_TOL
    )
    return Constraint(agent, move, Interval(t0, t0 + delay))


def branch(
    conflict: Conflict,
    world: GridWorld,
    plans: Mapping[int, TimedPlan],
    bodies: Mapping[int, CylinderBody],
) -> tuple[Constraint, Constraint]:
    """Two complementary constraints, one per conflicting agent."""
    body_i = bodies[conflict.agent_i]
    body_j = bodies[conflict.agent_j]
    parked_i = _is_parked(conflict.action_i, plans[conflict.agent_i])
    parked_j = _is_parked(conflict.action_j, plans[conflict.agent_j])
    c_i = _side_constraint(conflict.agent_i, conflict.action_i, conflict.action_j, parked_j, body_i, body_j, world)
    c_j = _side_constraint(conflict.agent_j, conflict.action_j, conflict.action_i, parked_i, body_j, body_i, world)
    return c_i, c_j


def _static_overlap(pa, pb, body_a: CylinderBody, body_b: CylinderBody) -> bool:
    planar = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
    return planar < body_a.radius + body_b.radius and abs(pa[2] - pb[2]) < 0.5 * (body_a.height + body_b.height)


def ccbs_solve(
    world: GridWorld,
    agents: Iterable[AgentSpec],
    limits: SolveLimits = SolveLimits(),
) -> SolveResult:
    """Sum-of-costs-minimal conflict-free plans, or a distinct failure result."""
    agent_list = sorted(agents, key=lambda a: a.id)
    by_id = {a.id: a for a in agent_list}
    bodies = {a.id: a.body for a in agent_list}
    stats = SolveStats()
    started = time.perf_counter()

    # permanent conflicts no branching can fix
    for x in range(len(agent_list)):
        for y in range(x + 1, len(agent_list)):
            a, b = agent_list[x], agent_list[y]
            if _static_overlap(world.center(a.start), world.center(b.start), a.body, b.body):
                stats.wall_time = time.perf_counter() - started
                return SolveResult(NO_SOLUTION, None, stats,
                                   f"agents {a.id} and {b.id} start with overlapping bodies")
            if _static_overlap(world.center(a.goal), world.center(b.goal), a.body, b.body):
                stats.wall_time = time.perf_counter() - started
                return SolveResult(NO_SOLUTION, None, stats,
                                   f"agents {a.id} and {b.id} have goals with overlapping bodies")

    root_plans: dict[int, TimedPlan] = {}
    for a in agent_list:
        p = sipp_plan(world, a, ())
        if p is None:
            stats.wall_time = time.perf_counter() - started
            return SolveResult(NO_SOLUTION, None, stats, f"agent {a.id} cannot reach its goal")
        root_plans[a.id] = p

    seq = itertools.count()
    root = CTNode(
        {a.id: () for a in agent_list},
        {a.id: build_safe_intervals((), a.id) for a in agent_list},
        root_plans,
        sum(p.end_time for p in root_plans.values()),
        0,
    )
    stats.generated = 1
    heap: list[tuple[float, int, int, CTNode]] = [(root.cost, 0, next(seq), root)]

    while heap:
        stats.wall_time = time.perf_counter() - started
        if stats.wall_time > limits.max_wall_time:
            return SolveResult(LIMIT_EXCEEDED, None, stats, "wall-time limit reached")
        _, _, _, node = heapq.heappop(heap)
        conflict = first_conflict(node.plans.values(), bodies)
        if conflict is None:
            stats.wall_time = time.perf_counter() - started
            makespan = max(p.end_time for p in node.plans.values())
            ordered = tuple(node.plans[a] for a in sorted(node.plans))
            return SolveResult(SOLVED, Solution(ordered, node.cost, makespan, stats), stats)
        if stats.expansions >= limits.max_expansions:
            return SolveResult(LIMIT_EXCEEDED, None, stats, "expansion limit reached")
        stats.expansions += 1
        for c in branch(conflict, world, node.plans, bodies):
            spec = by_id[c.agent]
            agent_constraints = node.constraints[c.agent] + (c,)
            table = node.tables[c.agent].adding(c)
            newp = sipp_plan(world, spec, agent_constraints, table=table)
            if newp is None:
                continue
            child_constraints = dict(node.constraints)
            child_constraints[c.agent] = agent_constraints
            child_tables = dict(node.tables)
            child_tables[c.agent] = table
            child_plans = dict(node.plans)
            child_plans[c.agent] = newp
            cost = sum(p.end_time for p in child_plans.values())
            child = CTNode(child_constraints, child_tables, child_plans, cost, node.n_constraints + 1)
            heapq.heappush(heap, (cost, child.n_constraints, next(seq), child))
            stats.generated += 1

    stats.wall_time = time.perf_counter() - started
    return SolveResult(NO_SOLUTION, None, stats, "conflict tree exhausted")
