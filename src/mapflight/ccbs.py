"""Continuous-time conflict-based search: best-first conflict tree over SIPP plans.

Branching follows the complementary-constraint rule: the move side of a
conflict is forbidden from departing inside [t0, t_safe) computed against the
other action as originally timed; the wait side is forbidden from occupying
its vertex during the window in which the other action passes through it.

Each expansion branches on a prioritised conflict: a cardinal one (both
children cost more or have no plan) first, then a semi-cardinal one (exactly
one child does), then the earliest. The node's conflicts are classified in
earliest-conflict order, stopping at the first cardinal one.

Each node keeps a table of its conflicting agent pairs, so a child re-tests
only the pairs of the agent it replans. A child that costs no more and has
fewer conflicting pairs than its node is adopted in place of branching
(bypass), which keeps the solution optimal. Sibling subtrees share their
parents' tables and classify the same conflicts again, so each solve keeps
its branches by conflict and its replans by (parent table, constraint), and
derives each distinct one once.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .geometry3d import (
    Conflict,
    CylinderBody,
    LinearMotion,
    _contact,
    _pair_earliest,
    cylinder_unsafe_interval,
    move_clear_delay,
)
from .plan import TimedPlan
from .sipp import Constraint, SafeIntervalTable, sipp_plan
from .world import AgentSpec, GridWorld

SOLVED = "solved"
NO_SOLUTION = "no-solution"
LIMIT_EXCEEDED = "limit-exceeded"


@dataclass(frozen=True)
class SolveLimits:
    max_wall_time: float = 60.0  # s; inf for none
    max_expansions: int = 200_000

    def __post_init__(self) -> None:
        w = self.max_wall_time
        # `not w >= 0` also rejects NaN, which would switch the wall check off
        if isinstance(w, bool) or not isinstance(w, (int, float)) or not w >= 0.0:
            raise ValueError(f"max_wall_time must be a number >= 0, got {w!r}")
        e = self.max_expansions
        if isinstance(e, bool) or not isinstance(e, int) or e < 0:
            raise ValueError(f"max_expansions must be an integer >= 0, got {e!r}")


@dataclass
class SolveStats:
    """Work counters of one solve.

    expansions: conflicts resolved, whether the result was pushed as
        children or adopted in place by a bypass; this is what
        `SolveLimits.max_expansions` bounds.
    cardinal, semi_cardinal: expansions whose conflict was cardinal (both
        children cost more than the node or have no plan) or semi-cardinal
        (exactly one does); the rest resolved the node's earliest conflict.
    generated: conflict-tree nodes pushed on the open list, the root included;
        a child adopted by a bypass is not pushed and not counted.
    bypasses: conflicts resolved in place by adopting a child's plan.
    replans: `sipp_plan` calls made, the root plans and the replans that
        classify a conflict included.
    replans_reused: classified children whose (parent table, constraint) was
        replanned before in this solve, so they reuse that table and plan
        instead; a branched-on conflict reuses its classified children.
    branches_reused: classified conflicts whose constraints were derived
        before in this solve; classifications minus this is the number of
        `branch` calls.
    lower_bound: at LIMIT_EXCEEDED, a proven lower bound on the optimal
        sum of costs: the cost of the node being expanded at the expansion
        limit, the smallest key on the open list at the wall limit; else None.
    peak_open: the largest size the open list reached.
    sipp_s, detect_s, branch_s: seconds spent in `sipp_plan`, in the pair
        scans (`conflict_table`, `replanned_table`) and in `branch`; each is
        part of wall_time.
    """

    expansions: int = 0
    cardinal: int = 0
    semi_cardinal: int = 0
    generated: int = 0
    bypasses: int = 0
    replans: int = 0
    replans_reused: int = 0
    branches_reused: int = 0
    lower_bound: Optional[float] = None
    wall_time: float = 0.0
    peak_open: int = 0
    sipp_s: float = 0.0
    detect_s: float = 0.0
    branch_s: float = 0.0


@dataclass(frozen=True)
class Solution:
    plans: tuple[TimedPlan, ...]  # sorted by agent id
    cost: float
    makespan: float


@dataclass(frozen=True)
class SolveResult:
    status: str  # one of SOLVED, NO_SOLUTION, LIMIT_EXCEEDED
    solution: Optional[Solution]
    stats: SolveStats
    detail: str = ""


# (agent_i, agent_j) with agent_i < agent_j -> earliest conflict, for the conflicting pairs only
ConflictTable = dict[tuple[int, int], Conflict]


@dataclass(frozen=True)
class CTNode:
    tables: dict[int, SafeIntervalTable]
    plans: dict[int, TimedPlan]
    conflicts: ConflictTable
    cost: float
    n_constraints: int


def conflict_table(plans: Mapping[int, TimedPlan], bodies: Mapping[int, CylinderBody]) -> ConflictTable:
    """Every conflicting pair of a joint plan, by one full pair scan."""
    ids = sorted(plans)
    table: ConflictTable = {}
    for x, i in enumerate(ids):
        for j in ids[x + 1:]:
            found = _pair_earliest(plans[i], plans[j], bodies[i], bodies[j])
            if found is not None:
                table[(i, j)] = found
    return table


def replanned_table(
    table: ConflictTable,
    plans: Mapping[int, TimedPlan],
    agent: int,
    bodies: Mapping[int, CylinderBody],
) -> ConflictTable:
    """`table` after `agent` switched to plans[agent]: only its n - 1 pairs are re-tested."""
    out = {pair: found for pair, found in table.items() if agent not in pair}
    for other in plans:
        if other == agent:
            continue
        i, j = (agent, other) if agent < other else (other, agent)
        found = _pair_earliest(plans[i], plans[j], bodies[i], bodies[j])
        if found is not None:
            out[(i, j)] = found
    return out


def _earliest_key(c: Conflict) -> tuple[float, int, int, float, float]:
    return (c.unsafe[0], c.agent_i, c.agent_j, c.action_i.t0, c.action_j.t0)


def _side_constraint(
    agent: int,
    action: LinearMotion,
    other: LinearMotion,
    body_a: CylinderBody,
    body_b: CylinderBody,
    world: GridWorld,
) -> Constraint:
    src, dst = world.cell_at(action.p0), world.cell_at(action.p1)
    if action.is_wait:
        if other.is_wait:
            # static vs static: the vertex is unsafe exactly while the other sits there
            return Constraint(agent, src, dst, (other.t0, other.t1))
        probe = LinearMotion(action.p0, action.p0, other.t0, other.t1)
        return Constraint(agent, src, dst, cylinder_unsafe_interval(probe, other, body_a, body_b))

    # against an agent parked for good the delay is inf: the move is banned from t0 on
    delay = move_clear_delay(action, other, body_a, body_b)
    return Constraint(agent, src, dst, (action.t0, action.t0 + delay))


def branch(
    conflict: Conflict,
    world: GridWorld,
    bodies: Mapping[int, CylinderBody],
) -> tuple[Constraint, Constraint]:
    """Two complementary constraints, one per conflicting agent."""
    body_i = bodies[conflict.agent_i]
    body_j = bodies[conflict.agent_j]
    a_i, a_j = conflict.action_i, conflict.action_j
    c_i = _side_constraint(conflict.agent_i, a_i, a_j, body_i, body_j, world)
    c_j = _side_constraint(conflict.agent_j, a_j, a_i, body_j, body_i, world)
    return c_i, c_j


def _sum_of_costs(plans: Mapping[int, TimedPlan]) -> float:
    # From Python 3.12 on, sum() of floats is compensated; a plain left-to-right
    # sum keeps node costs, and so heap ties, the same on every supported Python.
    return functools.reduce(operator.add, (p.end_time for p in plans.values()), 0.0)


def _static_overlap(pa, pb, body_a: CylinderBody, body_b: CylinderBody) -> bool:
    dp = (pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2])
    r_sum = body_a.radius + body_b.radius
    return _contact(dp, (0.0, 0.0, 0.0), 1.0, r_sum, 0.5 * (body_a.height + body_b.height)) is not None


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
    clock = time.perf_counter
    started = clock()

    # permanent conflicts no branching can fix
    for a, b in itertools.combinations(agent_list, 2):
        for label, cell_a, cell_b in (("start with", a.start, b.start), ("have goals with", a.goal, b.goal)):
            if _static_overlap(world.center(cell_a), world.center(cell_b), a.body, b.body):
                stats.wall_time = clock() - started
                return SolveResult(NO_SOLUTION, None, stats,
                                   f"agents {a.id} and {b.id} {label} overlapping bodies")

    root_tables = {a.id: SafeIntervalTable({}, {}) for a in agent_list}
    root_plans: dict[int, TimedPlan] = {}
    for a in agent_list:
        t = clock()
        p = sipp_plan(world, a, root_tables[a.id])
        stats.sipp_s += clock() - t
        stats.replans += 1
        if p is None:
            stats.wall_time = clock() - started
            return SolveResult(NO_SOLUTION, None, stats, f"agent {a.id} cannot reach its goal")
        root_plans[a.id] = p

    seq = itertools.count()
    t = clock()
    root_conflicts = conflict_table(root_plans, bodies)
    stats.detect_s += clock() - t
    root = CTNode(root_tables, root_plans, root_conflicts, _sum_of_costs(root_plans), 0)
    stats.generated = 1
    stats.peak_open = 1
    heap: list[tuple[float, int, int, CTNode]] = [(root.cost, 0, next(seq), root)]
    # (parent table, constraint) -> (new table, plan); sipp_plan is pure, so
    # a repeated replan is looked up, not rerun
    replans: dict[tuple[SafeIntervalTable, Constraint], tuple[SafeIntervalTable, Optional[TimedPlan]]] = {}
    # conflict -> its two constraints; branch is pure, and the world and
    # bodies are fixed for the solve
    branches: dict[Conflict, tuple[Constraint, Constraint]] = {}

    def at_limit(what: str, bound: float) -> SolveResult:
        stats.lower_bound = bound
        stats.wall_time = clock() - started
        return SolveResult(LIMIT_EXCEEDED, None, stats, f"{what} limit reached; cost lower bound {bound!r}")

    def constraints_of(conflict: Conflict) -> tuple[Constraint, Constraint]:
        constraints = branches.get(conflict)
        if constraints is None:
            t = clock()
            constraints = branches[conflict] = branch(conflict, world, bodies)
            stats.branch_s += clock() - t
        else:
            stats.branches_reused += 1
        return constraints

    def replanned(parent: SafeIntervalTable, c: Constraint) -> tuple[SafeIntervalTable, Optional[TimedPlan]]:
        cached = replans.get((parent, c))
        if cached is not None:
            stats.replans_reused += 1
            return cached
        table = parent.adding(c)
        t = clock()
        newp = sipp_plan(world, by_id[c.agent], table)
        stats.sipp_s += clock() - t
        replans[(parent, c)] = table, newp
        stats.replans += 1
        return table, newp

    while heap:
        stats.wall_time = clock() - started
        if stats.wall_time > limits.max_wall_time:
            return at_limit("wall-time", heap[0][0])
        _, _, _, node = heapq.heappop(heap)
        plans, conflicts = node.plans, node.conflicts
        children: list[CTNode] = []
        while conflicts:
            if stats.expansions >= limits.max_expansions:
                return at_limit("expansion", node.cost)
            stats.expansions += 1
            # classify in earliest order: the rank is how many children cost
            # more than the node or have no plan (2 cardinal, 1 semi-cardinal);
            # keep the first conflict of the highest rank, and stop at rank 2
            rank, sides = -1, []
            for conflict in sorted(conflicts.values(), key=_earliest_key):
                classified = [(c, *replanned(node.tables[c.agent], c)) for c in constraints_of(conflict)]
                r = sum(newp is None or newp.end_time > plans[c.agent].end_time for c, _, newp in classified)
                if r > rank:
                    rank, sides = r, classified
                    if r == 2:
                        break
            if rank == 2:
                stats.cardinal += 1
            elif rank == 1:
                stats.semi_cardinal += 1
            children, bypass = [], None
            for c, table, newp in sides:
                if newp is None:
                    continue
                child_plans = dict(plans)
                child_plans[c.agent] = newp
                t = clock()
                child_conflicts = replanned_table(conflicts, child_plans, c.agent, bodies)
                stats.detect_s += clock() - t
                if newp.end_time <= plans[c.agent].end_time and len(child_conflicts) < len(conflicts):
                    # bypass: the child costs no more and conflicts less, and its plan
                    # satisfies every constraint of this node, so adopt it in place
                    bypass = (child_plans, child_conflicts)
                    break
                child_tables = dict(node.tables)
                child_tables[c.agent] = table
                cost = _sum_of_costs(child_plans)
                children.append(CTNode(child_tables, child_plans, child_conflicts, cost, node.n_constraints + 1))
            if bypass is None:
                break
            plans, conflicts = bypass
            stats.bypasses += 1
        if not conflicts:
            stats.wall_time = clock() - started
            cost = _sum_of_costs(plans)
            makespan = max(p.end_time for p in plans.values())
            ordered = tuple(plans[a] for a in sorted(plans))
            return SolveResult(SOLVED, Solution(ordered, cost, makespan), stats)
        for child in children:
            heapq.heappush(heap, (child.cost, child.n_constraints, next(seq), child))
            stats.generated += 1
        stats.peak_open = max(stats.peak_open, len(heap))

    stats.wall_time = clock() - started
    return SolveResult(NO_SOLUTION, None, stats, "conflict tree exhausted")
